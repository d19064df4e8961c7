"""Set-up time: import comorph, parse the rules, make the first call.

Each round runs ``setup_child.py`` in a fresh interpreter, so every round
imports comorph and the standard-library modules it needs cold and compiles
its regular expressions anew; the child times itself from just before the
import, so interpreter start-up is left out, and then runs speed bursts, so
that each round's time is scaled to the reference speed like every other
timing (``speed.py``). The first round runs before anything else; the
others are spread over the measured run, at batch boundaries, because the
machine's speed drifts over seconds and rounds made back to back would all
see the same phase. Inputs for the first call are plain data built from the
seed.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from pathlib import Path

import inputs as inp
import speed
from measure import clock

ROUNDS = 15
# Memory-bound share of a round's time (see workloads.Tally.op): reading
# module files and unmarshalling code objects slow less than the interpreter
# kernel when the machine does.
MEMORY = 0.3
CHILD = Path(__file__).resolve().parent / "setup_child.py"


def _first_call_args(workload: str, seed: int) -> list[str]:
    """Rules text ("" when the workload has none), then the first call's inputs."""
    rng = random.Random(f"{workload}-setup:{seed}")
    vocab = inp.Vocabulary(rng, size=50)
    if workload == "paradigms":
        return ["", inp.lemma(rng)]
    if workload == "length_sweep":
        sentence = inp.sentence_tsv(inp.sentence(rng, vocab, 3))
        return [inp.rules_text(inp.SWEEP_RULES), inp.chain_word(rng, 10), sentence]
    return [inp.rules_text(inp.random_rules(rng, vocab)), inp.sentence_tsv(inp.sentence(rng, vocab, 3))]


class SetupTimer:
    """Set-up rounds for one workload, spread over a run of ``seconds``."""

    def __init__(self, src: Path, workload: str, seed: int, seconds: float) -> None:
        self.argv = [sys.executable, str(CHILD), str(src), workload, *_first_call_args(workload, seed)]
        self.gap = seconds / ROUNDS
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self._due = 0.0

    def round(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up round failed:\n{proc.stderr}")
        elapsed, interp, memory = map(float, proc.stdout.split())
        self.raw_times.append(elapsed)
        s = (1 - MEMORY) * speed.REF_INTERP_S / interp + MEMORY * speed.REF_MEMORY_S / memory
        self.times.append(elapsed * s)
        self._due = clock() + self.gap

    def maybe_round(self) -> None:
        """Run a round if one is due; called between batches."""
        if len(self.times) < ROUNDS and clock() >= self._due:
            self.round()

    def median(self) -> float:
        return statistics.median(self.times)
