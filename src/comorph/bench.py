"""Per-rule latency microbenchmarks.

Each component row times one operation per iteration over a fixed word (or
sentence) list; avg rows report the mean and spread across the per-input
means. Timings are wall-clock and hardware specific, meant for relative
comparison only.
"""

import os
import statistics
import time
from collections import namedtuple
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .cg import ReadingSet, TagIndex, parse_readings, parse_rules, run_cg
from .gradation import PATTERNS, Grade, weaken
from .pipeline import run_pipeline
from .vowels import harmony_arrow, possessive_arrow
from .zipper import extend, from_sequence

HARMONY_WORDS = ("talossA", "kynässA", "pöydässA", "tiessA")
POSSESSIVE_WORDS = ("kammastaVn", "kengästäVn", "taloVn")
PIPELINE_WORDS = ("kampAstAVn", "rantAssA", "pukussA", "kenkästAVn")


def demo_sentence() -> list[ReadingSet]:
    """The three-token sentence, parsed as ``comorph cg`` parses a readings file."""
    [sentence] = parse_readings(
        "koira\tnoun:koira\n"
        "tuuli\tnoun:tuuli;verb:tuulla;adj:tuuli;adv:tuuli\n"
        "kasvaa\tverb:kasvaa\n"
    )
    return sentence


def demo_rules():
    """The three-rule cascade, parsed as ``comorph cg`` parses a rule file."""
    return parse_rules(
        "REMOVE POS=adj IF (NOT -1 POS=num)\n"
        "REMOVE POS=adv IF (-1 POS=noun)\n"
        "SELECT POS=verb IF (+1 POS=verb)\n"
    )


BenchRow = namedtuple("BenchRow", ("label", "mean_us", "std_us"))


@contextmanager
def pinned_to_one_core() -> Iterator[None]:
    """Run the body on one core, then restore the process's old affinity.

    Best effort; keeps a long run from migrating between cores.
    """
    try:
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})
    except (AttributeError, OSError):
        cores = None
    try:
        yield
    finally:
        if cores is not None:
            os.sched_setaffinity(0, cores)


def _time_op(op: Callable[[], object], iterations: int) -> tuple[float, float]:
    clock = time.perf_counter_ns
    samples = []
    for _ in range(iterations):
        t0 = clock()
        op()
        samples.append(clock() - t0)
    mean = statistics.fmean(samples) / 1000.0
    std = statistics.pstdev(samples) / 1000.0
    return mean, std


def _avg_row(label: str, ops: list[Callable[[], object]], iterations: int) -> BenchRow:
    means = [_time_op(op, iterations)[0] for op in ops]
    spread = statistics.pstdev(means) if len(means) > 1 else 0.0
    return BenchRow(label, statistics.fmean(means), spread)


def run_benchmarks(iterations: int = 10_000) -> list[BenchRow]:
    """Time every component with ``iterations`` iterations each."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    grad_ops = [
        (lambda w=strong: weaken(w)) for strong, _ in (p.example for p in PATTERNS)
    ]
    harmony_ops = [
        (lambda w=w: extend(from_sequence(w, 0), harmony_arrow)) for w in HARMONY_WORDS
    ]
    poss_ops = [
        (lambda w=w: extend(from_sequence(w, 0), possessive_arrow))
        for w in POSSESSIVE_WORDS
    ]
    pipe_ops = [
        (lambda w=w: run_pipeline(w, Grade.WEAK)) for w in PIPELINE_WORDS
    ]

    sentence = demo_sentence()
    rules = demo_rules()
    zipped = from_sequence(tuple(sentence), 0)
    # One rule's pass exactly as run_cg runs it, over the tokens its target and
    # condition can reach; run_cg builds the index once per sentence.
    index = TagIndex(zipped.cells)
    single_rule_ops = [
        (lambda r=rule: extend(zipped, r.arrow, r.reach(index, zipped.cells))) for rule in rules
    ]

    rows = [
        _avg_row(f"gradation (avg/{len(grad_ops)})", grad_ops, iterations),
        _avg_row(f"harmony (avg/{len(harmony_ops)})", harmony_ops, iterations),
        _avg_row(f"possessive (avg/{len(poss_ops)})", poss_ops, iterations),
        _avg_row(f"full pipeline (avg/{len(pipe_ops)})", pipe_ops, iterations),
        _avg_row(f"single CG rule (avg/{len(single_rule_ops)})", single_rule_ops, iterations),
    ]
    mean, std = _time_op(lambda: run_cg(sentence, rules), iterations)
    rows.append(BenchRow(f"full CG ({len(rules)} rules)", mean, std))
    return rows


def format_table(rows: list[BenchRow]) -> str:
    width = max(len(r.label) for r in rows)
    header = f"{'component'.ljust(width)}  {'mean (µs)':>10}  {'std (µs)':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.label.ljust(width)}  {r.mean_us:>10.2f}  {r.std_us:>10.2f}")
    return "\n".join(lines)
