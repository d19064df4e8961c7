"""Per-rule latency microbenchmarks.

Each row times calls the program makes: gradation (``weaken`` on the
``PATTERNS`` examples) and the vowel stage on harmony words and on copy words
are the one-stage pipelines ``comorph grad`` and ``comorph harmony`` run, the
full pipeline is ``run_pipeline``, a single CG rule is ``cg._rule_pass``, the
one-rule pass ``run_cg`` runs, and full CG is ``run_cg`` on the demo sentence.
Every input of a row is timed ``iterations`` times, the rows taking turns an
iteration at a time so that a drift in machine speed falls on all alike, and
each row reports the mean, population standard deviation and median of its
samples pooled; a few slow outliers (a collection, a preemption) do not move a
median as they do a mean. ``comorph bench`` prints all six rows, the four
criterion 9 reads and the two CG rows, timed by the same code with the
process's own CPU affinity. Timings are wall-clock and hardware specific,
meant for relative comparison only.
"""

import statistics
import time
from collections import namedtuple

from .cg import ReadingSet, TagIndex, _rule_pass, parse_readings, parse_rules, run_cg
from .gradation import PATTERNS, Grade
from .pipeline import VOWEL_STAGE, Pipeline, run_pipeline, weaken

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


BenchRow = namedtuple("BenchRow", ("label", "mean_us", "std_us", "median_us"))


def _row(label: str, samples: list[int]) -> BenchRow:
    mean, std = statistics.fmean(samples), statistics.pstdev(samples)
    return BenchRow(label, mean / 1000.0, std / 1000.0, statistics.median(samples) / 1000.0)


def run_benchmarks(iterations: int = 10_000) -> list[BenchRow]:
    """Time every component with ``iterations`` iterations of each input."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    vowels = Pipeline((VOWEL_STAGE,))
    sentence = demo_sentence()
    rules = demo_rules()
    # One rule's pass exactly as run_cg runs it, over the tokens its target and
    # condition can reach; run_cg builds the index once per sentence.
    cells = tuple(sentence)
    index = TagIndex(cells)
    ops = {
        "gradation": [(lambda w=strong: weaken(w)) for strong, _ in (p.example for p in PATTERNS)],
        "harmony": [(lambda w=w: vowels.run(w)) for w in HARMONY_WORDS],
        "possessive": [(lambda w=w: vowels.run(w)) for w in POSSESSIVE_WORDS],
        "full pipeline": [(lambda w=w: run_pipeline(w, Grade.WEAK)) for w in PIPELINE_WORDS],
        "single CG rule": [(lambda r=r: _rule_pass(r, index, cells)) for r in rules],
    }
    ops = {f"{name} (avg/{len(fs)})": fs for name, fs in ops.items()}
    ops[f"full CG ({len(rules)} rules)"] = [lambda: run_cg(sentence, rules)]
    clock = time.perf_counter_ns
    pooled: dict[str, list[int]] = {label: [] for label in ops}
    for _ in range(iterations):
        for label, fs in ops.items():
            samples = pooled[label]
            for op in fs:
                t0 = clock()
                op()
                samples.append(clock() - t0)
    return [_row(label, samples) for label, samples in pooled.items()]


def format_table(rows: list[BenchRow]) -> str:
    width = max(len(r.label) for r in rows)
    header = f"{'component'.ljust(width)}  {'mean (µs)':>10}  {'std (µs)':>10}  {'median (µs)'}"
    lines = [header, "-" * len(header)]
    for r in rows:
        label = r.label.ljust(width)
        lines.append(f"{label}  {r.mean_us:>10.2f}  {r.std_us:>10.2f}  {r.median_us:>11.2f}")
    return "\n".join(lines)
