from __future__ import annotations

import re
import statistics
import time

from comorph import bench, cg
from comorph.gradation import PATTERNS, Grade
from comorph.pipeline import VOWEL_STAGE, Pipeline, gradation_pipeline, standard_pipeline


def test_each_row_reports_the_statistics_of_its_pooled_samples(monkeypatch):
    """Every input of a row is timed ``iterations`` times, the rows taking turns an
    iteration at a time, and each row pools its own samples."""
    ticks = []

    def clock() -> int:
        # Cubes: each sample is longer than the one before, so the mean, the
        # median and both standard deviations of any run of samples differ.
        ticks.append(len(ticks) ** 3)
        return ticks[-1]

    monkeypatch.setattr(time, "perf_counter_ns", clock)
    iterations = 3
    rows = bench.run_benchmarks(iterations=iterations)
    monkeypatch.undo()
    assert len(ticks) % 2 == 0
    samples = [end - begin for begin, end in zip(ticks[::2], ticks[1::2])]
    inputs = []
    for row in rows:
        found = re.search(r"\(avg/(\d+)\)", row.label)
        inputs.append(int(found.group(1)) if found else 1)
    pooled = [[] for _ in rows]
    for _ in range(iterations):
        for mine, count in zip(pooled, inputs):
            mine += samples[:count]
            samples = samples[count:]
    assert samples == []
    for row, mine, count in zip(rows, pooled, inputs):
        assert len(mine) == count * iterations
        assert row.mean_us == statistics.fmean(mine) / 1000.0
        assert row.std_us == statistics.pstdev(mine) / 1000.0
        assert row.median_us == statistics.median(mine) / 1000.0


def test_component_rows_run_one_stage_pipelines(monkeypatch):
    """Gradation, then the vowel stage on harmony words and on copy words, each time a
    one-stage pipeline; then the full one."""
    calls = []
    run = Pipeline.run

    def recording_run(self: Pipeline, word: str) -> str:
        calls.append((self.stages, word))
        return run(self, word)

    monkeypatch.setattr(Pipeline, "run", recording_run)
    bench.run_benchmarks(iterations=1)
    assert calls == [
        *((gradation_pipeline(Grade.WEAK).stages, w) for w, _ in (p.example for p in PATTERNS)),
        *(((VOWEL_STAGE,), w) for w in bench.HARMONY_WORDS),
        *(((VOWEL_STAGE,), w) for w in bench.POSSESSIVE_WORDS),
        *((standard_pipeline(Grade.WEAK).stages, w) for w in bench.PIPELINE_WORDS),
    ]


def test_the_single_cg_rule_row_runs_the_one_rule_pass_of_run_cg(monkeypatch):
    """Each demo rule's pass over the demo sentence, with one index built once, through
    the very function ``run_cg`` runs for each rule."""
    assert bench._rule_pass is cg._rule_pass
    calls = []
    rule_pass = cg._rule_pass

    def recording_pass(rule, index, cells):
        calls.append((rule, index, cells))
        return rule_pass(rule, index, cells)

    monkeypatch.setattr(bench, "_rule_pass", recording_pass)
    monkeypatch.setattr(cg, "_rule_pass", recording_pass)
    bench.run_benchmarks(iterations=1)
    rules, sentence = bench.demo_rules(), tuple(bench.demo_sentence())
    row, full = calls[: len(rules)], calls[len(rules) :]
    assert [(rule, cells) for rule, _, cells in row] == [(rule, sentence) for rule in rules]
    index = row[0][1]
    assert isinstance(index, cg.TagIndex) and index.cells == sentence
    assert all(i is index for _, i, _ in row)
    assert [rule for rule, _, _ in full] == rules  # the full CG row: run_cg, rule by rule
