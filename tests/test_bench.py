from __future__ import annotations

import re
import statistics
import time

from comorph import bench
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
