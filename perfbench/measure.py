"""Latency histogram and in-memory span tracer.

Both keep memory bounded however many operations a run completes, so that
peak RSS measures the program and its inputs, not the benchmark's records.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

clock = time.perf_counter

_BASE_US = 0.05
_STEP = math.log(1.005)


class LatencyHistogram:
    """Log-spaced buckets 0.5% wide; quantiles interpolate inside a bucket."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = defaultdict(int)
        self.n = 0

    def add(self, us: float, weight: int = 1) -> None:
        idx = int(math.log(us / _BASE_US) / _STEP) if us > _BASE_US else 0
        self.counts[idx] += weight
        self.n += weight

    def quantile(self, q: float) -> float:
        """Value in µs below which a share ``q`` of the samples lie."""
        rank = q * self.n
        seen = 0
        for idx in sorted(self.counts):
            c = self.counts[idx]
            if seen + c >= rank:
                lo = _BASE_US * math.exp(idx * _STEP)
                hi = lo * math.exp(_STEP)
                return lo + (hi - lo) * (rank - seen) / c
            seen += c
        raise ValueError("empty histogram")


class Tracer:
    """Spans (name, start, end, parent, op id) recorded around layer calls.

    Spans of one op are folded into per-name totals when the op ends; the
    first ``keep_ops`` ops keep their raw spans for writing out at the end.
    Self time is a span's duration minus the time its child spans cover;
    children of one parent never overlap because the run is single-threaded.
    """

    def __init__(self, keep_ops: int = 200) -> None:
        self.keep_ops = keep_ops
        self.kept: list[tuple[int, int, str, float, float, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._spans: list[list] = []
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []

    def start(self, name: str, items: int = 0) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self._spans))
        self._spans.append([name, clock(), 0.0, parent, items])

    def stop(self) -> float:
        span = self._spans[self._stack.pop()]
        span[2] = clock()
        return span[2] - span[1]

    def end_op(self) -> None:
        """Fold the op's spans into the totals."""
        child = [0.0] * len(self._spans)
        for name, t0, t1, parent, items in self._spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, items) in enumerate(self._spans):
            d = t1 - t0
            self.total[name] += d
            self.self_time[name] += d - child[i]
            self.calls[name] += 1
            self.items[name] += items
        if self.ops < self.keep_ops:
            self.kept.extend(
                (self.ops, i, s[0], s[1], s[2], s[3]) for i, s in enumerate(self._spans)
            )
        self.ops += 1

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def us_per_item(self, name: str) -> float:
        return self.total[name] * 1e6 / self.items[name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tname\tstart_s\tend_s\tparent\n")
            for op, span, name, t0, t1, parent in self.kept:
                fh.write(f"{op}\t{span}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
