"""The machine's speed, read from two fixed pure-Python kernels.

On a shared VM the CPU runs at speeds up to about 1.7x apart, and one speed
can last from a second to longer than a whole run, so raw times from two
runs of the same code can differ by more than any useful bound. Each run
therefore brackets its measured calls with short bursts of two kernels that
never touch comorph, so no change to the program under test changes their
time:

- ``_loop``, the interpreter kernel: the same kind of work as most of
  comorph (calls, closures, tuples, frozensets, dict look-ups, string
  slicing);
- ``_copies``, the memory kernel: splitting and rejoining a long tuple of
  distinct objects, as the zipper does when it refocuses a long sequence.
  It slows much less than the interpreter kernel when the machine does.

A kernel's time against its reference time is the machine's speed for that
kind of work at that moment, and timings are scaled by it to what they would
read at the reference speed. Busy time is scaled per segment of about
``SEGMENT_S`` by bursts of both kernels; each latency sample is scaled by
short probes of the interpreter kernel run right around its call. The reference is the 2-core Intel Xeon VM the
benchmark was written on, Python 3.11.7, in its faster state; the
``REF_*_S`` constants are the median burst times there. Run this module to
print the burst times of the machine it runs on:

    python3 perfbench/speed.py
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter

LOOP_N = 800
REF_INTERP_S = 0.0034
# Memory kernel: copies of a tuple of MEMORY_LEN distinct objects, split and
# rejoined at MEMORY_CUTS points, as the zipper refocuses a long sequence.
MEMORY_LEN = 3000
MEMORY_CUTS = 150
REF_MEMORY_S = 0.0030
# A segment of measured calls closes, and a burst runs, this often.
SEGMENT_S = 0.1
# Iterations of the interpreter kernel in a probe run right before and right
# after each timed call, about 50 µs at the reference speed.
PROBE_N = 12

_WORDS = ("kissa", "kala", "talo", "kynä", "kaappi", "kampa", "lintu", "pöytä")
_OBJECTS = tuple(frozenset((i, -i)) for i in range(MEMORY_LEN))


def _loop(n: int) -> int:
    table: dict[str, int] = {}
    acc = 0
    for i in range(n):
        word = _WORDS[i % 8]

        def step(j, _w=word):
            return _w[j:] + _w[:j]

        parts = tuple(step(j) for j in range(len(word)))
        key = frozenset((p[0], len(p)) for p in parts)
        table[parts[i % len(parts)]] = table.get(parts[0], 0) + len(key)
        acc += sum(1 for p in parts if p > word) + len("".join(sorted(parts))[::3])
    return acc + len(table)


def _copies(seq: tuple) -> int:
    step = len(seq) // MEMORY_CUTS
    acc = 0
    for i in range(0, len(seq), step):
        acc += len(seq[:i] + seq[i:])
    return acc


def probe() -> float:
    """Interpreter speed now, from a few iterations of the kernel.

    In some periods the machine switches between its speeds every few
    milliseconds, far faster than segments; a probe on each side of a call
    tells at which speed that one call ran.
    """
    t0 = clock()
    _loop(PROBE_N)
    return REF_INTERP_S * PROBE_N / LOOP_N / (clock() - t0)


def burst() -> tuple[float, float]:
    """Seconds one burst of each kernel takes now: (interpreter, memory)."""
    t0 = clock()
    _loop(LOOP_N)
    t1 = clock()
    _copies(_OBJECTS)
    return t1 - t0, clock() - t1


class Speedometer:
    """Speed of the machine over segments of a run, 1.0 at the reference.

    ``read`` runs a burst and returns the (interpreter, memory) speeds over
    the segment since the previous read: for each kernel, the mean of the
    speeds the bursts at the segment's two ends saw.
    """

    def __init__(self) -> None:
        self._last: tuple[float, float] | None = None
        self._due = 0.0
        self.speeds: list[float] = []

    def due(self) -> bool:
        return clock() >= self._due

    def read(self) -> tuple[float, float]:
        interp, memory = burst()
        now = (REF_INTERP_S / interp, REF_MEMORY_S / memory)
        before = now if self._last is None else self._last
        self._last = now
        self._due = clock() + SEGMENT_S
        speed = ((before[0] + now[0]) / 2, (before[1] + now[1]) / 2)
        self.speeds.append(speed[0])
        return speed

    def median(self) -> float:
        """Median interpreter speed over the segments read so far."""
        return statistics.median(self.speeds)


if __name__ == "__main__":
    bursts = [burst() for _ in range(300)]
    for name, times in zip(("interpreter", "memory"), zip(*bursts)):
        q = statistics.quantiles(times, n=20)
        print(f"{name} burst s: p5 {q[0]:.6f}  p50 {statistics.median(times):.6f}  p95 {q[-1]:.6f}")
