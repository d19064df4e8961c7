"""Chaining local rules over one word with a single deletion sweep.

The standard run is gradation, then harmony, then possessive copy.
Gradation goes first because it may mark characters for deletion and the
vowel rules must see the context those marks describe; the order is
explicit here rather than baked into a merged automaton. Each stage is one
pass calling its rule only on its support, the cells its table can change
(the ``PATTERNS`` focus letters, ``A/O/U``, ``V``); deletions are applied
exactly once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .gradation import Grade, gradation_arrow, gradation_support
from .vowels import COPY_PLACEHOLDER, HARMONY_PLACEHOLDERS, harmony_arrow, possessive_arrow
from .writer import (
    EMPTY_DELETIONS,
    DeletionSet,
    Support,
    WriterArrow,
    WriterZipper,
    lift_pure,
    materialize,
    start,
    writer_extend,
)


def compose(f: WriterArrow, g: WriterArrow) -> WriterArrow:
    """Chain two deleting rules into one.

    Runs ``f`` over the whole word, then reads ``g`` at the focus of the
    result. The composite's deletion component carries everything
    accumulated so far; set union being idempotent, re-merging it later is
    harmless, and chaining stays associative.
    """

    def composed(wz: WriterZipper) -> tuple[DeletionSet, str]:
        stepped = writer_extend(f, wz)
        deletions, ch = g(stepped)
        return (stepped.log | deletions, ch)

    return composed


# (stage name, arrow, support); names appear in trace output.
Stage = tuple[str, WriterArrow, Support]

HARMONY_STAGE = ("harmony", lift_pure(harmony_arrow), frozenset(HARMONY_PLACEHOLDERS))
POSSESSIVE_STAGE = ("possessive", lift_pure(possessive_arrow), frozenset({COPY_PLACEHOLDER}))


def gradation_stage(grade: Grade) -> Stage:
    return ("gradation", gradation_arrow(grade), gradation_support(grade))


TRACE_INPUT = "input"
TRACE_MATERIALIZE = "materialize"


@dataclass(frozen=True)
class TraceRow:
    stage: str
    chars: str
    deletions: DeletionSet

    def render(self) -> str:
        marks = ",".join(str(i) for i in sorted(self.deletions))
        return f"{self.stage}\t{self.chars}\t{marks}"


@dataclass(frozen=True)
class Pipeline:
    """An ordered sequence of named stages, one supported pass each."""

    stages: tuple[Stage, ...]

    def run(self, word: str) -> str:
        wz = start(word)
        for _, arrow, support in self.stages:
            wz = writer_extend(arrow, wz, support)
        return materialize(wz)

    def trace(self, word: str) -> list[TraceRow]:
        """Per-stage snapshots: characters still at full length, plus the log."""
        wz = start(word)
        rows = [TraceRow(TRACE_INPUT, "".join(wz.cells), wz.log)]
        for name, arrow, support in self.stages:
            wz = writer_extend(arrow, wz, support)
            rows.append(TraceRow(name, "".join(wz.cells), wz.log))
        rows.append(TraceRow(TRACE_MATERIALIZE, materialize(wz), EMPTY_DELETIONS))
        return rows


@cache
def standard_pipeline(grade: Grade) -> Pipeline:
    """Gradation toward ``grade``, then harmony, then possessive copy.

    Built once per grade and shared; a pipeline is immutable.
    """
    return Pipeline((gradation_stage(grade), HARMONY_STAGE, POSSESSIVE_STAGE))


def run_pipeline(word: str, grade: Grade) -> str:
    """Surface form of ``word`` after the standard three stages."""
    return standard_pipeline(grade).run(word)
