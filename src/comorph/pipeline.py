"""Chaining local rules over one word with a single deletion sweep.

The standard run is gradation, then harmony, then possessive copy, an
order explicit here rather than baked into a merged automaton. Each stage
owns its support, the cells its table can change (the ``PATTERNS`` focus
letters, ``A/O/U``, ``V``), and a run is one pass sending each cell to its
owner: gradation rewrites only consonants, which the vowel rules never
read, and the copy reads a placeholder as harmony resolves it; a later stage
owns only ``PLACEHOLDERS``. Deletions are applied exactly once, at the end.
"""

from .gradation import Grade, _per_grade, gradation_stage
from .record import Record, _set
from .vowels import COPY_PLACEHOLDER, HARMONY_PLACEHOLDERS, PLACEHOLDERS
from .vowels import harmony_arrow, possessive_arrow
from .writer import (
    EMPTY_DELETIONS,
    DeletionSet,
    WriterArrow,
    WriterZipper,
    lift_pure,
    materialize,
    start,
    table_extend,
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


# (stage name, arrow, support: the cells it may change); names appear in trace output.
Stage = tuple[str, WriterArrow, frozenset[str]]

HARMONY_STAGE = ("harmony", lift_pure(harmony_arrow), frozenset(HARMONY_PLACEHOLDERS))
POSSESSIVE_STAGE = ("possessive", lift_pure(possessive_arrow), frozenset({COPY_PLACEHOLDER}))


TRACE_INPUT = "input"
TRACE_MATERIALIZE = "materialize"


class TraceRow(Record):
    __slots__ = ("stage", "chars", "deletions")

    def __init__(self, stage: str, chars: str, deletions: DeletionSet) -> None:
        super().__init__(stage, chars, deletions)

    def render(self) -> str:
        marks = ",".join(str(i) for i in sorted(self.deletions))
        return f"{self.stage}\t{self.chars}\t{marks}"


class _Tables(Record):
    __slots__ = ("_tables",)  # one table per stage prefix: a slot, not a field


class Pipeline(_Tables):
    """Named stages in order; the only driver of word passes.

    Built once: ``tables[k]`` sends each cell to the one of the first k stages
    whose support holds it. ``run`` is one pass with the full table, and
    ``trace`` row k the pass with ``tables[k]``. One pass equals the staged
    passes when no stage writes what a later one reads, as on the package's
    stages. The constructor checks what supports show: sets, disjoint, only
    placeholders (``A/O/U/V``) after the first stage; else ``ValueError``.
    """

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        super().__init__(stages)
        table: dict[str, WriterArrow] = {}
        tables = [table]
        for k, (name, arrow, support) in enumerate(stages):
            if support is None:
                raise ValueError(f"stage {name!r} of {len(stages)} has no support")
            if k and not support.issubset(PLACEHOLDERS):
                raise ValueError(f"stage {name!r} follows the first but owns more than A/O/U/V")
            if not table.keys().isdisjoint(support):
                first = next(n for n, _, s in stages if not s.isdisjoint(support))
                raise ValueError(f"stages {first!r} and {name!r} own a cell in common")
            table = {**table, **dict.fromkeys(support, arrow)}
            tables.append(table)
        _set(self, "_tables", tuple(tables))

    def run(self, word: str) -> str:
        return materialize(table_extend(self._tables[-1], start(word)))

    def trace(self, word: str) -> list[TraceRow]:
        """Row k: the first k stages' pass, characters still at full length, plus the log."""
        wz = start(word)
        done = table_extend(self._tables[-1], wz)  # run's pass first: trace raises what run raises
        passes = [table_extend(t, wz) for t in self._tables[:-1]] + [done]
        names = [TRACE_INPUT, *[name for name, _, _ in self.stages]]
        rows = [TraceRow(n, "".join(p.cells), p.log) for n, p in zip(names, passes)]
        rows.append(TraceRow(TRACE_MATERIALIZE, materialize(done), EMPTY_DELETIONS))
        return rows


@_per_grade
def standard_pipeline(grade: Grade) -> Pipeline:
    """Gradation toward ``grade``, then harmony, then possessive copy.

    Built once per grade and shared; a pipeline is immutable.
    """
    return Pipeline((gradation_stage(grade), HARMONY_STAGE, POSSESSIVE_STAGE))


def run_pipeline(word: str, grade: Grade) -> str:
    """Surface form of ``word`` after the standard three stages."""
    return standard_pipeline(grade).run(word)


@_per_grade
def gradation_pipeline(grade: Grade) -> Pipeline:
    """Gradation toward ``grade`` alone, the run of ``comorph grad``; built once per grade."""
    return Pipeline((gradation_stage(grade),))


def weaken(word: str) -> str:
    """Strong grade to weak grade across the whole word."""
    return gradation_pipeline(Grade.WEAK).run(word)


def strengthen(word: str) -> str:
    """Weak grade to strong grade across the whole word.

    Deletion patterns (weakened geminates and dropped k) leave no weak-side window
    to match, so they come back unchanged: restoring them would need insertion.
    """
    return gradation_pipeline(Grade.STRONG).run(word)
