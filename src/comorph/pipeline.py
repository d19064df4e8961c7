"""Chaining word rules over one word with a single deletion sweep.

The standard run is gradation, then the vowel rule, in an explicit order: the
vowel rule writes vowels, which gradation reads. A run is one pass that sends
each cell to the stage whose support holds it, and deletions are applied
exactly once, at the end. A stage's rule is a word rule, ``rule(cells, i)``.
A word is cells and a log: ``start``, then ``_pass``, then ``_filter``.
"""

from .gradation import Grade, _per_grade, gradation_stage
from .record import Record, _set
from .vowels import PLACEHOLDERS, VOWELS, vowel_rule
from .writer import EMPTY_DELETIONS, DeletionSet, Stage, WriterArrow, _filter, _pass, start


def compose(f: WriterArrow, g: WriterArrow) -> WriterArrow:
    """Chain two word rules into one.

    Runs ``f``'s pass over the whole word, then reads ``g`` at the same
    position of the output cells. The composite's deletion component carries
    everything ``f``'s pass emitted; set union being idempotent, re-merging it
    later is harmless, and chaining stays associative.
    """

    def composed(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
        log, out = _pass(dict.fromkeys(cells, f), cells, EMPTY_DELETIONS)
        deletions, ch = g(tuple(out), i)
        return (log | deletions, ch)

    return composed


VOWEL_STAGE = ("vowels", vowel_rule, PLACEHOLDERS, VOWELS | PLACEHOLDERS, VOWELS)


class TraceRow(Record):
    __slots__ = ("stage", "chars", "deletions")

    def __init__(self, stage: str, chars: str, deletions: DeletionSet) -> None:
        super().__init__(stage, chars, deletions)

    def render(self) -> str:
        marks = ",".join(str(i) for i in sorted(self.deletions))
        return f"{self.stage}\t{self.chars}\t{marks}"


class Pipeline(Record):
    """Named stages in order; the only driver of word passes.

    Built once: ``tables[k]`` sends each cell to the one of the first k stages
    whose support holds it. ``run`` is one pass over ``start``'s cells with the
    full table and one filter of its log, ``trace`` row k the pass with
    ``tables[k]``. That pass equals the staged passes when no stage reads a
    letter an earlier one owns or writes, so the constructor takes stages only
    if every earlier one's ``support | writes`` misses every later one's
    ``reads | support`` (a rule reads the cells it owns); else, or for a
    ``None`` support, ``ValueError``; for a stage of another shape, or a
    support, reads or writes that is not a set or frozenset, ``TypeError``.
    ``stages`` is kept as a tuple with frozen letter sets, so a pipeline hashes.
    """

    __slots__ = ("stages", "_tables")  # _tables: one table per stage prefix, not a field

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        table: dict[str, WriterArrow] = {}
        tables, kept = [table], []
        for k, stage in enumerate(stages):
            if not (isinstance(stage, tuple) and len(stage) == 5):
                shape = "(name, arrow, support, reads, writes)"
                raise TypeError(f"stage {k} of {len(stages)} is not a {shape} tuple: {stage!r}")
            name, rule, support, reads, writes = stage
            if support is None:
                raise ValueError(f"stage {name!r} of {len(stages)} has no support")
            for field, letters in (("support", support), ("reads", reads), ("writes", writes)):
                if not isinstance(letters, (set, frozenset)):
                    raise TypeError(f"stage {name!r} {field} is not a set or frozenset: {letters!r}")
            support, reads, writes = frozenset(support), frozenset(reads), frozenset(writes)
            owned = reads | support  # a rule reads the cells it owns
            first = next((n for n, _, s, _, w in kept if not owned.isdisjoint(s | w)), None)
            if first is not None:
                raise ValueError(f"stage {name!r} reads what {first!r} before it owns or writes")
            kept.append((name, rule, support, reads, writes))
            table = {**table, **dict.fromkeys(support, rule)}
            tables.append(table)
        super().__init__(tuple(kept))
        _set(self, "_tables", tuple(tables))

    def run(self, word: str) -> str:
        return _filter(*_pass(self._tables[-1], start(word), EMPTY_DELETIONS))

    def trace(self, word: str) -> list[TraceRow]:
        """Row k: the first k stages' pass, characters still at full length, plus the log."""
        cells = start(word)
        done = _pass(self._tables[-1], cells, EMPTY_DELETIONS)  # first: raises what run raises
        passes = [_pass(t, cells, EMPTY_DELETIONS) for t in self._tables[:-1]] + [done]
        names = ["input", *[stage[0] for stage in self.stages]]
        rows = [TraceRow(n, "".join(out), log) for n, (log, out) in zip(names, passes)]
        return [*rows, TraceRow("materialize", _filter(*done), EMPTY_DELETIONS)]


@_per_grade
def standard_pipeline(grade: Grade) -> Pipeline:
    """Gradation toward ``grade``, then the vowel rule; built once per grade and shared."""
    return Pipeline((gradation_stage(grade), VOWEL_STAGE))


def run_pipeline(word: str, grade: Grade) -> str:
    """Surface form of ``word`` after the standard stages."""
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
