"""Finnish consonant gradation.

Eleven alternation patterns, each a two-character window: position 0 is the
read-only left neighbour, position 1 the character that changes. Geminates
outrank clusters, clusters outrank single consonants, and a suppression
check keeps a character that opens a higher-priority window from being
rewritten by a lower-priority rule (the first p of "kaappi" must not fall
to the single-p rule). Deletions are reported as positions to drop, never
applied in place.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .vowels import VOWELS
from .writer import (
    EMPTY_DELETIONS,
    DeletionSet,
    WriterArrow,
    WriterZipper,
    materialize,
    start,
    writer_extend,
)
from .zipper import Zipper


class Grade(Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True, slots=True)
class GradationPattern:
    """One alternation row.

    Windows are (left neighbour, focus). None at index 0 means any vowel;
    None at index 1 of the weak window means the segment is deleted.
    """

    kotus_index: int
    strong: tuple[str | None, str]
    weak: tuple[str | None, str | None]
    kind: str
    example: tuple[str, str]

    def source_window(self, grade: Grade) -> tuple[str | None, str | None]:
        """The side matched against when transforming toward ``grade``."""
        return self.strong if grade is Grade.WEAK else self.weak

    def target_window(self, grade: Grade) -> tuple[str | None, str | None]:
        return self.weak if grade is Grade.WEAK else self.strong

    @property
    def deleting(self) -> bool:
        return self.weak[1] is None


QUANTITATIVE = "quantitative"
QUAL_SINGLE = "qualitative-single"
QUAL_CLUSTER = "qualitative-cluster"

# Listed in priority order: geminates, then clusters, then single consonants.
# The order is the priority; ``_rewrite`` keeps the first window that matches.
PATTERNS: tuple[GradationPattern, ...] = (
    GradationPattern(1, ("p", "p"), ("p", None), QUANTITATIVE, ("kaappi", "kaapi")),
    GradationPattern(2, ("t", "t"), ("t", None), QUANTITATIVE, ("matto", "mato")),
    GradationPattern(3, ("k", "k"), ("k", None), QUANTITATIVE, ("kukka", "kuka")),
    GradationPattern(7, ("m", "p"), ("m", "m"), QUAL_CLUSTER, ("kampa", "kamma")),
    GradationPattern(8, ("l", "t"), ("l", "l"), QUAL_CLUSTER, ("kulta", "kulla")),
    GradationPattern(9, ("n", "t"), ("n", "n"), QUAL_CLUSTER, ("ranta", "ranna")),
    GradationPattern(10, ("r", "t"), ("r", "r"), QUAL_CLUSTER, ("parta", "parra")),
    GradationPattern(11, ("n", "k"), ("n", "g"), QUAL_CLUSTER, ("kenkä", "kengä")),
    GradationPattern(4, (None, "p"), (None, "v"), QUAL_SINGLE, ("tupa", "tuva")),
    GradationPattern(5, (None, "t"), (None, "d"), QUAL_SINGLE, ("katu", "kadu")),
    GradationPattern(6, (None, "k"), (None, None), QUAL_SINGLE, ("puku", "puu")),
)


# Uppercase placeholders are unresolved suffix segments, never gradable
# letters; case folding must leave them distinct from p/t/k/v/d.
_PLACEHOLDERS = frozenset("AOUV")


def _fold(c: str) -> str:
    return c if c in _PLACEHOLDERS else c.lower()


@cache
def _rewrite(grade: Grade) -> Callable[[tuple[str, ...], int], str | None]:
    """The rule toward ``grade``: what ``cells[i]`` becomes, None if deleted.

    Built from ``PATTERNS`` in priority order, the first window wins. An
    exact window (geminate or cluster) maps (left, focus) to its target; a
    window with a wildcard left is a single consonant and maps the focus
    alone. A focus that opens an exact window with its right neighbour is
    kept, and a single consonant changes only between two vowels.
    """
    exact: dict[tuple[str, str], str | None] = {}
    single: dict[str, str | None] = {}
    for pat in PATTERNS:
        (left, focus), target = pat.source_window(grade), pat.target_window(grade)[1]
        if focus is None:
            continue  # a deleted segment has no source side to match
        if left is None:
            single.setdefault(focus, target)
        else:
            exact.setdefault((left, focus), target)
    focus_chars = frozenset(f for _, f in exact) | frozenset(single)

    def rewrite(cells: tuple[str, ...], i: int) -> str | None:
        c = cells[i]
        f = _fold(c)
        if f not in focus_chars or i == 0:
            return c
        r = _fold(cells[i + 1]) if i + 1 < len(cells) else None
        if (f, r) in exact:
            return c
        l = _fold(cells[i - 1])
        if (l, f) in exact:
            return exact[l, f]
        if f in single and l in VOWELS and r in VOWELS:
            return single[f]
        return c

    return rewrite


def gradate_at(z: Zipper[str], grade: Grade) -> str | None:
    """Grade the focused character of ``z``: its output, or None if deleted.

    Suppression: a character opening a higher-priority window is kept
    untouched so only position 1 of that window transforms.
    Single-consonant patterns additionally need a vowel on the right, the
    true intervocalic position; without this, suffix onsets such as the k
    of -ksi would alternate after every vowel-final stem.
    """
    return _rewrite(grade)(z.cells, z.index)


@cache
def gradation_arrow(grade: Grade) -> WriterArrow:
    """Gradation as a deleting local rule toward ``grade``.

    Built once per grade and shared.
    """
    rewrite = _rewrite(grade)

    def arrow(wz: WriterZipper) -> tuple[DeletionSet, str]:
        out = rewrite(wz.cells, wz.index)
        if out is None:
            return (frozenset((wz.index,)), wz.focus)
        return (EMPTY_DELETIONS, out)

    return arrow


def weaken(word: str) -> str:
    """Strong grade to weak grade across the whole word."""
    return materialize(writer_extend(gradation_arrow(Grade.WEAK), start(word)))


def strengthen(word: str) -> str:
    """Weak grade to strong grade across the whole word.

    Deletion patterns (weakened geminates and dropped k) leave no weak-side
    window to match, so they come back unchanged; restoring them would need
    insertion, which this engine does not do.
    """
    return materialize(writer_extend(gradation_arrow(Grade.STRONG), start(word)))
