"""Finnish consonant gradation.

Eleven alternation patterns, each a two-character window: position 0 is the
read-only left neighbour, position 1 the character that changes. Geminates
outrank clusters, clusters outrank single consonants, and a suppression
check keeps a character that opens a higher-priority window from being
rewritten by a lower-priority rule (the first p of "kaappi" must not fall
to the single-p rule). Each grade has one stage, ``gradation_stage(grade)``,
built in one walk over ``PATTERNS``: its rule and its support, the letters
the rule's windows focus on, so a cell outside the support is never
rewritten. The rule is a word rule, ``rule(cells, i)``; deletions are
reported as positions to drop, never applied in place.
"""

from enum import Enum
from functools import cache, wraps

from .record import Record
from .vowels import VOWELS
from .writer import EMPTY_DELETIONS, DeletionSet, Stage, WriterArrow

Window = tuple[str | None, str | None]  # (left neighbour, focus)


class Grade(Enum):
    __hash__ = object.__hash__
    STRONG = "strong"
    WEAK = "weak"


class GradationPattern(Record):
    """One alternation row.

    Windows are (left neighbour, focus). None at index 0 means any vowel;
    None at index 1 of the weak window means the segment is deleted.
    """

    __slots__ = ("kotus_index", "strong", "weak", "kind", "example")

    def __init__(
        self, kotus_index: int, strong: Window, weak: Window, kind: str, example: tuple[str, str]
    ) -> None:
        super().__init__(kotus_index, strong, weak, kind, example)


QUANTITATIVE = "quantitative"
QUAL_SINGLE = "qualitative-single"
QUAL_CLUSTER = "qualitative-cluster"

# Listed in priority order: geminates, then clusters, then single consonants.
# The order is the priority; ``gradation_stage`` keeps the first window that matches.
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


def _per_grade(build):
    """``cache`` by ``Grade``; any other value, perhaps unhashable, runs uncached to its check."""
    built = cache(build)
    return wraps(build)(lambda grade: (built if isinstance(grade, Grade) else build)(grade))


@_per_grade
def gradation_stage(grade: Grade) -> Stage:
    """Gradation toward ``grade`` as a ``Stage``: one deleting word rule and its letters.

    Built once per grade, and the only code that reads ``PATTERNS`` for a rule.
    Rows go in priority order, the first window wins. An exact window (geminate
    or cluster) maps (left, focus) to its target; a window with a wildcard left
    is a single consonant and maps the focus alone. The support is the letters
    those windows focus on: the rule is the identity outside it, and at the
    first cell. A focus that opens an exact window with its right neighbour is
    kept, and a single consonant changes only between two vowels, or suffix
    onsets such as the k of -ksi would alternate after every vowel-final stem. A
    deleted focus is logged at its position. The rule reads the support, the
    exact windows' letters and ``VOWELS``, and writes the targets.
    """
    if not isinstance(grade, Grade):
        raise TypeError(f"grade must be a Grade, not {grade!r}")
    exact: dict[tuple[str, str], str | None] = {}
    single: dict[str, str | None] = {}
    weak = grade is Grade.WEAK
    for pat in PATTERNS:
        (left, focus), (_, target) = (pat.strong, pat.weak) if weak else (pat.weak, pat.strong)
        if focus is None:
            continue  # a deleted segment has no source side to match
        if left is None:
            single.setdefault(focus, target)
        else:
            exact.setdefault((left, focus), target)

    def rule(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
        c = cells[i]
        if i == 0:
            return (EMPTY_DELETIONS, c)
        r = cells[i + 1] if i + 1 < len(cells) else None
        if (c, r) in exact:
            return (EMPTY_DELETIONS, c)
        l = cells[i - 1]
        if (l, c) in exact:
            out = exact[l, c]
        elif c in single and l in VOWELS and r in VOWELS:
            out = single[c]
        else:
            return (EMPTY_DELETIONS, c)
        if out is None:
            return (frozenset((i,)), c)
        return (EMPTY_DELETIONS, out)

    support = frozenset(single) | {focus for _, focus in exact}
    writes = frozenset({*exact.values(), *single.values()} - {None})
    return ("gradation", rule, support, support.union(VOWELS, *exact), writes)


def gradation_arrow(grade: Grade) -> WriterArrow:
    """The word rule of ``gradation_stage(grade)``: gradation toward ``grade``."""
    return gradation_stage(grade)[1]
