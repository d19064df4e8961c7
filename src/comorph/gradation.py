"""Finnish consonant gradation.

Eleven alternation patterns, each a two-character window: position 0 is the
read-only left neighbour, position 1 the character that changes. Geminates
outrank clusters, clusters outrank single consonants, and a suppression
check keeps a character that opens a higher-priority window from being
rewritten by a lower-priority rule (the first p of "kaappi" must not fall
to the single-p rule). Each grade has one stage, ``gradation_stage(grade)``,
built in one walk over ``PATTERNS`` into one table whose key is the local
context the rule reads: left neighbour, focus, and whether the right
neighbour is a vowel. The rule is one lookup of that key, a word rule
``rule(cells, i)``; its support, the table's foci, keeps every other cell
as it is. Deletions are reported as positions to drop, never applied in place.
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
    One walk over the rows in priority order fills one table keyed by the
    context the rule reads, ``(left, focus, right is a vowel)``; the first row
    to claim a context wins. An exact row (geminate or cluster) claims its
    window whatever its right; a single consonant row claims its focus after
    each vowel and only before a vowel, or suffix onsets such as the k of -ksi
    would alternate after every vowel-final stem. A focus that opens an exact
    window with its right neighbour (``opens``) is kept, as is the first cell.
    A ``None`` target is a deletion, logged at its position. Support, reads
    and writes are the table's foci, its lefts and foci, and its targets.
    """
    if not isinstance(grade, Grade):
        raise TypeError(f"grade must be a Grade, not {grade!r}")
    windows: dict[tuple[str, str, bool], str | None] = {}
    opens: set[tuple[str, str]] = set()
    weak = grade is Grade.WEAK
    for pat in PATTERNS:
        (left, focus), (_, target) = (pat.strong, pat.weak) if weak else (pat.weak, pat.strong)
        if focus is None:
            continue  # a deleted segment has no source side to match
        if left is None:
            for v in VOWELS:
                windows.setdefault((v, focus, True), target)
        else:
            opens.add((left, focus))
            windows.setdefault((left, focus, True), target)
            windows.setdefault((left, focus, False), target)

    def rule(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
        c = cells[i]
        r = cells[i + 1] if i + 1 < len(cells) else None
        if i == 0 or (c, r) in opens:
            return (EMPTY_DELETIONS, c)
        out = windows.get((cells[i - 1], c, r in VOWELS), c)
        if out is None:
            return (frozenset((i,)), c)
        return (EMPTY_DELETIONS, out)

    support = frozenset(focus for _, focus, _ in windows)
    writes = frozenset(windows.values()) - {None}
    return ("gradation", rule, support, support.union(l for l, _, _ in windows), writes)


def gradation_arrow(grade: Grade) -> WriterArrow:
    """The word rule of ``gradation_stage(grade)``: gradation toward ``grade``."""
    return gradation_stage(grade)[1]
