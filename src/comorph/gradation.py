"""Finnish consonant gradation.

Eleven alternation patterns, each a two-character window: position 0 is the
read-only left neighbour, position 1 the character that changes. Geminates
outrank clusters, clusters outrank single consonants, and a suppression
check keeps a character that opens a higher-priority window from being
rewritten by a lower-priority rule (the first p of "kaappi" must not fall
to the single-p rule). Each grade has one rule, ``gradation_arrow(grade)``,
built from ``PATTERNS`` and guarded by ``gradation_support(grade)``: a cell
outside the support is never rewritten. Deletions are reported as positions
to drop, never applied in place.
"""

from enum import Enum
from functools import cache

from .record import Record
from .vowels import COPY_PLACEHOLDER, HARMONY_PLACEHOLDERS, VOWELS
from .writer import EMPTY_DELETIONS, DeletionSet, WriterArrow, materialize, start, writer_extend
from .zipper import Zipper

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

    def source_window(self, grade: Grade) -> Window:
        """The side matched against when transforming toward ``grade``."""
        return self.strong if grade is Grade.WEAK else self.weak

    def target_window(self, grade: Grade) -> Window:
        return self.weak if grade is Grade.WEAK else self.strong


QUANTITATIVE = "quantitative"
QUAL_SINGLE = "qualitative-single"
QUAL_CLUSTER = "qualitative-cluster"

# Listed in priority order: geminates, then clusters, then single consonants.
# The order is the priority; ``gradation_arrow`` keeps the first window that matches.
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


# Uppercase placeholders are unresolved suffix segments, never gradable letters.
_PLACEHOLDERS = frozenset(HARMONY_PLACEHOLDERS) | {COPY_PLACEHOLDER}


def _cells(letter: str) -> frozenset[str]:
    # Cells that read as ``letter``; U+212A KELVIN SIGN also lowers to a table letter, k.
    return frozenset(letter + letter.upper() + ("\u212a" if letter == "k" else "")) - _PLACEHOLDERS


@cache
def gradation_support(grade: Grade) -> frozenset[str]:
    """The cells gradation toward ``grade`` may change, and its arrow's guard:
    the source windows' focus letters, upper-case too, never a placeholder."""
    focus = frozenset(pat.source_window(grade)[1] for pat in PATTERNS) - {None}
    return (focus | {c.upper() for c in focus}) - _PLACEHOLDERS


@cache
def gradation_arrow(grade: Grade) -> WriterArrow:
    """Gradation toward ``grade`` as one deleting local rule, built once per grade.

    Built from ``PATTERNS`` in priority order, the first window wins. An
    exact window (geminate or cluster) maps (left, focus) to its target; a
    window with a wildcard left is a single consonant and maps the focus
    alone. The arrow is the identity outside ``gradation_support(grade)``
    and at the first cell. A focus that opens an exact window with its right
    neighbour is kept, and a single consonant changes only between two
    vowels; without the right vowel, suffix onsets such as the k of -ksi
    would alternate after every vowel-final stem. A deleted focus is logged
    at its position. The tables are keyed on raw cells: a visit folds no case.
    """
    exact: dict[tuple[str, str], str | None] = {}
    single: dict[str, str | None] = {}
    for pat in PATTERNS:
        (left, focus), target = pat.source_window(grade), pat.target_window(grade)[1]
        if focus is None:
            continue  # a deleted segment has no source side to match
        for f in _cells(focus):
            if left is None:
                single.setdefault(f, target)
            else:
                for l in _cells(left):
                    exact.setdefault((l, f), target)
    support = gradation_support(grade)
    vowels = frozenset().union(*map(_cells, VOWELS))

    def arrow(z: Zipper[str]) -> tuple[DeletionSet, str]:
        cells, i = z.cells, z.index
        c = cells[i]
        if c not in support or i == 0:
            return (EMPTY_DELETIONS, c)
        r = cells[i + 1] if i + 1 < len(cells) else None
        if (c, r) in exact:
            return (EMPTY_DELETIONS, c)
        l = cells[i - 1]
        if (l, c) in exact:
            out = exact[l, c]
        elif c in single and l in vowels and r in vowels:
            out = single[c]
        else:
            return (EMPTY_DELETIONS, c)
        if out is None:
            return (frozenset((i,)), c)
        return (EMPTY_DELETIONS, out)

    return arrow


def _grade_word(word: str, grade: Grade) -> str:
    graded = writer_extend(gradation_arrow(grade), start(word), gradation_support(grade))
    return materialize(graded)


def weaken(word: str) -> str:
    """Strong grade to weak grade across the whole word."""
    return _grade_word(word, Grade.WEAK)


def strengthen(word: str) -> str:
    """Weak grade to strong grade across the whole word.

    Deletion patterns (weakened geminates and dropped k) leave no weak-side
    window to match, so they come back unchanged; restoring them would need
    insertion, which this engine does not do.
    """
    return _grade_word(word, Grade.STRONG)
