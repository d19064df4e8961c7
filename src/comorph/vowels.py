"""Vowel harmony and possessive vowel copy, one word rule: ``vowel_rule(cells, i)``.

Finnish vowels split into back (a, o, u), front (ä, ö, y) and neutral (e, i).
A suffix placeholder A, O or U takes from its ``HARMONY_PLACEHOLDERS`` pair the
back letter after the nearest a/o/u to its left, the front letter after ä/ö/y
or when neither comes first. The placeholder V copies the nearest preceding
vowel, or A/O/U as harmony resolves it; a V with neither to its left is an
error. Words are lowercase but for ``PLACEHOLDERS``, the one spelling of A/O/U/V.
The zipper rules ``harmony_arrow`` and ``possessive_arrow`` read the one rule
at their focus. The rule deletes nothing: a pass checks every position a rule
emits and merges the log once, and this rule emits none.
"""

from .writer import EMPTY_DELETIONS, DeletionSet

BACK_VOWELS = frozenset("aou")
FRONT_VOWELS = frozenset("äöy")
NEUTRAL_VOWELS = frozenset("ei")
VOWELS = BACK_VOWELS | FRONT_VOWELS | NEUTRAL_VOWELS

# Placeholder letter -> (back realization, front realization).
HARMONY_PLACEHOLDERS = {
    "A": ("a", "ä"),
    "O": ("o", "ö"),
    "U": ("u", "y"),
}

COPY_PLACEHOLDER = "V"
PLACEHOLDERS = frozenset(HARMONY_PLACEHOLDERS) | {COPY_PLACEHOLDER}


def _harmonize(cells: tuple[str, ...], i: int) -> str:
    # The A/O/U at ``i`` read from its pair, as the module states.
    back, front = HARMONY_PLACEHOLDERS[cells[i]]
    for j in range(i - 1, -1, -1):
        c = cells[j]
        if c in BACK_VOWELS:
            return back
        if c in FRONT_VOWELS:
            return front
    return front


def vowel_rule(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
    """Resolve the A/O/U/V at ``i`` as the module states, deleting nothing; other letters stay."""
    c = cells[i]
    if c in HARMONY_PLACEHOLDERS:
        c = _harmonize(cells, i)
    elif c == COPY_PLACEHOLDER:
        for j in range(i - 1, -1, -1):
            c = cells[j]
            if c in VOWELS:
                break
            if c in HARMONY_PLACEHOLDERS:
                c = _harmonize(cells, j)
                break
        else:
            raise ValueError(f"copy placeholder V at position {i} has no vowel to its left")
    return (EMPTY_DELETIONS, c)


def harmony_arrow(z: "Zipper[str]") -> str:
    """Resolve a focused A/O/U as ``vowel_rule`` does; leave everything else alone."""
    c = z.cells[z.index]
    return vowel_rule(z.cells, z.index)[1] if c in HARMONY_PLACEHOLDERS else c


def possessive_arrow(z: "Zipper[str]") -> str:
    """Resolve a focused V as ``vowel_rule`` does; leave everything else alone."""
    c = z.cells[z.index]
    return vowel_rule(z.cells, z.index)[1] if c == COPY_PLACEHOLDER else c
