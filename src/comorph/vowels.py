"""Vowel harmony and possessive vowel copy, one rule: ``vowel_arrow``.

Finnish vowels split into back (a, o, u), front (ä, ö, y) and neutral (e, i).
A suffix placeholder A, O or U takes from its ``HARMONY_PLACEHOLDERS`` pair the
back letter after the nearest a/o/u to its left, the front letter after ä/ö/y
or when neither comes first. The placeholder V copies the nearest preceding
vowel, or A/O/U as harmony resolves it; a V with neither to its left is an
error. Words are lowercase but for ``PLACEHOLDERS``, the one spelling of A/O/U/V.
"""

from .zipper import Zipper

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


def vowel_arrow(z: Zipper[str]) -> str:
    """Resolve a focused A/O/U/V as the module states; leave everything else alone."""
    cells, i = z.cells, z.index
    c = cells[i]
    if c in HARMONY_PLACEHOLDERS:
        return _harmonize(cells, i)
    if c != COPY_PLACEHOLDER:
        return c
    for j in range(i - 1, -1, -1):
        if cells[j] in VOWELS:
            return cells[j]
        if cells[j] in HARMONY_PLACEHOLDERS:
            return _harmonize(cells, j)
    raise ValueError(f"copy placeholder V at position {i} has no vowel to its left")


def harmony_arrow(z: Zipper[str]) -> str:
    """Resolve a focused A/O/U placeholder; leave everything else alone."""
    cells, i = z.cells, z.index
    return _harmonize(cells, i) if cells[i] in HARMONY_PLACEHOLDERS else cells[i]


def possessive_arrow(z: Zipper[str]) -> str:
    """Resolve a focused V as ``vowel_arrow`` does; leave everything else alone."""
    return vowel_arrow(z) if z.cells[z.index] == COPY_PLACEHOLDER else z.cells[z.index]
