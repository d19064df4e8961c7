"""Vowel harmony and possessive vowel copy.

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
    # The A/O/U at ``i`` read from its pair: back after the nearest a/o/u to its
    # left, front after ä/ö/y or when neither comes first.
    back, front = HARMONY_PLACEHOLDERS[cells[i]]
    for j in range(i - 1, -1, -1):
        c = cells[j]
        if c in BACK_VOWELS:
            return back
        if c in FRONT_VOWELS:
            return front
    return front


def harmony_arrow(z: Zipper[str]) -> str:
    """Resolve a focused A/O/U placeholder; leave everything else alone."""
    return _harmonize(z.cells, z.index) if z.focus in HARMONY_PLACEHOLDERS else z.focus


def possessive_arrow(z: Zipper[str]) -> str:
    """Resolve a focused V by copying the nearest preceding vowel.

    An A/O/U met first reads as ``harmony_arrow`` resolves it there, so the
    copy is the same before and after the harmony pass. Raises
    ``ValueError`` naming the position when no vowel precedes it.
    """
    if z.focus != COPY_PLACEHOLDER:
        return z.focus
    cells = z.cells
    for i in range(z.index - 1, -1, -1):
        if cells[i] in VOWELS:
            return cells[i]
        if cells[i] in HARMONY_PLACEHOLDERS:
            return _harmonize(cells, i)
    raise ValueError(f"copy placeholder V at position {z.index} has no vowel to its left")
