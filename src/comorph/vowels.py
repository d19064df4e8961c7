"""Vowel harmony and possessive vowel copy.

Finnish vowels split into back (a, o, u), front (ä, ö, y) and neutral
(e, i). Suffix vowels written as the uppercase placeholders A, O, U agree
in backness with the nearest non-neutral stem vowel; neutral vowels are
transparent to the scan. The placeholder V copies the nearest preceding
vowel, or A/O/U as harmony resolves it; a V with neither to its left is an
error. Underlying forms are lowercase except for the placeholders.
"""

from enum import Enum

from .zipper import Zipper, _at

BACK_VOWELS = frozenset("aou")
FRONT_VOWELS = frozenset("äöy")
NEUTRAL_VOWELS = frozenset("ei")
VOWELS = BACK_VOWELS | FRONT_VOWELS | NEUTRAL_VOWELS


class HarmonyClass(Enum):
    BACK = "back"
    FRONT = "front"


# Placeholder letter -> (back realization, front realization).
HARMONY_PLACEHOLDERS = {
    "A": ("a", "ä"),
    "O": ("o", "ö"),
    "U": ("u", "y"),
}

COPY_PLACEHOLDER = "V"
_BACK, _FRONT = HarmonyClass.BACK, HarmonyClass.FRONT  # read once: a member lookup is slow


def detect_harmony(z: Zipper[str]) -> HarmonyClass:
    """Scan the left context, nearest first, for a non-neutral vowel.

    Neutral vowels, consonants and unresolved placeholders are skipped.
    Words with no non-neutral vowel to the left take front harmony.
    """
    cells = z.cells
    for i in range(z.index - 1, -1, -1):
        c = cells[i]
        if c in BACK_VOWELS:
            return _BACK
        if c in FRONT_VOWELS:
            return _FRONT
    return _FRONT


def harmony_arrow(z: Zipper[str]) -> str:
    """Resolve a focused A/O/U placeholder; leave everything else alone."""
    pair = HARMONY_PLACEHOLDERS.get(z.focus)
    if pair is None:
        return z.focus
    return pair[0] if detect_harmony(z) is _BACK else pair[1]


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
            return harmony_arrow(_at(cells, i))
    raise ValueError(f"copy placeholder V at position {z.index} has no vowel to its left")
