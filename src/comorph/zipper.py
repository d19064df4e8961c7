"""Focused non-empty sequences.

A zipper is a cursor: a tuple of cells plus the index of the focused one.
Refocusing shares the cells, so moving the focus costs O(1) and ``extend``,
which re-runs a context-reading local rule at every position to turn a
windowed rule into a whole-sequence pass, costs one rule call per cell and
nothing more (given the positions a rule can change, ``extend`` calls it only
there; given a support, ``writer_extend`` calls it only at cells in it).
Rules read their neighbours with ``peek``, or scan ``cells`` from
``index``. Nothing here mutates a zipper, and rules must not either.

Input is checked where it enters: ``from_sequence`` rejects an empty
sequence or an out-of-range focus, and the refocused views inside a pass
check nothing. The deletion log that ``comorph.writer`` layers on top is
likewise validated once, when a ``WriterZipper`` is built or a pass merges
what its rule emitted, never per position.
"""

from collections.abc import Callable, Sequence
from typing import Generic, TypeVar

A = TypeVar("A")
B = TypeVar("B")


class Zipper(Generic[A]):
    """Non-empty sequence with a distinguished focus.

    ``from_sequence(cells, index)`` builds one; ``cells`` holds the whole
    sequence, ``index`` the focus position within it and ``focus`` the cell
    there.
    """

    __slots__ = ("cells", "index", "focus")

    cells: tuple[A, ...]
    index: int
    focus: A

    def peek(self, offset: int) -> A | None:
        """The cell ``offset`` steps from the focus, or None past either end."""
        i = self.index + offset
        if 0 <= i < len(self.cells):
            return self.cells[i]
        return None

    def _key(self) -> tuple:
        # What identifies a zipper of this class; subclasses add their fields.
        return (self.cells, self.index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"from_sequence({self.cells!r}, {self.index!r})"


_new = object.__new__


def _at(cells: tuple[A, ...], index: int) -> Zipper[A]:
    # The cursor constructor; callers guarantee 0 <= index < len(cells).
    z = _new(Zipper)
    z.cells = cells
    z.index = index
    z.focus = cells[index]
    return z


def from_sequence(items: Sequence[A], focus_index: int) -> Zipper[A]:
    """Build a zipper over ``items`` focused at ``focus_index``.

    A tuple is shared, not copied, so refocusing an existing zipper's cells
    this way costs O(1).
    """
    n = len(items)
    if n == 0:
        raise ValueError("cannot build a zipper from an empty sequence")
    if not 0 <= focus_index < n:
        raise ValueError(f"focus index {focus_index} out of range for length {n}")
    return _at(tuple(items), focus_index)


def extract(z: Zipper[A]) -> A:
    """Read the focused element."""
    return z.focus


def to_sequence(z: Zipper[A]) -> tuple[A, ...]:
    """The whole sequence, left to right; the zipper's own cells, not a copy."""
    return z.cells


def extend(
    z: Zipper[A],
    f: Callable[[Zipper[A]], B],
    positions: Sequence[int] | None = None,
) -> Zipper[B]:
    """Apply ``f`` at every position of ``z``, or only at ``positions``.

    Each call sees the whole sequence refocused at that position; the result
    keeps the original length and focus position. ``f`` must be pure.

    ``positions`` are ascending indices outside which ``f`` returns the focus
    unchanged, such as ``[i for i, c in enumerate(z.cells) if support(c)]``.
    Other cells are copied without calling ``f``. Either way ``z`` itself
    comes back when no call returned a new value.
    """
    cells = z.cells
    if positions is None:
        positions = range(len(cells))
    elif positions and not 0 <= positions[0] <= positions[-1] < len(cells):
        raise ValueError(
            f"positions {positions[0]}..{positions[-1]} out of range for length {len(cells)}"
        )
    out = None
    for i in positions:
        new = f(_at(cells, i))
        if new is not cells[i]:
            if out is None:
                out = list(cells)
            out[i] = new
    return z if out is None else _at(tuple(out), z.index)
