"""Focused non-empty sequences.

A zipper is a cursor and nothing more: a tuple of cells plus the index of the
focused one, so the focus is ``cells[index]``. Refocusing shares the cells,
so moving the focus costs O(1), and ``extend``, which re-runs a
context-reading local rule at every position to turn a windowed rule into a
whole-sequence pass, costs one rule call per cell. Rules read their
neighbours with ``peek``, or scan ``cells`` from ``index``. Nothing here
mutates a zipper, and rules must not either. ``extend`` is the one loop over
a zipper. The word passes of ``comorph.writer`` and the rule passes of
``comorph.cg`` build no zipper per cell: their rules read ``(cells, i)``, the
same cursor unpacked. ``lift_pure`` adapts a zipper rule to a word pass, and
``cg.apply_rule`` adapts a CG rule to ``extend``.

Input is checked where it enters: ``from_sequence`` rejects an empty
sequence or a focus that is not an ``int`` or is out of range, and the
refocused views inside a pass check nothing.
"""

from collections.abc import Callable, Sequence
from typing import Generic, TypeVar

A = TypeVar("A")
B = TypeVar("B")


class Zipper(Generic[A]):
    """Non-empty sequence with a distinguished focus.

    ``from_sequence(cells, index)`` builds one; ``cells`` holds the whole
    sequence and ``index`` the focus position within it.
    """

    __slots__ = ("cells", "index")

    cells: tuple[A, ...]
    index: int

    @property
    def focus(self) -> A:
        """The focused cell, ``cells[index]``."""
        return self.cells[self.index]

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
    return z


def from_sequence(items: Sequence[A], focus_index: int) -> Zipper[A]:
    """Build a zipper over ``items`` focused at ``focus_index``.

    A tuple is shared, not copied, so refocusing an existing zipper's cells
    this way costs O(1).
    """
    if not isinstance(focus_index, int) or isinstance(focus_index, bool):
        raise TypeError(f"focus index must be int, not {focus_index!r}")
    n = len(items)
    if n == 0:
        raise ValueError("cannot build a zipper from an empty sequence")
    if not 0 <= focus_index < n:
        raise ValueError(f"focus index {focus_index} out of range for length {n}")
    return _at(tuple(items), focus_index)


def extract(z: Zipper[A]) -> A:
    """Read the focused element."""
    return z.cells[z.index]


def to_sequence(z: Zipper[A]) -> tuple[A, ...]:
    """The whole sequence, left to right; the zipper's own cells, not a copy."""
    return z.cells


def extend(z: Zipper[A], f: Callable[[Zipper[A]], B]) -> Zipper[B]:
    """Apply ``f`` at every position of ``z``: the coKleisli ``extend``.

    Each call sees the whole sequence refocused at that position; the result
    keeps the original length and focus position. ``f`` must be pure. ``z``
    itself comes back when no call returned a new value.
    """
    cells, out = z.cells, None
    for i in range(len(cells)):
        # _at(cells, i), written out: this is the per-visit cost.
        view = _new(Zipper)
        view.cells = cells
        view.index = i
        b = f(view)
        if b is not cells[i]:
            if out is None:
                out = list(cells)
            out[i] = b
    return z if out is None else _at(tuple(out), z.index)
