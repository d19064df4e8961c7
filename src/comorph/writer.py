"""Deletion tracking layered over character zippers.

Length-changing rules must not shorten the sequence mid-pass, or later rules
would see shifted positions. Instead each rule returns a set of absolute
indices to drop alongside its output character; the sets merge by union as
the pass runs, and ``materialize`` strips all logged positions once at the
end. Indices refer to the original word and stay valid because no operation
here ever changes the sequence length.

The log is validated where it crosses the public boundary: when a caller
builds a ``WriterZipper``, and when ``writer_extend`` merges what its rule
emitted, once per pass; the views a pass hands to its rule share the checked
log. A pass given its rule's support calls the rule only at the cells in it,
and a pass that changes nothing returns the zipper it was given.

Words enter through ``start``, the one place that normalizes them to NFC
and rejects empty input and non-letters.
"""

import unicodedata
from collections.abc import Callable

from .zipper import Zipper, _at

DeletionSet = frozenset[int]

# The identity of the deletion monoid; ``|`` is its associative,
# commutative and idempotent merge.
EMPTY_DELETIONS: DeletionSet = frozenset()


def _check(log: DeletionSet, n: int) -> None:
    if log and (min(log) < 0 or max(log) >= n):
        bad = sorted(i for i in log if not 0 <= i < n)
        raise ValueError(f"deletion positions {bad} out of range for length {n}")


class WriterZipper(Zipper[str]):
    """A character zipper that also carries the deletions accumulated so far.

    Being a zipper itself, it can be handed to a pure rule or to ``extract``
    as it is; the ``zipper`` property gives the same cursor without the log.
    Building one checks that every logged position lies inside the word.
    """

    __slots__ = ("log",)

    log: DeletionSet

    def __init__(self, log: DeletionSet, zipper: Zipper[str]) -> None:
        _check(log, len(zipper.cells))
        self.cells = zipper.cells
        self.index = zipper.index
        self.focus = zipper.focus
        self.log = log

    @property
    def zipper(self) -> Zipper[str]:
        return _at(self.cells, self.index)

    def _key(self) -> tuple:
        return (self.cells, self.index, self.log)

    def __repr__(self) -> str:
        return f"WriterZipper(log={self.log!r}, zipper={self.zipper!r})"


_new = object.__new__


def start(word: str) -> WriterZipper:
    """``word`` in NFC, focused at 0 with an empty log.

    Raises on an empty word, and on the first character that is not a letter.
    """
    word = unicodedata.normalize("NFC", word)
    if not word.isalpha():
        if not word:
            raise ValueError("cannot process an empty word")
        i, c = next((i, c) for i, c in enumerate(word) if not c.isalpha())
        raise ValueError(f"character {c!r} at position {i} is not a letter")
    return _view(EMPTY_DELETIONS, tuple(word), 0)


def _view(log: DeletionSet, cells: tuple[str, ...], index: int) -> WriterZipper:
    # A WriterZipper whose log has already been checked against ``cells``.
    wz = _new(WriterZipper)
    wz.cells = cells
    wz.index = index
    wz.focus = cells[index]
    wz.log = log
    return wz


# A deleting local rule: reads the focused context, returns the positions it
# wants removed plus its output character.
WriterArrow = Callable[[WriterZipper], tuple[DeletionSet, str]]
# The cell values where a rule may differ from the identity; None for all.
Support = frozenset[str] | None


def writer_extend(f: WriterArrow, wz: WriterZipper, support: Support = None) -> WriterZipper:
    """Run ``f`` at each cell in ``support`` (every cell by default), merging its deletions.

    The incoming log is passed unchanged to ``f`` at each refocusing; the
    new log is the old one unioned with everything ``f`` emitted, checked
    once against the word's length. The outputs form a zipper of the same
    length and focus position, so deletions stay deferred.

    A support is the set of cell values outside which ``f`` returns
    ``(EMPTY_DELETIONS, focus)``. Cells outside it are copied without calling
    ``f``, and a visited cell still sees the whole word. Cells are copied at
    the first change; ``wz`` itself comes back when no visit changed or deleted.
    """
    log = wz.log
    cells = wz.cells
    support = frozenset(cells) if support is None else support  # None: every cell
    if support.isdisjoint(cells):
        return wz
    merged = log
    out = cells
    new = _new
    for i, c in enumerate(cells):
        if c not in support:
            continue
        # _view(log, cells, i), written out: this is the per-visit cost.
        view = new(WriterZipper)
        view.cells = cells
        view.index = i
        view.focus = c
        view.log = log
        deletions, ch = f(view)
        if deletions:
            merged = merged | deletions
        if ch != c:
            if out is cells:
                out = list(cells)
            out[i] = ch
    if merged is not log:
        _check(merged, len(cells))
    elif out is cells:
        return wz
    return _view(merged, tuple(out), wz.index)


def materialize(wz: WriterZipper) -> str:
    """Apply every logged deletion, keeping survivor order.

    This is the only place deletions take effect. Log validity is enforced
    when the log crosses the public boundary, so the filter below cannot
    drop a position that does not exist.
    """
    log = wz.log
    cells = wz.cells
    if not log:
        return "".join(cells)
    return "".join([c for i, c in enumerate(cells) if i not in log])


def lift_pure(f: Callable[[Zipper[str]], str]) -> WriterArrow:
    """Wrap a non-deleting rule so it can run in a deleting pass."""

    def arrow(wz: WriterZipper) -> tuple[DeletionSet, str]:
        return (EMPTY_DELETIONS, f(wz))

    return arrow
