"""Deletion tracking layered over character zippers.

Length-changing rules must not shorten the sequence mid-pass, or later rules
would see shifted positions. Instead each rule returns a set of absolute
indices to drop alongside its output character; the sets merge by union as
the pass runs, and ``materialize`` strips all logged positions once at the
end. Indices refer to the original word and stay valid because no operation
here ever changes the sequence length.

The log is validated where it crosses the public boundary: when a caller
builds a ``WriterZipper``, and when a pass merges what its rules emitted,
once per pass; the views a pass hands to its rules share the checked log.
A pass calls each rule only at the cells its table gives it, and a pass
that changes nothing returns the zipper it was given.

Words enter through ``start``, which normalizes them to NFC and checks the
word contract; it is the word path's only NFC.
"""

import unicodedata
from collections.abc import Callable

from .vowels import PLACEHOLDERS
from .zipper import Zipper, _at, _new

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
    Building one freezes the log and checks that each position is in the word.
    """

    __slots__ = ("log",)

    log: DeletionSet

    def __init__(self, log: DeletionSet, zipper: Zipper[str]) -> None:
        log = frozenset(log)
        _check(log, len(zipper.cells))
        self.cells = zipper.cells
        self.index = zipper.index
        self.log = log

    @property
    def zipper(self) -> Zipper[str]:
        return _at(self.cells, self.index)

    def _key(self) -> tuple:
        return (self.cells, self.index, self.log)

    def __repr__(self) -> str:
        return f"WriterZipper(log={self.log!r}, zipper={self.zipper!r})"


def start(word: str) -> WriterZipper:
    """``word`` in NFC, focused at 0 with an empty log.

    One test passes letters that are lower-case once A, O, U, V are removed; any
    other word raises if empty, or at its first non-letter or non-placeholder upper case.
    """
    word = unicodedata.normalize("NFC", word)
    rest = word.replace("A", "").replace("O", "").replace("U", "").replace("V", "")
    if not (word.isalpha() and rest.islower()):
        _check_word(word)
    return _view(EMPTY_DELETIONS, tuple(word), 0)


def _check_word(word: str) -> None:
    # One cell at a time; a word whose letters are all caseless passes.
    if not word:
        raise ValueError("cannot process an empty word")
    for i, c in enumerate(word):
        if not c.isalpha():
            raise ValueError(f"character {c!r} at position {i} is not a letter")
        if c != c.lower() and c not in PLACEHOLDERS:
            raise ValueError(f"character {c!r} at position {i} is upper-case and not a placeholder")


def _view(log: DeletionSet, cells: tuple[str, ...], index: int) -> WriterZipper:
    # A WriterZipper whose log has already been checked against ``cells``.
    wz = _new(WriterZipper)
    wz.cells = cells
    wz.index = index
    wz.log = log
    return wz


# A deleting local rule: reads the focused context, returns the positions it
# wants removed plus its output character.
WriterArrow = Callable[[WriterZipper], tuple[DeletionSet, str]]

# A pipeline stage: (name, arrow, letters it may change, letters it reads, letters it writes).
Stage = tuple[str, WriterArrow, frozenset[str], frozenset[str], frozenset[str]]


def writer_extend(f: WriterArrow, wz: WriterZipper) -> WriterZipper:
    """The coKleisli ``extend``: ``f`` at every cell; ``table_extend`` passes over a support."""
    return table_extend(dict.fromkeys(wz.cells, f), wz)


def table_extend(table: dict[str, WriterArrow], wz: WriterZipper) -> WriterZipper:
    """Run at each cell the rule ``table`` gives for its value, merging the deletions.

    The incoming log is passed unchanged to each rule at each refocusing; the
    new log is the old one unioned with everything the rules emitted, checked
    once against the word's length. The outputs form a zipper of the same
    length and focus position, so deletions stay deferred.

    Cells with no rule are copied without a call, and a visited cell still
    sees the whole word as it came in. Cells are copied at the first change;
    ``wz`` itself comes back when no cell has a rule or no visit changed or deleted.
    """
    log = wz.log
    cells = wz.cells
    merged = log
    out = cells
    new = _new
    for i, c in enumerate(cells):
        if c not in table:
            continue
        f = table[c]
        # _view(log, cells, i), written out: this is the per-visit cost.
        view = new(WriterZipper)
        view.cells = cells
        view.index = i
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
