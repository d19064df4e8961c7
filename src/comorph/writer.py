"""Deletion tracking layered over character zippers.

Length-changing rules must not shorten the sequence mid-pass, or later rules
would see shifted positions. Instead each rule returns a set of absolute
indices to drop alongside its output character; the sets merge by union as
the pass runs, and ``materialize`` strips all logged positions once at the
end. Indices refer to the original word and stay valid because no operation
here ever changes the sequence length.

A word rule reads the word and a position: ``rule(cells, i)`` gives the
deletions and the output character for cell ``i``; ``lift_pure`` is the one
adapter from a zipper rule. A pass calls each rule only at the cells its table
gives it, on the pass's input cells, and builds nothing per visit. The log is
validated when a caller builds a ``WriterZipper`` and once per pass.

``start`` normalizes a word to NFC, checks the word contract and returns the
cells; it is the word path's only NFC. That path is cells and a log: ``start``,
``_pass``, ``_filter``. ``table_extend`` and ``materialize`` wrap them in a
``WriterZipper``.
"""

import unicodedata
from collections.abc import Callable, Sequence

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

    Being a zipper itself, it can be handed to a zipper rule or to ``extract``
    as it is; the ``zipper`` property gives the same cursor without the log.
    Building one freezes the log and checks that each position is an ``int``,
    not a ``bool`` (``TypeError``), and is in the word (``ValueError``).
    """

    __slots__ = ("log",)

    log: DeletionSet

    def __init__(self, log: DeletionSet, zipper: Zipper[str]) -> None:
        log = frozenset(log)
        for p in log:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError(f"deletion position must be int, not {p!r}")
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


def start(word: str) -> tuple[str, ...]:
    """The cells of ``word`` in NFC, checked against the word contract.

    One test passes letters that are lower-case once A, O, U, V are removed; any
    other word raises if empty, or at its first non-letter or non-placeholder upper case.
    """
    word = unicodedata.normalize("NFC", word)
    rest = word.replace("A", "").replace("O", "").replace("U", "").replace("V", "")
    if not (word.isalpha() and rest.islower()):
        _check_word(word)
    return tuple(word)


def _check_word(word: str) -> None:
    # One cell at a time; a word whose letters are all caseless passes.
    from .vowels import PLACEHOLDERS  # here, for comorph.vowels builds its rule on this module
    if not word:
        raise ValueError("cannot process an empty word")
    for i, c in enumerate(word):
        if not c.isalpha():
            raise ValueError(f"character {c!r} at position {i} is not a letter")
        if c != c.lower() and c not in PLACEHOLDERS:
            raise ValueError(f"character {c!r} at position {i} is upper-case and not a placeholder")


# A word rule: reads the word's cells at a position, returns the positions it
# wants removed plus its output character.
WriterArrow = Callable[[tuple[str, ...], int], tuple[DeletionSet, str]]

# A pipeline stage: (name, rule, letters it may change, letters it reads, letters it writes).
Stage = tuple[str, WriterArrow, frozenset[str], frozenset[str], frozenset[str]]


def writer_extend(f: WriterArrow, wz: WriterZipper) -> WriterZipper:
    """The coKleisli ``extend``: ``f`` at every cell; ``table_extend`` passes over a support."""
    return table_extend(dict.fromkeys(wz.cells, f), wz)


def table_extend(table: dict[str, WriterArrow], wz: WriterZipper) -> WriterZipper:
    """The word path's ``_pass`` on a ``WriterZipper``: each cell's rule from ``table``.

    The new log is the old one unioned with everything the rules emitted,
    checked once against the word's length. The outputs form a zipper of the
    same length and focus position, so deletions stay deferred. ``wz`` itself
    comes back when no visit changed or deleted.
    """
    log, out = _pass(table, wz.cells, wz.log)
    if log is wz.log and out is wz.cells:
        return wz
    return WriterZipper(log, _at(tuple(out), wz.index))


def _pass(table: dict[str, WriterArrow], cells: tuple[str, ...], log: DeletionSet) -> tuple:
    # The one pass loop: ``table[c](cells, i)`` on the input ``cells`` at each cell with a
    # rule. Gives the merged log, checked once, and the cells, copied at the first change.
    merged = log
    out = cells
    for i, c in enumerate(cells):
        if c in table:
            deletions, ch = table[c](cells, i)
            if deletions:
                merged = merged | deletions
            if ch != c:
                if out is cells:
                    out = list(cells)
                out[i] = ch
    if merged is not log:
        _check(merged, len(cells))
    return merged, out


def materialize(wz: WriterZipper) -> str:
    """Apply every logged deletion, keeping survivor order, through the one deletion filter."""
    return _filter(wz.log, wz.cells)


def _filter(log: DeletionSet, cells: Sequence[str]) -> str:
    # The one deletion filter, the only place deletions take effect: ``cells``
    # joined without the positions in ``log``, which was checked against them.
    if not log:
        return "".join(cells)
    return "".join([c for i, c in enumerate(cells) if i not in log])


def lift_pure(f: Callable[[Zipper[str]], str]) -> WriterArrow:
    """The one adapter: at ``(cells, i)``, ``f`` on the zipper there, deleting nothing."""

    def rule(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
        z = _new(Zipper)  # _at(cells, i), written out: this is the per-visit cost
        z.cells = cells
        z.index = i
        return (EMPTY_DELETIONS, f(z))

    return rule
