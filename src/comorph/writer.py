"""The deletion log, and the Writer comonad over character zippers.

Length-changing rules must not shorten the sequence mid-pass, or later rules
would see shifted positions. Instead each rule returns a set of absolute
indices to drop alongside its output character; a pass collects the sets and
merges them into the log by one union when it is done, and ``materialize``
strips all logged positions once at the end. Indices refer to the original
word and stay valid because no operation here ever changes the sequence length.

A word rule reads the word and a position: ``rule(cells, i)`` gives the
deletions and the output character for cell ``i``; ``lift_pure`` is the one
adapter from a zipper rule. A pass calls each rule only at the cells its table
gives it, on the pass's input cells, and builds nothing per visit. One check,
``_check``, validates positions: a ``WriterZipper``'s log when it is built, and
once per pass every position its rules emitted, as emitted, before its one merge.

``start`` normalizes a word to NFC, checks the word contract and returns the
cells; it is the word path's only NFC. That path is cells and a log: ``start``,
``_pass``, ``_filter``. A ``WriterZipper`` is the Writer comonad as the paper
defines it, the pair of a log and a zipper; ``table_extend`` and
``materialize`` run the same pass and filter on its zipper's cells.
"""

import unicodedata
from collections.abc import Callable, Iterable, Sequence
from functools import cache
from importlib import import_module

from .record import Record

DeletionSet = frozenset[int]

# The identity of the deletion monoid; ``|`` is its associative,
# commutative and idempotent merge.
EMPTY_DELETIONS: DeletionSet = frozenset()

_zipper = cache(lambda: import_module(".zipper", __package__))  # no program path loads it


def _check(logs: Iterable[DeletionSet], n: int) -> None:
    # The one log check, over every position of every log in ``logs``: each an ``int``
    # and not a ``bool``, then in the word; a range error names each bad position once.
    bad = set()
    for log in logs:
        for p in log:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError(f"deletion position must be int, not {p!r}")
            if not 0 <= p < n:
                bad.add(p)
    if bad:
        raise ValueError(f"deletion positions {sorted(bad)} out of range for length {n}")


class WriterZipper(Record):
    """The Writer comonad's product: a deletion ``log`` next to a character ``zipper``.

    Its ``extract`` is the zipper's, ``extract(wz.zipper)``. Building one
    refuses a ``zipper`` that is not a ``Zipper`` (``TypeError``), freezes
    the log and gives it the pass's one check: each position an ``int``, not
    a ``bool`` (``TypeError``), and in the word (``ValueError``).
    """

    __slots__ = ("log", "zipper")

    log: DeletionSet
    zipper: "Zipper[str]"

    def __init__(self, log: DeletionSet, zipper: "Zipper[str]") -> None:
        if not isinstance(zipper, _zipper().Zipper):
            raise TypeError(f"zipper must be a Zipper, not {zipper!r}")
        log = frozenset(log)
        _check((log,), len(zipper.cells))
        super().__init__(log, zipper)


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
    return table_extend(dict.fromkeys(wz.zipper.cells, f), wz)


def table_extend(table: dict[str, WriterArrow], wz: WriterZipper) -> WriterZipper:
    """The word path's ``_pass`` on ``wz.zipper``'s cells: each cell's rule from ``table``.

    The new log is the old one unioned once with everything the rules
    emitted, each emitted position checked. The outputs form a zipper of the
    same length and focus position, paired with that log, so deletions stay
    deferred. ``wz`` itself comes back when no visit changed or deleted.
    """
    z = wz.zipper
    log, out = _pass(table, z.cells, wz.log)
    if log is wz.log and out is z.cells:
        return wz
    return WriterZipper(log, _zipper()._at(tuple(out), z.index))


def _pass(table: dict[str, WriterArrow], cells: tuple[str, ...], log: DeletionSet) -> tuple:
    # The one pass loop: ``table[c](cells, i)`` on the input ``cells`` at each cell with a
    # rule. Gives ``log`` unioned once with the checked emitted sets, and the cells, copied.
    emitted = []
    out = cells
    for i, c in enumerate(cells):
        if c in table:
            deletions, ch = table[c](cells, i)
            if deletions:
                emitted.append(deletions)
            if ch != c:
                if out is cells:
                    out = list(cells)
                out[i] = ch
    if emitted:
        _check(emitted, len(cells))
        log = log.union(*emitted)
    return log, out


def materialize(wz: WriterZipper) -> str:
    """Apply every logged deletion, keeping survivor order, through the one deletion filter."""
    return _filter(wz.log, wz.zipper.cells)


def _filter(log: DeletionSet, cells: Sequence[str]) -> str:
    # The one deletion filter, the only place deletions take effect: ``cells``
    # joined without the positions in ``log``, which was checked against them.
    if not log:
        return "".join(cells)
    return "".join([c for i, c in enumerate(cells) if i not in log])


def lift_pure(f: Callable[["Zipper[str]"], str]) -> WriterArrow:
    """The one adapter: at ``(cells, i)``, ``f`` on the zipper there, deleting nothing."""
    Zipper, new = _zipper().Zipper, object.__new__

    def rule(cells: tuple[str, ...], i: int) -> tuple[DeletionSet, str]:
        z = new(Zipper)  # _at(cells, i), written out: this is the per-visit cost
        z.cells = cells
        z.index = i
        return (EMPTY_DELETIONS, f(z))

    return rule
