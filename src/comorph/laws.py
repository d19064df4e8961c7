"""Seeded randomized checks of the algebraic contracts.

``SUITES`` lists every suite: the deletion-set monoid laws, the three
context-pass laws on plain zippers, the identity laws and log behaviour of
the Writer comonad, the pair ``(log, zipper)`` whose ``extract`` is the
zipper's, over word rules ``f(cells, i)``, the equivalence of stage-by-stage
passes with one pass of the chained rule, and of a ``table_extend`` pass over
a rule's support with the full pass. Suite k of ``SUITES`` runs on seed + k.
Cases sweep lengths 1 to 20, every focus position represented; failures
shrink greedily.
"""

import random
from collections import namedtuple
from collections.abc import Callable

from .pipeline import compose
from .writer import (
    EMPTY_DELETIONS, WriterArrow, WriterZipper, lift_pure, table_extend, writer_extend
)
from .zipper import Zipper, extend, extract, from_sequence

ALPHABET = "abcdefgh"
MAX_LENGTH = 20
MAX_REPORTED = 5

# (word, focus, f salt, g salt) pins down one checked instance.
Case = tuple[str, int, int, int]
Predicate = Callable[[Case], bool]


class SuiteReport(namedtuple("SuiteReport", ("name", "cases", "counterexamples"))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def char_arrow(salt: int) -> Callable[[Zipper[str]], str]:
    """A pure rule reading focus and immediate neighbours, keyed by salt."""

    def f(z: Zipper[str]) -> str:
        left = z.peek(-1) or "^"
        right = z.peek(1) or "$"
        h = (salt * 1_000_003) ^ (ord(left) * 131) ^ (ord(z.focus) * 31) ^ (ord(right) * 17)
        return ALPHABET[h % len(ALPHABET)]

    return f


def deleting_arrow(salt: int) -> WriterArrow:
    """A word rule like char_arrow, but sometimes asks to delete its position instead."""
    base = lift_pure(char_arrow(salt))

    def f(cells: tuple[str, ...], i: int) -> tuple[frozenset[int], str]:
        left = cells[i - 1] if i else "^"
        h = (salt * 69_069) ^ (ord(left) * 29) ^ (ord(cells[i]) * 7) ^ (len(cells) - i - 1)
        if h % 4 == 0:
            return (frozenset((i,)), cells[i])
        return base(cells, i)

    return f


def _zipper(case: Case) -> Zipper[str]:
    word, focus, _, _ = case
    return from_sequence(word, focus)


def _writer(case: Case, log: frozenset[int] = frozenset()) -> WriterZipper:
    return WriterZipper(log, _zipper(case))


def _holds_monoid(case: Case) -> bool:
    # Three position sets: the word's cells that are not 'a', and each salt's set bits.
    word, _, fs, gs = case
    a = frozenset(i for i, c in enumerate(word) if c != "a")
    b, c = (frozenset(k for k in range(salt.bit_length()) if salt >> k & 1) for salt in (fs, gs))
    return (
        (a | EMPTY_DELETIONS) == a == (EMPTY_DELETIONS | a)
        and ((a | b) | c) == (a | (b | c))
        and (a | a) == a
    )


def _holds_l1(case: Case) -> bool:
    z = _zipper(case)
    return extend(z, extract) == z


def _holds_l2(case: Case) -> bool:
    z = _zipper(case)
    f = char_arrow(case[2])
    return extract(extend(z, f)) == f(z)


def _holds_l3(case: Case) -> bool:
    z = _zipper(case)
    f, g = char_arrow(case[2]), char_arrow(case[3])
    lhs = extend(extend(z, f), g)
    rhs = extend(z, lambda w: g(extend(w, f)))
    return lhs == rhs


def _holds_writer_l1(case: Case) -> bool:
    wz = _writer(case, log=frozenset({0}))
    return writer_extend(lift_pure(extract), wz) == wz


def _holds_writer_l2(case: Case) -> bool:
    wz = _writer(case)
    f = deleting_arrow(case[2])
    z = wz.zipper
    return extract(writer_extend(f, wz).zipper) == f(z.cells, z.index)[1]


def _collected(f: WriterArrow, wz: WriterZipper) -> frozenset[int]:
    out: set[int] = set()
    cells = wz.zipper.cells
    for i in range(len(cells)):
        out |= f(cells, i)[0]
    return frozenset(out)


def _holds_log_associativity(case: Case) -> bool:
    wz = _writer(case, log=frozenset({0}))
    f, g = deleting_arrow(case[2]), deleting_arrow(case[3])
    after_f = writer_extend(f, wz)
    after_g = writer_extend(g, after_f)
    df = _collected(f, wz)
    dg = _collected(g, after_f)
    return after_g.log == (wz.log | df) | dg == wz.log | (df | dg)


def _holds_support_equivalence(case: Case) -> bool:
    # The g salt's bits pick the support; outside it the rule is the identity.
    wz = _writer(case, log=frozenset({0}))
    support = frozenset(c for k, c in enumerate(ALPHABET) if case[3] >> k & 1)
    base = deleting_arrow(case[2])

    def f(cells: tuple[str, ...], i: int) -> tuple[frozenset[int], str]:
        return base(cells, i) if cells[i] in support else (EMPTY_DELETIONS, cells[i])

    return table_extend(dict.fromkeys(support, f), wz) == writer_extend(f, wz)


def _holds_compose_equivalence(case: Case) -> bool:
    wz = _writer(case)
    f, g = deleting_arrow(case[2]), deleting_arrow(case[3])
    return writer_extend(compose(f, g), wz) == writer_extend(g, writer_extend(f, wz))


def _shrink(case: Case, failing: Predicate) -> Case:
    """Greedy shrink: drop characters, then normalize letters toward 'a'."""
    word, focus, fs, gs = case
    changed = True
    while changed:
        changed = False
        for i in range(len(word) if len(word) > 1 else 0):
            shorter = word[:i] + word[i + 1 :]
            refocus = min(focus if focus <= i else focus - 1, len(shorter) - 1)
            candidate = (shorter, max(refocus, 0), fs, gs)
            if failing(candidate):
                word, focus, *_ = candidate
                changed = True
                break
        else:
            for i, c in enumerate(word):
                if c == "a":
                    continue
                candidate = (word[:i] + "a" + word[i + 1 :], focus, fs, gs)
                if failing(candidate):
                    word = candidate[0]
                    changed = True
                    break
    return (word, focus, fs, gs)


def _describe(case: Case) -> str:
    word, focus, fs, gs = case
    return f"word={word!r} focus={focus} salts=({fs}, {gs})"


def _run_suite(name: str, holds: Predicate, seed: int, cases: int) -> SuiteReport:
    rng = random.Random(seed)
    shapes = [(n, k) for n in range(1, MAX_LENGTH + 1) for k in range(n)]
    counterexamples: list[str] = []
    for i in range(cases):
        length, focus = shapes[i % len(shapes)]
        word = "".join(rng.choice(ALPHABET) for _ in range(length))
        case = (word, focus, rng.randrange(1 << 16), rng.randrange(1 << 16))
        if not holds(case):
            if len(counterexamples) < MAX_REPORTED:
                small = _shrink(case, lambda c: not holds(c))
                counterexamples.append(_describe(small))
    return SuiteReport(name, cases, tuple(counterexamples))


SUITES: tuple[tuple[str, Predicate], ...] = (
    ("deletion-monoid", _holds_monoid),
    ("zipper-extend-extract-identity", _holds_l1),
    ("zipper-extract-after-extend", _holds_l2),
    ("zipper-extend-associativity", _holds_l3),
    ("writer-extend-extract-identity", _holds_writer_l1),
    ("writer-extract-after-extend", _holds_writer_l2),
    ("writer-log-associativity", _holds_log_associativity),
    ("writer-compose-equivalence", _holds_compose_equivalence),
    ("writer-support-equivalence", _holds_support_equivalence),
)


def run_all(seed: int = 0, cases: int = 1000) -> list[SuiteReport]:
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    return [
        _run_suite(name, holds, seed + offset, cases)
        for offset, (name, holds) in enumerate(SUITES)
    ]
