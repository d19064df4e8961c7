from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.gradation import Grade, gradation_arrow
from comorph.writer import (
    EMPTY_DELETIONS,
    WriterZipper,
    lift_pure,
    materialize,
    writer_extend,
)
from comorph.zipper import Zipper, extend, extract, from_sequence, to_sequence
from conftest import char_functions, writer_arrows, writer_zippers
from oracles import filter_materialize, sentinel_gradate

position_sets = st.frozensets(st.integers(0, 19), max_size=6)


def test_union_identity():
    assert frozenset({4}) | EMPTY_DELETIONS == frozenset({4})
    assert EMPTY_DELETIONS | frozenset({4}) == frozenset({4})


def test_union_merges():
    assert frozenset({1, 2}) | frozenset({2, 3}) == frozenset({1, 2, 3})


@given(position_sets, position_sets, position_sets)
def test_union_associative(a, b, c):
    assert (a | b) | c == a | (b | c)


@given(position_sets, position_sets)
def test_union_commutative_idempotent(a, b):
    assert a | b == b | a
    assert a | a == a


def kaappi_at(i: int) -> Zipper:
    return from_sequence("kaappi", i)


def test_writer_extract_ignores_log():
    assert extract(WriterZipper(frozenset(), kaappi_at(3))) == "p"
    assert extract(WriterZipper(frozenset({4}), kaappi_at(3))) == "p"


def test_identity_arrow_emits_nothing():
    wz = WriterZipper(frozenset(), kaappi_at(2))
    assert lift_pure(extract)(wz) == (frozenset(), "a")


@given(writer_zippers())
def test_writer_extend_identity(wz):
    assert writer_extend(lift_pure(extract), wz) == wz


@given(writer_zippers(), writer_arrows)
def test_writer_extract_after_extend(wz, f):
    assert extract(writer_extend(f, wz)) == f(wz)[1]


def test_weak_gradation_defers_deletion():
    wz = WriterZipper(frozenset(), kaappi_at(0))
    out = writer_extend(gradation_arrow(Grade.WEAK), wz)
    assert out.log == frozenset({4})
    assert "".join(to_sequence(out.zipper)) == "kaappi"
    assert materialize(out) == "kaapi"


def _collect(f, wz):
    items = to_sequence(wz.zipper)
    out = set()
    for i in range(len(items)):
        refocused = WriterZipper(wz.log, from_sequence(items, i))
        out |= f(refocused)[0]
    return frozenset(out)


@given(writer_zippers(max_size=12), writer_arrows, writer_arrows)
def test_chained_logs_associate(wz, f, g):
    after_f = writer_extend(f, wz)
    after_g = writer_extend(g, after_f)
    df = _collect(f, wz)
    dg = _collect(g, after_f)
    assert after_g.log == (wz.log | df) | dg
    assert after_g.log == wz.log | (df | dg)


def test_materialize_applies_log():
    wz = WriterZipper(frozenset({4}), kaappi_at(0))
    assert materialize(wz) == "kaapi"


@given(writer_zippers())
def test_materialize_empty_log_is_identity(wz):
    bare = WriterZipper(frozenset(), wz.zipper)
    assert materialize(bare) == "".join(to_sequence(wz.zipper))


def test_materialize_filters_by_position():
    wz = WriterZipper(frozenset({0, 5}), kaappi_at(2))
    assert materialize(wz) == "aapp"
    assert materialize(wz) == filter_materialize("kaappi", {0, 5})


def test_out_of_range_log_rejected_at_birth():
    with pytest.raises(ValueError):
        WriterZipper(frozenset({6}), kaappi_at(0))
    with pytest.raises(ValueError):
        WriterZipper(frozenset({-1}), kaappi_at(0))


def test_out_of_range_deletion_from_a_rule_rejected():
    wz = WriterZipper(frozenset(), kaappi_at(0))
    with pytest.raises(ValueError):
        writer_extend(lambda v: (frozenset({6}), v.zipper.focus), wz)


@given(writer_zippers(), writer_arrows)
def test_no_operation_shortens_the_zipper(wz, f):
    out = writer_extend(f, wz)
    assert len(to_sequence(out.zipper)) == len(to_sequence(wz.zipper))


@given(writer_zippers(max_size=12), char_functions)
def test_lift_pure_matches_plain_extend(wz, f):
    lifted = writer_extend(lift_pure(f), WriterZipper(frozenset(), wz.zipper))
    assert lifted.log == frozenset()
    assert materialize(lifted) == "".join(to_sequence(extend(wz.zipper, f)))


@pytest.mark.parametrize(
    "word", ["kaappi", "matto", "kukka", "tupa", "katu", "puku", "kampa"]
)
def test_gradation_matches_sentinel_filtering(word):
    wz = WriterZipper(frozenset(), from_sequence(word, 0))
    out = materialize(writer_extend(gradation_arrow(Grade.WEAK), wz))
    assert out == sentinel_gradate(word, Grade.WEAK)
