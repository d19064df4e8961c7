from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.gradation import Grade, gradation_arrow
from comorph.writer import (
    EMPTY_DELETIONS,
    WriterZipper,
    lift_pure,
    materialize,
    start,
    table_extend,
    writer_extend,
)
from comorph.zipper import Zipper, extend, extract, from_sequence, to_sequence
from conftest import LAW_ALPHABET, char_functions, writer_arrows, writer_zippers
from oracles import always_copy_extend, filter_materialize, sentinel_gradate

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


def test_writer_zipper_repr_round_trips_through_eval():
    wz = WriterZipper(frozenset({1}), from_sequence("abc", 1))
    text = "WriterZipper(log=frozenset({1}), zipper=from_sequence(('a', 'b', 'c'), 1))"
    assert repr(wz) == text
    assert eval(text) == wz


def test_a_zipper_never_equals_a_writer_zipper_over_the_same_cells():
    z = from_sequence("abc", 1)
    wz = WriterZipper(frozenset(), z)
    assert z != wz and wz != z
    assert not (z == wz) and not (wz == z)


def test_identity_arrow_emits_nothing():
    wz = WriterZipper(frozenset(), kaappi_at(2))
    assert lift_pure(extract)(wz.cells, wz.index) == (frozenset(), "a")


@given(writer_zippers())
def test_writer_extend_identity(wz):
    assert writer_extend(lift_pure(extract), wz) == wz


@given(writer_zippers(), writer_arrows)
def test_writer_extract_after_extend(wz, f):
    assert extract(writer_extend(f, wz)) == f(wz.cells, wz.index)[1]


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
        out |= f(items, i)[0]
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


@pytest.mark.parametrize("position", [1.5, True, False, "1", None])
def test_a_deletion_position_that_is_not_an_int_is_a_type_error(position):
    with pytest.raises(TypeError) as info:
        WriterZipper({position}, from_sequence("abc", 0))
    assert str(info.value) == f"deletion position must be int, not {position!r}"


def test_a_pass_that_logs_a_bool_position_is_a_type_error():
    wz = WriterZipper(EMPTY_DELETIONS, from_sequence("abc", 0))
    with pytest.raises(TypeError, match="^deletion position must be int, not True$"):
        writer_extend(lambda cells, i: (frozenset({True}), cells[i]), wz)


def test_start_returns_the_checked_cells_as_a_plain_tuple():
    cells = start("kampAstAVn")
    assert type(cells) is tuple and cells == tuple("kampAstAVn")
    composed = unicodedata.normalize("NFC", "kälä")
    assert start(unicodedata.normalize("NFD", "kälä")) == tuple(composed)
    assert len(tuple(composed)) == 4


def test_a_log_given_as_a_set_is_frozen_at_birth():
    log = {1}
    wz = WriterZipper(log, from_sequence("abc", 0))
    frozen = WriterZipper(frozenset({1}), from_sequence("abc", 0))
    assert hash(wz) == hash(frozen)
    assert wz == frozen
    log.add(99)
    assert wz.log == frozenset({1})
    assert materialize(wz) == "ac"
    drop_c = lambda cells, i: (frozenset({i}) if cells[i] == "c" else EMPTY_DELETIONS, cells[i])
    out = writer_extend(drop_c, wz)
    assert type(out.log) is frozenset
    assert out.log == frozenset({1, 2})


def test_out_of_range_deletion_from_a_rule_rejected():
    wz = WriterZipper(frozenset(), kaappi_at(0))
    with pytest.raises(ValueError):
        writer_extend(lambda cells, i: (frozenset({6}), cells[i]), wz)


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


def test_supported_pass_calls_the_rule_only_on_support_cells():
    seen = []

    def f(cells, i):
        seen.append((i, "".join(cells)))
        return (frozenset({i}), cells[i].upper())

    wz = WriterZipper(frozenset({0}), kaappi_at(5))
    out = table_extend(dict.fromkeys("p", f), wz)
    assert seen == [(3, "kaappi"), (4, "kaappi")]
    assert (out.cells, out.index, out.log) == (tuple("kaaPPi"), 5, frozenset({0, 3, 4}))


def test_supported_pass_with_no_support_cell_returns_its_input():
    wz = WriterZipper(frozenset({4}), kaappi_at(1))
    assert table_extend(dict.fromkeys("tV", lambda cells, i: 1 / 0), wz) is wz


supports = st.none() | st.frozensets(st.sampled_from(LAW_ALPHABET))


def supported_pass(f, wz, support):
    """The pass over ``support`` that ``Pipeline`` makes; the full pass when it is None."""
    return writer_extend(f, wz) if support is None else table_extend(dict.fromkeys(support, f), wz)


@given(writer_zippers(), supports)
def test_a_pass_that_changes_nothing_returns_its_input(wz, support):
    assert supported_pass(lift_pure(extract), wz, support) is wz


@given(writer_zippers(), supports)
def test_a_pass_that_only_relogs_returns_an_equal_zipper(wz, support):
    """Logging a position already in the log is still a deletion: a new, equal zipper."""
    out = supported_pass(lambda cells, i: (wz.log, cells[i]), wz, support)
    assert out == wz


@given(writer_zippers(), writer_arrows, st.data())
def test_copy_on_write_matches_an_always_copy_pass(wz, f, data):
    """Equal to the reference for every support, whichever cells the rule leaves alone."""
    support = data.draw(supports)
    kept = data.draw(st.frozensets(st.sampled_from(LAW_ALPHABET)))

    def g(cells, i):
        return (EMPTY_DELETIONS, cells[i]) if cells[i] in kept else f(cells, i)

    out = supported_pass(g, wz, support)
    assert out == always_copy_extend(g, wz, support)
    visits = [i for i, c in enumerate(wz.cells) if support is None or c in support]
    wrote = any(g(wz.cells, i)[0] or g(wz.cells, i)[1] != wz.cells[i] for i in visits)
    assert (out is wz) == (not wrote)


def test_cells_are_copied_only_when_a_cell_changes():
    wz = WriterZipper(frozenset(), kaappi_at(2))

    def upper_at_4(cells, i):
        return (EMPTY_DELETIONS, cells[i].upper() if i == 4 else cells[i])

    def delete_4(cells, i):
        return (frozenset({4}) if i == 4 else EMPTY_DELETIONS, cells[i])

    upper = writer_extend(upper_at_4, wz)
    assert (upper.cells, upper.index, upper.log) == (tuple("kaapPi"), 2, frozenset())
    assert wz.cells == tuple("kaappi")
    deleted = writer_extend(delete_4, wz)
    assert deleted.log == frozenset({4}) and deleted.cells is wz.cells
