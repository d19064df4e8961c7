from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import comorph
from comorph.writer import WriterZipper
from comorph.zipper import Zipper, extend, extract, from_sequence, to_sequence
from conftest import char_functions, zippers
from oracles import refocus_enumerate


def test_from_sequence_splits_contexts():
    z = from_sequence("kaappi", 3)
    assert (z.cells, z.index, z.focus) == (("k", "a", "a", "p", "p", "i"), 3, "p")


def test_from_sequence_singleton():
    z = from_sequence("x", 0)
    assert (z.cells, z.index, z.focus) == (("x",), 0, "x")


def test_from_sequence_rightmost_focus():
    z = from_sequence("abc", 2)
    assert (z.cells, z.index, z.focus) == (("a", "b", "c"), 2, "c")


def test_from_sequence_rejects_empty():
    with pytest.raises(ValueError):
        from_sequence("", 0)


@pytest.mark.parametrize("index", [-1, 3, 10])
def test_from_sequence_rejects_bad_index(index):
    with pytest.raises(ValueError):
        from_sequence("abc", index)


@pytest.mark.parametrize("index", [1.0, True, False, "1", None])
def test_from_sequence_refuses_a_focus_that_is_not_an_int(index):
    with pytest.raises(TypeError) as info:
        from_sequence("abc", index)
    assert str(info.value) == f"focus index must be int, not {index!r}"


def test_repr_round_trips_through_eval():
    z = from_sequence("abc", 1)
    assert repr(z) == "from_sequence(('a', 'b', 'c'), 1)"
    assert eval(repr(z)) == z


def test_extract_reads_focus():
    assert extract(from_sequence("kaappi", 3)) == "p"
    assert extract(from_sequence("x", 0)) == "x"


@given(st.text(alphabet="abcde", min_size=1, max_size=12), st.data())
def test_extract_matches_constructor_index(word, data):
    i = data.draw(st.integers(0, len(word) - 1))
    assert extract(from_sequence(word, i)) == word[i]


def test_peek_reads_neighbours_and_stops_at_the_ends():
    z = from_sequence("kaappi", 3)
    assert (z.peek(-1), z.peek(0), z.peek(1)) == ("a", "p", "p")
    assert (z.peek(-3), z.peek(2)) == ("k", "i")
    assert z.peek(-4) is None
    assert z.peek(3) is None


def test_to_sequence_and_position():
    z = from_sequence("kaappi", 3)
    assert "".join(to_sequence(z)) == "kaappi"
    assert z.index == 3
    assert to_sequence(from_sequence("x", 0)) == ("x",)
    assert from_sequence("x", 0).index == 0


@given(zippers())
def test_from_to_sequence_roundtrip(z):
    assert from_sequence(to_sequence(z), z.index) == z


def test_extend_applies_at_every_position():
    z = from_sequence("abc", 0)
    got = extend(z, lambda w: w.index)
    assert to_sequence(got) == (0, 1, 2)
    assert to_sequence(got) == tuple(refocus_enumerate(z, lambda w: w.index))


@given(zippers())
def test_extend_extract_is_identity(z):
    assert extend(z, extract) == z


@given(zippers(), char_functions)
def test_extract_after_extend_applies_at_focus(z, f):
    assert extract(extend(z, f)) == f(z)


@given(zippers(max_size=12), char_functions, char_functions)
def test_extend_composes_associatively(z, f, g):
    assert extend(extend(z, f), g) == extend(z, lambda w: g(extend(w, f)))


@given(zippers(), char_functions)
def test_extend_preserves_shape(z, f):
    out = extend(z, f)
    assert out.index == z.index
    assert len(to_sequence(out)) == len(to_sequence(z))


@given(zippers(max_size=10), char_functions)
def test_extend_agrees_with_refocusing_oracle(z, f):
    assert list(to_sequence(extend(z, f))) == refocus_enumerate(z, f)


@given(zippers())
def test_extend_returns_its_input_when_no_cell_changes(z):
    assert extend(z, extract) is z


def test_extend_is_the_whole_pass_and_takes_no_positions():
    assert list(inspect.signature(extend).parameters) == ["z", "f"]
    with pytest.raises(TypeError):
        extend(from_sequence("abc", 0), extract, [0])


@pytest.mark.parametrize("log", [None, frozenset(), frozenset({1, 4})])
def test_a_zipper_is_its_cells_and_index_and_its_focus_is_derived(log):
    assert Zipper.__slots__ == ("cells", "index")
    assert WriterZipper.__slots__ == ("log", "zipper")
    for i in range(len("kaappi")):
        z = from_sequence("kaappi", i)
        if log is not None:
            wz = WriterZipper(log, z)
            assert wz.zipper is z and not hasattr(wz, "__dict__")
        assert not hasattr(z, "__dict__")
        assert z.focus == extract(z) == z.cells[z.index] == "kaappi"[i]
        with pytest.raises(AttributeError):
            z.focus = "x"


def test_the_zipper_is_the_one_focused_sequence_class():
    """No class in ``comorph`` subclasses ``Zipper``; ``WriterZipper`` holds one."""
    classes = []
    for info in pkgutil.iter_modules(comorph.__path__):
        module = importlib.import_module(f"comorph.{info.name}")
        classes += [c for _, c in inspect.getmembers(module, inspect.isclass)]
    assert WriterZipper in classes
    assert [c for c in classes if issubclass(c, Zipper) and c is not Zipper] == []
    assert [c for c in Zipper.__subclasses__() if c.__module__.startswith("comorph")] == []
    assert not hasattr(Zipper, "_key")
