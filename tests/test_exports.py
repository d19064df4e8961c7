"""The package's name table: each public name is bound on first read."""

import importlib
import types

import pytest

import comorph

SUBMODULES = ["cg", "gradation", "generator", "pipeline", "record", "vowels", "writer", "zipper"]


@pytest.mark.parametrize("name", comorph.__all__)
def test_each_name_is_the_object_its_home_submodule_defines(name):
    home = importlib.import_module(f"comorph.{comorph._HOME[name]}")
    value = getattr(comorph, name)
    assert value is getattr(home, name)
    if not isinstance(value, (tuple, types.GenericAlias)):  # PATTERNS, DeletionSet
        assert value.__module__ == home.__name__


def test_dir_lists_every_public_name_and_a_star_import_binds_them():
    assert set(comorph.__all__) | set(SUBMODULES) <= set(dir(comorph))
    namespace = {}
    exec("from comorph import *", namespace)
    assert {name: namespace[name] for name in comorph.__all__} == {
        name: getattr(comorph, name) for name in comorph.__all__
    }


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'comorph' has no attribute 'nope'$"):
        comorph.nope
    assert not hasattr(comorph, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'comorph'"):
        exec("from comorph import nope", {})


def test_a_second_read_is_a_plain_lookup(monkeypatch):
    reads = []
    find = comorph.__getattr__

    def counting(name):
        reads.append(name)
        return find(name)

    monkeypatch.delitem(vars(comorph), "generate", raising=False)
    monkeypatch.setattr(comorph, "__getattr__", counting)
    first, second = comorph.generate, comorph.generate
    assert reads == ["generate"]
    assert first is second is importlib.import_module("comorph.generator").generate
