from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT, source


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_snippet_occurs_exactly_once(mutant):
    """The full run lives in ``tests/mutants.py``; here only the table is checked."""
    assert source(mutant).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
