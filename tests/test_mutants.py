from __future__ import annotations

import subprocess

import pytest

import mutants
from mutants import MUTANTS, ROOT, TIMEOUT_S, source


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


def test_a_mutant_whose_tests_run_past_the_timeout_is_not_killed(monkeypatch, capsys):
    timeouts = []

    def hang(args, **kwargs):
        timeouts.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", hang)
    mutant = MUTANTS[0]
    assert mutants.run(mutant) == ("timed out", 0)
    assert mutants.main([mutant.name]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"timed out    0 failing  {mutant.name}",
        "1 mutants, 1 not killed",
    ]
    assert timeouts == [TIMEOUT_S, TIMEOUT_S]
