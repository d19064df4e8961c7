from __future__ import annotations

from comorph.laws import _shrink, char_arrow, deleting_arrow, run_all
from comorph.zipper import from_sequence


def test_reports_count_cases():
    reports = run_all(seed=3, cases=50)
    assert all(r.cases == 50 for r in reports)


def test_arrows_are_deterministic():
    z = from_sequence("abcd", 2)
    f = char_arrow(42)
    assert f(z) == f(z)
    g = deleting_arrow(42)
    assert g(z.cells, z.index) == g(z.cells, z.index)


def test_shrink_finds_a_minimal_failing_case():
    failing = lambda case: len(case[0]) >= 3
    small = _shrink(("gfedcba", 4, 1, 2), failing)
    assert small[0] == "aaa"
    assert failing(small)


def test_shrink_normalizes_a_one_character_case_toward_a():
    always = lambda case: True
    assert _shrink(("b", 0, 1, 2), always) == ("a", 0, 1, 2)
    assert _shrink(("bc", 1, 1, 2), always) == ("a", 0, 1, 2)


def test_distinct_salts_give_distinct_rules():
    z = from_sequence("abcdefg", 3)
    outputs = {char_arrow(s)(z) for s in range(40)}
    assert len(outputs) > 1
