"""``generate`` against noun paradigms written from Finnish grammar.

The table is ``finnish_paradigms.tsv``: one cell a line, each holding the
Finnish form. A cell with a gap mark is a known gap of the generator; it
records today's output and is not checked against ``generate``. The grammar
reference ``oracles.grammar_paradigm`` is checked on the cells whose only
gap is gradation's (``item 3``) as well as on the unmarked ones.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from comorph.generator import NounCase, generate
from oracles import grammar_paradigm

TABLE = Path(__file__).with_name("finnish_paradigms.tsv")
GAPS = {
    "item 3",
    "item 10",
    "items 3 and 10",
    "out of scope: stem-vowel alternation",
    "out of scope: e-stem",
}


def _cells() -> list[tuple[str, NounCase, bool, str, tuple[str, ...]]]:
    cells = []
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            lemma, case, variant, form, *gap = line.split("\t")
            assert variant in ("plain", "poss3"), line
            cells.append((lemma, NounCase(case), variant == "poss3", form, tuple(gap)))
    return cells


CELLS = _cells()
LEMMAS = list(dict.fromkeys(cell[0] for cell in CELLS))


def test_the_table_holds_every_case_plain_and_poss3_of_each_lemma():
    assert len(LEMMAS) >= 12
    every = {(case, poss3) for case in NounCase for poss3 in (False, True)}
    for lemma in LEMMAS:
        keys = [(case, poss3) for name, case, poss3, _, _ in CELLS if name == lemma]
        assert len(keys) == len(every) and set(keys) == every, lemma


def test_a_gap_mark_names_what_removes_it_and_records_todays_output():
    for lemma, case, poss3, form, gap in CELLS:
        if gap:
            mark, today = gap
            assert mark in GAPS and today and today != form, (lemma, case, poss3)


@pytest.mark.parametrize("lemma", LEMMAS)
def test_generate_gives_the_finnish_form_of_every_unmarked_cell(lemma):
    cells = [(case, poss3, form) for name, case, poss3, form, gap in CELLS if name == lemma and not gap]
    wrong = [
        f"{case.value} poss3={poss3}: {out!r}, Finnish {form!r}"
        for case, poss3, form in cells
        if (out := generate(lemma, case, poss3)) != form
    ]
    assert not wrong, wrong


def test_the_grammar_reference_gives_the_finnish_form_of_every_unmarked_or_item_3_cell():
    cells = [cell for cell in CELLS if cell[4][:1] in ((), ("item 3",))]
    wrong = [
        f"{lemma} {case.value} poss3={poss3}: {out!r}, Finnish {form!r}"
        for lemma, case, poss3, form, _ in cells
        if (out := grammar_paradigm(lemma, case.value, poss3)) != form
    ]
    assert cells and not wrong, wrong
