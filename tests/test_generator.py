from __future__ import annotations

import unicodedata

import pytest

from comorph.generator import (
    CASE_TEMPLATES,
    CaseTemplate,
    NounCase,
    UnsupportedStemError,
    generate,
)
from comorph.gradation import Grade
from comorph.pipeline import run_pipeline


def test_template_table_covers_all_cases():
    assert set(CASE_TEMPLATES) == set(NounCase)
    assert len(NounCase) == 11


def test_template_spot_checks():
    assert CASE_TEMPLATES[NounCase.GENITIVE] == CaseTemplate("n", Grade.WEAK)
    assert CASE_TEMPLATES[NounCase.INESSIVE] == CaseTemplate("ssA", Grade.WEAK)
    assert CASE_TEMPLATES[NounCase.NOMINATIVE] == CaseTemplate("", Grade.STRONG)
    assert CASE_TEMPLATES[NounCase.ILLATIVE] == CaseTemplate("Vn", Grade.STRONG)


def test_template_suffix_alphabet():
    for template in CASE_TEMPLATES.values():
        for c in template.suffix:
            assert c.islower() or c in "AOUV"


@pytest.mark.parametrize(
    "lemma,case,expected",
    [
        ("kaappi", NounCase.GENITIVE, "kaapin"),
        ("talo", NounCase.INESSIVE, "talossa"),
        ("ranta", NounCase.INESSIVE, "rannassa"),
        ("talo", NounCase.NOMINATIVE, "talo"),
        ("talo", NounCase.ILLATIVE, "taloon"),
        ("talo", NounCase.PARTITIVE, "taloa"),
        ("kynä", NounCase.INESSIVE, "kynässä"),
        ("ranta", NounCase.TRANSLATIVE, "rannaksi"),
    ],
)
def test_generation_goldens(lemma, case, expected):
    assert generate(lemma, case) == expected


def test_possessive_attaches_after_the_case():
    assert generate("kampa", NounCase.ELATIVE, possessive_3=True) == "kammastaan"
    assert generate("talo", NounCase.INESSIVE, possessive_3=True) == "talossaan"


def test_possessive_not_doubled_on_illative():
    assert generate("talo", NounCase.ILLATIVE, possessive_3=True) == "taloon"


def test_generate_is_template_plus_pipeline():
    template = CASE_TEMPLATES[NounCase.GENITIVE]
    assert generate("kaappi", NounCase.GENITIVE) == run_pipeline(
        "kaappi" + template.suffix, template.grade
    )


@pytest.mark.parametrize("lemma", ["talo", "vene", "kala", "seinä"])
def test_grade_irrelevant_for_nongradable_lemmas(lemma):
    for case in NounCase:
        template = CASE_TEMPLATES[case]
        assert run_pipeline(lemma, Grade.WEAK) == run_pipeline(lemma, Grade.STRONG)
        assert generate(lemma, case) == run_pipeline(
            lemma + template.suffix, template.grade
        )


# The l+t and l+l suffix clusters of these three cases are themselves live
# windows, so the pass is grade-sensitive there even for window-free lemmas.
GRADE_SENSITIVE_SUFFIXES = {NounCase.ABLATIVE, NounCase.ADESSIVE, NounCase.ALLATIVE}


@pytest.mark.parametrize(
    "case", [c for c in NounCase if c not in GRADE_SENSITIVE_SUFFIXES]
)
def test_grade_irrelevant_for_windowfree_suffixes(case):
    underlying = "talo" + CASE_TEMPLATES[case].suffix
    assert run_pipeline(underlying, Grade.WEAK) == run_pipeline(
        underlying, Grade.STRONG
    )


def test_ablative_suffix_cluster_is_a_known_limitation():
    assert generate("talo", NounCase.ABLATIVE) == "talolla"


def test_empty_lemma_rejected():
    with pytest.raises(ValueError):
        generate("", NounCase.GENITIVE)


def test_decomposed_lemma_is_normalized():
    assert generate(unicodedata.normalize("NFD", "kenkä"), NounCase.GENITIVE) == "kengän"


def test_consonant_final_lemma_rejected():
    with pytest.raises(UnsupportedStemError):
        generate("kaunis", NounCase.GENITIVE)
