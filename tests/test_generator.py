from __future__ import annotations

import sys
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.generator import (
    CASE_TEMPLATES,
    CaseTemplate,
    NounCase,
    UnsupportedStemError,
    generate,
)
from comorph.gradation import Grade
from comorph.pipeline import run_pipeline, standard_pipeline
from conftest import FINNISH_LOWER


def test_template_table_covers_all_cases():
    assert set(CASE_TEMPLATES) == set(NounCase)
    assert len(NounCase) == 11


def test_generate_hashes_its_enums_without_a_python_call():
    """Grade and NounCase set ``__hash__ = object.__hash__``.

    ``Enum.__hash__`` is Python code, and ``generate`` hashes a member once
    per call, in the ``CASE_TEMPLATES`` lookup; the cached ``standard_pipeline``
    hashes a ``Grade`` when the table is built. Members equal only themselves,
    so hashing by identity keeps the tables.
    """
    hashes = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            hashes.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        generate("kukka", NounCase.GENITIVE, possessive_3=True)
    finally:
        sys.setprofile(None)
    assert hashes == []


def test_template_spot_checks():
    weak, strong = standard_pipeline(Grade.WEAK), standard_pipeline(Grade.STRONG)
    assert CASE_TEMPLATES[NounCase.GENITIVE] == CaseTemplate("n", "nVn", weak)
    assert CASE_TEMPLATES[NounCase.INESSIVE] == CaseTemplate("ssA", "ssAVn", weak)
    assert CASE_TEMPLATES[NounCase.NOMINATIVE] == CaseTemplate("", "Vn", strong)
    assert CASE_TEMPLATES[NounCase.ILLATIVE] == CaseTemplate("Vn", "Vn", strong)


def test_template_suffix_alphabet():
    for template in CASE_TEMPLATES.values():
        for c in template.suffix + template.poss3:
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
    row = CASE_TEMPLATES[NounCase.GENITIVE]
    assert generate("kaappi", NounCase.GENITIVE) == row.pipeline.run("kaappi" + row.suffix)
    assert generate("kaappi", NounCase.GENITIVE, True) == row.pipeline.run("kaappi" + row.poss3)


@pytest.mark.parametrize("lemma", ["talo", "vene", "kala", "seinä"])
def test_grade_irrelevant_for_nongradable_lemmas(lemma):
    for case in NounCase:
        row = CASE_TEMPLATES[case]
        assert run_pipeline(lemma, Grade.WEAK) == run_pipeline(lemma, Grade.STRONG)
        assert generate(lemma, case) == row.pipeline.run(lemma + row.suffix)


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


def test_lemma_with_a_non_letter_rejected():
    with pytest.raises(ValueError, match="character '2' at position 4 is not a letter"):
        generate("talo2", NounCase.GENITIVE)


def test_decomposed_lemma_is_normalized():
    assert generate(unicodedata.normalize("NFD", "kenkä"), NounCase.GENITIVE) == "kengän"


def test_consonant_final_lemma_rejected():
    with pytest.raises(UnsupportedStemError):
        generate("kaunis", NounCase.GENITIVE)


VOWEL_FINAL_ONLY = "only lemmas ending in a lowercase vowel are handled"
UPPER_K = "character 'K' at position 0 is upper-case and not a placeholder"


@pytest.mark.parametrize(
    "lemma,error,message",
    [
        ("", ValueError, "cannot process an empty word"),
        ("kala1", ValueError, "character '1' at position 4 is not a letter"),
        ("kal1a", ValueError, "character '1' at position 3 is not a letter"),
        (
            unicodedata.normalize("NFD", "pöytä") + "1",
            ValueError,
            "character '1' at position 5 is not a letter",
        ),
        ("kalan", UnsupportedStemError, f"unsupported stem 'kalan': {VOWEL_FINAL_ONLY}"),
        ("KALA", ValueError, UPPER_K),
        ("KAAPPI", ValueError, UPPER_K),
        ("Kala", ValueError, UPPER_K),
        ("Auto", ValueError, "character 'A' at position 0 of a lemma is a placeholder"),
        ("Otto", ValueError, "character 'O' at position 0 of a lemma is a placeholder"),
        ("kalA", ValueError, "character 'A' at position 3 of a lemma is a placeholder"),
        ("Kalle", ValueError, UPPER_K),
    ],
)
@pytest.mark.parametrize(
    "case", [NounCase.NOMINATIVE, NounCase.GENITIVE, NounCase.ILLATIVE, "genitive"]
)
def test_bad_lemma_error_type_and_message(lemma, error, message, case):
    """A contract error outranks the stem error, wherever it sits, and its position is in NFC.

    A lemma error also outranks a case that is not a ``NounCase``.
    """
    for possessive_3 in (False, True):
        with pytest.raises(ValueError) as info:
            generate(lemma, case, possessive_3=possessive_3)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("case", ["genitive", None, 1, []])
def test_a_case_that_is_not_a_noun_case_is_refused(case):
    with pytest.raises(TypeError) as info:
        generate("kala", case)
    assert str(info.value) == f"case must be a NounCase, not {case!r}"


@given(
    st.text(alphabet=FINNISH_LOWER, max_size=6),
    st.sampled_from("AOUV"),
    st.text(alphabet=FINNISH_LOWER + "AOUV", max_size=6),
    st.sampled_from(NounCase),
    st.booleans(),
)
def test_a_lemma_holding_a_placeholder_is_refused_at_its_position(
    head, placeholder, tail, case, possessive_3
):
    with pytest.raises(ValueError) as info:
        generate(head + placeholder + tail, case, possessive_3)
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"character {placeholder!r} at position {len(head)} of a lemma is a placeholder"
    )


def test_decomposed_lemma_gives_the_composed_forms():
    nfd = unicodedata.normalize("NFD", "pöytä")
    for case in NounCase:
        for possessive_3 in (False, True):
            assert generate(nfd, case, possessive_3) == generate("pöytä", case, possessive_3)
    assert generate(nfd, NounCase.INESSIVE) == "pöydässä"


def test_generate_validates_the_word_once():
    """``writer.start`` runs once per call: in the pipeline, or on a refused lemma."""
    starts = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "start" and code.co_filename.endswith("writer.py"):
            starts.append(frame.f_locals["word"])

    sys.setprofile(profile)
    try:
        generate("kukka", NounCase.GENITIVE, possessive_3=True)
        with pytest.raises(UnsupportedStemError):
            generate("kalan", NounCase.GENITIVE)
    finally:
        sys.setprofile(None)
    assert starts == ["kukkanVn", "kalan"]


def test_a_generated_word_is_normalized_once(monkeypatch):
    """The pipeline's ``start`` is the word path's only NFC: ``generate`` tests the raw lemma."""
    normalize, calls = unicodedata.normalize, []

    def counting(form, text):
        calls.append((form, text))
        return normalize(form, text)

    monkeypatch.setattr(unicodedata, "normalize", counting)
    assert generate("kenkä", NounCase.INESSIVE, True) == "kengässään"
    assert calls == [("NFC", "kenkässAVn")]


def _outcome(lemma, case, possessive_3):
    try:
        return generate(lemma, case, possessive_3)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@given(
    st.text(alphabet=FINNISH_LOWER + "\u0308" + "1K" + "AOUV", max_size=8),
    st.sampled_from([*NounCase, "genitive", None]),
    st.booleans(),
)
def test_a_decomposed_lemma_generates_what_the_lemma_does(lemma, case, possessive_3):
    """As a word, or as the same error type and message, whichever check refuses it."""
    nfd = unicodedata.normalize("NFD", lemma)
    assert _outcome(nfd, case, possessive_3) == _outcome(lemma, case, possessive_3)


@pytest.mark.parametrize("lemma", [None, b"kala", 1])
def test_a_lemma_that_is_not_a_str_is_a_type_error(lemma):
    with pytest.raises(TypeError, match="must be str"):
        generate(lemma, NounCase.GENITIVE)
