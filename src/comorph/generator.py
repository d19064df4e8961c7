"""Inflected surface forms from a lemma and a noun case.

The case data lives in one table: a suffix written with harmony
placeholders plus the stem grade that case takes (closed syllables take
the weak grade, open syllables the strong). Generation itself is nothing
but table lookup followed by the standard pipeline, so corrections to the
paradigm never touch rule code.
"""

import unicodedata
from enum import Enum

from .gradation import Grade
from .pipeline import standard_pipeline
from .record import Record
from .vowels import VOWELS
from .writer import start


class NounCase(Enum):
    __hash__ = object.__hash__
    NOMINATIVE = "nominative"
    GENITIVE = "genitive"
    PARTITIVE = "partitive"
    INESSIVE = "inessive"
    ELATIVE = "elative"
    ILLATIVE = "illative"
    ADESSIVE = "adessive"
    ABLATIVE = "ablative"
    ALLATIVE = "allative"
    ESSIVE = "essive"
    TRANSLATIVE = "translative"


class CaseTemplate(Record):
    __slots__ = ("suffix", "grade")  # suffix: lowercase letters and the placeholders A/O/U/V

    def __init__(self, suffix: str, grade: Grade) -> None:
        super().__init__(suffix, grade)


CASE_TEMPLATES: dict[NounCase, CaseTemplate] = {
    NounCase.NOMINATIVE: CaseTemplate("", Grade.STRONG),
    NounCase.GENITIVE: CaseTemplate("n", Grade.WEAK),
    NounCase.PARTITIVE: CaseTemplate("A", Grade.STRONG),
    NounCase.INESSIVE: CaseTemplate("ssA", Grade.WEAK),
    NounCase.ELATIVE: CaseTemplate("stA", Grade.WEAK),
    NounCase.ILLATIVE: CaseTemplate("Vn", Grade.STRONG),
    NounCase.ADESSIVE: CaseTemplate("llA", Grade.WEAK),
    NounCase.ABLATIVE: CaseTemplate("ltA", Grade.WEAK),
    NounCase.ALLATIVE: CaseTemplate("lle", Grade.WEAK),
    NounCase.ESSIVE: CaseTemplate("nA", Grade.STRONG),
    NounCase.TRANSLATIVE: CaseTemplate("ksi", Grade.WEAK),
}

POSSESSIVE_3_SUFFIX = "Vn"


class UnsupportedStemError(ValueError):
    """Raised for stems this generator cannot inflect."""


def generate(lemma: str, case: NounCase, possessive_3: bool = False) -> str:
    """Inflect ``lemma`` for ``case``, optionally adding the 3rd-person
    possessive ending.

    Only stems ending in a lowercase vowel are supported; consonant-final stems
    would need epenthetic material the rule set cannot insert. A lemma refused
    here meets ``start`` first; the pipeline validates the rest, once.
    """
    lemma = unicodedata.normalize("NFC", lemma)
    if not lemma or lemma[-1] not in VOWELS:
        start(lemma)
        raise UnsupportedStemError(
            f"unsupported stem {lemma!r}: only lemmas ending in a lowercase vowel are handled"
        )
    template = CASE_TEMPLATES[case]
    underlying = lemma + template.suffix
    if possessive_3 and not template.suffix.endswith(POSSESSIVE_3_SUFFIX):
        underlying += POSSESSIVE_3_SUFFIX
    return standard_pipeline(template.grade).run(underlying)
