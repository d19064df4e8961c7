"""Inflected surface forms from a lemma and a noun case.

The paradigm lives in one table. A row holds everything its case does: the
suffix, the suffix with the 3rd-person possessive ending written out, both
with harmony placeholders, and the pipeline it runs (closed syllables take
the weak grade, open syllables the strong). Generation itself is nothing
but one row lookup followed by that pipeline, so corrections to the
paradigm never touch rule code.
"""

from enum import Enum

from .gradation import Grade
from .pipeline import Pipeline, standard_pipeline
from .record import Record
from .vowels import PLACEHOLDERS, VOWELS
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
    # suffix and poss3: lowercase letters and the placeholders A/O/U/V
    __slots__ = ("suffix", "poss3", "pipeline")

    def __init__(self, suffix: str, poss3: str, pipeline: Pipeline) -> None:
        super().__init__(suffix, poss3, pipeline)


_WEAK, _STRONG = standard_pipeline(Grade.WEAK), standard_pipeline(Grade.STRONG)

CASE_TEMPLATES: dict[NounCase, CaseTemplate] = {
    NounCase.NOMINATIVE: CaseTemplate("", "Vn", _STRONG),
    NounCase.GENITIVE: CaseTemplate("n", "nVn", _WEAK),
    NounCase.PARTITIVE: CaseTemplate("A", "AVn", _STRONG),
    NounCase.INESSIVE: CaseTemplate("ssA", "ssAVn", _WEAK),
    NounCase.ELATIVE: CaseTemplate("stA", "stAVn", _WEAK),
    NounCase.ILLATIVE: CaseTemplate("Vn", "Vn", _STRONG),
    NounCase.ADESSIVE: CaseTemplate("llA", "llAVn", _WEAK),
    NounCase.ABLATIVE: CaseTemplate("ltA", "ltAVn", _WEAK),
    NounCase.ALLATIVE: CaseTemplate("lle", "lleVn", _WEAK),
    NounCase.ESSIVE: CaseTemplate("nA", "nAVn", _STRONG),
    NounCase.TRANSLATIVE: CaseTemplate("ksi", "ksiVn", _WEAK),
}


class UnsupportedStemError(ValueError):
    """Raised for stems this generator cannot inflect."""


def generate(lemma: str, case: NounCase, possessive_3: bool = False) -> str:
    """Inflect ``lemma`` for ``case``, with the 3rd-person possessive ending if ``possessive_3``.

    A lemma is a surface word, so it holds no placeholder A/O/U/V, and ends in
    a lowercase vowel: consonant-final stems would need epenthetic material the
    rule set cannot insert. The raw lemma is tested as it comes: a str that passes
    keeps its last letter and case under NFC, and no ending composes with it, so the
    pipeline's ``start`` is the one NFC. Other input meets ``start`` first, which
    returns its checked cells, then the placeholder, stem and case checks, and goes
    on in NFC if it passes them. The row's run is ``start``, one pass, one filter.
    """
    raw = isinstance(lemma, str) and lemma.islower() and lemma[-1] in VOWELS
    if not (raw and isinstance(case, NounCase)):
        lemma = "".join(start(lemma))
        for i, c in enumerate(lemma):
            if c in PLACEHOLDERS:
                raise ValueError(f"character {c!r} at position {i} of a lemma is a placeholder")
        if not (lemma.islower() and lemma[-1] in VOWELS):
            raise UnsupportedStemError(
                f"unsupported stem {lemma!r}: only lemmas ending in a lowercase vowel are handled"
            )
        if not isinstance(case, NounCase):
            raise TypeError(f"case must be a NounCase, not {case!r}")
    row = CASE_TEMPLATES[case]
    return row.pipeline.run(lemma + (row.poss3 if possessive_3 else row.suffix))
