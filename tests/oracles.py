"""Independent reference implementations the tests check the library against.

Nothing here may call the code path it is used to verify: refocusing is done
by rebuilding from the flat sequence, deletion by filtering, the sentinel
pipeline really does materialize between stages, the staged run makes one
always-copy pass per stage where ``Pipeline.run`` makes one in all, the CG
reference indexes a plain list and takes nothing from ``comorph.cg`` but its
data, the readings-file references build only through the public, checking
``Reading`` and ``ReadingSet`` constructors, and the always-copy pass calls
its word rule at every cell of its support on the cells it was given and
copies every cell, and the vowel and paradigm references are written from the grammar
with their own letters and tables, taking nothing from ``comorph.gradation``,
``comorph.vowels`` or ``comorph.generator``.
"""

from __future__ import annotations

import re
import unicodedata

from comorph.cg import Reading, ReadingSet, ReadingsFormatError
from comorph.gradation import Grade, gradation_arrow
from comorph.vowels import COPY_PLACEHOLDER, VOWELS, harmony_arrow, possessive_arrow
from comorph.writer import WriterZipper
from comorph.zipper import Zipper, from_sequence, to_sequence

SENTINEL = "\0"


def refocus_enumerate(z: Zipper, f) -> list:
    """Apply f at every index by rebuilding the zipper from scratch."""
    seq = to_sequence(z)
    return [f(from_sequence(seq, i)) for i in range(len(seq))]


def filter_materialize(word: str, positions: set[int]) -> str:
    return "".join(c for i, c in enumerate(word) if i not in positions)


def naive_extend_word(word: str, f) -> str:
    return "".join(refocus_enumerate(from_sequence(word, 0), f))


def _sentinel_marks(word: str, grade: Grade) -> str:
    # ``word`` graded, with SENTINEL in place of each letter the arrow logs as deleted.
    arrow = gradation_arrow(grade)

    def local(w: Zipper) -> str:
        deletions, out = arrow(w.cells, w.index)
        return SENTINEL if deletions else out

    return naive_extend_word(word, local)


def sentinel_gradate(word: str, grade: Grade) -> str:
    return _sentinel_marks(word, grade).replace(SENTINEL, "")


def sentinel_pipeline(word: str, grade: Grade) -> str:
    """Three stages with an eager filter-and-rebuild between each.

    A V with no vowel to its left raises ValueError naming its position in
    ``word``, not in the shorter word left after gradation's deletions.
    """
    marked = _sentinel_marks(word, grade)
    origin = [i for i, c in enumerate(marked) if c != SENTINEL]
    stage1 = marked.replace(SENTINEL, "")
    stage2 = naive_extend_word(stage1, harmony_arrow) if stage1 else stage1
    for j, c in enumerate(stage2):
        if c == COPY_PLACEHOLDER and not VOWELS.intersection(stage2[:j]):
            raise ValueError(
                f"copy placeholder V at position {origin[j]} has no vowel to its left"
            )
    stage3 = naive_extend_word(stage2, possessive_arrow) if stage2 else stage2
    return stage3


def grammar_vowels(word: str) -> str:
    """Vowel harmony, then the copy vowel, as a Finnish grammar states them.

    Each A/O/U takes the backness of the nearest back (a, o, u) or front
    (ä, ö, y) vowel to its left, front when there is none; e and i are
    neutral. Then each V copies the nearest vowel to its left, or raises
    ValueError naming its position when there is none. Each reads only what
    lies to its left, so one pass from the left does both.
    """
    umlaut = {"a": "ä", "o": "ö", "u": "y"}
    back = False  # whether the nearest back or front vowel so far is a back one
    last = None  # the nearest vowel so far
    out = []
    for i, c in enumerate(word):
        if c in "AOU":
            c = c.lower() if back else umlaut[c.lower()]
        elif c in "aouäöy":
            back = c in "aou"
        elif c == "V":
            if last is None:
                raise ValueError(f"copy placeholder V at position {i} has no vowel to its left")
            c = last
        if c in "aeiouyäö":
            last = c
        out.append(c)
    return "".join(out)


# Consonant gradation toward the weak grade, as a grammar lists it: a geminate
# or cluster (the coda before the onset, the onset) -> the weak onset, and a
# single stop after a vowel -> its weak form; "" is an onset that is lost.
GRAMMAR_CLUSTERS = {
    "pp": "", "tt": "", "kk": "", "mp": "m", "lt": "l", "nt": "n", "rt": "r", "nk": "g",
}
GRAMMAR_STOPS = {"p": "v", "t": "d", "k": ""}

# Case -> (suffix, suffix with the 3rd-person possessive, whether it takes the
# weak grade); a copy of the generator's case table, kept apart from it.
GRAMMAR_CASES = {
    "nominative": ("", "Vn", False),
    "genitive": ("n", "nVn", True),
    "partitive": ("A", "AVn", False),
    "inessive": ("ssA", "ssAVn", True),
    "elative": ("stA", "stAVn", True),
    "illative": ("Vn", "Vn", False),
    "adessive": ("llA", "llAVn", True),
    "ablative": ("ltA", "ltAVn", True),
    "allative": ("lle", "lleVn", True),
    "essive": ("nA", "nAVn", False),
    "translative": ("ksi", "ksiVn", True),
}


def grammar_paradigm(lemma: str, case: str, poss3: bool) -> str:
    """The form of ``lemma`` in ``case`` (a ``GRAMMAR_CASES`` name), as a grammar builds it.

    A weak-grade case rewrites only the onset of the lemma's final syllable,
    the consonant before its final vowels, by the window it makes with the
    letter to its left; a strong-grade case leaves the lemma as it is. Then
    ``grammar_vowels`` runs over the lemma and the suffix.
    """
    suffix, poss3_suffix, weak = GRAMMAR_CASES[case]
    j = len(lemma.rstrip("aeiouyäö")) - 1  # the final syllable's onset
    if weak and j > 0:
        left, onset = lemma[j - 1], lemma[j]
        if left + onset in GRAMMAR_CLUSTERS:
            lemma = lemma[:j] + GRAMMAR_CLUSTERS[left + onset] + lemma[j + 1 :]
        elif left in "aeiouyäö" and onset in GRAMMAR_STOPS:
            lemma = lemma[:j] + GRAMMAR_STOPS[onset] + lemma[j + 1 :]
    return grammar_vowels(lemma + (poss3_suffix if poss3 else suffix))


def always_copy_extend(f, wz: WriterZipper, support=None) -> WriterZipper:
    """``writer_extend`` without its shortcuts.

    Calls the word rule ``f`` on the input cells at every cell whose value is
    in ``support`` (every cell when it is None), copies every cell into a new
    list and unions every emitted deletion into the log.
    """
    cells = list(wz.zipper.cells)
    log = set(wz.log)
    for i, c in enumerate(wz.zipper.cells):
        if support is None or c in support:
            deletions, cells[i] = f(wz.zipper.cells, i)
            log |= deletions
    return WriterZipper(frozenset(log), from_sequence(cells, wz.zipper.index))


def staged_run(stages, word: str) -> str:
    """``word`` through ``stages`` one always-copy pass each, then the log filtered out.

    ``word`` must already be NFC and in the word contract: nothing here checks it.
    """
    wz = WriterZipper(frozenset(), from_sequence(word, 0))
    for _, arrow, support, _, _ in stages:
        wz = always_copy_extend(arrow, wz, support)
    return filter_materialize("".join(wz.zipper.cells), wz.log)


def passes(test, reading) -> bool:
    """Whether ``reading`` passes a ``ReadingTest``, read by field name."""
    if test.field == "pos":
        return reading.pos == test.value
    if test.field == "baseform":
        return reading.baseform == test.value
    raise AssertionError(f"unknown reading field {test.field!r}")


def cg_reference(sentence, rules) -> list[ReadingSet]:
    """The README's SELECT / REMOVE semantics, one pass per rule.

    Every position of a pass reads the sentence as it stood before that
    pass; an offset outside the sentence is no match, and NOT flips the
    result; a token never loses its last reading.
    """
    current = list(sentence)
    for rule in rules:
        before = current
        current = []
        for i, token in enumerate(before):
            cond = rule.condition
            if cond is not None:
                j = i + cond.offset
                hit = 0 <= j < len(before) and any(
                    passes(cond.test, r) for r in before[j].readings
                )
                if hit == cond.negated:
                    current.append(token)
                    continue
            picked = {r for r in token.readings if passes(rule.target, r)}
            if rule.action.value == "SELECT":
                survivors = picked
            else:
                survivors = set(token.readings) - picked
            if survivors and survivors != set(token.readings):
                token = ReadingSet(token.surface, frozenset(survivors))
            current.append(token)
    return current


def parse_readings_reference(text: str) -> list[list[ReadingSet]]:
    """The README's readings format, one line at a time, through the public constructors.

    A malformed line raises ReadingsFormatError whose message starts with
    ``line N:``; the rest of the message is not part of the reference.
    """
    sentences: list[list[ReadingSet]] = [[]]
    for number, line in enumerate(unicodedata.normalize("NFC", text).splitlines(), start=1):
        if line.isspace() or not line:
            sentences.append([])
            continue
        m = re.fullmatch(r"([^\t]*)\t(.*)", line, re.DOTALL)
        if m is None or not m[1].strip() or not m[2].strip():
            raise ReadingsFormatError(f"line {number}: not surface<TAB>readings")
        readings = []
        for item in (item.strip() for item in m[2].split(";")):
            if not item:
                continue
            pos, _, rest = item.partition(":")
            baseform, _, features = rest.partition(":")
            pos, baseform = pos.strip(), baseform.strip()
            if ":" not in item or not pos or not baseform:
                raise ReadingsFormatError(f"line {number}: malformed reading")
            features = {feature.strip() for feature in features.split(",")} - {""}
            readings.append(Reading(baseform, pos, frozenset(features)))
        if not readings:
            raise ReadingsFormatError(f"line {number}: no readings")
        sentences[-1].append(ReadingSet(m[1].strip(), readings))
    return [sentence for sentence in sentences if sentence]


def format_sentences_reference(sentences) -> str:
    """The TSV format back, readings ordered by (pos, baseform, sorted features)."""

    def reading(r: Reading) -> str:
        features = sorted(r.features)
        return f"{r.pos}:{r.baseform}" + (f":{','.join(features)}" if features else "")

    def key(r: Reading):
        return (r.pos, r.baseform, sorted(r.features))

    return "\n\n".join(
        "\n".join(
            f"{rs.surface}\t" + ";".join(reading(r) for r in sorted(rs.readings, key=key))
            for rs in sentence
        )
        for sentence in sentences
    )
