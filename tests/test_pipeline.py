from __future__ import annotations

import hashlib
import unicodedata

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from comorph.bench import PIPELINE_WORDS
from comorph.gradation import PATTERNS, Grade, gradation_arrow
from comorph.pipeline import (
    VOWEL_STAGE,
    Pipeline,
    compose,
    gradation_pipeline,
    gradation_stage,
    run_pipeline,
    standard_pipeline,
)
from comorph.vowels import VOWELS, harmony_arrow, possessive_arrow
from comorph.writer import (
    EMPTY_DELETIONS,
    WriterZipper,
    lift_pure,
    materialize,
    table_extend,
    writer_extend,
)
from comorph.zipper import extract, from_sequence, to_sequence
from conftest import CONTRACT_ALPHABET, FINNISH_LOWER, writer_arrows, writer_zippers
from oracles import sentinel_pipeline, staged_run

GOLDEN = [
    ("kampAstAVn", "kammastaan"),
    ("rantAssA", "rannassa"),
    ("pukussA", "puussa"),
    ("talossA", "talossa"),
    ("pöydässA", "pöydässä"),
    ("tiessA", "tiessä"),
    ("kenkästAVn", "kengästään"),
]

identity_arrow = lift_pure(extract)


@pytest.mark.parametrize("word,expected", GOLDEN)
def test_pipeline_goldens(word, expected):
    assert run_pipeline(word, Grade.WEAK) == expected


def test_pipeline_rejects_empty_word():
    with pytest.raises(ValueError):
        run_pipeline("", Grade.WEAK)


@pytest.mark.parametrize(
    "word,message",
    [
        ("kaa1ppi", "character '1' at position 3 is not a letter"),
        ("talo ssA", "character ' ' at position 4 is not a letter"),
        ("-ssA", "character '-' at position 0 is not a letter"),
        ("kenkä\u0301", "character '\u0301' at position 5 is not a letter"),
        ("k1Ka", "character '1' at position 1 is not a letter"),
    ],
)
def test_pipeline_rejects_a_non_letter_with_its_position(word, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pipeline(word, Grade.WEAK)


def test_decomposed_word_is_normalized():
    assert run_pipeline(unicodedata.normalize("NFD", "kenkässA"), Grade.WEAK) == "kengässä"


def test_single_letter_word_passes_through():
    assert run_pipeline("a", Grade.WEAK) == "a"


@given(writer_zippers(max_size=12), writer_arrows)
def test_compose_identity_laws_under_extend(wz, f):
    left = writer_extend(compose(identity_arrow, f), wz)
    right = writer_extend(f, wz)
    assert left == right
    left = writer_extend(compose(f, identity_arrow), wz)
    assert left == right


@given(writer_zippers(max_size=12), writer_arrows)
def test_compose_identity_laws_pointwise_chars(wz, f):
    at = (wz.cells, wz.index)
    assert compose(identity_arrow, f)(*at)[1] == f(*at)[1]
    assert compose(f, identity_arrow)(*at)[1] == f(*at)[1]


@given(writer_zippers(max_size=8), writer_arrows, writer_arrows, writer_arrows)
def test_compose_associative_pointwise(wz, f, g, h):
    at = (wz.cells, wz.index)
    assert compose(compose(f, g), h)(*at) == compose(f, compose(g, h))(*at)


def test_compose_gradation_then_harmony_matches_stagewise():
    word = "rantAssA"
    start = WriterZipper(frozenset(), from_sequence(word, 0))
    stage1 = writer_extend(gradation_arrow(Grade.WEAK), start)
    assert "".join(to_sequence(stage1.zipper)) == "rannAssA"
    stage2 = writer_extend(lift_pure(harmony_arrow), stage1)
    assert "".join(to_sequence(stage2.zipper)) == "rannassa"
    composed = compose(gradation_arrow(Grade.WEAK), lift_pure(harmony_arrow))
    assert writer_extend(composed, start) == stage2


@pytest.mark.parametrize("word,_", GOLDEN)
def test_sequential_stages_equal_composed_arrow(word, _):
    stages = standard_pipeline(Grade.WEAK).stages
    start = WriterZipper(frozenset(), from_sequence(word, 0))
    sequential = start
    for _, arrow, *_ in stages:
        sequential = writer_extend(arrow, sequential)
    merged = stages[0][1]
    for _, arrow, *_ in stages[1:]:
        merged = compose(merged, arrow)
    assert writer_extend(merged, start) == sequential
    assert materialize(writer_extend(merged, start)) == run_pipeline(word, Grade.WEAK)


@given(writer_zippers(max_size=8), writer_arrows, writer_arrows)
def test_sequential_extends_equal_composed_extend(wz, f, g):
    assert writer_extend(g, writer_extend(f, wz)) == writer_extend(compose(f, g), wz)


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.example[0])
def test_writer_pipeline_matches_sentinel_oracle(pattern):
    carrier = pattern.example[0] + "ssA"
    assert run_pipeline(carrier, Grade.WEAK) == sentinel_pipeline(carrier, Grade.WEAK)


def test_intermediate_stages_never_change_length():
    rows = standard_pipeline(Grade.WEAK).trace("kampAstAVn")
    assert rows[0].stage == "input"
    assert rows[-1].stage == "materialize"
    for row in rows[:-1]:
        assert len(row.chars) == len("kampAstAVn")
    assert rows[-1].chars == "kammastaan"


def test_trace_rows_render_tab_separated():
    pipeline = Pipeline((gradation_stage(Grade.WEAK),))
    rows = pipeline.trace("kaappi")
    assert [r.render() for r in rows] == [
        "input\tkaappi\t",
        "gradation\tkaappi\t4",
        "materialize\tkaapi\t",
    ]


# Every example of PATTERNS, then the bench's full-pipeline words.
PINNED_WORDS = tuple(w for pat in PATTERNS for w in pat.example) + PIPELINE_WORDS
PINNED_RUNS = {
    Grade.WEAK: (
        "kaapi", "kaavi", "mato", "mado", "kuka", "kua", "kamma", "kamma", "kulla", "kulla",
        "ranna", "ranna", "parra", "parra", "kengä", "kengä", "tuva", "tuva", "kadu", "kadu",
        "puu", "puu", "kammastaan", "rannassa", "puussa", "kengästään",
    ),
    Grade.STRONG: (
        "kaappi", "kaapi", "matto", "mato", "kukka", "kuka", "kampa", "kampa", "kulta", "kulta",
        "ranta", "ranta", "parta", "parta", "kenkä", "kenkä", "tupa", "tupa", "katu", "katu",
        "puku", "puu", "kampastaan", "rantassa", "pukussa", "kenkästään",
    ),
}
# sha256 of every rendered trace row of PINNED_WORDS, strong grade first, one row a line.
PINNED_TRACES = "790586d599c09bd9ced8781234495c4105f36c27c5e906a21fd4305cd545acff"


def test_run_and_trace_give_the_pinned_forms_and_rows():
    for grade, forms in PINNED_RUNS.items():
        assert tuple(standard_pipeline(grade).run(w) for w in PINNED_WORDS) == forms
    traces = [standard_pipeline(g).trace(w) for g in (Grade.STRONG, Grade.WEAK) for w in PINNED_WORDS]
    rows = [r for trace in traces for r in trace]
    assert all(type(r.deletions) is frozenset for r in rows)
    rendered = "\n".join(r.render() for r in rows)
    assert hashlib.sha256(rendered.encode()).hexdigest() == PINNED_TRACES
    assert [r.render() for r in standard_pipeline(Grade.WEAK).trace("pukussA")] == [
        "input\tpukussA\t", "gradation\tpukussA\t2", "vowels\tpukussa\t2", "materialize\tpuussa\t",
    ]


@given(st.integers(0, 9))
def test_starting_focus_does_not_matter(focus):
    word = "kampAstAVn"
    start = WriterZipper(frozenset(), from_sequence(word, min(focus, len(word) - 1)))
    wz = start
    for _, arrow, *_ in standard_pipeline(Grade.WEAK).stages:
        wz = writer_extend(arrow, wz)
    assert materialize(wz) == "kammastaan"


def test_writer_extract_reads_stage_focus():
    start = WriterZipper(frozenset(), from_sequence("tupa", 2))
    composed = compose(gradation_arrow(Grade.WEAK), identity_arrow)
    assert composed(start.cells, start.index)[1] == "v"
    assert extract(writer_extend(gradation_arrow(Grade.WEAK), start)) == "v"


# Grade -> gradation's (support, reads, writes): the window letters, the vowels and the targets.
GRADATION_LETTERS = {
    Grade.WEAK: ("ptk", "ptkmlnraouäöyei", "mlnrgvd"),
    Grade.STRONG: ("mlnrgvd", "mlnrgvdaouäöyei", "ptk"),
}


@pytest.mark.parametrize("grade", Grade)
def test_standard_stages_carry_their_supports(grade):
    stages = standard_pipeline(grade).stages
    assert stages == (gradation_stage(grade), VOWEL_STAGE)
    assert stages[0][2:] == tuple(map(frozenset, GRADATION_LETTERS[grade]))
    vowels = ("AOUV", "aouäöyeiAOUV", "aouäöyei")
    assert VOWEL_STAGE[2:] == tuple(map(frozenset, vowels))


contract_words = st.text(alphabet=CONTRACT_ALPHABET, min_size=1, max_size=16)

# A first stage that writes a vowel the vowel stage reads: a list that runs it
# before the vowel stage is refused, for one pass would read the e it rewrites.
E_TO_A = (
    "e-to-a",
    lift_pure(lambda z: "a" if z.focus == "e" else z.focus),
    frozenset("e"),
    frozenset("e"),
    frozenset("a"),
)
WEAK, STRONG = gradation_stage(Grade.WEAK), gradation_stage(Grade.STRONG)
STAGE_CHOICES = (WEAK, STRONG, VOWEL_STAGE, E_TO_A)


@pytest.mark.parametrize(
    "grade,stage",
    [(g, k) for g in Grade for k in range(3)],
    ids=lambda v: v.value if isinstance(v, Grade) else str(v),
)
@given(word=contract_words)
@example(word="tuVa")  # V, the upper case of the gradable v, is the copy placeholder
@example(word="AkkA")  # harmony placeholders beside a geminate
@example(word="kampa")  # m, n and r open an exact window with their right neighbour
@example(word="kenkä")
@example(word="parta")
def test_stage_is_the_identity_outside_its_support(grade, stage, word):
    """The standard stages, then ``E_TO_A``: each stage the stage-list property draws."""
    _, arrow, support, _, _ = (*standard_pipeline(grade).stages, E_TO_A)[stage]
    for i, c in enumerate(word):
        if c not in support:
            assert arrow(tuple(word), i) == (EMPTY_DELETIONS, c), (word, i)


@pytest.mark.parametrize("grade", ["weak", None, []])
@pytest.mark.parametrize(
    "build",
    [
        lambda g: run_pipeline("kukka", g),
        standard_pipeline,
        gradation_pipeline,
        gradation_stage,
        gradation_arrow,
    ],
    ids=[
        "run_pipeline", "standard_pipeline", "gradation_pipeline", "gradation_stage", "gradation_arrow"
    ],
)
def test_a_grade_that_is_not_a_grade_is_refused(build, grade):
    with pytest.raises(TypeError) as info:
        build(grade)
    assert str(info.value) == f"grade must be a Grade, not {grade!r}"


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("stage", range(4), ids=["weak", "strong", "vowels", "e-to-a"])
@given(word=contract_words)
@example(word="kampa")  # the vowels around a single consonant are read
@example(word="kAV")
def test_a_stage_reads_and_writes_only_the_letters_it_states(stage, word):
    """At a cell of its support a rule gives the same with every letter it does not
    read turned into h, which no stage reads, and writes only its writes."""
    _, arrow, support, reads, writes = STAGE_CHOICES[stage]
    blind = "".join(c if c in reads else "h" for c in word)
    for i, c in enumerate(word):
        if c in support:
            out = _outcome(arrow, tuple(word), i)
            assert out == _outcome(arrow, tuple(blind), i)
            assert out[0] is ValueError or out[1] in writes | {c}, (word, i, out)


@given(contract_words, st.sampled_from(Grade))
@example("ptpttV", Grade.WEAK)  # a V error after a deletion
def test_run_pipeline_matches_sentinel_oracle_on_contract_words(word, grade):
    assert _outcome(run_pipeline, word, grade) == _outcome(sentinel_pipeline, word, grade)


@given(contract_words, st.sampled_from(Grade))
@example("Auto", Grade.WEAK)  # a placeholder-initial word is a contract word
@example("VA", Grade.WEAK)
def test_run_pipeline_accepts_every_contract_word(word, grade):
    """Only a V with no vowel, resolved or not, to its left is refused."""
    first_v = word.find("V")
    stranded = first_v >= 0 and not set(word[:first_v]) & set("aouäöyeiAOU")
    try:
        out = run_pipeline(word, grade)
    except ValueError as exc:
        assert stranded, word
        assert str(exc) == f"copy placeholder V at position {first_v} has no vowel to its left"
    else:
        assert not stranded and out.islower(), (word, out)


# Upper-case letters outside the contract; NFC turns U+212A KELVIN SIGN into K.
UPPER_CASE = "".join(c for c in FINNISH_LOWER.upper() if c not in "AOUV") + "\u212a"
UPPER_CASE_ERROR = "character {!r} at position {} is upper-case and not a placeholder"


def first_upper_case(word: str) -> tuple[str, int]:
    """The first upper-case letter of ``word`` in NFC that is no placeholder, and its position."""
    word = unicodedata.normalize("NFC", word)
    return next((c, i) for i, c in enumerate(word) if c.isupper() and c not in "AOUV")


@given(
    st.text(alphabet=CONTRACT_ALPHABET, max_size=8),
    st.sampled_from(UPPER_CASE),
    st.text(alphabet=CONTRACT_ALPHABET + UPPER_CASE, max_size=8),
    st.sampled_from(Grade),
    st.booleans(),
)
@example("", "\u212a", "aakka", Grade.WEAK, False)
@example("pöy", "T", "Ä", Grade.WEAK, True)  # NFD splits Ä into the placeholder A and U+0308
def test_an_upper_case_letter_is_rejected_at_its_position(head, upper, tail, grade, decompose):
    word = head + upper + tail
    if decompose:
        word = unicodedata.normalize("NFD", word)
    with pytest.raises(ValueError) as info:
        run_pipeline(word, grade)
    assert str(info.value) == UPPER_CASE_ERROR.format(*first_upper_case(word))


@pytest.mark.parametrize(
    "word,expected",
    [("AV", "ää"), ("の", "の"), ("kの", "kの"), ("\u03d2", "\u03d2")],
)
def test_letters_without_a_lower_case_pass_the_contract(word, expected):
    """Caseless letters, and U+03D2, an upper-case letter with no lower case, are no error."""
    assert run_pipeline(word, Grade.WEAK) == expected


ONE_PASS_PIPELINES = {
    **{f"standard-{g.value}": standard_pipeline(g) for g in Grade},
    **{f"gradation-{g.value}": gradation_pipeline(g) for g in Grade},
    "harmony": Pipeline((VOWEL_STAGE,)),  # what ``comorph harmony`` runs
}


@pytest.mark.parametrize("name", ONE_PASS_PIPELINES)
@given(word=contract_words)
@example(word="talossAVn")  # the copy reads a placeholder as harmony resolves it
@example(word="kampAstAVn")
@example(word="ptpttV")  # a V error after a deletion
@example(word="AV")
def test_one_pass_equals_the_staged_passes(name, word):
    """``run``'s one pass gives the word, or the error, of one pass per stage."""
    pipeline = ONE_PASS_PIPELINES[name]
    ran = _outcome(pipeline.run, word)
    assert ran == _outcome(lambda w: pipeline.trace(w)[-1].chars, word)
    assert ran == _outcome(staged_run, pipeline.stages, word)


def test_the_copy_reads_a_placeholder_as_harmony_resolves_it():
    def copy(word):
        wz = WriterZipper(EMPTY_DELETIONS, from_sequence(word, 0))
        return materialize(writer_extend(lift_pure(possessive_arrow), wz))

    assert copy("talossAVn") == "talossAan"
    assert copy("kynässAVn") == "kynässAän"
    assert copy("AV") == "Aä"


EVERY_CELL = ("every cell", VOWEL_STAGE[1], None, frozenset(), frozenset())
COPY = ("copy", VOWEL_STAGE[1], frozenset("V"), frozenset("aouäöyeiV"), frozenset("aouäöyei"))
# A stage that states no reads still reads the cells it owns.
BLIND_COPY = ("blind copy", VOWEL_STAGE[1], frozenset("V"), frozenset(), frozenset())
READS = "stage {!r} reads what {!r} before it owns or writes"


@pytest.mark.parametrize(
    "stages,message",
    [
        # Staged, kampa weakens to kamma and strengthens back; one pass gives kamma.
        ((WEAK, STRONG), READS.format("gradation", "gradation")),
        ((STRONG, WEAK), READS.format("gradation", "gradation")),
        # In one pass, gradation would read the A of kampA as no vowel.
        ((VOWEL_STAGE, WEAK), READS.format("gradation", "vowels")),
        ((VOWEL_STAGE, STRONG), READS.format("gradation", "vowels")),
        ((VOWEL_STAGE, COPY), READS.format("copy", "vowels")),
        ((VOWEL_STAGE, BLIND_COPY), READS.format("blind copy", "vowels")),
        ((E_TO_A, VOWEL_STAGE), READS.format("vowels", "e-to-a")),
        ((WEAK, VOWEL_STAGE, E_TO_A), READS.format("e-to-a", "vowels")),
        ((EVERY_CELL, VOWEL_STAGE), "stage 'every cell' of 2 has no support"),
        ((VOWEL_STAGE, EVERY_CELL), "stage 'every cell' of 2 has no support"),
        ((EVERY_CELL,), "stage 'every cell' of 1 has no support"),
    ],
    ids=[
        "weak-then-strong", "strong-then-weak", "vowels-then-gradation",
        "vowels-then-strong-gradation", "overlap", "overlap-without-reads",
        "e-to-a-then-vowels", "vowels-then-e-to-a", "none-first", "none-second", "none-alone",
    ],
)
def test_pipeline_refuses_stages_one_pass_cannot_run(stages, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Pipeline(stages)


SHAPE = "(name, arrow, support, reads, writes)"


@pytest.mark.parametrize(
    "stages,message",
    [
        ("abc", f"stage 0 of 3 is not a {SHAPE} tuple: 'a'"),
        ((("x", None, frozenset("e")),), f"stage 0 of 1 is not a {SHAPE} tuple: ('x', None, "),
        # As a list, the stage would leave the pipeline record unhashable.
        ((WEAK, list(VOWEL_STAGE)), f"stage 1 of 2 is not a {SHAPE} tuple: ['vowels', "),
    ],
    ids=["a-string", "three-fields", "a-list"],
)
def test_a_stage_of_the_wrong_shape_is_a_type_error(stages, message):
    with pytest.raises(TypeError) as info:
        Pipeline(stages)
    assert str(info.value).startswith(message)


def test_the_constructor_leaves_the_callers_sets_as_they_were():
    support, reads, writes = {"X"}, {"a"}, {"a"}
    pipeline = Pipeline((("x-to-a", identity_arrow, support, reads, writes),))
    assert (support, reads, writes) == ({"X"}, {"a"}, {"a"})
    assert pipeline.stages[0][2:] == ({"X"}, {"a"}, {"a"})


def test_a_pipeline_of_a_stage_list_or_plain_sets_hashes_and_equals_its_frozen_twin():
    listed, twin = Pipeline([VOWEL_STAGE]), Pipeline((VOWEL_STAGE,))
    assert listed == twin and hash(listed) == hash(twin)
    plain = Pipeline((("x", identity_arrow, {"b"}, {"a"}, {"a"}),))
    frozen = Pipeline((("x", identity_arrow, frozenset("b"), frozenset("a"), frozenset("a")),))
    assert plain == frozen and hash(plain) == hash(frozen)


@pytest.mark.parametrize("field", ["support", "reads", "writes"])
@pytest.mark.parametrize("letters", [["a"], "a", ("a",)], ids=["list", "str", "tuple"])
def test_a_stage_letter_field_that_is_not_a_set_is_a_type_error(field, letters):
    fields = dict.fromkeys(("support", "reads", "writes"), frozenset("a")) | {field: letters}
    stage = ("odd", identity_arrow, fields["support"], fields["reads"], fields["writes"])
    with pytest.raises(TypeError) as info:
        Pipeline((VOWEL_STAGE, stage))
    assert str(info.value) == f"stage 'odd' {field} is not a set or frozenset: {letters!r}"


def test_a_pass_hands_each_rule_its_input_cells_at_support_cells_in_order():
    """The pass contract: a rule is called only at the cells its table gives it, in
    ascending position, each time with the pass's input cells, never its output so far."""
    calls = []

    def mark(cells, i):
        calls.append((cells, i))
        return (frozenset({i}) if cells[i] == "b" else EMPTY_DELETIONS, "x")

    stage = ("mark", mark, frozenset("ab"), frozenset("ab"), frozenset("x"))
    assert Pipeline((stage,)).run("cabcab") == "cxcx"
    given_cells = calls[0][0]
    assert type(given_cells) is tuple and given_cells == tuple("cabcab")
    assert all(cells is given_cells for cells, _ in calls)
    assert [i for _, i in calls] == [1, 2, 4, 5]
    calls.clear()
    wz = WriterZipper(EMPTY_DELETIONS, from_sequence("cabcab", 0))
    out = table_extend(dict.fromkeys(stage[2], mark), wz)
    assert (out.cells, out.log) == (tuple("cxxcxx"), frozenset({2, 5}))
    assert [(cells is wz.cells, i) for cells, i in calls] == [(True, 1), (True, 2), (True, 4), (True, 5)]


def test_lift_pure_hands_its_rule_the_zipper_at_each_position():
    seen = []
    wz = WriterZipper(EMPTY_DELETIONS, from_sequence("kaappi", 0))
    writer_extend(lift_pure(lambda z: seen.append(z) or z.cells[z.index]), wz)
    assert seen == [from_sequence(wz.cells, i) for i in range(6)]
    assert all(z.cells is wz.cells for z in seen)


@pytest.mark.parametrize(
    "word,staged,one_pass",
    [
        ("kessA", "kassa", "kassä"),
        ("kessAVn", "kassaan", "kassään"),
        ("tepAVn", "tapaan", "tapään"),
    ],
    ids=["kessA", "kessAVn", "tepAVn"],
)
def test_e_to_a_before_the_vowel_stage_is_refused_where_one_pass_differs(word, staged, one_pass):
    """Staged, the vowel stage reads the a that e-to-a writes; one pass reads the e."""
    assert staged_run((E_TO_A, VOWEL_STAGE), word) == staged
    table = {"e": E_TO_A[1], **dict.fromkeys(VOWEL_STAGE[2], VOWEL_STAGE[1])}
    wz = WriterZipper(EMPTY_DELETIONS, from_sequence(word, 0))
    assert materialize(table_extend(table, wz)) == one_pass
    with pytest.raises(ValueError, match=f"^{READS.format('vowels', 'e-to-a')}$"):
        Pipeline((E_TO_A, VOWEL_STAGE))


# The harmony rule alone, as a stage: it resolves A/O/U and leaves V standing.
HARMONY_ONLY = ("harmony", lift_pure(harmony_arrow), frozenset("AOU"), VOWELS, VOWELS)


@pytest.mark.parametrize(
    "stages,word,expected",
    [
        ((WEAK, HARMONY_ONLY), "kessA", "kessä"),
        ((WEAK, HARMONY_ONLY), "kessAVn", "kessäVn"),
        ((WEAK, VOWEL_STAGE), "kessA", "kessä"),
        ((WEAK, VOWEL_STAGE), "kessAVn", "kessään"),
        ((WEAK, VOWEL_STAGE), "kampAstAVn", "kammastaan"),
        ((STRONG, VOWEL_STAGE), "kammAstAVn", "kampastaan"),
        ((WEAK, E_TO_A), "tepe", "tava"),
    ],
    ids=[
        "harmony-kessA", "harmony-kessAVn", "possessive-kessA", "possessive-kessAVn",
        "weak-then-vowels", "strong-then-vowels", "weak-then-e-to-a",
    ],
)
def test_trace_ends_in_the_word_run_gives(stages, word, expected):
    pipeline = Pipeline(stages)
    assert pipeline.run(word) == expected
    assert pipeline.trace(word)[-1].chars == expected


def test_trace_row_k_is_the_pass_of_the_first_k_stages():
    rows = Pipeline((WEAK, VOWEL_STAGE)).trace("kukkAstAVn")
    assert [r.render() for r in rows] == [
        "input\tkukkAstAVn\t",
        "gradation\tkukkAstAVn\t3",
        "vowels\tkukkastaan\t3",
        "materialize\tkukastaan\t",
    ]


@given(word=contract_words, stages=st.lists(st.sampled_from(STAGE_CHOICES), max_size=4))
# Were these accepted, one pass would give kassä, kassään and kamma.
@example(word="kessA", stages=[E_TO_A, VOWEL_STAGE])
@example(word="kessAVn", stages=[E_TO_A, VOWEL_STAGE])
@example(word="kampa", stages=[WEAK, STRONG])
def test_trace_ends_in_what_run_gives_for_every_accepted_stage_list(word, stages):
    """Every list the constructor takes runs as its staged passes; its trace ends there too."""
    try:
        pipeline = Pipeline(tuple(stages))
    except ValueError as exc:
        if "reads what" not in str(exc):
            raise  # only the order refusal discards a list
        assume(False)
    ran = _outcome(pipeline.run, word)
    assert ran == _outcome(staged_run, pipeline.stages, word)
    assert ran == _outcome(lambda w: pipeline.trace(w)[-1].chars, word)
