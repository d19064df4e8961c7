from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.gradation import PATTERNS, Grade, gradation_arrow
from comorph.pipeline import (
    Pipeline,
    compose,
    run_pipeline,
    standard_pipeline,
)
from comorph.vowels import harmony_arrow
from comorph.writer import (
    WriterZipper,
    lift_pure,
    materialize,
    writer_extend,
)
from comorph.zipper import extract, from_sequence, to_sequence
from conftest import writer_arrows, writer_zippers
from oracles import sentinel_pipeline

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
    assert compose(identity_arrow, f)(wz)[1] == f(wz)[1]
    assert compose(f, identity_arrow)(wz)[1] == f(wz)[1]


@given(writer_zippers(max_size=8), writer_arrows, writer_arrows, writer_arrows)
def test_compose_associative_pointwise(wz, f, g, h):
    assert compose(compose(f, g), h)(wz) == compose(f, compose(g, h))(wz)


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
    for _, arrow in stages:
        sequential = writer_extend(arrow, sequential)
    merged = stages[0][1]
    for _, arrow in stages[1:]:
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
    pipeline = Pipeline((("gradation", gradation_arrow(Grade.WEAK)),))
    rows = pipeline.trace("kaappi")
    assert [r.render() for r in rows] == [
        "input\tkaappi\t",
        "gradation\tkaappi\t4",
        "materialize\tkaapi\t",
    ]


@given(st.integers(0, 9))
def test_starting_focus_does_not_matter(focus):
    word = "kampAstAVn"
    start = WriterZipper(frozenset(), from_sequence(word, min(focus, len(word) - 1)))
    wz = start
    for _, arrow in standard_pipeline(Grade.WEAK).stages:
        wz = writer_extend(arrow, wz)
    assert materialize(wz) == "kammastaan"


def test_writer_extract_reads_stage_focus():
    start = WriterZipper(frozenset(), from_sequence("tupa", 2))
    composed = compose(gradation_arrow(Grade.WEAK), identity_arrow)
    assert composed(start)[1] == "v"
    assert extract(writer_extend(gradation_arrow(Grade.WEAK), start)) == "v"
