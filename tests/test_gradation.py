from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.gradation import (
    PATTERNS,
    GradationPattern,
    Grade,
    gradate_at,
    gradation_arrow,
    strengthen,
    weaken,
)
from comorph.writer import WriterZipper, materialize, writer_extend
from comorph.zipper import from_sequence

# Transcribed strong-side geminate and cluster windows, kept independent of
# the pattern table so scans against it mean something.
STRONG_WINDOWS = [
    ("p", "p"), ("t", "t"), ("k", "k"),
    ("m", "p"), ("l", "t"), ("n", "t"), ("r", "t"), ("n", "k"),
]

TABLE_ROWS = [(p.example[0], p.example[1]) for p in PATTERNS]
DELETION_EXAMPLES = {"kaappi", "matto", "kukka", "puku"}
ROUNDTRIP_EXAMPLES = [s for s, _ in TABLE_ROWS if s not in DELETION_EXAMPLES]


def test_pattern_table_shape():
    assert len(PATTERNS) == 11
    assert sorted(p.kotus_index for p in PATTERNS) == list(range(1, 12))


def test_priority_ordering_geminates_clusters_singles():
    kinds = [p.kind for p in PATTERNS]
    assert kinds == (
        ["quantitative"] * 3 + ["qualitative-cluster"] * 5 + ["qualitative-single"] * 3
    )


def test_deletion_rows_are_exactly_the_four():
    assert sorted(p.kotus_index for p in PATTERNS if p.deleting) == [1, 2, 3, 6]


@pytest.mark.parametrize("strong,weak", TABLE_ROWS)
def test_weaken_reproduces_table(strong, weak):
    assert weaken(strong) == weak


def weak_at(word: str, i: int) -> str | None:
    return gradate_at(from_sequence(word, i), Grade.WEAK)


def test_is_pos0_geminate():
    # The first p of "kaappi" opens the pp window, so it is kept.
    assert weak_at("kaappi", 3) == "p"


def test_is_pos0_cluster_matches_window_scan():
    assert ("n", "t") in STRONG_WINDOWS
    assert weak_at("ranta", 2) == "n"
    for c0, c1 in STRONG_WINDOWS:
        word = "a" + c0 + c1 + "a"
        assert weak_at(word, 1) == c0
        assert weak_at(word, 2) != c1


def test_is_pos0_needs_a_right_neighbour():
    # A word-final geminate opens nothing to its right: its tail still goes.
    assert weak_at("kapp", 2) == "p"
    assert weak_at("kapp", 3) is None


def test_find_pattern_geminate():
    assert weak_at("kaappi", 4) is None


def test_find_pattern_prefers_cluster_over_single():
    assert weak_at("ranta", 3) == "n"


def test_find_pattern_rejects_nonmatching_left():
    assert weak_at("kasta", 3) == "t"


def test_find_pattern_single_needs_vowel_left():
    assert weak_at("tupa", 2) == "v"
    assert weak_at("alpa", 2) == "p"
    assert weak_at("pata", 0) == "p"


def test_gradate_at_suppresses_window_openers():
    assert weak_at("rantta", 3) == "t"
    assert weak_at("rantta", 4) is None


def test_gradate_at_deletes_geminate_tail():
    assert weak_at("matto", 3) is None
    assert weak_at("puku", 2) is None


def test_gradate_at_replaces_single():
    assert weak_at("tupa", 2) == "v"
    assert gradate_at(from_sequence("tuva", 2), Grade.STRONG) == "p"


@given(st.text(alphabet="aeikmnoprstuvyäö", min_size=1, max_size=12), st.data())
def test_gradate_at_yields_exactly_one_outcome(word, data):
    i = data.draw(st.integers(0, len(word) - 1))
    out = gradate_at(from_sequence(word, i), Grade.WEAK)
    assert out is None or (isinstance(out, str) and len(out) == 1)


def test_arrow_logs_deleted_position():
    wz = WriterZipper(frozenset(), from_sequence("kaappi", 0))
    out = writer_extend(gradation_arrow(Grade.WEAK), wz)
    assert out.log == frozenset({4})
    assert materialize(out) == "kaapi"


def test_arrow_is_identity_without_patterns():
    wz = WriterZipper(frozenset(), from_sequence("talo", 0))
    out = writer_extend(gradation_arrow(Grade.WEAK), wz)
    assert out.log == frozenset()
    assert materialize(out) == "talo"


def test_weaken_strengthen_pairs():
    assert weaken("kampa") == "kamma"
    assert strengthen("kamma") == "kampa"
    assert weaken("kenkä") == "kengä"
    assert strengthen("kengä") == "kenkä"


def test_weaken_normalizes_decomposed_input():
    assert weaken(unicodedata.normalize("NFD", "kenkä")) == "kengä"


def test_deletion_loses_the_geminate():
    assert strengthen(weaken("kaappi")) == "kaapi"


def test_suppression_blocks_the_single_rule():
    assert weaken("kaappi") == "kaapi"
    assert weaken("kaappi") != "kaavi"


@pytest.mark.parametrize("word", ROUNDTRIP_EXAMPLES)
def test_roundtrip_on_nondeleting_examples(word):
    assert strengthen(weaken(word)) == word


@pytest.mark.parametrize("word", sorted(DELETION_EXAMPLES))
def test_roundtrip_fails_only_for_deletions(word):
    assert strengthen(weaken(word)) != word


@given(
    st.sampled_from("hjlmsv"),
    st.sampled_from("aouäöy"),
    st.sampled_from(["mp", "lt", "nt", "rt", "nk", "p", "t"]),
    st.sampled_from("aouäöy"),
)
def test_roundtrip_on_random_stems_with_live_clusters(c0, v0, cluster, v1):
    word = c0 + v0 + cluster + v1
    weakened = weaken(word)
    assert weakened != word
    assert strengthen(weakened) == word


def test_case_preserved_outside_replacements():
    assert weaken("Kaappi") == "Kaapi"
    assert weaken("Kampa") == "Kamma"


def test_single_patterns_need_a_vowel_on_the_right():
    assert weaken("taloksi") == "taloksi"
    assert weaken("rantaksi") == "rannaksi"


def test_placeholders_are_not_gradable_letters():
    assert strengthen("taloVn") == "taloVn"
    assert weaken("katA") == "katA"


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        weaken("")
    with pytest.raises(ValueError):
        strengthen("")


def test_patterns_expose_both_sides():
    for pat in PATTERNS:
        assert isinstance(pat, GradationPattern)
        assert pat.source_window(Grade.WEAK) == pat.strong
        assert pat.target_window(Grade.WEAK) == pat.weak
