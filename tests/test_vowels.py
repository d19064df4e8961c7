from __future__ import annotations

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comorph.pipeline import VOWEL_STAGE, Pipeline
from comorph.vowels import (
    HARMONY_PLACEHOLDERS,
    VOWELS,
    harmony_arrow,
    possessive_arrow,
)
from comorph.writer import WriterZipper, lift_pure
from comorph.zipper import extend, from_sequence, to_sequence
from conftest import CONTRACT_ALPHABET
from oracles import grammar_vowels


def run_word(word: str, arrow) -> str:
    return "".join(to_sequence(extend(from_sequence(word, 0), arrow)))


@pytest.mark.parametrize("char", list("aouäöyeikA"))
def test_only_back_and_front_vowels_decide_harmony(char):
    # Alone to the left, only a/o/u gives back harmony; after a back vowel,
    # only ä/ö/y gives front. So e/i, consonants and A are transparent.
    alone = harmony_arrow(from_sequence(char + "A", 1))
    after_back = harmony_arrow(from_sequence("a" + char + "A", 2))
    assert (alone == "a") == (char in "aou")
    assert (after_back == "ä") == (char in "äöy")


def test_detect_harmony_back_stem():
    assert harmony_arrow(from_sequence("talossA", 6)) == "a"


def test_detect_harmony_front_stem():
    assert harmony_arrow(from_sequence("kynässA", 6)) == "ä"


def test_detect_harmony_defaults_to_front():
    assert harmony_arrow(from_sequence("tiessA", 5)) == "ä"


def test_harmony_resolves_whole_words():
    assert run_word("talossA", harmony_arrow) == "talossa"
    assert run_word("pöydässA", harmony_arrow) == "pöydässä"
    assert run_word("tiessA", harmony_arrow) == "tiessä"


def test_harmony_leaves_plain_words_alone():
    assert run_word("kissa", harmony_arrow) == "kissa"


@pytest.mark.parametrize(
    "stem,placeholder,expected",
    [
        ("talo", "A", "a"),
        ("talo", "O", "o"),
        ("talo", "U", "u"),
        ("kynä", "A", "ä"),
        ("kynä", "O", "ö"),
        ("kynä", "U", "y"),
    ],
)
def test_all_placeholders_in_both_contexts(stem, placeholder, expected):
    word = stem + "ss" + placeholder
    assert run_word(word, harmony_arrow) == stem + "ss" + expected


@given(st.integers(0, 8), st.sampled_from("aouäöy"))
def test_neutral_vowels_are_transparent(padding, trigger):
    word = "t" + trigger + "ei" * padding + "ssA"
    resolved = run_word(word, harmony_arrow)
    expected = "a" if trigger in "aou" else "ä"
    assert resolved.endswith("ss" + expected)


@given(st.text(alphabet="abdeghijklmnoprstuvyäö", min_size=1, max_size=20))
def test_harmony_idempotent_on_resolved_text(word):
    once = run_word(word, harmony_arrow)
    assert once == word
    assert run_word(once, harmony_arrow) == once


def test_possessive_copies_nearest_vowel():
    assert run_word("kammastaVn", possessive_arrow) == "kammastaan"
    assert run_word("kengästäVn", possessive_arrow) == "kengästään"


def test_possessive_without_placeholder_is_identity():
    assert run_word("kammastaan", possessive_arrow) == "kammastaan"


def test_possessive_with_no_vowel_raises():
    with pytest.raises(ValueError, match="position 2 has no vowel to its left"):
        run_word("tsV", possessive_arrow)


def test_harmony_does_not_touch_copy_placeholder():
    assert run_word("taloVn", harmony_arrow) == "taloVn"


@given(st.text(alphabet="aehiklmnoprstuvyäöAOUV", min_size=1, max_size=14))
def test_lifted_vowel_arrows_never_delete(word):
    wz = WriterZipper(frozenset(), from_sequence(word, 0))
    for arrow in (harmony_arrow, possessive_arrow):
        lifted = lift_pure(arrow)
        items = to_sequence(wz.zipper)
        for i in range(len(items)):
            unresolvable = (
                arrow is not harmony_arrow
                and items[i] == "V"
                and not VOWELS.union(HARMONY_PLACEHOLDERS).intersection(items[:i])
            )
            if unresolvable:
                with pytest.raises(ValueError, match=f"position {i} "):
                    lifted(items, i)
                continue
            deletions, _ = lifted(items, i)
            assert deletions == frozenset()


def _vowel_outcome(run, word):
    # The word, or a refusal as its type and the position its message names.
    try:
        return run(word)
    except ValueError as exc:
        return (type(exc), int(re.search(r"position (\d+)", str(exc))[1]))


@given(st.text(alphabet=CONTRACT_ALPHABET, min_size=1, max_size=14))
@example("kAV")  # the copy reads a placeholder through harmony
@example("tiessAVn")  # front by default, past neutral vowels
@example("kAlOVUV")  # an unresolved placeholder is skipped by the harmony scan
@example("tsVa")  # no vowel to the left of the V
def test_vowel_stages_match_the_grammar(word):
    vowels = Pipeline((VOWEL_STAGE,))
    assert _vowel_outcome(vowels.run, word) == _vowel_outcome(grammar_vowels, word)
