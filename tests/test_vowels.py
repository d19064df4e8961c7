from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comorph.vowels import (
    VOWELS,
    HarmonyClass,
    detect_harmony,
    harmony_arrow,
    possessive_arrow,
)
from comorph.writer import WriterZipper, lift_pure
from comorph.zipper import extend, from_sequence, to_sequence


def run_word(word: str, arrow) -> str:
    return "".join(to_sequence(extend(from_sequence(word, 0), arrow)))


@pytest.mark.parametrize("char", list("aouäöyeikA"))
def test_only_back_and_front_vowels_decide_harmony(char):
    # Alone to the left, only a/o/u gives back harmony; after a back vowel,
    # only ä/ö/y gives front. So e/i, consonants and A are transparent.
    alone = detect_harmony(from_sequence(char + "A", 1))
    after_back = detect_harmony(from_sequence("a" + char + "A", 2))
    assert (alone is HarmonyClass.BACK) == (char in "aou")
    assert (after_back is HarmonyClass.FRONT) == (char in "äöy")


def test_detect_harmony_back_stem():
    assert detect_harmony(from_sequence("talossA", 6)) is HarmonyClass.BACK


def test_detect_harmony_front_stem():
    assert detect_harmony(from_sequence("kynässA", 6)) is HarmonyClass.FRONT


def test_detect_harmony_defaults_to_front():
    assert detect_harmony(from_sequence("tiessA", 5)) is HarmonyClass.FRONT


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
            refocused = WriterZipper(frozenset(), from_sequence(items, i))
            unresolvable = (
                arrow is possessive_arrow
                and items[i] == "V"
                and not VOWELS.intersection(items[:i])
            )
            if unresolvable:
                with pytest.raises(ValueError, match=f"position {i} "):
                    lifted(refocused)
                continue
            deletions, _ = lifted(refocused)
            assert deletions == frozenset()
