"""Seeded noun lemmas drawn from a Finnish syllable grammar.

A lemma is two to four open syllables, each an onset and a vowel, with the
vowels of one harmony class (back or front, plus the neutral ``e`` and
``i``). The first syllable's onset is one plain consonant or none, and its
nucleus may be long or a diphthong. Every later onset is drawn by kind:

- ``plain``: a consonant that takes part in no alternation;
- ``geminate`` and ``cluster``: the coda of the syllable before and a stop;
- ``stop``: a single stop after a vowel;
- ``coda stop``: a single stop after ``l``, ``r`` or ``h``;
- ``weak side``: the weak grade's letters, ``v`` and ``d`` after a vowel and
  ``ll``, ``nn``, ``mm``, ``rr``, ``ng``.

The letters are written here from the grammar, apart from ``PATTERNS`` and
from the benchmark's inputs. ``random.Random`` with an int seed draws the
same lemmas on every Python version.
"""

from __future__ import annotations

import random

VOWELS = {"back": "aou", "front": "äöy"}
NEUTRAL = "ei"
INITIAL = ("", "k", "p", "t", "s", "m", "n", "l", "r", "h", "j", "v")
ONSETS = {
    "plain": ("l", "n", "m", "s", "r", "h", "j"),
    "geminate": ("pp", "tt", "kk"),
    "cluster": ("mp", "lt", "nt", "rt", "nk"),
    "stop": ("p", "t", "k"),
    "coda stop": ("lk", "rk", "hk", "lp", "rp", "ht"),
    "weak side": ("v", "d", "ll", "nn", "mm", "rr", "ng"),
}
# Kinds by weight: a plain onset in three of ten draws, each other kind in one or two.
KINDS = ("plain",) * 3 + ("geminate", "cluster", "stop", "stop", "coda stop", "weak side", "weak side")


def draw_lemma(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """One lemma and the kinds of its onsets after the first, left to right."""
    vowels = VOWELS[rng.choice(("back", "front"))] + NEUTRAL
    nucleus = rng.choice(vowels)
    shape = rng.randrange(4)  # a short vowel in two draws of four, else long or a diphthong
    if shape == 2:
        nucleus += nucleus
    elif shape == 3:
        nucleus += "i" if nucleus != "i" else "e"
    word = rng.choice(INITIAL) + nucleus
    kinds = tuple(rng.choice(KINDS) for _ in range(rng.randint(1, 3)))
    for kind in kinds:
        word += rng.choice(ONSETS[kind]) + rng.choice(vowels)
    return word, kinds


def sample(seed: int, size: int) -> list[tuple[str, tuple[str, ...]]]:
    """``size`` distinct lemmas with their onset kinds, in the order drawn."""
    rng = random.Random(seed)
    drawn: dict[str, tuple[str, ...]] = {}
    while len(drawn) < size:
        word, kinds = draw_lemma(rng)
        drawn.setdefault(word, kinds)
    return list(drawn.items())
