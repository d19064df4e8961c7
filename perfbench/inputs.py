"""Seeded input generators for the three workloads.

Everything here is plain data built from a ``random.Random``; nothing imports
comorph, so the same seed gives the same inputs whatever the program under
test does. Words use lowercase Finnish letters plus the placeholders
``A/O/U/V``; sentences are lists of tokens, each token a surface form and a
list of distinct ``(pos, baseform, features)`` readings.
"""

from __future__ import annotations

import hashlib
import itertools
import random

BACK = "aou"
FRONT = "äöy"
NEUTRAL = "ei"
PLACEHOLDERS = frozenset("AOUV")

# Onsets that never open a gradation window on their own.
PLAIN_ONSETS = "hjlmnrsv"
# Single stops grade between vowels.
SINGLE_STOPS = "ptk"
# Final-syllable onsets that form a geminate or a gradating cluster with the
# coda of the syllable before them.
WINDOWS = ("pp", "tt", "kk", "mp", "lt", "nt", "rt", "nk")

# Eleven noun cases as (name, suffix, grade), in the README's terms. The
# benchmark keeps its own copy so that the generator's table is checked, not
# trusted.
CASES = (
    ("nominative", "", "strong"),
    ("genitive", "n", "weak"),
    ("partitive", "A", "strong"),
    ("inessive", "ssA", "weak"),
    ("elative", "stA", "weak"),
    ("illative", "Vn", "strong"),
    ("adessive", "llA", "weak"),
    ("ablative", "ltA", "weak"),
    ("allative", "lle", "weak"),
    ("essive", "nA", "strong"),
    ("translative", "ksi", "weak"),
)
POSS3 = "Vn"

POS_TAGS = ("noun", "verb", "adj", "adv", "num", "pron")
FEATURES = ("sg", "pl", "nom", "gen", "par", "ine", "ela", "px3", "act", "pres")
# README alias table, written out independently of comorph.cg.
ALIASES = {
    "lukusana": "num",
    "nimisana": "noun",
    "teonsana": "verb",
    "laatusana": "adj",
    "seikkasana": "adv",
}

PIPELINE_LENGTHS = (10, 100, 1000)
CG_LENGTHS = (3, 300, 3000)


def _vowel(rng: random.Random, harmony: str) -> str:
    return rng.choice(harmony + harmony + NEUTRAL)


def _nucleus(rng: random.Random, harmony: str) -> str:
    v = _vowel(rng, harmony)
    return v + v if rng.random() < 0.15 else v


def lemma(rng: random.Random) -> str:
    """A vowel-final lemma of 2 to 4 syllables in one harmony class.

    About a third carry a geminate or gradating cluster at the onset of the
    final syllable; single p/t/k onsets elsewhere give intervocalic windows.
    """
    harmony = BACK if rng.random() < 0.5 else FRONT
    n_syll = rng.randint(2, 4)
    window = rng.random() < 1 / 3
    parts = []
    for i in range(n_syll):
        last = i == n_syll - 1
        if last and window:
            pair = rng.choice(WINDOWS)
            parts.append(pair[0])  # coda of the syllable before
            onset = pair[1]
        elif i == 0 and rng.random() < 0.2:
            onset = ""
        elif rng.random() < 0.3:
            onset = rng.choice(SINGLE_STOPS)
        else:
            onset = rng.choice(PLAIN_ONSETS)
        parts.append(onset + _nucleus(rng, harmony))
    return "".join(parts)


class SeenFilter:
    """Fixed-size Bloom filter over strings, with a deterministic hash.

    ``add`` reports whether the key may have been added before. It never
    misses a real repeat; a false alarm (expected well under once in a run
    of 300k keys) only makes a caller skip a fresh key. Memory stays at
    4 MiB however many keys a run adds.
    """

    BITS = 1 << 25

    def __init__(self) -> None:
        self._bits = bytearray(self.BITS // 8)

    def add(self, key: str) -> bool:
        digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
        seen = True
        for k in range(0, 16, 4):
            bit = int.from_bytes(digest[k : k + 4], "little") % self.BITS
            byte, mask = bit >> 3, 1 << (bit & 7)
            if not self._bits[byte] & mask:
                seen = False
                self._bits[byte] |= mask
        return seen


class LemmaStream:
    """Distinct lemmas, never repeating within one run."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._seen = SeenFilter()

    def take(self, k: int) -> list[str]:
        out = []
        while len(out) < k:
            w = lemma(self._rng)
            if not self._seen.add(w):
                out.append(w)
        return out


def underlying(stem: str, case_index: int, poss3: bool) -> tuple[str, str]:
    """Underlying form and grade for a stem in one case."""
    _, suffix, grade = CASES[case_index]
    form = stem + suffix
    if poss3 and not suffix.endswith(POSS3):
        form += POSS3
    return form, grade


def paradigm_requests(
    rng: random.Random, lemmas: list[str]
) -> list[tuple[str, int, bool]]:
    """Every (lemma, case index, poss3) for ``lemmas``, shuffled."""
    reqs = [
        (lem, c, p)
        for lem in lemmas
        for c in range(len(CASES))
        for p in (False, True)
    ]
    rng.shuffle(reqs)
    return reqs


def chain_word(rng: random.Random, length: int) -> str:
    """An underlying form of exactly ``length`` chars.

    A chain of inflected lemmas written without boundaries, so gradation
    windows and A/O/U/V placeholders recur along the whole word.
    """
    parts: list[str] = []
    total = 0
    while total < length:
        form, _ = underlying(lemma(rng), rng.randrange(len(CASES)), rng.random() < 0.3)
        parts.append(form)
        total += len(form)
    return "".join(parts)[:length]


def token(rng: random.Random, vocab: "Vocabulary") -> tuple[str, list[tuple[str, str, tuple[str, ...]]]]:
    """One token: a surface and 1 to 4 distinct readings."""
    base = vocab.draw(rng)
    surface = base + rng.choice(("", "", "n", "ssa", "lla", "a"))
    n = rng.choices((1, 2, 3, 4), weights=(4, 3, 2, 1))[0]
    readings: dict[tuple, None] = {}
    while len(readings) < n:
        b = base if rng.random() < 0.75 else vocab.draw(rng)
        feats = tuple(sorted(rng.sample(FEATURES, rng.choice((0, 0, 1, 2)))))
        readings[(rng.choice(POS_TAGS), b, feats)] = None
    return surface, list(readings)


class Vocabulary:
    """Baseforms drawn with Zipf frequencies (weight 1/rank)."""

    def __init__(self, rng: random.Random, size: int = 2000) -> None:
        self.words = LemmaStream(rng).take(size)
        self._cum = list(itertools.accumulate(1.0 / r for r in range(1, size + 1)))

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.words, cum_weights=self._cum)[0]


def sentence(rng: random.Random, vocab: Vocabulary, n_tokens: int) -> list:
    return [token(rng, vocab) for _ in range(n_tokens)]


def sentence_tsv(sent: list) -> str:
    """A sentence in the readings-file format."""
    lines = []
    for surface, readings in sent:
        rs = ";".join(
            f"{pos}:{base}:{','.join(feats)}" if feats else f"{pos}:{base}"
            for pos, base, feats in readings
        )
        lines.append(f"{surface}\t{rs}")
    return "\n".join(lines) + "\n"


# A rule is (action, target, condition) with target/test as ("pos", tag),
# ("base", form) or ("alias", name), and condition None or
# (negated, offset, test).

# The fixed rule list of the length sweep: twelve passes per sentence.
SWEEP_RULES = (
    ("REMOVE", ("pos", "adj"), (True, -1, ("pos", "num"))),
    ("REMOVE", ("pos", "adv"), (False, -1, ("pos", "noun"))),
    ("SELECT", ("pos", "verb"), (False, 1, ("pos", "verb"))),
    ("REMOVE", ("alias", "nimisana"), (False, 1, ("pos", "num"))),
    ("SELECT", ("pos", "noun"), (False, -1, ("alias", "laatusana"))),
    ("REMOVE", ("pos", "pron"), (True, 1, ("alias", "teonsana"))),
    ("SELECT", ("alias", "lukusana"), (False, 2, ("pos", "noun"))),
    ("REMOVE", ("alias", "seikkasana"), (False, -2, ("pos", "verb"))),
    ("SELECT", ("pos", "adj"), (False, 0, ("pos", "noun"))),
    ("REMOVE", ("pos", "num"), (True, 1, ("pos", "noun"))),
    ("REMOVE", ("pos", "verb"), (False, -1, ("pos", "pron"))),
    ("SELECT", ("pos", "noun"), None),
)


def _test_text(test: tuple[str, str]) -> str:
    kind, value = test
    if kind == "pos":
        return f"POS={value}"
    if kind == "base":
        return f"BASEFORM={value}"
    return value


# The shape of the cg_stream rule file: (action, target kind, condition)
# with condition None or (negated, offset, test kind). The shape is fixed so
# that every seed runs the same mix of rule kinds, and the seed only picks
# the tags and baseforms; kinds are "pos", "alias" and "base".
CG_STREAM_RULE_SHAPES = (
    ("REMOVE", "pos", (True, -1, "pos")),
    ("REMOVE", "pos", (False, -1, "pos")),
    ("SELECT", "pos", (False, 1, "pos")),
    ("REMOVE", "alias", (False, 1, "alias")),
    ("SELECT", "alias", (False, -1, "alias")),
    ("REMOVE", "pos", (True, 1, "alias")),
    ("SELECT", "alias", (False, 2, "pos")),
    ("REMOVE", "alias", (False, -2, "pos")),
    ("SELECT", "pos", (False, 0, "pos")),
    ("REMOVE", "pos", (True, 2, "pos")),
    ("REMOVE", "base", (False, -1, "pos")),
    ("SELECT", "base", (False, 1, "alias")),
    ("REMOVE", "pos", (False, 1, "base")),
    ("SELECT", "pos", (True, -2, "base")),
    ("REMOVE", "alias", (False, 0, "base")),
    ("SELECT", "pos", (False, -1, "base")),
    ("REMOVE", "alias", (True, -1, "alias")),
    ("SELECT", "pos", None),
    ("REMOVE", "base", None),
    ("REMOVE", "pos", (False, 2, "alias")),
)


def _random_test(rng: random.Random, vocab: Vocabulary, kind: str) -> tuple[str, str]:
    if kind == "pos":
        return ("pos", rng.choice(POS_TAGS))
    if kind == "alias":
        return ("alias", rng.choice(sorted(ALIASES)))
    return ("base", rng.choice(vocab.words[:15]))


def random_rules(rng: random.Random, vocab: Vocabulary) -> list[tuple]:
    """The cg_stream rule file: fixed shapes, seeded tags and baseforms."""
    rules = []
    for action, target_kind, shape in CG_STREAM_RULE_SHAPES:
        condition = None
        if shape is not None:
            negated, offset, test_kind = shape
            condition = (negated, offset, _random_test(rng, vocab, test_kind))
        rules.append((action, _random_test(rng, vocab, target_kind), condition))
    return rules


def rules_text(rules) -> str:
    """Rule tuples in the README's rule-file syntax."""
    lines = []
    for action, target, condition in rules:
        line = f"{action} {_test_text(target)}"
        if condition is not None:
            negated, offset, test = condition
            neg = "NOT " if negated else ""
            line += f" IF ({neg}{offset:+d} {_test_text(test)})"
        lines.append(line)
    return "\n".join(lines) + "\n"
