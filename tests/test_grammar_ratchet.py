"""``generate`` against the grammar reference on a seeded sample of lemmas.

``lemmas.sample(SEED, SIZE)`` draws the lemmas; each has 22 cells, 11 cases
plain and with the 3rd-person possessive. The cells where ``generate``
differs from ``oracles.grammar_paradigm`` are pinned, as a count per
``(case, poss3)`` and as a sha of their sorted list. A change that fixes
cells lowers the pins and names the cells it fixed; a count that rises is a
regression. The pins follow the oracle: a change to ``grammar_paradigm``
moves them in the same change as the fix under ``src/``.

The ablative gap (its ``lt`` grades to ``ll``) is in every lemma's cells.
The other gap classes hang on a lemma's onsets, so the sample is also
checked to hold lemmas of each of them.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from comorph.generator import NounCase, generate
from lemmas import sample
from oracles import grammar_paradigm

SEED, SIZE = 0, 400
SAMPLE = sample(SEED, SIZE)

GRADING = ("geminate", "cluster", "stop")
GAP_CLASSES = {
    "item 3: an onset before the final syllable grades": (
        lambda kinds: any(kind in GRADING for kind in kinds[:-1])
    ),
    "item 10: a strong-grade case strengthens weak-side letters": (
        lambda kinds: "weak side" in kinds
    ),
    "item 19: a single stop after l, r or h at the final onset": (
        lambda kinds: kinds[-1] == "coda stop"
    ),
}
PINNED_CLASSES = {
    "item 3: an onset before the final syllable grades": 143,
    "item 10: a strong-grade case strengthens weak-side letters": 130,
    "item 19: a single stop after l, r or h at the final onset": 53,
}

# Differing cells per case, (plain, poss3): every ablative, and in each other
# case as many as there are lemmas of its grade's class, item 10 for the
# strong-grade cases and item 3 for the weak-grade ones.
PINNED_COUNTS = {
    "nominative": (130, 130),
    "genitive": (143, 143),
    "partitive": (130, 130),
    "inessive": (143, 143),
    "elative": (143, 143),
    "illative": (130, 130),
    "adessive": (143, 143),
    "ablative": (400, 400),
    "allative": (143, 143),
    "essive": (130, 130),
    "translative": (143, 143),
}
# sha256 of the sorted differing cells, one a line:
# lemma, case, plain or poss3, generate's form, the grammar's form, tab-separated.
PINNED_SHA = "7d10aa34fa000c5cee48e70212e5b2f434d964fe85a22d5c4f16309c9cafdb4e"


def _differing() -> list[tuple[str, str, bool, str, str]]:
    return sorted(
        (lemma, case.value, poss3, out, want)
        for lemma, _ in SAMPLE
        for case in NounCase
        for poss3 in (False, True)
        if (out := generate(lemma, case, poss3)) != (want := grammar_paradigm(lemma, case.value, poss3))
    )


def test_the_sample_holds_lemmas_of_every_gap_class():
    assert len(SAMPLE) == SIZE
    held = {name: sum(map(holds, (kinds for _, kinds in SAMPLE))) for name, holds in GAP_CLASSES.items()}
    assert held == PINNED_CLASSES
    assert all(held.values())


def test_generate_differs_from_the_grammar_on_the_pinned_cells():
    cells = _differing()
    counts = Counter((case, poss3) for _, case, poss3, _, _ in cells)
    assert {case: (counts[case, False], counts[case, True]) for case in PINNED_COUNTS} == PINNED_COUNTS
    lines = "\n".join(
        "\t".join((lemma, case, "poss3" if poss3 else "plain", out, want))
        for lemma, case, poss3, out, want in cells
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_SHA
