"""Independent reference implementations the tests check the library against.

Nothing here may call the code path it is used to verify: refocusing is done
by rebuilding from the flat sequence, deletion by filtering, and the
sentinel pipeline really does materialize between stages.
"""

from __future__ import annotations

from comorph.gradation import Grade, gradate_at
from comorph.vowels import harmony_arrow, possessive_arrow
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


def sentinel_gradate(word: str, grade: Grade) -> str:
    def local(w: Zipper) -> str:
        out = gradate_at(w, grade)
        return SENTINEL if out is None else out

    marked = naive_extend_word(word, local)
    return marked.replace(SENTINEL, "")


def sentinel_pipeline(word: str, grade: Grade) -> str:
    """Three stages with an eager filter-and-rebuild between each."""
    stage1 = sentinel_gradate(word, grade)
    stage2 = naive_extend_word(stage1, harmony_arrow) if stage1 else stage1
    stage3 = naive_extend_word(stage2, possessive_arrow) if stage2 else stage2
    return stage3
