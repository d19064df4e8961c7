from __future__ import annotations

import hypothesis.strategies as st

from comorph.laws import char_arrow, deleting_arrow
from comorph.writer import WriterZipper
from comorph.zipper import from_sequence

LAW_ALPHABET = "abcdgh"
FINNISH_LOWER = "abdeghijklmnoprstuvyäö"


@st.composite
def zippers(draw, alphabet=LAW_ALPHABET, min_size=1, max_size=20):
    word = draw(st.text(alphabet=alphabet, min_size=min_size, max_size=max_size))
    focus = draw(st.integers(0, len(word) - 1))
    return from_sequence(word, focus)


@st.composite
def writer_zippers(draw, max_size=20):
    z = draw(zippers(max_size=max_size))
    n = len(z.left) + 1 + len(z.right)
    log = draw(st.frozensets(st.integers(0, n - 1), max_size=4))
    return WriterZipper(log, z)


salts = st.integers(0, 2**16)
char_functions = st.builds(char_arrow, salts)
writer_arrows = st.builds(deleting_arrow, salts)
