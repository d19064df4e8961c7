"""Expected outputs, computed outside every timed region.

Words: the sentinel pipeline from ``tests/oracles.py`` (it materializes
between stages and refocuses by rebuilding), fed by the benchmark's own copy
of the case table, plus the README goldens.

Sentences: a plain list-indexing reading of the README's SELECT / REMOVE /
NOT semantics. Every position of a pass reads the sentence as it stood
before that pass; an offset outside the sentence is no match, and NOT flips
the result; a token never loses its last reading.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from inputs import ALIASES

# (lemma, case index, poss3) -> surface, from the README.
GOLDENS = (
    (("kaappi", 1, False), "kaapin"),
    (("kampa", 4, True), "kammastaan"),
    (("talo", 5, False), "taloon"),
    (("kynä", 3, False), "kynässä"),
)


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` from the checkout by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _matches(test: tuple[str, str], reading: tuple) -> bool:
    kind, value = test
    pos, base, _ = reading
    if kind == "base":
        return base == value
    if kind == "alias":
        value = ALIASES[value]
    return pos == value


def cg_reference(sentence: list, rules: list[tuple]) -> list[frozenset]:
    """Reading sets per token after every rule, one pass per rule."""
    cur = [frozenset(readings) for _, readings in sentence]
    n = len(cur)
    for action, target, condition in rules:
        new = []
        for i, readings in enumerate(cur):
            if condition is not None:
                negated, offset, test = condition
                j = i + offset
                hit = 0 <= j < n and any(_matches(test, r) for r in cur[j])
                if hit == negated:
                    new.append(readings)
                    continue
            matching = frozenset(r for r in readings if _matches(target, r))
            if action == "SELECT":
                keep = matching if matching and matching != readings else readings
            else:
                rest = readings - matching
                keep = rest if rest and rest != readings else readings
            new.append(keep)
        cur = new
    return cur


def parse_tsv(text: str) -> list[list[tuple[str, frozenset]]]:
    """Read the readings-file format into (surface, reading set) per token."""
    sentences = []
    for block in text.strip("\n").split("\n\n"):
        tokens = []
        for line in block.split("\n"):
            surface, rest = line.split("\t")
            readings = set()
            for r in rest.split(";"):
                parts = r.split(":", 2)
                feats = tuple(sorted(f for f in parts[2].split(",") if f)) if len(parts) == 3 else ()
                readings.add((parts[0], parts[1], feats))
            tokens.append((surface, frozenset(readings)))
        sentences.append(tokens)
    return sentences
