from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# sha256 of the scale-1 transcript at each seed: the same on CPython 3.10, 3.11 and 3.12.
PINS = {
    0: "71c989e3bf426bb9ab0c60a165b19d7b73fbfb60f4c4a517dc75fcef55d761d1",
    1: "2fd6122d8ec5465ab2cb78388f4267dd823bc23b7a961bdc168e68776096d3d9",
    3: "4935ca04d77d2e7557c4991ee732773bd1d193c646621ade4ab80d62d0217252",
}
HARNESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "differential.py")
SECTIONS = [
    "parse_rules",
    "parse_readings",
    "run_cg",
    "format_sentences",
    "comorph cg",
    "comorph cg --trace",
    "run_pipeline",
    "Pipeline.trace",
    "weaken",
    "strengthen",
    "generate",
    "comorph grad",
    "comorph grad --trace",
    "comorph pipeline",
    "comorph harmony",
    "comorph dump-patterns",
    "exceptions",
]


def transcript(seed: int, hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, HARNESS, "--seed", str(seed), "--scale", "1"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_differential_transcript_repeats_and_covers_every_section():
    """One seed gives one transcript, whatever the hash seed, and no section is empty.

    Each transcript is pinned: a change in behaviour updates ``PINS`` and names
    each changed transcript line in CHANGES.md.
    """
    for seed, pin in PINS.items():
        first = transcript(seed, "1")
        assert transcript(seed, "2") == first, f"seed {seed}"
        assert hashlib.sha256(first.encode("utf-8")).hexdigest() == pin, f"seed {seed}"
        blocks = first.split("== ")[1:]
        assert [block.split("\n", 1)[0] for block in blocks] == SECTIONS
        for block in blocks:
            assert block.split("\n", 1)[1].strip(), block
        assert "fire rule" in first and "error ReadingsFormatError" in first
        assert "error UnsupportedStemError" in first and "'gradation\\t" in first
