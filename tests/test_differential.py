from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# sha256 of the scale-1 transcript at each seed: the same on CPython 3.10, 3.11 and 3.12.
PINS = {
    0: "866f33b9567a5b58610d4a453d690f9174d4eda100a434e17469bc63cb638f10",
    1: "f2c827f223d672c72fc28e94d5263c6cfe839d736483b0d3f1a5dda9d16a7562",
    3: "493bdf7397c6869779a37082158eacbab90661912ac10831889c3f8ed7087062",
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
