from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# sha256 of the scale-1 transcript at each seed, computed on CPython 3.11;
# 3.10, 3.12 and 3.13 give the same.
PINS = {
    0: "9ecf78c65bdfbfdd303d330717b7072e15f1aea804d275bb8a99f956fc153789",
    1: "6ecdeb43016fe3c3907a593a53e2c030a1ba720a07e3201543cca81b8c060758",
    3: "c8e4c2836897c094757d77715bf0608602b879fddaab9a888091c7670cf274ff",
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
