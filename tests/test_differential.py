from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# sha256 of the scale-1 transcript at each seed, computed on CPython 3.11;
# 3.10, 3.12 and 3.13 give the same.
PINS = {
    0: "2505c2dc0334e0148a59d1f578df3a4f98d6b1509e86162920b059106df57d77",
    1: "a2a42d48383ce5cd266dc082ab7644ce1a1f2f7572d1aa3693a52b4954bd6f0b",
    3: "04fd697107d29c683adfd80435856995c59e4d70d8c5165c5fb10c0ada8df078",
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
