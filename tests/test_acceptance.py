"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

from __future__ import annotations

import random
import time

from comorph import laws
from comorph.bench import run_benchmarks
from comorph.cg import apply_rule, parse_rules, run_cg
from comorph.gradation import PATTERNS, Grade
from comorph.generator import NounCase, generate
from comorph.pipeline import run_pipeline, strengthen, weaken
from comorph.vowels import harmony_arrow
from comorph.zipper import extend, from_sequence, to_sequence
from oracles import sentinel_pipeline
from test_cg import cascade_sentence, random_rule, random_sentence, rs

DELETION_ROWS = {1, 2, 3, 6}


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_gradation_table_fidelity():
    t0 = time.perf_counter()
    ok = all(weaken(strong) == weak for strong, weak in (p.example for p in PATTERNS))
    ok = ok and len(PATTERNS) == 11
    ok = ok and (time.perf_counter() - t0) < 1.0
    report(1, "gradation table fidelity", ok)


def test_criterion_2_roundtrip_split():
    ok = True
    for pattern in PATTERNS:
        strong = pattern.example[0]
        roundtrips = strengthen(weaken(strong)) == strong
        if pattern.kotus_index in DELETION_ROWS:
            ok = ok and not roundtrips
        else:
            ok = ok and roundtrips
    report(2, "roundtrip on non-deletion patterns only", ok)


def test_criterion_3_algebraic_laws():
    t0 = time.perf_counter()
    cases = 1000
    reports = laws.run_all(seed=0, cases=cases)
    ok = all(r.passed for r in reports)
    # 210 shapes cover every (length, focus) pair for lengths 1..20.
    ok = ok and cases >= 210
    ok = ok and [r.name for r in reports] == [
        "deletion-monoid",
        "zipper-extend-extract-identity",
        "zipper-extract-after-extend",
        "zipper-extend-associativity",
        "writer-extend-extract-identity",
        "writer-extract-after-extend",
        "writer-log-associativity",
        "writer-compose-equivalence",
        "writer-support-equivalence",
    ]
    ok = ok and (time.perf_counter() - t0) < 30.0
    report(3, "comonad and monoid law suites", ok)


def test_criterion_4_writer_matches_sentinel_oracle():
    ok = True
    for pattern in PATTERNS:
        carrier = pattern.example[0] + "ssA"
        ok = ok and run_pipeline(carrier, Grade.WEAK) == sentinel_pipeline(
            carrier, Grade.WEAK
        )
    report(4, "deferred deletion matches sentinel filtering", ok)


def test_criterion_5_pipeline_goldens():
    expected = {
        "kampAstAVn": "kammastaan",
        "rantAssA": "rannassa",
        "pukussA": "puussa",
        "talossA": "talossa",
        "pöydässA": "pöydässä",
        "tiessA": "tiessä",
        "kenkästAVn": "kengästään",
    }
    ok = all(run_pipeline(w, Grade.WEAK) == out for w, out in expected.items())
    report(5, "pipeline goldens", ok)


def test_criterion_6_generator_goldens():
    ok = (
        generate("kaappi", NounCase.GENITIVE) == "kaapin"
        and generate("talo", NounCase.INESSIVE) == "talossa"
        and generate("ranta", NounCase.INESSIVE) == "rannassa"
        and generate("kampa", NounCase.ELATIVE, possessive_3=True) == "kammastaan"
    )
    report(6, "generator goldens", ok)


def test_criterion_7_cg_scenarios_and_safety():
    kuusi = rs("kuusi", ("num", "kuusi"), ("noun", "kuusi"))
    koiraa = rs("koiraa", ("noun", "koira"))
    kasvaa = rs("kasvaa", ("verb", "kasvaa"))
    ei = rs("ei", ("verb", "ei"))
    voi = rs("voi", ("noun", "voi"), ("verb", "voida"))

    out = run_cg([kuusi, koiraa], parse_rules("SELECT POS=num IF (+1 POS=noun)"))
    ok = out[0] == rs("kuusi", ("num", "kuusi"))
    out = run_cg([kuusi, kasvaa], parse_rules("SELECT POS=noun IF (+1 POS=verb)"))
    ok = ok and out[0] == rs("kuusi", ("noun", "kuusi"))
    out = run_cg([ei, voi], parse_rules("SELECT POS=verb IF (-1 BASEFORM=ei)"))
    ok = ok and out[1] == rs("voi", ("verb", "voida"))
    cascade = run_cg(
        cascade_sentence(),
        parse_rules(
            "REMOVE POS=adj IF (NOT -1 POS=num)\n"
            "REMOVE POS=adv IF (-1 POS=noun)\n"
            "SELECT POS=verb IF (+1 POS=verb)"
        ),
    )
    ok = ok and cascade[1] == rs("tuuli", ("verb", "tuulla"))

    rng = random.Random(41)
    for _ in range(10_000):
        stage = random_sentence(rng)
        for rule in (random_rule(rng) for _ in range(rng.randint(1, 3))):
            stage = run_cg(stage, [rule])
            if not all(token.readings for token in stage):
                ok = False
                break
    report(7, "disambiguation scenarios and safety sweep", ok)


def test_criterion_8_sequential_equals_composed():
    rng = random.Random(17)
    ok = True
    for _ in range(500):
        sentence = random_sentence(rng)
        r1, r2 = random_rule(rng), random_rule(rng)
        sequential = tuple(run_cg(sentence, [r1, r2]))
        z = from_sequence(tuple(sentence), 0)
        composed = lambda w: apply_rule(extend(w, lambda v: apply_rule(v, r1)), r2)
        ok = ok and sequential == to_sequence(extend(z, composed))
    report(8, "two-pass run equals one pass of the chained rule", ok)


def test_criterion_9_latency_bounds():
    rows = {r.label.split(" (")[0]: r for r in run_benchmarks(iterations=10_000)}
    pipeline = rows["full pipeline"]
    components = [rows["gradation"], rows["harmony"], rows["possessive"]]
    largest = max(components, key=lambda c: c.mean_us)
    print(
        f"full pipeline {pipeline.mean_us:.2f} µs, largest component {largest.label} "
        f"{largest.mean_us:.2f} µs, ratio {pipeline.mean_us / largest.mean_us:.2f}"
    )
    ok = pipeline.mean_us < 100.0
    ok = ok and all(pipeline.mean_us >= c.mean_us for c in components)
    report(9, "pipeline latency under budget and above components", ok)


def test_criterion_10_harmony_idempotence():
    rng = random.Random(8)
    alphabet = "abcdefghijklmnopqrstuvwxyzäö"
    ok = True
    for _ in range(1000):
        word = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 20))
        )
        z = from_sequence(word, 0)
        once = "".join(to_sequence(extend(z, harmony_arrow)))
        ok = ok and once == word
    report(10, "harmony idempotent on resolved text", ok)
