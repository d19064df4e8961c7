"""Per-layer metrics, read from a traced run's span totals and counts.

Each entry is (name, unit, function of a Tracer). A function returns None
when that tracer saw no work in the layer; the run then reads the metric
from a short traced probe of the workload that does reach it. The comment
above each group names the end-to-end metric it should move.
"""

from __future__ import annotations

from measure import Tracer


def _per_item(name: str):
    def f(tr: Tracer):
        return tr.us_per_item(name) if tr.items.get(name) else None

    return f


def _prefixed(tr: Tracer, prefix: str) -> tuple[float, int, int]:
    total = calls = items = 0
    for name in tr.calls:
        if name == prefix or name.startswith(prefix + ".len"):
            total += tr.total[name]
            calls += tr.calls[name]
            items += tr.items[name]
    return total, calls, items


def _us_per_call(prefix: str):
    def f(tr: Tracer):
        total, calls, _ = _prefixed(tr, prefix)
        return total * 1e6 / calls if calls else None

    return f


def _ratio(name: str, hi: int, lo: int):
    def f(tr: Tracer):
        a, b = f"{name}.len{hi}", f"{name}.len{lo}"
        if not (tr.items.get(a) and tr.items.get(b)):
            return None
        return tr.us_per_item(a) / tr.us_per_item(b)

    return f


def _count_ratio(num: str, den: str):
    def f(tr: Tracer):
        return tr.counts[num] / tr.counts[den] if tr.counts.get(den) else None

    return f


def _pipeline_self(tr: Tracer):
    # run_pipeline minus from_sequence + three passes + materialize, which
    # are the children of the composed span on the same words.
    total, calls, _ = _prefixed(tr, "pipeline.run_pipeline")
    if not calls:
        return None
    children = tr.total["pipeline.composed"] - tr.self_time["pipeline.composed"]
    return (total - children) * 1e6 / calls


def _generator_self(tr: Tracer):
    calls = tr.calls.get("generator.generate")
    if not calls:
        return None
    return (tr.total["generator.generate"] - tr.total["pipeline.run_pipeline"]) * 1e6 / calls


def _parse_rules_ms(tr: Tracer):
    calls = tr.calls.get("cg.parse_rules")
    return tr.total["cg.parse_rules"] * 1e3 / calls if calls else None


def _never_fired(tr: Tracer):
    return tr.counts["cg.rules_never_fired"] if tr.counts.get("cg.rules") else None


METRICS = [
    # Pass cost alone (identity pass): length_sweep items_per_s.
    *(
        (f"zipper.extend.us_per_token.len{n}", "us/token", _per_item(f"zipper.extend.len{n}"))
        for n in (3, 300, 3000)
    ),
    *(
        (f"writer.writer_extend.us_per_char.len{n}", "us/char", _per_item(f"writer.writer_extend.len{n}"))
        for n in (10, 100, 1000)
    ),
    # Stage cost: length_sweep items_per_s, paradigms latency_p50_us.
    ("gradation.pass.us_per_char", "us/char", _per_item("gradation.pass")),
    ("vowels.harmony.pass.us_per_char", "us/char", _per_item("vowels.harmony.pass")),
    ("vowels.possessive.pass.us_per_char", "us/char", _per_item("vowels.possessive.pass")),
    ("writer.materialize.us_per_char", "us/char", _per_item("writer.materialize")),
    # Work counts.
    ("gradation.fire_ratio", "ratio", _count_ratio("gradation.fired", "gradation.visited")),
    ("writer.deletions_per_word", "count/word", _count_ratio("writer.deletions", "writer.words")),
    ("vowels.placeholders_resolved", "count/word", _count_ratio("vowels.placeholders_resolved", "writer.words")),
    # Per-call overhead: paradigms latency_p50_us, not length_sweep.
    ("pipeline.run_pipeline.us_per_call", "us", _us_per_call("pipeline.run_pipeline")),
    ("pipeline.self_us_per_call", "us", _pipeline_self),
    ("generator.generate.us_per_call", "us", _us_per_call("generator.generate")),
    ("generator.self_us_per_call", "us", _generator_self),
    # Scaling in length; 1 would be flat.
    ("pipeline.us_per_char.ratio_1000_10", "ratio", _ratio("pipeline.run_pipeline", 1000, 10)),
    ("cg.us_per_token.ratio_3000_3", "ratio", _ratio("cg.run_cg", 3000, 3)),
    # CG layers: cg_stream latency_p50_us; rule_pass both CG workloads;
    # parse_rules setup_s.
    ("cg.parse_readings.us_per_token", "us/token", _per_item("cg.parse_readings")),
    ("cg.format_sentences.us_per_token", "us/token", _per_item("cg.format_sentences")),
    ("cg.rule_pass.us_per_token", "us/token", _per_item("cg.rule_pass")),
    ("cg.parse_rules.ms", "ms", _parse_rules_ms),
    ("cg.useful_pass_ratio", "ratio", _count_ratio("cg.useful_passes", "cg.passes")),
    ("cg.readings_removed_per_token", "count/token", _count_ratio("cg.readings_removed", "cg.tokens")),
    ("cg.rules_never_fired", "count", _never_fired),
]
