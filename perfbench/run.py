#!/usr/bin/env python3
"""comorph benchmark: one workload, one closed-loop caller, one seed.

    python3 perfbench/run.py --workload paradigms --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports ``src/comorph`` and
``tests/oracles.py`` from there. ``--trace 0`` times untraced calls and
prints the end-to-end metrics; ``--trace 1`` records spans around each
layer call and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import setup_time  # noqa: E402
from measure import Tracer, clock  # noqa: E402

WORKLOAD_NAMES = ("paradigms", "length_sweep", "cg_stream")
# Share of --seconds given to each phase of a traced run.
TRACE_UNTRACED_SHARE = 0.3
TRACE_MAIN_SHARE = 0.5
TRACE_PROBE_SHARE = 0.05


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "comorph").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def header(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally, setup_s: float) -> dict:
    if tally.hist.n < tally.MIN_LATENCY_SAMPLES:
        raise SystemExit(f"run too short: fewer than {tally.MIN_LATENCY_SAMPLES} latency samples")
    p50, p99 = tally.latency_quantiles()
    return {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(tally.items_per_s(), "1/s"),
        "latency_p50_us": _metric(p50, "us"),
        "latency_p99_us": _metric(p99, "us"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(args, oracles, untraced) -> tuple[dict, list]:
    """Traced phase on the workload, then probes for layers it never reaches."""
    import inputs as inp
    from layers import METRICS
    from workloads import WORKLOADS, Tally

    tracer, traced = Tracer(), Tally()
    WORKLOADS[args.workload](args.seed, oracles).traced(
        tracer, traced, clock() + args.seconds * TRACE_MAIN_SHARE
    )
    traced.close_window()
    tracers = [(args.workload, tracer, traced)]
    for name in WORKLOAD_NAMES:
        if name == args.workload:
            continue
        probe_tracer, probe_tally = Tracer(keep_ops=0), Tally()
        probe = WORKLOADS[name](args.seed, oracles)
        if name == "length_sweep":
            # One word at each length is enough for a probe.
            probe.CHARS_PER_LENGTH = max(inp.PIPELINE_LENGTHS)
        probe.traced(probe_tracer, probe_tally, clock() + args.seconds * TRACE_PROBE_SHARE)
        probe_tally.close_window()
        tracers.append((name, probe_tracer, probe_tally))

    metrics, sources = {}, {}
    for name, unit, fn in METRICS:
        for source, tr, _ in tracers:
            value = fn(tr)
            if value is not None:
                metrics[name] = _metric(value, unit)
                sources[name] = source
                break
        else:
            raise SystemExit(f"no traced phase measured {name}")
    # Both rates count only the time inside the same calls, scaled to the
    # reference speed, so the ratio is how much the spans around them slow
    # those calls down.
    traced_rate = traced.items / traced.busy
    untraced_rate = untraced.items / untraced.busy
    metrics["trace.overhead_ratio"] = _metric(traced_rate / untraced_rate, "ratio")
    sources["trace.overhead_ratio"] = args.workload

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    print("# per-layer sources " + json.dumps(sources, sort_keys=True))
    return metrics, [t for _, _, t in tracers]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "comorph" / "__init__.py").is_file():
        print(f"comorph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"tests/oracles.py not found under {ROOT}", file=sys.stderr)
        return 2

    print("# header " + json.dumps(header(args), sort_keys=True))
    setup = setup_time.SetupTimer(ROOT / "src", args.workload, args.seed, args.seconds)
    setup.round()
    import comorph

    if Path(comorph.__file__).resolve().parent != (ROOT / "src" / "comorph").resolve():
        print(f"imported comorph from {comorph.__file__}, not this checkout", file=sys.stderr)
        return 2
    from reference import load_oracles
    from workloads import WORKLOADS, Tally

    oracles = load_oracles(ROOT)
    wl = WORKLOADS[args.workload](args.seed, oracles)
    tally = Tally(on_window=None if args.trace else setup.maybe_round)
    share = TRACE_UNTRACED_SHARE if args.trace else 1.0
    wl.untraced(tally, clock() + args.seconds * share)
    tally.close_window()

    if args.trace:
        metrics, traced_tallies = per_layer(args, oracles, tally)
        tallies = [tally, *traced_tallies]
    else:
        metrics = end_to_end(tally, setup.median())
        tallies = [tally]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)

    print("# inputs " + json.dumps(wl.stats.summary(), sort_keys=True))
    print(
        "# samples "
        + json.dumps(
            {
                "calls": tally.calls,
                "windows": len(tally.windows),
                "items_per_busy_s": tally.items / tally.busy,
                "raw_items_per_busy_s": tally.items / tally.raw_busy,
                "speed_median": tally.speed.median(),
                "latency_samples": tally.hist.n,
                "setup_rounds_s": setup.times,
                "raw_setup_rounds_s": setup.raw_times,
            }
        )
    )
    print(f"# error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
