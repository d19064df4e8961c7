"""Smoke test: every workload, untraced and traced, in short runs.

    python3 -m pytest perfbench/test_smoke.py

Each run must exit 0, report no failed op (error_rate 0), and print exactly
the metrics BENCHMARK.json names for its mode, each with its unit. The runs
take the same code path as full-length ones, so SMOKE_SECONDS must leave
room for 1000 latency samples on every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# cg_stream needs about 3 s for 1000 latency samples on a 2-core box.
SMOKE_SECONDS = 8


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("# error_rate 0 ") for line in lines)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_bare_directory_fails_without_result(tmp_path: Path) -> None:
    # A directory with only BENCHMARK.json and the benchmark's own files.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for rel in SPEC["paths"]:
        for src in (ROOT / rel).rglob("*"):
            if src.is_file() and "__pycache__" not in src.parts:
                dst = tmp_path / src.relative_to(ROOT)
                dst.parent.mkdir(parents=True, exist_ok=True)
                dst.write_bytes(src.read_bytes())
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
