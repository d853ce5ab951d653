"""Smoke runs of every workload at tiny size.

Checks that each run emits every metric of BENCHMARK.json with its unit,
that every output check passes, and that the traced self times add up to
the traced pass time.  No absolute time is gated.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *_, details, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, json.loads(details)["details"]["failures"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in expected
    ]
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        self_ms = sum(v for n, v in values.items() if n.endswith(".self_ms"))
        assert self_ms == pytest.approx(values["trace.pass_ms"], rel=0.05)


def test_refuses_to_run_without_the_program() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = bench(bare, "solver_grid", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert out.returncode != 0
    assert out.stdout == ""
