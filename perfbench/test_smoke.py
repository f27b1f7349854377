"""Smoke test of the benchmark runner at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each workload emits every metric BENCHMARK.json names, with
its unit, that no command fails, that per-layer self
times fit inside the traced wall time, and that the runner refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_info"], json.loads(lines[-1])


def check_result(info: dict, result: dict, table: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, info["failed_ops"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    info, result = parse(run_bench(ROOT, workload, 0))
    check_result(info, result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    for key in ("cpu_count", "python", "numpy", "blas", "git_commit", "seed", "shims"):
        assert key in info
    if not hasattr(np, "trapz"):
        assert "np.trapz = np.trapezoid" in info["shims"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload):
    info, result = parse(run_bench(ROOT, workload, 1))
    check_result(info, result, BENCH["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["autodiff.conv2d.calls"] > 0
    assert metrics["autodiff.conv2d.enc0.conv.fwd_s"] > 0

    wall = sum(info["traced_cycle_s_each"])
    doc = json.loads((ROOT / ".perfbench_out" /
                      f"{workload}-seed{SEED}-trace1-spans.json").read_text())
    spans = [dict(zip(doc["columns"], row)) for row in doc["spans"]]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_times = [(s["end"] - s["start"]) - child[s["id"]] for s in spans]
    assert min(self_times) >= -1e-6
    assert sum(self_times) <= wall
    own = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert own <= metrics["trace.cycle_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
