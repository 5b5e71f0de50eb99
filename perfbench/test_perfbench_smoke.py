"""Smoke test of the benchmark: every workload and both metric printers.

Runs ``perfbench/run.py`` in subprocesses at TINY scale with short windows,
so it checks plumbing (the JSON contract, the output checks, the traced
run's attribution), not performance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seconds: float = 0.5):
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(group: str):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[group]}


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_end_to_end_metrics(workload):
    report, result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = expected_metrics("end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert any(line.startswith("machine: nproc=") for line in report)
    assert any("failed_share" in line for line in report)


@pytest.mark.parametrize("workload", ["sweep-eps-convnet-w2", "serve-lenet-open"])
def test_traced_run_adds_up(workload):
    report, result = run_bench(workload, trace=1, seconds=1.0)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(expected_metrics("per_layer"))
    attribution = next(line for line in report if line.startswith("attribution"))
    residual = float(attribution.rsplit("residual ", 1)[1].split()[0])
    assert abs(residual) < 1e-6
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "sweep-eps-convnet-w2":
        # Spans from the forked pool workers reach the parent.
        assert metrics["runner.worker_busy_s"] > 0
        assert 0 < metrics["runner.pool_efficiency"] <= 1.0
        assert metrics["core.rank_clip.calls"] > 0
    else:
        assert metrics["sim.predict.calls"] > 0 and metrics["serving.batches"] > 0
        assert metrics["nn.lowrank_conv.bwd.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jobs-tiny-queue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
