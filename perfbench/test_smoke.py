"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace),
                             "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def result_of(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[1])["details"], json.loads(lines[-1])


def assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    _, result = result_of(bench(workload, trace=0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_account_for_wall_time_and_repeat_counts(workload):
    for attempt in range(2):
        details, result = result_of(bench(workload, trace=1))
        assert_metrics(result, SPEC["per_layer"])
        assert details["problems"] == []
        ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
        assert abs(ratio - 1.0) <= 0.05
    assert details["counts_compared"] is True


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
