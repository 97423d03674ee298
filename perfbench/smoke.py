"""Smoke tests of the benchmark itself, at a seconds-long size.

    python3 -m pytest perfbench/smoke.py

The file name keeps these out of the package's own test run: the benchmark
is not a gate of the package's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert (metric["name"], metric["unit"]) in printed
    assert ("floor_violation_frac", "frac") in printed
    for tag in ("# machine ", "# samples ", "# output_sha256 "):
        assert any(line.startswith(tag) for line in lines), tag


def test_outputs_repeat_for_one_seed():
    digests = {
        next(line for line in run_bench("online-rank", 0).stdout.splitlines()
             if line.startswith("# output_sha256"))
        for _ in range(2)
    }
    assert len(digests) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOADS[0], 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
