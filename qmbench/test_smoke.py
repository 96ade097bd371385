"""Smoke run of the benchmark: every workload at tiny sizes, untraced and
traced, checked against the metric names and units in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["attempted"] > 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
