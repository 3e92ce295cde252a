"""Smoke test: every workload at a tiny size prints every named metric with its unit.

Run with `python3 -m pytest benchmarks/test_smoke.py -q` from the repository
root (about half a minute).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines[:-1]
        ), metric["name"]
    assert any(line.startswith("failed_frac ") for line in lines)
    assert any(line.startswith("environment ") for line in lines)

    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "exact":
            assert all(v == 0 for n, v in metrics.items() if n.startswith("shots."))
        if workload == "hqc-gradient":
            assert metrics["shots.estimate_hessian.calls"] == 0
            assert metrics["shots.estimate_observable.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    """Outside a checkout, the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in (ROOT / "benchmarks").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
