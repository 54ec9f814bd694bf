"""Smoke test of the benchmark itself: output schema and correctness gates.

It runs every workload for one second, untraced and traced, and checks
what a harness reading the output relies on. It sets no speed threshold.

    python3 -m pytest perfbench/test_smoke.py -q
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


def run(args, cwd=HERE.parent):
    return subprocess.run([sys.executable, *args], cwd=str(cwd), capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_its_gates_and_prints_every_metric(workload, trace):
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"so_rcvbuf_granted"' in proc.stdout


def test_code_and_spec_declare_the_same_metrics():
    sys.path.insert(0, str(HERE))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(HERE))
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench_run.E2E)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench_run.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "sim-loss1", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
