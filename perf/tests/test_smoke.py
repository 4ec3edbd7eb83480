"""``--quick`` runs of every workload: one set-up, one short unit each."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
WORKLOADS = ("ns_dp", "ns_dal", "laplace_pinn", "serve_mix")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perf", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_meets_the_output_contract(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--quick",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(doc["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = doc["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(tmp_path):
    # Seed 4's quick serve stream has every request kind in its timed part.
    measured = set()
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(PERF, "child.py"),
             "--workload", workload, "--seed", "4", "--seconds", "1",
             "--trace", "1", "--role", "main", "--quick",
             "--spawn-t", repr(time.monotonic()), "--root", ROOT,
             "--work-dir", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        assert proc.returncode == 0, proc.stderr
        measured |= set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert {m["name"] for m in BENCH["per_layer"]} <= measured


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ns_dp", "--seed", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
