"""Smoke test for the benchmark itself: `pytest bench/`.

Runs `run.py --quick` (one short epoch per workload, every correctness check,
no timing assertions) at the pinned seed, where the sim_* runs must also match
golden.json, and at a second seed, where only safety, liveness and digest
equality can hold.  Not part of the tier-1 suite (`testpaths = ["tests"]`).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def run_bench(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *extra],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_quick_suite_passes_every_check(seed):
    proc = run_bench("--quick", "--seed", str(seed))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert sorted(summary["workloads"]) == sorted(w["name"] for w in CONTRACT["workloads"])
    for metrics in summary["workloads"].values():
        for metric in CONTRACT["end_to_end"]:
            assert metrics[metric["name"]] > 0, metric["name"]


def test_single_workload_prints_the_contract_line():
    proc = run_bench("--workload", "live_n4_sat", "--seed", "3", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert line["metrics"]["net.frames_per_height"]["value"] > 0
    assert line["metrics"]["sim.events_per_height"]["value"] == 0
    assert os.path.exists(os.path.join(HERE, "out", "trace-live_n4_sat.json"))
