"""Tests for the hot-path profile harness and its bench-gate leg.

The harness (``repro.experiments.profile_hotpath``) feeds the committed
``BENCH_hotpath.json`` snapshot; these tests run its quick variant and
check the report shape, the correctness bit, and the ``gate_hotpath``
rules in ``tools/bench_gate.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.experiments import profile_hotpath

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate",
    os.path.join(os.path.dirname(__file__), "..", "..", "tools", "bench_gate.py"),
)
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)


@pytest.fixture(scope="module")
def report():
    """One quick harness run shared by the shape/identity tests.

    The test group profile keeps the crypto leg cheap; the identity
    checks inside always run the full backend/queue matrix.
    """
    return profile_hotpath.run_profile(
        profile="test", batch_size=8, min_seconds=0.02, seed=0
    )


class TestRunProfile:
    def test_report_shape(self, report):
        assert {"pure", "window", "gmpy2"} <= set(report["backends"])
        assert report["backends"]["pure"]["speedup"] == 1.0
        assert report["best_backend"] in report["backends"]
        queue = report["event_queue"]
        assert queue["heap_ops_per_sec"] > 0
        assert queue["calendar_ops_per_sec"] > 0
        assert queue["speedup"] == pytest.approx(
            queue["calendar_ops_per_sec"] / queue["heap_ops_per_sec"], rel=0.01
        )
        assert "pool" not in report

    def test_unavailable_backends_marked_skipped(self, report):
        if importlib.util.find_spec("gmpy2") is not None:
            pytest.skip("gmpy2 installed in this environment")
        assert report["backends"]["gmpy2"] == "skipped"

    def test_results_identical(self, report):
        assert report["results_identical"] is True

    def test_queue_workload_identical_across_queues(self):
        from repro.sim.events import CalendarEventQueue, HeapEventQueue

        heap = profile_hotpath._queue_workload(HeapEventQueue, 2000, seed=5)
        cal = profile_hotpath._queue_workload(CalendarEventQueue, 2000, seed=5)
        assert heap == cal
        assert heap == sorted(heap)

    def test_main_json_and_check(self, tmp_path):
        path = tmp_path / "hotpath.json"
        status = profile_hotpath.main(
            ["--quick", "--profile", "test", "--batch-size", "8",
             "--json", str(path), "--check"]
        )
        assert status == 0
        written = json.loads(path.read_text())
        assert written["results_identical"] is True


def hotpath_report(best=3.0, queue=1.2, identical=True) -> dict:
    return {
        "benchmark": "hot-path profile",
        "backends": {
            "pure": {"ops_per_sec": 1000.0, "speedup": 1.0},
            "window": {"ops_per_sec": 1000.0 * best, "speedup": best},
            "gmpy2": "skipped",
        },
        "best_backend": "window",
        "best_speedup": best,
        "event_queue": {
            "heap_ops_per_sec": 100000.0,
            "calendar_ops_per_sec": 100000.0 * queue,
            "speedup": queue,
        },
        "results_identical": identical,
    }


class TestGateHotpath:
    def test_identical_snapshots_pass(self):
        report = hotpath_report()
        assert bench_gate.gate_hotpath(report, report, 0.25) == []

    def test_speedup_regression_fails(self):
        failures = bench_gate.gate_hotpath(
            hotpath_report(best=4.0), hotpath_report(best=2.5), 0.25
        )
        assert any("best_speedup" in f for f in failures)

    def test_queue_regression_fails(self):
        failures = bench_gate.gate_hotpath(
            hotpath_report(queue=1.5), hotpath_report(queue=1.05), 0.25
        )
        assert any("event_queue" in f for f in failures)

    def test_nonidentical_results_fail_either_side(self):
        good, bad = hotpath_report(), hotpath_report(identical=False)
        assert any(
            "results differ" in f
            for f in bench_gate.gate_hotpath(bad, good, 0.25)
        )
        assert any(
            "results differ" in f
            for f in bench_gate.gate_hotpath(good, bad, 0.25)
        )

    def test_committed_speedup_under_two_fails(self):
        failures = bench_gate.gate_hotpath(
            hotpath_report(best=1.8), hotpath_report(best=1.8), 0.25
        )
        assert any("< 2x" in f for f in failures)

    def test_fresh_speedup_under_one_fails(self):
        failures = bench_gate.gate_hotpath(
            hotpath_report(), hotpath_report(best=0.9, queue=0.8), 0.0
        )
        assert any("best backend" in f for f in failures)
        assert any("calendar event queue" in f for f in failures)

    def test_improvement_always_passes(self):
        assert (
            bench_gate.gate_hotpath(
                hotpath_report(best=2.5), hotpath_report(best=9.0), 0.25
            )
            == []
        )
