"""Unit tests for tools/bench_gate.py (pure gate functions + CLI)."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate",
    os.path.join(os.path.dirname(__file__), "..", "tools", "bench_gate.py"),
)
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)


def crypto_report(speedups: dict[str, float]) -> dict:
    return {
        "benchmark": "crypto fast path",
        "results": [
            {"primitive": name, "speedup": value}
            for name, value in speedups.items()
        ],
    }


def runner_report(speedup, cores=4, disk=6.0, identical=True) -> dict:
    return {
        "benchmark": "experiment-runner",
        "cores": cores,
        "speedup": speedup,
        "results_identical": identical,
        "setup_cache": {"speedup_disk": disk},
    }


class TestGateCrypto:
    def test_within_tolerance_passes(self):
        committed = crypto_report({"schnorr": 10.0, "dleq": 3.4})
        fresh = crypto_report({"schnorr": 8.0, "dleq": 3.0})
        assert bench_gate.gate_crypto(committed, fresh, 0.25) == []

    def test_regression_beyond_tolerance_fails(self):
        committed = crypto_report({"schnorr": 10.0})
        fresh = crypto_report({"schnorr": 7.0})
        failures = bench_gate.gate_crypto(committed, fresh, 0.25)
        assert len(failures) == 1
        assert "schnorr" in failures[0]

    def test_improvement_always_passes(self):
        committed = crypto_report({"schnorr": 10.0})
        fresh = crypto_report({"schnorr": 25.0})
        assert bench_gate.gate_crypto(committed, fresh, 0.25) == []

    def test_missing_primitive_fails(self):
        committed = crypto_report({"schnorr": 10.0, "dleq": 3.4})
        fresh = crypto_report({"schnorr": 10.0})
        failures = bench_gate.gate_crypto(committed, fresh, 0.25)
        assert any("dleq" in f and "missing" in f for f in failures)

    def test_batch_slower_than_single_fails_regardless_of_baseline(self):
        committed = crypto_report({"schnorr": 0.9})
        fresh = crypto_report({"schnorr": 0.9})
        failures = bench_gate.gate_crypto(committed, fresh, 0.25)
        assert any("slower than single" in f for f in failures)


class TestGateRunner:
    def test_within_tolerance_passes(self):
        committed = runner_report(2.0)
        fresh = runner_report(1.6)
        assert bench_gate.gate_runner(committed, fresh, 0.25) == []

    def test_speedup_regression_fails(self):
        committed = runner_report(2.0)
        fresh = runner_report(1.0)
        failures = bench_gate.gate_runner(committed, fresh, 0.25)
        assert any("runner.speedup" in f for f in failures)

    def test_skipped_legs_gate_nothing(self):
        committed = runner_report("skipped", cores=1)
        fresh = runner_report("skipped", cores=1)
        assert bench_gate.gate_runner(committed, fresh, 0.25) == []
        # Mixed: committed numeric, fresh skipped (moved to 1-core CI).
        assert bench_gate.gate_runner(runner_report(2.0), fresh, 0.25) == []

    def test_nonidentical_results_fail(self):
        failures = bench_gate.gate_runner(
            runner_report(2.0), runner_report(2.0, identical=False), 0.25
        )
        assert any("differ" in f for f in failures)

    def test_setup_cache_regression_fails(self):
        failures = bench_gate.gate_runner(
            runner_report(2.0, disk=6.0), runner_report(2.0, disk=2.0), 0.25
        )
        assert any("setup_cache" in f for f in failures)


def load_report(gain=25.0, speedup=4.0, match=True) -> dict:
    return {
        "benchmark": "load pipeline",
        "sim": {"batching_gain": gain},
        "auth": {"speedup": speedup},
        "request_sets_match": match,
    }


class TestGateLoad:
    def test_within_tolerance_passes(self):
        assert bench_gate.gate_load(load_report(), load_report(gain=20.0), 0.25) == []

    def test_batching_gain_regression_fails(self):
        failures = bench_gate.gate_load(
            load_report(gain=25.0), load_report(gain=10.0), 0.25
        )
        assert any("batching_gain" in f for f in failures)

    def test_auth_speedup_regression_fails(self):
        failures = bench_gate.gate_load(
            load_report(speedup=4.0), load_report(speedup=2.0), 0.25
        )
        assert any("load.auth.speedup" in f for f in failures)

    def test_request_set_mismatch_fails_either_side(self):
        failures = bench_gate.gate_load(
            load_report(match=False), load_report(), 0.25
        )
        assert any("committed" in f and "differ" in f for f in failures)
        failures = bench_gate.gate_load(
            load_report(), load_report(match=False), 0.25
        )
        assert any("fresh" in f and "differ" in f for f in failures)

    def test_batch_auth_slower_than_single_fails(self):
        failures = bench_gate.gate_load(
            load_report(speedup=0.8), load_report(speedup=0.8), 0.25
        )
        assert any("slower than per-item" in f for f in failures)

    def test_improvement_always_passes(self):
        assert bench_gate.gate_load(
            load_report(gain=10.0, speedup=2.0),
            load_report(gain=40.0, speedup=8.0),
            0.25,
        ) == []


def hotpath_report(best=3.0, queue=1.3, identical=True) -> dict:
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


def shard_report(gain=4.0, penalty=2.4, monotonic=True, forged=True, identical=True) -> dict:
    return {
        "benchmark": "multi-subnet sharding",
        "scaling": {
            "ks": [1, 2, 4],
            "goodput_by_k": {"1": 200.0, "2": 400.0, "4": 800.0},
            "scaling_gain": gain,
            "monotonic": monotonic,
        },
        "cross": {
            "xfrac": 0.25,
            "latency_penalty": penalty,
            "cross_committed": 208,
            "rejected": 0,
        },
        "forged_rejected": forged,
        "results_identical": identical,
    }


def live_breakdown(telescope=True, uncertainty=0.004) -> dict:
    return {
        "heights": 18,
        "spans_telescope": telescope,
        "max_residual_s": 0.0,
        "clock_uncertainty_s": uncertainty,
        "finalization_latency_mean_s": 0.08,
        "stage_means_s": {
            "propose_wait": 0.01,
            "wire_transit": 0.02,
            "notarization_quorum": 0.03,
            "finalization_quorum": 0.02,
        },
        "wire_transit": {"spans": 120, "mean_s": 0.006,
                         "p50_s": 0.005, "p99_s": 0.012},
    }


def live_report(
    n=4, target=20, min_height=20, live_ok=True, safety_ok=True,
    reporting=None, requests=160, p50=0.12, p90=0.14, rate=16.0,
    breakdown="default",
) -> dict:
    return {
        "benchmark": "live transport",
        "seed": 0,
        "cluster": {"n": n, "t": 1, "protocol": "icc0",
                    "transport": "tcp-localhost", "epsilon": 0.05},
        "target_height": target,
        "live": {
            "live_ok": live_ok,
            "safety_ok": safety_ok,
            "parties_reporting": n if reporting is None else reporting,
            "min_height": min_height,
            "max_height": min_height + 1,
            "wall_seconds": 1.3,
            "heights_per_sec": rate,
            "requests_completed": requests,
            "request_latency_p50": p50,
            "request_latency_p90": p90,
            "latency_breakdown": (
                live_breakdown() if breakdown == "default" else breakdown
            ),
        },
    }


class TestGateLive:
    def test_identical_snapshots_pass(self):
        assert bench_gate.gate_live(live_report(), live_report(target=5, min_height=5), 0.25) == []

    def test_liveness_failure_fails_either_side(self):
        failures = bench_gate.gate_live(
            live_report(live_ok=False), live_report(target=5, min_height=5), 0.25
        )
        assert any("committed" in f and "liveness" in f for f in failures)
        failures = bench_gate.gate_live(
            live_report(), live_report(target=5, min_height=5, live_ok=False), 0.25
        )
        assert any("fresh" in f and "liveness" in f for f in failures)

    def test_safety_violation_fails(self):
        failures = bench_gate.gate_live(
            live_report(safety_ok=False), live_report(target=5, min_height=5), 0.25
        )
        assert any("prefix property" in f for f in failures)

    def test_missing_party_fails(self):
        failures = bench_gate.gate_live(
            live_report(reporting=3), live_report(target=5, min_height=5), 0.25
        )
        assert any("3/4 parties" in f for f in failures)

    def test_height_below_target_fails(self):
        failures = bench_gate.gate_live(
            live_report(min_height=19), live_report(target=5, min_height=5), 0.25
        )
        assert any("below target" in f for f in failures)

    def test_inconsistent_latencies_fail(self):
        failures = bench_gate.gate_live(
            live_report(p50=0.2, p90=0.1), live_report(target=5, min_height=5), 0.25
        )
        assert any("latencies" in f for f in failures)

    def test_zero_requests_skips_latency_check(self):
        assert bench_gate.gate_live(
            live_report(requests=0, p50=None, p90=None),
            live_report(target=5, min_height=5), 0.25,
        ) == []

    def test_missing_breakdown_fails_either_side(self):
        failures = bench_gate.gate_live(
            live_report(breakdown=None), live_report(target=5, min_height=5), 0.25
        )
        assert any("committed" in f and "latency_breakdown" in f for f in failures)
        failures = bench_gate.gate_live(
            live_report(),
            live_report(target=5, min_height=5, breakdown=None), 0.25,
        )
        assert any("fresh" in f and "latency_breakdown" in f for f in failures)

    def test_non_telescoping_spans_fail(self):
        failures = bench_gate.gate_live(
            live_report(breakdown=live_breakdown(telescope=False)),
            live_report(target=5, min_height=5), 0.25,
        )
        assert any("telescope" in f for f in failures)

    def test_unbounded_clock_uncertainty_fails(self):
        for bad in (float("inf"), float("nan"), -1.0, None):
            failures = bench_gate.gate_live(
                live_report(),
                live_report(target=5, min_height=5,
                            breakdown=live_breakdown(uncertainty=bad)),
                0.25,
            )
            assert any("uncertainty" in f for f in failures), bad

    def test_committed_snapshot_must_target_twenty_heights(self):
        """The acceptance floor: a quick-probe snapshot cannot be the
        committed baseline."""
        failures = bench_gate.gate_live(
            live_report(target=5, min_height=5),
            live_report(target=5, min_height=5), 0.25,
        )
        assert any("acceptance floor is 20" in f for f in failures)


class TestGateShard:
    def test_identical_snapshots_pass(self):
        assert bench_gate.gate_shard(shard_report(), shard_report(), 0.25) == []

    def test_scaling_gain_regression_fails(self):
        failures = bench_gate.gate_shard(
            shard_report(gain=4.0), shard_report(gain=2.0), 0.25
        )
        assert any("scaling_gain" in f for f in failures)

    def test_nonmonotonic_scaling_fails_either_side(self):
        failures = bench_gate.gate_shard(
            shard_report(monotonic=False), shard_report(), 0.25
        )
        assert any("committed" in f and "monotonically" in f for f in failures)
        failures = bench_gate.gate_shard(
            shard_report(), shard_report(monotonic=False), 0.25
        )
        assert any("fresh" in f and "monotonically" in f for f in failures)

    def test_unrejected_forgery_fails(self):
        failures = bench_gate.gate_shard(
            shard_report(), shard_report(forged=False), 0.25
        )
        assert any("forged" in f for f in failures)

    def test_nonidentical_results_fail(self):
        failures = bench_gate.gate_shard(
            shard_report(), shard_report(identical=False), 0.25
        )
        assert any("parallel" in f for f in failures)

    def test_sub_one_penalty_fails(self):
        failures = bench_gate.gate_shard(
            shard_report(penalty=0.5), shard_report(penalty=0.5), 0.25
        )
        assert any("cannot be faster" in f for f in failures)

    def test_improvement_always_passes(self):
        assert bench_gate.gate_shard(
            shard_report(gain=3.0), shard_report(gain=4.0), 0.25
        ) == []


class TestAuditSnapshot:
    def test_single_core_numeric_speedup_is_nonsense(self):
        failures = bench_gate.audit_snapshot(runner_report(0.683, cores=1))
        assert failures and "cores=1" in failures[0]

    def test_single_core_skipped_is_fine(self):
        assert bench_gate.audit_snapshot(runner_report("skipped", cores=1)) == []

    def test_multicore_numeric_is_fine(self):
        assert bench_gate.audit_snapshot(runner_report(2.0, cores=4)) == []


class TestCommittedSnapshots:
    def test_committed_runner_snapshot_is_sane(self):
        with open(bench_gate.RUNNER_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        assert bench_gate.audit_snapshot(report) == []

    def test_committed_crypto_snapshot_has_speedups_above_one(self):
        with open(bench_gate.CRYPTO_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        for row in report["results"]:
            assert row["speedup"] >= 1.0, row

    def test_committed_load_snapshot_is_sane(self):
        with open(bench_gate.LOAD_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["request_sets_match"] is True
        assert report["sim"]["batching_gain"] > 1.0
        assert report["auth"]["speedup"] >= 1.0

    def test_committed_shard_snapshot_is_sane(self):
        with open(bench_gate.SHARD_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["scaling"]["monotonic"] is True
        assert report["scaling"]["scaling_gain"] > 1.0
        assert report["cross"]["latency_penalty"] >= 1.0
        assert report["forged_rejected"] is True
        assert report["results_identical"] is True
        # Gating the committed snapshot against itself must pass.
        assert bench_gate.gate_shard(report, report, 0.25) == []

    def test_committed_hotpath_snapshot_is_sane(self):
        with open(bench_gate.HOTPATH_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["results_identical"] is True
        assert "pool" not in report
        assert report["best_speedup"] >= 2.0
        assert report["event_queue"]["speedup"] >= 1.0
        # Gating the committed snapshot against itself must pass.
        assert bench_gate.gate_hotpath(report, report, 0.25) == []

    def test_committed_live_snapshot_is_sane(self):
        with open(bench_gate.LIVE_BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["live"]["live_ok"] is True
        assert report["live"]["safety_ok"] is True
        assert report["target_height"] >= 20  # the PR's acceptance floor
        assert report["live"]["min_height"] >= report["target_height"]
        assert report["live"]["parties_reporting"] == report["cluster"]["n"]
        breakdown = report["live"]["latency_breakdown"]
        assert breakdown["spans_telescope"] is True
        assert breakdown["clock_uncertainty_s"] >= 0.0
        # Gating the committed snapshot against itself must pass.
        assert bench_gate.gate_live(report, report, 0.25) == []


class TestMain:
    def _write(self, path, data):
        path.write_text(json.dumps(data))
        return str(path)

    def test_main_passes_on_fresh_files(self, tmp_path, capsys):
        status = bench_gate.main([
            "--tolerance", "0.25",
            "--crypto-baseline",
            self._write(tmp_path / "cb.json", crypto_report({"schnorr": 10.0})),
            "--crypto-fresh",
            self._write(tmp_path / "cf.json", crypto_report({"schnorr": 9.0})),
            "--runner-baseline",
            self._write(tmp_path / "rb.json", runner_report(2.0)),
            "--runner-fresh",
            self._write(tmp_path / "rf.json", runner_report(1.8)),
            "--load-baseline",
            self._write(tmp_path / "lb.json", load_report()),
            "--load-fresh",
            self._write(tmp_path / "lf.json", load_report(gain=22.0)),
            "--shard-baseline",
            self._write(tmp_path / "sb.json", shard_report()),
            "--shard-fresh",
            self._write(tmp_path / "sf.json", shard_report(gain=3.8)),
            "--hotpath-baseline",
            self._write(tmp_path / "hb.json", hotpath_report()),
            "--hotpath-fresh",
            self._write(tmp_path / "hf.json", hotpath_report(best=2.9)),
        ])
        assert status == 0
        assert "passed" in capsys.readouterr().out

    def test_main_fails_on_shard_regression(self, tmp_path, capsys):
        status = bench_gate.main([
            "--shard-baseline",
            self._write(tmp_path / "sb.json", shard_report()),
            "--shard-fresh",
            self._write(tmp_path / "sf.json", shard_report(identical=False)),
            "--skip-crypto", "--skip-runner", "--skip-load", "--skip-hotpath",
            "--skip-live",
        ])
        assert status == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_fails_on_regression(self, tmp_path, capsys):
        status = bench_gate.main([
            "--crypto-baseline",
            self._write(tmp_path / "cb.json", crypto_report({"schnorr": 10.0})),
            "--crypto-fresh",
            self._write(tmp_path / "cf.json", crypto_report({"schnorr": 2.0})),
            "--skip-runner", "--skip-load", "--skip-shard", "--skip-hotpath",
            "--skip-live",
        ])
        assert status == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_fails_on_load_mismatch(self, tmp_path, capsys):
        status = bench_gate.main([
            "--load-baseline",
            self._write(tmp_path / "lb.json", load_report()),
            "--load-fresh",
            self._write(tmp_path / "lf.json", load_report(match=False)),
            "--skip-crypto", "--skip-runner", "--skip-shard", "--skip-hotpath",
            "--skip-live",
        ])
        assert status == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_fails_on_hotpath_mismatch(self, tmp_path, capsys):
        status = bench_gate.main([
            "--hotpath-baseline",
            self._write(tmp_path / "hb.json", hotpath_report()),
            "--hotpath-fresh",
            self._write(tmp_path / "hf.json", hotpath_report(identical=False)),
            "--skip-crypto", "--skip-runner", "--skip-load", "--skip-shard",
            "--skip-live",
        ])
        assert status == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_fails_on_live_safety_violation(self, tmp_path, capsys):
        status = bench_gate.main([
            "--live-baseline",
            self._write(tmp_path / "vb.json", live_report()),
            "--live-fresh",
            self._write(
                tmp_path / "vf.json",
                live_report(target=5, min_height=5, safety_ok=False),
            ),
            "--skip-crypto", "--skip-runner", "--skip-load", "--skip-shard",
            "--skip-hotpath",
        ])
        assert status == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_passes_on_live_files(self, tmp_path, capsys):
        status = bench_gate.main([
            "--live-baseline",
            self._write(tmp_path / "vb.json", live_report()),
            "--live-fresh",
            self._write(tmp_path / "vf.json", live_report(target=5, min_height=6)),
            "--skip-crypto", "--skip-runner", "--skip-load", "--skip-shard",
            "--skip-hotpath",
        ])
        assert status == 0
        assert "passed" in capsys.readouterr().out

    def test_update_refuses_quick_probe_live_snapshot(self, tmp_path, capsys):
        """--update must not let the 5-height CI probe replace the
        committed 20-height acceptance snapshot."""
        baseline = tmp_path / "vb.json"
        committed = live_report()
        self._write(baseline, committed)
        status = bench_gate.main([
            "--live-baseline", str(baseline),
            "--live-fresh",
            self._write(tmp_path / "vf.json", live_report(target=5, min_height=5)),
            "--skip-crypto", "--skip-runner", "--skip-load", "--skip-shard",
            "--skip-hotpath",
            "--update",
        ])
        assert status == 0
        assert json.loads(baseline.read_text()) == committed  # unchanged

    def test_update_rewrites_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "cb.json"
        self._write(baseline, crypto_report({"schnorr": 10.0}))
        fresh = crypto_report({"schnorr": 12.0})
        status = bench_gate.main([
            "--crypto-baseline", str(baseline),
            "--crypto-fresh", self._write(tmp_path / "cf.json", fresh),
            "--skip-runner", "--skip-load", "--skip-shard", "--skip-hotpath",
            "--skip-live",
            "--update",
        ])
        assert status == 0
        assert json.loads(baseline.read_text()) == fresh

    def test_update_refuses_nonsense_runner_snapshot(self, tmp_path, capsys):
        baseline = tmp_path / "rb.json"
        self._write(baseline, runner_report(2.0))
        bad = runner_report(0.683, cores=1)
        status = bench_gate.main([
            "--runner-baseline", str(baseline),
            "--runner-fresh", self._write(tmp_path / "rf.json", bad),
            "--skip-crypto", "--skip-load", "--skip-shard", "--skip-hotpath",
            "--skip-live",
            "--update",
        ])
        assert status == 1
        assert json.loads(baseline.read_text()) == runner_report(2.0)
