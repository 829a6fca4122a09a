#!/usr/bin/env python3
"""Bench regression gate: committed snapshots vs a fresh quick run.

The repository commits six benchmark snapshots — ``BENCH_crypto.json``
(crypto fast path, written by ``python -m repro bench --json``),
``BENCH_runner.json`` (experiment runner, ``python -m repro bench-runner
--json``), ``BENCH_load.json`` (load/batching pipeline, ``python -m
repro load --bench --json``), ``BENCH_shard.json`` (multi-subnet
sharding, ``python -m repro shard --bench --json``),
``BENCH_hotpath.json`` (crypto backends / event queue,
``python -m repro profile --json``) and ``BENCH_live.json``
(real-TCP localhost cluster, ``python -m repro live --bench``).  This
gate re-runs the benchmarks in ``--quick`` mode and compares the *ratio*
metrics (batch-verification speedups, runner speedup, setup-cache
speedup, batching gain, shard scaling gain) against the committed values
with a relative tolerance band.  Absolute throughput is
machine-dependent and is never gated; ratios of two timings on the same
machine are what the snapshots actually promise.  (The shard legs are
measured in simulation time and are bit-reproducible; they still go
through the ratio check so an intentional re-baseline only needs
``--update``.  The live leg is pure wall clock, so it gates correctness
bits — liveness, the prefix property, target height — instead of any
timing ratio; see :func:`gate_live`.)

Usage::

    python tools/bench_gate.py [--tolerance 0.25] [--update]
        [--crypto-baseline PATH] [--runner-baseline PATH]
        [--load-baseline PATH] [--shard-baseline PATH]
        [--hotpath-baseline PATH] [--live-baseline PATH]
        [--crypto-fresh PATH] [--runner-fresh PATH]
        [--load-fresh PATH] [--shard-fresh PATH]
        [--hotpath-fresh PATH] [--live-fresh PATH]

Passing ``--*-fresh`` files skips running that benchmark (useful for
tests and for gating artifacts produced elsewhere in CI).  ``--update``
rewrites the committed snapshots from the fresh results instead of
failing, for intentional performance changes.

Exit status 0 = within tolerance, 1 = regression (or malformed input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRYPTO_BASELINE = os.path.join(ROOT, "BENCH_crypto.json")
RUNNER_BASELINE = os.path.join(ROOT, "BENCH_runner.json")
LOAD_BASELINE = os.path.join(ROOT, "BENCH_load.json")
SHARD_BASELINE = os.path.join(ROOT, "BENCH_shard.json")
HOTPATH_BASELINE = os.path.join(ROOT, "BENCH_hotpath.json")
LIVE_BASELINE = os.path.join(ROOT, "BENCH_live.json")

#: Default relative tolerance: fresh ratio may be this fraction below
#: the committed one before the gate fails.  Improvements never fail.
DEFAULT_TOLERANCE = 0.25


def _ratio_check(name: str, committed, fresh, tolerance: float) -> list[str]:
    """Compare one ratio metric; returns failure messages (empty = ok)."""
    if committed in (None, "skipped") or fresh in (None, "skipped"):
        # A leg legitimately skipped (e.g. the runner's parallel pass on
        # a single-core machine) gates nothing.
        return []
    try:
        committed_f, fresh_f = float(committed), float(fresh)
    except (TypeError, ValueError):
        return [f"{name}: non-numeric values ({committed!r} vs {fresh!r})"]
    floor = committed_f * (1.0 - tolerance)
    if fresh_f < floor:
        return [
            f"{name}: fresh {fresh_f:.3g} below committed {committed_f:.3g} "
            f"- {tolerance:.0%} tolerance (floor {floor:.3g})"
        ]
    return []


def gate_crypto(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the crypto fast-path snapshot (speedup per primitive)."""
    failures: list[str] = []
    committed_rows = {
        row.get("primitive"): row for row in committed.get("results", ())
    }
    fresh_rows = {row.get("primitive"): row for row in fresh.get("results", ())}
    for primitive, row in sorted(committed_rows.items()):
        if primitive not in fresh_rows:
            failures.append(f"crypto[{primitive}]: missing from fresh run")
            continue
        failures += _ratio_check(
            f"crypto[{primitive}].speedup",
            row.get("speedup"),
            fresh_rows[primitive].get("speedup"),
            tolerance,
        )
        fresh_speedup = fresh_rows[primitive].get("speedup")
        if isinstance(fresh_speedup, (int, float)) and fresh_speedup < 1.0:
            failures.append(
                f"crypto[{primitive}]: batch slower than single "
                f"(speedup {fresh_speedup:.3g} < 1)"
            )
    return failures


def gate_runner(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the runner snapshot (parallel + setup-cache ratios)."""
    failures: list[str] = []
    if fresh.get("results_identical") is False:
        failures.append("runner: parallel results differ from serial")
    failures += _ratio_check(
        "runner.speedup",
        committed.get("speedup"),
        fresh.get("speedup"),
        tolerance,
    )
    committed_cache = committed.get("setup_cache", {})
    fresh_cache = fresh.get("setup_cache", {})
    failures += _ratio_check(
        "runner.setup_cache.speedup_disk",
        committed_cache.get("speedup_disk"),
        fresh_cache.get("speedup_disk"),
        tolerance,
    )
    return failures


def gate_load(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the load-pipeline snapshot (``BENCH_load.json``).

    ``sim.batching_gain`` is measured in *simulation* time, so it is
    deterministic and machine-independent; it still goes through the
    ratio check so an intentional re-baseline only needs ``--update``.
    ``auth.speedup`` is wall clock and gets the usual tolerance band.
    ``request_sets_match`` is a correctness bit, not a ratio: False in
    either snapshot fails outright.
    """
    failures: list[str] = []
    for report, origin in ((committed, "committed"), (fresh, "fresh")):
        if report.get("request_sets_match") is not True:
            failures.append(
                f"load[{origin}]: batched and unbatched request sets differ"
            )
    failures += _ratio_check(
        "load.sim.batching_gain",
        committed.get("sim", {}).get("batching_gain"),
        fresh.get("sim", {}).get("batching_gain"),
        tolerance,
    )
    failures += _ratio_check(
        "load.auth.speedup",
        committed.get("auth", {}).get("speedup"),
        fresh.get("auth", {}).get("speedup"),
        tolerance,
    )
    fresh_speedup = fresh.get("auth", {}).get("speedup")
    if isinstance(fresh_speedup, (int, float)) and fresh_speedup < 1.0:
        failures.append(
            f"load: batch authentication slower than per-item "
            f"(speedup {fresh_speedup:.3g} < 1)"
        )
    return failures


def gate_shard(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the sharding snapshot (``BENCH_shard.json``).

    Every leg is measured in *simulation* time (deterministic and
    machine-independent), so the ratio metrics should reproduce exactly;
    the tolerance band exists only so an intentional re-baseline follows
    the same ``--update`` path as the other snapshots.  The correctness
    bits — monotone scaling, forged-stream rejection, serial == parallel
    — are not ratios: False in either snapshot fails outright.
    """
    failures: list[str] = []
    for report, origin in ((committed, "committed"), (fresh, "fresh")):
        if report.get("scaling", {}).get("monotonic") is not True:
            failures.append(
                f"shard[{origin}]: goodput does not scale monotonically with K"
            )
        if report.get("forged_rejected") is not True:
            failures.append(
                f"shard[{origin}]: forged stream message was not rejected"
            )
        if report.get("results_identical") is not True:
            failures.append(
                f"shard[{origin}]: serial and parallel results differ"
            )
    failures += _ratio_check(
        "shard.scaling.scaling_gain",
        committed.get("scaling", {}).get("scaling_gain"),
        fresh.get("scaling", {}).get("scaling_gain"),
        tolerance,
    )
    failures += _ratio_check(
        "shard.cross.latency_penalty",
        committed.get("cross", {}).get("latency_penalty"),
        fresh.get("cross", {}).get("latency_penalty"),
        tolerance,
    )
    penalty = fresh.get("cross", {}).get("latency_penalty")
    if isinstance(penalty, (int, float)) and penalty < 1.0:
        failures.append(
            f"shard: cross-shard latency penalty {penalty:.3g} < 1 — "
            "cross-shard commits cannot be faster than local ones"
        )
    return failures


def gate_hotpath(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the hot-path snapshot (``BENCH_hotpath.json``).

    ``results_identical`` is a correctness bit — it asserts the same
    seeded deployment commits the identical chain under every crypto
    backend and under both event-queue implementations; False in either
    snapshot fails outright.  The backend and event-queue speedups are
    wall-clock ratios and get the usual tolerance band; a fresh speedup below 1
    (the optimised path losing to its own baseline) always fails.  The
    committed snapshot must additionally keep the paper-the-cost claim
    honest: best backend at least 2x over ``pure``.
    """
    failures: list[str] = []
    for report, origin in ((committed, "committed"), (fresh, "fresh")):
        if report.get("results_identical") is not True:
            failures.append(f"hotpath[{origin}]: results differ across backends/queues")
    committed_best = committed.get("best_speedup")
    if isinstance(committed_best, (int, float)) and committed_best < 2.0:
        failures.append(
            f"hotpath: committed best-backend speedup {committed_best:.3g} "
            "< 2x over pure — re-measure before committing the snapshot"
        )
    failures += _ratio_check(
        "hotpath.best_speedup",
        committed_best,
        fresh.get("best_speedup"),
        tolerance,
    )
    failures += _ratio_check(
        "hotpath.event_queue.speedup",
        committed.get("event_queue", {}).get("speedup"),
        fresh.get("event_queue", {}).get("speedup"),
        tolerance,
    )
    for name, value in (
        ("best backend", fresh.get("best_speedup")),
        ("calendar event queue", fresh.get("event_queue", {}).get("speedup")),
    ):
        if isinstance(value, (int, float)) and value < 1.0:
            failures.append(
                f"hotpath: {name} slower than its baseline "
                f"(speedup {value:.3g} < 1)"
            )
    return failures


def gate_live(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Failures for the live-transport snapshot (``BENCH_live.json``).

    Wall-clock finalization latency is inherently machine-dependent, and
    the fresh probe is a smaller cluster run than the committed snapshot,
    so this leg gates **correctness bits**, not timing ratios: liveness
    (every party reached the target height), safety (the reported
    committed chains satisfy the paper's prefix property), full
    attendance, and internally consistent latency numbers.  The committed
    snapshot must additionally meet the PR's acceptance floor of 20
    finalized heights.
    """
    failures: list[str] = []
    for report, origin in ((committed, "committed"), (fresh, "fresh")):
        live = report.get("live", {})
        if live.get("live_ok") is not True:
            failures.append(
                f"live[{origin}]: liveness bit false — some party missed "
                "its target height"
            )
        if live.get("safety_ok") is not True:
            failures.append(
                f"live[{origin}]: committed chains violate the prefix property"
            )
        n = report.get("cluster", {}).get("n")
        if live.get("parties_reporting") != n:
            failures.append(
                f"live[{origin}]: {live.get('parties_reporting')}/{n} "
                "parties reported a result"
            )
        target = report.get("target_height")
        min_height = live.get("min_height")
        if not (
            isinstance(target, int)
            and isinstance(min_height, int)
            and min_height >= target
        ):
            failures.append(
                f"live[{origin}]: min height {min_height!r} below target "
                f"{target!r}"
            )
        p50 = live.get("request_latency_p50")
        p90 = live.get("request_latency_p90")
        if live.get("requests_completed", 0) > 0:
            if not (
                isinstance(p50, (int, float))
                and isinstance(p90, (int, float))
                and 0 < p50 <= p90
            ):
                failures.append(
                    f"live[{origin}]: inconsistent request latencies "
                    f"(p50 {p50!r}, p90 {p90!r})"
                )
        rate = live.get("heights_per_sec")
        if not (isinstance(rate, (int, float)) and rate > 0):
            failures.append(
                f"live[{origin}]: non-positive finalization rate {rate!r}"
            )
        breakdown = live.get("latency_breakdown")
        if not isinstance(breakdown, dict):
            failures.append(
                f"live[{origin}]: no latency_breakdown block — run with "
                "tracing (`python -m repro live --bench`)"
            )
        else:
            if breakdown.get("spans_telescope") is not True:
                failures.append(
                    f"live[{origin}]: critical-path stage spans do not "
                    "telescope to the measured finalization latency"
                )
            uncertainty = breakdown.get("clock_uncertainty_s")
            if not (
                isinstance(uncertainty, (int, float))
                and uncertainty >= 0
                and uncertainty == uncertainty  # not NaN
                and uncertainty != float("inf")
            ):
                failures.append(
                    f"live[{origin}]: clock-alignment uncertainty "
                    f"{uncertainty!r} is not a finite non-negative bound"
                )
    committed_target = committed.get("target_height")
    if not (isinstance(committed_target, int) and committed_target >= 20):
        failures.append(
            f"live: committed snapshot targets {committed_target!r} heights "
            "— the acceptance floor is 20; re-measure with "
            "`python -m repro live --bench`"
        )
    return failures


def audit_snapshot(report: dict) -> list[str]:
    """Sanity-check a runner snapshot for internally nonsensical data.

    Guards against re-committing the regression this gate was built
    after: a ``cores: 1`` snapshot carrying a sub-1 parallel "speedup"
    measured by time-slicing a single core.
    """
    failures: list[str] = []
    cores = report.get("cores")
    speedup = report.get("speedup")
    if cores == 1 and isinstance(speedup, (int, float)):
        failures.append(
            f"runner snapshot: cores=1 but numeric speedup {speedup} — "
            "single-core machines must record the parallel leg as skipped"
        )
    return failures


def _run_fresh_crypto() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    from repro.experiments import crypto_bench

    with tempfile.NamedTemporaryFile("r", suffix=".json") as handle:
        status = crypto_bench.main(
            ["--quick", "--seed", "0", "--json", handle.name]
        )
        if status:
            raise SystemExit(f"fresh crypto bench failed with status {status}")
        handle.seek(0)
        return json.load(handle)


def _run_fresh_runner() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    from repro.experiments import runner_bench

    with tempfile.NamedTemporaryFile("r", suffix=".json") as handle:
        status = runner_bench.main(["--quick", "--json", handle.name])
        if status:
            raise SystemExit(f"fresh runner bench failed with status {status}")
        handle.seek(0)
        return json.load(handle)


def _run_fresh_load() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    from repro.experiments import load as load_bench

    with tempfile.NamedTemporaryFile("r", suffix=".json") as handle:
        status = load_bench.main(
            ["--bench", "--quick", "--seed", "0", "--json", handle.name]
        )
        if status:
            raise SystemExit(f"fresh load bench failed with status {status}")
        handle.seek(0)
        return json.load(handle)


def _run_fresh_shard() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    from repro.experiments import sharding

    with tempfile.NamedTemporaryFile("r", suffix=".json") as handle:
        status = sharding.main(
            ["--bench", "--quick", "--seed", "0", "--json", handle.name]
        )
        if status:
            raise SystemExit(f"fresh shard bench failed with status {status}")
        handle.seek(0)
        return json.load(handle)


def _run_fresh_hotpath() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    from repro.experiments import profile_hotpath

    with tempfile.NamedTemporaryFile("r", suffix=".json") as handle:
        status = profile_hotpath.main(
            ["--quick", "--seed", "0", "--json", handle.name]
        )
        if status:
            raise SystemExit(f"fresh hotpath bench failed with status {status}")
        handle.seek(0)
        return json.load(handle)


def _run_fresh_live() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from repro.net.config import local_live_config
    from repro.net.live import bench_snapshot, run_live_inproc

    # The quick probe: a small in-process cluster (real TCP, one event
    # loop) — the correctness bits are what gate_live checks, and those
    # are target-size-independent.
    config = local_live_config(
        4, t=1, seed=0, epsilon=0.02, target_height=5, timeout=30.0,
        load_requests=40, load_batch=8,
    )
    return bench_snapshot(config, run_live_inproc(config))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative slack below committed ratios")
    parser.add_argument("--crypto-baseline", default=CRYPTO_BASELINE)
    parser.add_argument("--runner-baseline", default=RUNNER_BASELINE)
    parser.add_argument("--load-baseline", default=LOAD_BASELINE)
    parser.add_argument("--shard-baseline", default=SHARD_BASELINE)
    parser.add_argument("--hotpath-baseline", default=HOTPATH_BASELINE)
    parser.add_argument("--live-baseline", default=LIVE_BASELINE)
    parser.add_argument("--crypto-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--runner-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--load-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--shard-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--hotpath-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--live-fresh", default=None,
                        help="use this JSON instead of running the bench")
    parser.add_argument("--skip-crypto", action="store_true")
    parser.add_argument("--skip-runner", action="store_true")
    parser.add_argument("--skip-load", action="store_true")
    parser.add_argument("--skip-shard", action="store_true")
    parser.add_argument("--skip-hotpath", action="store_true")
    parser.add_argument("--skip-live", action="store_true")
    parser.add_argument("--update", action="store_true",
                        help="rewrite committed snapshots from fresh results")
    args = parser.parse_args(argv)

    failures: list[str] = []

    if not args.skip_crypto:
        committed = _load(args.crypto_baseline)
        fresh = (
            _load(args.crypto_fresh)
            if args.crypto_fresh
            else _run_fresh_crypto()
        )
        if args.update:
            _write(args.crypto_baseline, fresh)
            print(f"updated {args.crypto_baseline}")
        else:
            failures += gate_crypto(committed, fresh, args.tolerance)

    if not args.skip_runner:
        committed = _load(args.runner_baseline)
        fresh = (
            _load(args.runner_fresh)
            if args.runner_fresh
            else _run_fresh_runner()
        )
        failures += audit_snapshot(fresh)
        if args.update:
            if not audit_snapshot(fresh):
                _write(args.runner_baseline, fresh)
                print(f"updated {args.runner_baseline}")
        else:
            failures += audit_snapshot(committed)
            failures += gate_runner(committed, fresh, args.tolerance)

    if not args.skip_load:
        committed = _load(args.load_baseline)
        fresh = (
            _load(args.load_fresh)
            if args.load_fresh
            else _run_fresh_load()
        )
        if args.update:
            _write(args.load_baseline, fresh)
            print(f"updated {args.load_baseline}")
        else:
            failures += gate_load(committed, fresh, args.tolerance)

    if not args.skip_shard:
        committed = _load(args.shard_baseline)
        fresh = (
            _load(args.shard_fresh)
            if args.shard_fresh
            else _run_fresh_shard()
        )
        if args.update:
            _write(args.shard_baseline, fresh)
            print(f"updated {args.shard_baseline}")
        else:
            failures += gate_shard(committed, fresh, args.tolerance)

    if not args.skip_hotpath:
        committed = _load(args.hotpath_baseline)
        fresh = (
            _load(args.hotpath_fresh)
            if args.hotpath_fresh
            else _run_fresh_hotpath()
        )
        if args.update:
            _write(args.hotpath_baseline, fresh)
            print(f"updated {args.hotpath_baseline}")
        else:
            failures += gate_hotpath(committed, fresh, args.tolerance)

    if not args.skip_live:
        committed = _load(args.live_baseline)
        fresh = (
            _load(args.live_fresh)
            if args.live_fresh
            else _run_fresh_live()
        )
        if args.update:
            # The committed snapshot promises >= 20 heights; the quick
            # probe targets fewer, so --update never overwrites it from
            # a probe that would fail the floor.
            if fresh.get("target_height", 0) >= 20:
                _write(args.live_baseline, fresh)
                print(f"updated {args.live_baseline}")
            else:
                print(
                    f"not updating {args.live_baseline}: fresh run targets "
                    f"{fresh.get('target_height')} heights (< 20); use "
                    "`python -m repro live --bench`"
                )
        else:
            failures += gate_live(committed, fresh, args.tolerance)

    if failures:
        print("bench gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
