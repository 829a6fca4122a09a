"""Hot-path profile harness: crypto backends and event queues.

The two hot paths attacked by the profile-guided optimisation pass, each
benchmarked against its reference implementation:

* **Crypto backends** — default-profile RLC batch verification through
  :func:`repro.crypto.api.verifiers_for` under every registered
  :mod:`repro.crypto.backend` (``pure`` is the plain-``pow`` baseline;
  unavailable backends such as ``gmpy2`` without the library are recorded
  as ``"skipped"``, never errors).
* **Event queue** — a seeded schedule/pop/cancel workload on the legacy
  :class:`repro.sim.events.HeapEventQueue` vs the calendar-queue default,
  with the pop orders compared entry by entry.

Whole-cluster bit-identity checks ride along: the same seeded deployment
must commit the identical chain under every backend and under both event
queues (``results_identical``).

``python -m repro profile --json BENCH_hotpath.json`` writes the snapshot
checked into the repository root; ``tools/bench_gate.py`` re-runs it in
``--quick`` mode and ratio-checks the speedups (``results_identical`` is
a correctness bit: False fails outright).  ``--cprofile`` prints the top
functions of a representative deployment under cProfile.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import sys
import time
from random import Random

from ..crypto import schnorr
from ..crypto.api import verifiers_for
from ..crypto.backend import backend_available, backend_names, use_backend
from ..crypto.group import Group, group_for_profile
from ..sim.events import CalendarEventQueue, HeapEventQueue

#: The pure-Python baseline every other backend is compared against.
BASELINE_BACKEND = "pure"

#: Operations per event-queue workload run (55% schedule / 30% pop /
#: 15% cancel; see :func:`_queue_workload`).
_QUEUE_OPS = 20_000


def _throughput(fn, items_per_call: int, min_seconds: float) -> float:
    """Call ``fn`` until ``min_seconds`` elapse; return items/second."""
    fn()  # warm-up: build backend tables / populate caches off the clock
    calls = 0
    start = time.perf_counter()
    deadline = start + min_seconds
    while True:
        fn()
        calls += 1
        now = time.perf_counter()
        if now >= deadline:
            return calls * items_per_call / (now - start)


def _schnorr_items(group: Group, size: int, seed: int):
    rng = Random(seed)
    items = []
    for i in range(size):
        pair = schnorr.keygen(group, rng)
        message = b"profile/schnorr/%d" % i
        items.append(
            (pair.public, message, schnorr.sign(group, pair.secret, message, rng))
        )
    return items


def bench_backends(
    profile: str, batch_size: int, min_seconds: float, seed: int
) -> tuple[dict, bool]:
    """Per-backend batch-verification throughput on the ``profile`` group.

    Returns ``(table, identical)`` where ``table`` maps backend name to
    ``{ops_per_sec, speedup}`` (or the string ``"skipped"``) and
    ``identical`` is True iff every available backend returned the same
    verdict list for the same batch.
    """
    group = group_for_profile(profile)
    items = _schnorr_items(group, batch_size, seed)
    table: dict[str, object] = {}
    ops: dict[str, float] = {}
    verdicts: list[list[bool]] = []
    for name in backend_names():
        if not backend_available(name):
            table[name] = "skipped"
            continue
        with use_backend(name):
            suite = verifiers_for(group)
            verdicts.append(suite.schnorr.verify_batch(items))
            ops[name] = _throughput(
                lambda: suite.schnorr.verify_batch(items), batch_size, min_seconds
            )
    baseline = ops[BASELINE_BACKEND]
    for name, value in ops.items():
        table[name] = {
            "ops_per_sec": round(value, 1),
            "speedup": round(value / baseline, 2),
        }
    identical = all(v == verdicts[0] for v in verdicts) and all(verdicts[0])
    return table, identical


def _queue_workload(queue_cls, ops: int, seed: int) -> list[tuple[float, int]]:
    """Seeded mixed schedule/pop/cancel workload; returns the pop order.

    Deliberately includes same-instant bursts (quantised times) so the
    (time, seq) tie-break is exercised, and keeps a window of live handles
    to cancel from, mimicking the simulator's timeout churn.
    """
    rng = Random(seed)
    queue = queue_cls()
    handles: list = []
    now = 0.0
    popped: list[tuple[float, int]] = []

    def _noop() -> None:
        pass

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55 or not queue:
            # Quantise to force ties; occasionally schedule far future.
            delay = round(rng.random() * 2.0, 2)
            if roll < 0.05:
                delay += 50.0
            handles.append(queue.schedule(now + delay, _noop))
        elif roll < 0.85:
            event = queue.pop()
            if event is not None:
                now = event.time
                popped.append((event.time, event.seq))
        else:
            handles[rng.randrange(len(handles))].cancel()
        if len(handles) > 512:
            del handles[:256]
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append((event.time, event.seq))
    return popped


def bench_event_queue(min_seconds: float, seed: int) -> tuple[dict, bool]:
    """Heap vs calendar queue ops/sec on the identical seeded workload.

    Returns ``(table, identical)``: ``identical`` is True iff both queues
    popped the exact same (time, seq) sequence.  The two legs alternate
    and each reports its *best* round, so a stray GC pause or scheduler
    hiccup in one round cannot fake (or mask) a regression the way a
    single continuous timing window can.
    """
    heap_order = _queue_workload(HeapEventQueue, _QUEUE_OPS, seed)
    calendar_order = _queue_workload(CalendarEventQueue, _QUEUE_OPS, seed)
    identical = heap_order == calendar_order

    rounds = max(3, int(min_seconds * 20))
    best = {HeapEventQueue: float("inf"), CalendarEventQueue: float("inf")}
    for _ in range(rounds):
        for queue_cls in (HeapEventQueue, CalendarEventQueue):
            start = time.perf_counter()
            _queue_workload(queue_cls, _QUEUE_OPS, seed)
            best[queue_cls] = min(best[queue_cls], time.perf_counter() - start)
    heap_ops = _QUEUE_OPS / best[HeapEventQueue]
    calendar_ops = _QUEUE_OPS / best[CalendarEventQueue]
    table = {
        "heap_ops_per_sec": round(heap_ops, 1),
        "calendar_ops_per_sec": round(calendar_ops, 1),
        "speedup": round(calendar_ops / heap_ops, 2),
    }
    return table, identical


def _run_cluster(
    seed: int,
    *,
    backend: str | None = None,
    event_queue=None,
):
    """One small seeded deployment on the real crypto backend.

    Returns a fingerprint the identity checks compare: the committed
    chain, the minimum committed round, and the final simulated clock.
    """
    from ..core import ClusterConfig, build_cluster
    from ..sim import FixedDelay, Simulation

    config = ClusterConfig(
        n=4, t=1, delta_bound=0.3, epsilon=0.01,
        delay_model=FixedDelay(0.05), max_rounds=6, seed=seed,
        crypto_backend="real",
    )
    sim = Simulation(seed=config.seed, event_queue=event_queue) if event_queue else None

    def build_and_run():
        cluster = build_cluster(config, sim=sim) if sim is not None else build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=120)
        cluster.check_safety()
        return (
            cluster.party(1).committed_hashes,
            cluster.min_committed_round(),
            cluster.sim.now,
        )

    if backend is not None:
        with use_backend(backend):
            return build_and_run()
    return build_and_run()


def check_chains_identical(seed: int) -> bool:
    """Whole-run bit-identity across backends and event queues."""
    reference = _run_cluster(seed, backend=BASELINE_BACKEND)
    identical = True
    for name in backend_names():
        if name == BASELINE_BACKEND or not backend_available(name):
            continue
        identical &= _run_cluster(seed, backend=name) == reference
    identical &= _run_cluster(seed, event_queue=HeapEventQueue()) == reference
    return identical


def profile_hotspots(seed: int, top: int = 12) -> list[str]:
    """Top functions (by cumulative time) of one deployment under cProfile."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    _run_cluster(seed)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue().rstrip().splitlines()


def run_profile(
    profile: str = "default",
    batch_size: int = 32,
    min_seconds: float = 0.5,
    seed: int = 0,
) -> dict:
    """Run every hot-path benchmark; returns the JSON-ready result dict."""
    group = group_for_profile(profile)
    backends, backends_identical = bench_backends(
        profile, batch_size, min_seconds, seed
    )
    measured = {
        name: row for name, row in backends.items() if isinstance(row, dict)
    }
    best_backend = max(measured, key=lambda name: measured[name]["speedup"])
    event_queue, queue_identical = bench_event_queue(min_seconds, seed)
    chains_identical = check_chains_identical(seed)
    return {
        "benchmark": "hot-path profile: crypto backends, calendar event queue",
        "profile": profile,
        "group_bits": {"p": group.p.bit_length(), "q": group.q.bit_length()},
        "batch_size": batch_size,
        "seed": seed,
        "backends": backends,
        "best_backend": best_backend,
        "best_speedup": measured[best_backend]["speedup"],
        "event_queue": event_queue,
        "results_identical": bool(
            backends_identical and queue_identical and chains_identical
        ),
    }


def _print_report(report: dict) -> None:
    print(
        f"profile={report['profile']} (|p|={report['group_bits']['p']} bits) "
        f"batch_size={report['batch_size']}"
    )
    print(f"{'backend':<10} {'batch ops/s':>13} {'vs pure':>8}")
    for name, row in report["backends"].items():
        if row == "skipped":
            print(f"{name:<10} {'skipped':>13} {'-':>8}")
        else:
            print(
                f"{name:<10} {row['ops_per_sec']:>13.1f} {row['speedup']:>7.2f}x"
            )
    queue = report["event_queue"]
    print(
        f"event queue: heap {queue['heap_ops_per_sec']:.0f} ops/s, "
        f"calendar {queue['calendar_ops_per_sec']:.0f} ops/s "
        f"({queue['speedup']:.2f}x)"
    )
    print(f"results identical: {report['results_identical']}")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro profile")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as JSON")
    parser.add_argument("--profile", choices=["test", "default", "strong"],
                        default="default")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short timing windows (CI smoke)")
    parser.add_argument("--cprofile", action="store_true",
                        help="print cProfile hotspots of one deployment")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless results are bit-identical and the best "
             "backend beats pure",
    )
    args = parser.parse_args(argv)

    report = run_profile(
        profile=args.profile,
        batch_size=args.batch_size,
        min_seconds=0.05 if args.quick else 0.5,
        seed=args.seed,
    )
    _print_report(report)
    if args.cprofile:
        print()
        for line in profile_hotspots(args.seed):
            print(line)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        failures = []
        if report["results_identical"] is not True:
            failures.append("results differ across backends/queues")
        if report["best_speedup"] < 1.0:
            failures.append(
                f"best backend {report['best_backend']} slower than pure "
                f"({report['best_speedup']:.3g}x)"
            )
        if report["event_queue"]["speedup"] < 1.0:
            failures.append(
                f"calendar queue slower than heap "
                f"({report['event_queue']['speedup']:.3g}x)"
            )
        if failures:
            print(f"FAIL: {'; '.join(failures)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
