"""One workload in one fresh interpreter.  Spawned by run.py, never by hand.

Prints one JSON object on its last line: the end-to-end medians, the
per-layer numbers this pass could measure, and the operation counts.
`--probe` only imports the program and reports when the imports were done,
which is how run.py primes the page cache and times interpreter start-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import kernel  # noqa: E402
from workloads import GOLDEN_SEED, SPECS, AdmitClock, percentile, run_epoch  # noqa: E402

MAX_EPOCHS = 64


def import_program() -> float:
    """Import every package a workload touches; returns the wall instant."""
    import repro.core  # noqa: F401
    import repro.net  # noqa: F401
    import repro.sim.delays  # noqa: F401
    import repro.workloads  # noqa: F401

    return time.time()


def check_pins(spec, seed: int, quick: bool, epoch: int, pins: dict, golden: dict) -> list[str]:
    if spec.kind != "sim" or seed != GOLDEN_SEED:
        return []
    expected = golden.get(spec.name, {}).get("quick" if quick else "full", [])
    if epoch >= len(expected):
        return []
    rounded = {k: round(v, 6) if isinstance(v, float) else v for k, v in pins.items()}
    return [
        f"epoch {epoch}: {key} = {rounded.get(key)!r}, golden.json has {want!r}"
        for key, want in expected[epoch].items()
        if rounded.get(key) != want
    ]


def layer_metrics(epochs: list[dict], traced: bool) -> dict:
    """Per-layer numbers: counts from the program's public counters in either
    pass, self times from the spans in the traced pass only."""
    heights = sum(e["heights"] for e in epochs) or 1
    wall = sum(e["wall_s"] for e in epochs) or 1.0
    counts: dict[str, float] = {}
    for e in epochs:
        for key, value in e["counts"].items():
            counts[key] = counts.get(key, 0) + value
    pooled = {
        key: [v for e in epochs for v in e.get(key, [])]
        for key in ("latency_ms", "generator_lag_ms", "queue_wait_ms", "loop_lag_ms")
    }
    out = {
        "sim.events_per_height": counts.get("sim.events", 0) / heights,
        "sim.events_per_s": counts.get("sim.events", 0) / wall,
        "sim.messages_per_height": counts.get("sim.messages", 0) / heights,
        "sim.bytes_per_height": counts.get("sim.bytes", 0) / heights,
        "core.blocks_per_height": counts.get("core.block_broadcasts", 0) / heights,
        "core.chain_length": counts.get("core.chain_length", 0) / len(epochs),
        "core.pool_artifacts": counts.get("core.pool_artifacts", 0) / len(epochs),
        "net.connect_s": counts.get("net.connect_s", 0.0) / len(epochs),
        "net.reconnects": counts.get("net.reconnects", 0),
        "workloads.requests_per_block": counts.get("workloads.requests_in_blocks", 0)
        / (counts.get("workloads.blocks", 0) or 1),
        "workloads.batchers_short": counts.get("workloads.batchers_short", 0),
        "workloads.generator_lag_ms_p99": (
            percentile(pooled["generator_lag_ms"], 0.99) if pooled["generator_lag_ms"] else 0.0
        ),
        "workloads.request_latency_p90_ms": (
            percentile(pooled["latency_ms"], 0.90) if pooled["latency_ms"] else 0.0
        ),
        "workloads.request_latency_p99_ms": (
            percentile(pooled["latency_ms"], 0.99) if pooled["latency_ms"] else 0.0
        ),
    }
    if not traced:
        return out

    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals = {"verify_items": 0, "batch_calls": 0, "batch_items": 0,
              "frames": 0, "frame_bytes": 0, "admitted": 0}
    delivery_ms: list[float] = []
    for e in epochs:
        window = e["trace"]
        for name, ns in window["self_ns"].items():
            self_ms[name] = self_ms.get(name, 0.0) + ns / 1e6
        for name, count in window["calls"].items():
            calls[name] = calls.get(name, 0) + count
        for key in totals:
            totals[key] += window[key]
        delivery_ms.extend(ns / 1e6 for ns in window["delivery_ns"])
    self_ms.pop("bench.kernel", None)  # runs between slices, outside the window's CPU
    cpu_ms = sum(e["raw_cpu_s"] for e in epochs) * 1000.0

    # Span times are raw; the windows' calibrated/raw CPU ratio puts the
    # per-height figures on the same reference clock as the end-to-end ones.
    to_reference = sum(e["cpu_s"] for e in epochs) * 1000.0 / cpu_ms

    def per_height(*names: str) -> float:
        return sum(self_ms.get(name, 0.0) for name in names) * to_reference / heights

    def pct(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    out.update({
        "sim.queue_ms_per_height": per_height("sim.queue"),
        "sim.network_ms_per_height": per_height("sim.network"),
        "core.on_receive_ms_per_height": per_height("core.on_receive", "core.on_timer"),
        "core.pool_add_ms_per_height": per_height("core.pool_add"),
        "core.pool_query_ms_per_height": per_height("core.pool_query"),
        "core.final_scan_ms_per_height": per_height("core.final_scan"),
        "core.final_scan_calls_per_height": calls.get("core.final_scan", 0) / heights,
        "crypto.keygen_s": statistics.median(e["keygen_s"] for e in epochs),
        "crypto.sign_ms_per_height": per_height("crypto.sign"),
        "crypto.verify_ms_per_height": per_height("crypto.verify"),
        "crypto.combine_ms_per_height": per_height("crypto.combine"),
        "crypto.verify_items_per_height": totals["verify_items"] / heights,
        "crypto.batch_calls_per_height": totals["batch_calls"] / heights,
        "crypto.mean_batch": totals["batch_items"] / (totals["batch_calls"] or 1),
        "net.encode_ms_per_height": per_height("net.encode"),
        "net.decode_ms_per_height": per_height("net.decode"),
        "net.send_ms_per_height": per_height("net.send"),
        "net.loop_ms_per_height": per_height("net.loop"),
        "net.frames_per_height": totals["frames"] / heights,
        "net.bytes_per_height": totals["frame_bytes"] / heights,
        "net.delivery_ms_p50": pct(delivery_ms, 0.50),
        "net.delivery_ms_p99": pct(delivery_ms, 0.99),
        "net.loop_lag_ms_p50": pct(pooled["loop_lag_ms"], 0.50),
        "net.loop_lag_ms_p99": pct(pooled["loop_lag_ms"], 0.99),
        "workloads.admit_ms_per_request": self_ms.get("workloads.admit", 0.0) * to_reference
        / (totals["admitted"] or 1),
        "workloads.payload_source_ms_per_height": per_height("workloads.payload_source"),
        "workloads.verify_block_ms_per_height": per_height("workloads.verify_block"),
        "workloads.queue_wait_ms_p50": pct(pooled["queue_wait_ms"], 0.50),
        "obs.unattributed_pct": 100.0 * (cpu_ms - sum(self_ms.values())) / cpu_ms,
    })
    shares: dict[str, float] = {}
    for name, ms in self_ms.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + ms
    out["_self_ms_by_span"] = {k: round(v, 3) for k, v in sorted(self_ms.items())}
    out["_layer_share_pct"] = {
        layer: round(100.0 * ms / sum(self_ms.values()), 1) for layer, ms in sorted(shares.items())
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--max-epochs", type=int, default=MAX_EPOCHS)
    args = parser.parse_args()

    imports_done_at = import_program()
    kernel_after_imports = kernel()
    if args.probe:
        print(json.dumps({"imports_done_at": imports_done_at,
                          "kernel_ms_after_imports": kernel_after_imports}))
        return 0

    from repro.crypto.backend import active_backend

    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
    nproc = os.cpu_count() or 1
    if threads > nproc:
        print(f"refusing to measure: {threads} threads on {nproc} cores", file=sys.stderr)
        return 2

    spec = SPECS[args.workload].sized(args.quick)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    admit_clock = AdmitClock()
    admit_clock.install()
    rec = None
    timed_kernel = kernel
    if args.trace:
        from tracing import Recorder, install

        rec = Recorder()
        install(rec)
        # Its own span, so that on the live loop the kernel's time is not
        # read as the enclosing asyncio callback's self time.
        timed_kernel = rec.wrap("bench.kernel", kernel)

    epochs: list[dict] = []
    errors: list[str] = []
    if not args.quick:
        # One short discarded epoch: the interpreter specialises its bytecode
        # and the allocator grows its arenas before anything is timed.
        if rec is not None:
            rec.begin_epoch(-1)
        run_epoch(SPECS[args.workload].sized(True), args.seed * 1000 + 999, rec, timed_kernel,
                  admit_clock)
    began = time.perf_counter()
    while len(epochs) < (1 if args.quick else args.max_epochs):
        if epochs:
            # Start another epoch only if one of typical length still fits.
            elapsed = time.perf_counter() - began
            typical = statistics.median(e["epoch_s"] for e in epochs)
            if elapsed + typical > args.seconds:
                break
        index = len(epochs)
        gc.collect()
        if rec is not None:
            rec.begin_epoch(index)
            keygen_before = rec.self_ns[rec.name_id("crypto.keygen")]
        t0 = time.perf_counter()
        epoch = run_epoch(spec, args.seed * 1000 + index, rec, timed_kernel, admit_clock)
        epoch["epoch_s"] = time.perf_counter() - t0
        if rec is not None:
            # Keygen runs once per party object; the epoch total is what set-up pays.
            epoch["keygen_s"] = (rec.self_ns[rec.name_id("crypto.keygen")] - keygen_before) / 1e9
        epoch["errors"] += check_pins(spec, args.seed, args.quick, index, epoch["pins"], golden)
        errors += [f"epoch {index}: {message}" for message in epoch["errors"]]
        epochs.append(epoch)

    attempted = sum(e["offered"] for e in epochs)
    failed = sum(e["offered"] if e["errors"] else e["unfinished"] for e in epochs)
    latency_samples = sum(len(e["latency_ms"]) for e in epochs)
    median = statistics.median
    e2e = {
        "setup_epoch_s": median(e["setup_s"] for e in epochs),
        "heights_per_s": median(e["heights"] / e["wall_s"] for e in epochs),
        # Pooled over epochs: a count over a span, not a time, so there is no
        # slow epoch to reject and pooling halves the arrival-count noise.
        "request_goodput_rps": sum(e["goodput_requests"] for e in epochs)
        / (sum(e["goodput_span_s"] for e in epochs) or 1.0),
        # Median over epochs of each epoch's own median: one epoch that hit a
        # slow stretch of the machine grows a queue and would own a pooled tail.
        "request_latency_p50_ms": median(
            percentile(e["latency_ms"], 0.50) for e in epochs if e["latency_ms"]
        ),
        "cpu_ms_per_height": median(
            e["cpu_s"] * 1000.0 / max(1, e["heights"]) for e in epochs
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = layer_metrics(epochs, traced=rec is not None)
    layer["env.raw_heights_per_s"] = median(e["heights"] / e["raw_wall_s"] for e in epochs)
    layer["env.machine_speed_pct"] = 100.0 * median(v for e in epochs for v in e["speeds"])
    if rec is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"trace-{spec.name}.json"), spec.name, layer)
    print(json.dumps({
        "workload": spec.name,
        "seed": args.seed,
        "epochs": len(epochs),
        "epoch_wall_s": [round(e["wall_s"], 4) for e in epochs],
        "epoch_raw_wall_s": [round(e["raw_wall_s"], 4) for e in epochs],
        "kernel_ms_after_imports": kernel_after_imports,
        "latency_samples": latency_samples,
        "imports_done_at": imports_done_at,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layer": layer,
        "pins": [e["pins"] for e in epochs],
        "env": {
            "nproc": nproc,
            "threads": threads,
            "python": sys.version.split()[0],
            "modexp_backend": active_backend().name,
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
