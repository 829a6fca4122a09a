"""The ``python -m repro serve`` and ``python -m repro live`` entry points.

``serve`` is the party binary: load the shared cluster config, become
party ``--index``, run until the target height (or timeout / SIGTERM),
then write a JSON result record — plus, when asked, a self-identifying
trace JSONL (``--trace``).  ``live``
is the orchestrator: allocate ports, write the config, spawn one
``serve`` process per party, collect the per-party records, check the
paper's prefix property across them, and report wall-clock finalization
results — optionally as a JSON document (``--json PATH``).

With ``--trace-dir D`` (or ``--json`` / ``--check``, which imply tracing
into a temporary directory) every process traces into the run directory
and the orchestrator automatically **collects** the run afterwards
(:func:`repro.obs.collect_run`): timelines aligned exactly by the
processes' clock epochs, traces merged, and the
critical-path latency breakdown
(:func:`repro.analysis.critical_path.latency_breakdown`, the same one the
simulator's reports use) computed and embedded in the summary.  ``python
-m repro collect D`` re-runs that step standalone.

The quick in-process mode (``--inproc``, implied by ``--check``) runs
the same protocol/transport stack on one event loop via
:class:`~repro.net.cluster.LiveCluster` — fast enough for CI smoke runs.
Even in-process, each party gets its *own* tracer (its own timeline)
and the run is written in the per-process layout, so there is one
collection path for both modes.  Wall-clock
performance of this stack is measured by the ``live_n4_sat`` and
``live_n4_load`` workloads of ``python3 bench/run.py``, not here.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from ..analysis.critical_path import (
    ICC_STAGES,
    consistency_line,
    critical_paths,
    latency_breakdown,
)
from ..core.cluster import PROTOCOLS, prefix_consistent
from ..obs import Tracer, collect_run, trace_header, write_jsonl
from ..sim.metrics import percentile
from .clock import host_id
from .cluster import LiveCluster
from .config import LiveConfig, load_live_config, local_live_config
from .party import LiveParty

#: Extra wall-clock slack the orchestrator grants each serve process
#: beyond the config timeout before killing it.
KILL_GRACE = 10.0


# --------------------------------------------------------------------- serve


async def _serve(config: LiveConfig, index: int, tracer) -> tuple[LiveParty, dict]:
    loop = asyncio.get_running_loop()
    live = LiveParty(config, index, loop=loop, tracer=tracer)
    stop_requested = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop; the hard-timeout path still applies
    await live.start()
    waiter = asyncio.ensure_future(
        live.wait_for_height(config.target_height, config.timeout)
    )
    stopper = asyncio.ensure_future(stop_requested.wait())
    done, _pending = await asyncio.wait(
        {waiter, stopper}, return_when=asyncio.FIRST_COMPLETED
    )
    reached = waiter in done and waiter.result()
    for task in (waiter, stopper):
        task.cancel()
    await live.stop()
    result = live.result()
    result["reached_target"] = bool(reached)
    result["target_height"] = config.target_height
    return live, result


def _write_trace(config: LiveConfig, live: LiveParty, path: str) -> None:
    """Export one party's trace.  The header makes it self-identifying and
    places its timeline: the collector refuses headerless traces, mixed
    run_ids and mixed hosts, and aligns the rest by their clock epochs."""
    write_jsonl(
        live.clock.tracer.export_events(),
        path,
        header=trace_header(
            run_id=config.effective_run_id(),
            party=live.index,
            clock_epoch_s=live.clock.epoch,
            host=host_id(),
            cluster_id=config.cluster_id,
        ),
    )


def add_serve_arguments(parser) -> None:
    """The ``python -m repro serve`` flags (``repro.__main__`` hands its
    subparser here)."""
    parser.add_argument(
        "--config", required=True, metavar="PATH",
        help="shared cluster config JSON (peers/ports/keys)",
    )
    parser.add_argument(
        "--index", required=True, type=int, metavar="I",
        help="which party of the config this process is (1-based)",
    )
    parser.add_argument(
        "--result", metavar="PATH", default=None,
        help="write the JSON result record here (default: stdout)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export this party's trace events as JSONL (self-identifying "
             "header: run_id + party index + schema version)",
    )


def serve(args) -> int:
    """``python -m repro serve --config cluster.json --index 2``."""
    config = load_live_config(args.config)
    tracer = Tracer() if args.trace else None
    live, result = asyncio.run(_serve(config, args.index, tracer))
    if args.trace:
        _write_trace(config, live, args.trace)
    payload = json.dumps(result, indent=1, sort_keys=True)
    if args.result:
        with open(args.result, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if result["reached_target"] else 1


# ---------------------------------------------------------------------- live


def summarize(
    config: LiveConfig, results: list[dict], breakdown: dict | None = None
) -> dict:
    """Aggregate per-party serve records into the summary's ``live`` block."""
    heights = [r["height"] for r in results]
    min_height = min(heights, default=0)
    live_ok = bool(results) and all(r.get("reached_target") for r in results)
    safety_ok = bool(results) and prefix_consistent(
        [r["committed"] for r in results]
    )
    wall = max((r["wall_seconds"] for r in results), default=0.0)
    latencies = results[0].get("request_latencies", []) if results else []
    block = {
        "live_ok": live_ok,
        "safety_ok": safety_ok,
        "parties_reporting": len(results),
        "min_height": min_height,
        "max_height": max(heights, default=0),
        "wall_seconds": round(wall, 3),
        "heights_per_sec": round(min_height / wall, 2) if wall > 0 else 0.0,
        "requests_completed": results[0].get("requests_completed", 0) if results else 0,
        "request_latency_p50": round(percentile(latencies, 0.50), 4) if latencies else 0.0,
        "request_latency_p90": round(percentile(latencies, 0.90), 4) if latencies else 0.0,
    }
    if breakdown is not None:
        block["latency_breakdown"] = breakdown
    return block


def summary_document(config: LiveConfig, live_block: dict) -> dict:
    """The document ``--json PATH`` writes (see docs/TRANSPORT.md)."""
    return {
        "benchmark": (
            "live TCP transport: localhost cluster, wall-clock finalization"
        ),
        "seed": config.seed,
        "cluster": {
            "n": config.n,
            "t": config.t,
            "protocol": config.protocol,
            "transport": "tcp-localhost",
            "epsilon": config.epsilon,
        },
        "target_height": config.target_height,
        "live": live_block,
    }


def _fresh_run_id(config: LiveConfig) -> str:
    """A run id unique enough to catch accidental cross-run merges."""
    return f"{config.cluster_id}-{config.seed}-{os.getpid()}-{int(time.time() * 1000)}"


async def _run_inproc(config: LiveConfig, workdir: str | None) -> list[dict]:
    """One in-process run.  Given a ``workdir`` each party gets its own
    tracer (its own timeline), mirroring separate processes, and the
    run is written there in the per-process layout ``_spawn_cluster``
    leaves and ``repro collect`` expects."""
    async with LiveCluster(
        config, per_party=(lambda _: Tracer()) if workdir else None
    ) as cluster:
        reached = await cluster.wait_for_height(
            config.target_height, config.timeout
        )
        results = cluster.results()
        for record in results:
            record["reached_target"] = (
                reached or record["height"] >= config.target_height
            )
            record["target_height"] = config.target_height
    if workdir:
        config.save(os.path.join(workdir, "cluster.json"))
        for live in cluster.parties:
            _write_trace(config, live, os.path.join(workdir, f"trace-{live.index}.jsonl"))
        for record in results:
            path = os.path.join(workdir, f"result-{record['index']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return results


def _spawn_cluster(
    config: LiveConfig, workdir: str, trace: bool = False
) -> list[dict]:
    """One serve process per party; returns the collected result records."""
    config_path = os.path.join(workdir, "cluster.json")
    config.save(config_path)
    procs: list[subprocess.Popen] = []
    result_paths: list[str] = []
    for i in range(1, config.n + 1):
        result_path = os.path.join(workdir, f"result-{i}.json")
        result_paths.append(result_path)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--config", config_path,
            "--index", str(i),
            "--result", result_path,
        ]
        if trace:
            argv += ["--trace", os.path.join(workdir, f"trace-{i}.jsonl")]
        procs.append(
            subprocess.Popen(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.STDOUT,
            )
        )
    deadline = config.timeout + KILL_GRACE
    results: list[dict] = []
    try:
        for proc in procs:
            try:
                proc.wait(timeout=deadline)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=KILL_GRACE)
                except subprocess.TimeoutExpired:
                    proc.kill()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
    for path in result_paths:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                results.append(json.load(fh))
    return results


def _clear_run_artifacts(workdir: str) -> None:
    """Remove a previous run's per-process/merged artifacts so a reused
    ``--trace-dir`` cannot mix two runs (the collector would refuse)."""
    patterns = (
        "trace-*.jsonl", "result-*.json", "merged-trace.jsonl", "alignment.json",
    )
    for pattern in patterns:
        for path in glob.glob(os.path.join(workdir, pattern)):
            os.unlink(path)


def _collect_breakdown(config: LiveConfig, workdir: str) -> dict | None:
    """Collect the run directory; returns the latency breakdown (None if
    collection failed, e.g. a party died before writing its trace)."""
    try:
        collected = collect_run(workdir)
    except Exception as exc:
        print(f"  collect     : FAILED ({exc})")
        return None
    breakdown = latency_breakdown(
        critical_paths(collected.events, quorum=config.n - config.t),
        collected.events,
    )
    print(f"  collected   : {collected.merged_trace_path}")
    print(f"  {consistency_line(breakdown)}")
    return breakdown


def _print_summary(config: LiveConfig, live_block: dict) -> None:
    print(
        f"live cluster: n={config.n} t={config.t} protocol={config.protocol} "
        f"target={config.target_height} heights (tcp localhost)"
    )
    print(
        f"  finalized   : min height {live_block['min_height']} "
        f"in {live_block['wall_seconds']:.2f}s wall "
        f"({live_block['heights_per_sec']:.1f} heights/s)"
    )
    print(
        f"  liveness    : {'ok' if live_block['live_ok'] else 'FAILED'} "
        f"({live_block['parties_reporting']}/{config.n} parties reporting)"
    )
    print(f"  safety      : {'ok' if live_block['safety_ok'] else 'VIOLATED'}")
    if live_block["requests_completed"]:
        print(
            f"  client load : {live_block['requests_completed']} requests, "
            f"latency p50 {live_block['request_latency_p50'] * 1000:.0f} ms / "
            f"p90 {live_block['request_latency_p90'] * 1000:.0f} ms"
        )
    breakdown = live_block.get("latency_breakdown")
    if breakdown and breakdown.get("heights"):
        stages = breakdown["stage_means_s"]
        rendered = " + ".join(
            f"{stage} {stages[stage] * 1000:.0f}ms" for stage in ICC_STAGES
        )
        print(
            f"  breakdown   : {breakdown['heights']} heights, mean "
            f"{breakdown['finalization_latency_mean_s'] * 1000:.0f} ms "
            f"finalization ({rendered})"
        )


def add_live_arguments(parser) -> None:
    """The ``python -m repro live`` flags (``repro.__main__`` hands its
    subparser here)."""
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--protocol", choices=list(PROTOCOLS), default="icc0")
    parser.add_argument(
        "--heights", type=int, default=20, metavar="K",
        help="finalized height every party must reach",
    )
    parser.add_argument("--epsilon", type=float, default=0.05,
                        help="protocol governor ε (round pacing on localhost)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="hard wall-clock budget (seconds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--load", type=int, default=160, metavar="R",
        help="deterministic client requests through the batching pipeline "
             "(0 = empty payloads)",
    )
    parser.add_argument(
        "--inproc", action="store_true",
        help="co-host all parties on one event loop (still real TCP) "
             "instead of spawning serve processes",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="quick in-process 4-party smoke leg (CI): finalize 5 heights, "
             "verify liveness + the prefix property",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the run's summary JSON here (traces the run to "
             "compute the latency breakdown)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="trace every process into DIR and collect the run afterwards "
             "(exact clock alignment + merged trace + latency breakdown)",
    )


def live(args) -> int:
    """``python -m repro live`` — orchestrate a local n-party TCP cluster."""
    if args.check:
        config = local_live_config(
            4, t=1, seed=args.seed, protocol=args.protocol,
            epsilon=0.02, target_height=5, timeout=30.0,
            load_requests=40, load_batch=8,
        )
    else:
        config = local_live_config(
            args.n,
            t=(args.n - 1) // 3,
            seed=args.seed,
            protocol=args.protocol,
            epsilon=args.epsilon,
            target_height=args.heights,
            timeout=args.timeout,
            load_requests=args.load,
            load_batch=16,
        )
    config = dataclasses.replace(config, run_id=_fresh_run_id(config))
    trace_dir = args.trace_dir
    # --json and --check publish a latency breakdown, which needs traces;
    # without an explicit --trace-dir they trace into a temp dir.
    want_trace = bool(trace_dir or args.json or args.check)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        _clear_run_artifacts(trace_dir)
        workdir_ctx: contextlib.AbstractContextManager[str] = (
            contextlib.nullcontext(trace_dir)
        )
    else:
        workdir_ctx = tempfile.TemporaryDirectory(prefix="repro-live-")
    with workdir_ctx as workdir:
        if args.inproc or args.check:
            results = asyncio.run(
                _run_inproc(config, workdir if want_trace else None)
            )
        else:
            results = _spawn_cluster(config, workdir, trace=want_trace)
        breakdown = _collect_breakdown(config, workdir) if want_trace else None
    live_block = summarize(config, results, breakdown)
    _print_summary(config, live_block)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary_document(config, live_block), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.json}")
    return 0 if live_block["live_ok"] and live_block["safety_ok"] else 1


__all__ = [
    "add_live_arguments",
    "add_serve_arguments",
    "live",
    "serve",
    "summarize",
    "summary_document",
]
