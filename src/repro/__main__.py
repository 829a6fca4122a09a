"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — the quickstart scenario (a few ICC0 rounds + stats);
* ``table1``      — reproduce Table 1 (``--full`` for 300 s windows);
* ``experiments`` — the entire evaluation suite (``--quick``, ``--trace DIR``,
  ``--jobs N`` for the parallel runner);
* ``trace``       — run a traced simulation (or load a JSONL export) and
  print its summary and per-height critical paths — see
  ``docs/OBSERVABILITY.md``;
* ``chaos``       — seeded fault-scenario sweep with safety/liveness
  invariant checking across the ICC variants — see ``docs/FAULTS.md``;
* ``report``      — metrics + critical-path report for a seeded run suite,
  or (``--load``) for a run directory written earlier, a collected live
  run included — see ``docs/OBSERVABILITY.md``;
* ``load``        — batched load harness: sweep offered load and chart the
  throughput-vs-latency saturation curve at n=13/31/100 — see
  ``docs/LOAD.md``;
* ``shard``       — multi-subnet sharding harness: K embedded clusters over
  certified xnet streams, aggregate-throughput-vs-K sweep — see
  ``docs/SHARDING.md``;
* ``serve``       — one live protocol party over real TCP (the per-process
  binary ``live`` spawns; config file names peers/ports/keys) — see
  ``docs/TRANSPORT.md``;
* ``live``        — orchestrate an n-party localhost TCP cluster, drive
  client load through the batching pipeline, record wall-clock
  finalization (``--json PATH`` for the run summary, ``--check`` for the
  CI smoke leg, ``--trace-dir DIR`` to trace every process and collect
  the run) — see ``docs/TRANSPORT.md``;
* ``collect``     — merge a live run's per-process traces/meters: align
  the n monotonic clocks, pair send/recv wire spans, write the merged
  trace + meter + alignment (``--report`` for the run report of that
  directory, ``--check`` for CI) — see ``docs/OBSERVABILITY.md``;
* ``top``         — poll a running live cluster's STAT endpoints and
  render a per-party metrics table (height, pool depth, backlog,
  reconnects, request percentiles) — see ``docs/OBSERVABILITY.md``;
* ``versions``    — substrate self-check (group parameters, codec, sizes).

Performance is measured by ``python3 bench/run.py`` (``BENCHMARK.json``,
``docs/PERFORMANCE.md``), not by a subcommand.  ``experiments``,
``trace``, ``chaos``, ``report``, ``load``, ``shard`` and ``collect`` declare
their flags in their own module (``add_arguments(parser)``) next to the
``run(args) -> int`` that reads them; :func:`_mount` hands each its
subparser, so a flag has one declaration and one default.
"""

from __future__ import annotations

import argparse
import importlib
import sys


def _cmd_demo(args: argparse.Namespace) -> None:
    from repro.core import ClusterConfig, Payload, build_cluster
    from repro.sim import FixedDelay

    delta = args.delta
    config = ClusterConfig(
        n=args.n,
        t=(args.n - 1) // 3,
        delta_bound=delta * 6,
        epsilon=delta / 5,
        delay_model=FixedDelay(delta),
        max_rounds=args.rounds,
        payload_source=lambda p, r, c: Payload(commands=(b"demo-%d" % r,)),
        seed=args.seed,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(args.rounds - 1, timeout=600)
    cluster.check_safety()
    observer = cluster.party(1)
    print(f"n={args.n} parties, δ={delta * 1000:.0f} ms, seed={args.seed}")
    print(f"committed {observer.k_max} rounds in {cluster.sim.now:.2f}s simulated")
    durations = cluster.metrics.round_durations(1)
    steady = [v for k, v in durations.items() if k >= 2]
    latencies = cluster.metrics.commit_latencies()
    print(f"round time  : {sum(steady) / len(steady) / delta:.2f} δ (paper: 2δ)")
    print(f"latency     : {sum(latencies) / len(latencies) / delta:.2f} δ (paper: 3δ)")
    leaders = [b.proposer for b in observer.output_log]
    print(f"leaders     : {leaders}")


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.experiments import runner, table1

    runner.run_experiment(table1, duration=300.0 if args.full else 60.0)


def _cmd_versions(args: argparse.Namespace) -> None:
    import repro
    from repro.crypto.group import default_group, test_group
    from repro.erasure.reed_solomon import CodecParams, decode, encode

    print(f"repro {repro.__version__}")
    for name, group in (("test", test_group()), ("default", default_group())):
        print(f"group[{name}]: |p|={group.p.bit_length()} bits, "
              f"|q|={group.q.bit_length()} bits, g={hex(group.g)[:18]}…")
    data = bytes(range(64))
    shards = encode(data, CodecParams(3, 7))
    assert decode({0: shards[0], 5: shards[5], 6: shards[6]}, CodecParams(3, 7), 64) == data
    print("reed-solomon: self-check OK (3-of-7 over 64 bytes)")


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.net import live as live_mod

    sys.exit(live_mod.serve(args))


def _cmd_live(args: argparse.Namespace) -> None:
    from repro.net import live as live_mod

    sys.exit(live_mod.live(args))


def _cmd_top(args: argparse.Namespace) -> None:
    from repro.net.stat import top

    sys.exit(top(args))


def _mount(parser: argparse.ArgumentParser, module_name: str) -> None:
    """Make ``parser`` the subcommand implemented by ``module_name``: the
    module's ``add_arguments`` declares the flags, its ``run(args) -> int``
    is the command and a non-zero return value the exit status."""
    module = importlib.import_module(module_name)
    module.add_arguments(parser)

    def command(args: argparse.Namespace) -> None:
        status = module.run(args)
        if status:
            sys.exit(status)

    parser.set_defaults(func=command)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Internet Computer Consensus (PODC 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small ICC0 deployment")
    demo.add_argument("--n", type=int, default=7)
    demo.add_argument("--rounds", type=int, default=15)
    demo.add_argument("--delta", type=float, default=0.05)
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=_cmd_demo)

    table1 = sub.add_parser("table1", help="reproduce Table 1")
    table1.add_argument("--full", action="store_true", help="300 s windows")
    table1.set_defaults(func=_cmd_table1)

    experiments = sub.add_parser("experiments", help="run the full evaluation")
    _mount(experiments, "repro.experiments.run_all")

    trace = sub.add_parser(
        "trace", help="trace a simulation and summarize the event stream"
    )
    _mount(trace, "repro.analysis.trace")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-scenario sweep with invariant checking",
    )
    _mount(chaos, "repro.experiments.chaos")

    report = sub.add_parser(
        "report",
        help="metrics + critical-path report for a seeded run suite",
    )
    _mount(report, "repro.experiments.run_report")

    load = sub.add_parser(
        "load",
        help="batched load harness: throughput-vs-latency saturation sweep",
    )
    _mount(load, "repro.experiments.load")

    shard = sub.add_parser(
        "shard",
        help="multi-subnet sharding harness: aggregate throughput vs K "
             "over certified xnet streams",
    )
    _mount(shard, "repro.experiments.sharding")

    serve = sub.add_parser(
        "serve",
        help="run one live party over TCP (the per-process binary that "
             "`live` spawns) — see docs/TRANSPORT.md",
    )
    serve.add_argument(
        "--config", required=True, metavar="PATH",
        help="shared cluster config JSON (peers/ports/keys)",
    )
    serve.add_argument(
        "--index", required=True, type=int, metavar="I",
        help="which party of the config this process is (1-based)",
    )
    serve.add_argument(
        "--result", metavar="PATH", default=None,
        help="write the JSON result record here (default: stdout)",
    )
    serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export this party's trace events as JSONL (self-identifying "
             "header: run_id + party index + schema version)",
    )
    serve.add_argument(
        "--meter", metavar="PATH", default=None,
        help="write this party's full meter snapshot as JSON",
    )
    serve.set_defaults(func=_cmd_serve)

    live = sub.add_parser(
        "live",
        help="orchestrate an n-party localhost TCP cluster (one serve "
             "process per party) — see docs/TRANSPORT.md",
    )
    live.add_argument("--n", type=int, default=4)
    live.add_argument(
        "--protocol", choices=["icc0", "icc1", "icc2"], default="icc0"
    )
    live.add_argument(
        "--heights", type=int, default=20, metavar="K",
        help="finalized height every party must reach",
    )
    live.add_argument("--epsilon", type=float, default=0.05,
                      help="protocol governor ε (round pacing on localhost)")
    live.add_argument("--timeout", type=float, default=60.0,
                      help="hard wall-clock budget (seconds)")
    live.add_argument("--seed", type=int, default=0)
    live.add_argument(
        "--load", type=int, default=160, metavar="R",
        help="deterministic client requests through the batching pipeline "
             "(0 = empty payloads)",
    )
    live.add_argument(
        "--inproc", action="store_true",
        help="co-host all parties on one event loop (still real TCP) "
             "instead of spawning serve processes",
    )
    live.add_argument(
        "--check", action="store_true",
        help="quick in-process 4-party smoke leg (CI): finalize 5 heights, "
             "verify liveness + the prefix property",
    )
    live.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the run's summary JSON here (traces the run to "
             "compute the latency breakdown)",
    )
    live.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="trace every process into DIR and collect the run afterwards "
             "(clock alignment + merged trace + latency breakdown)",
    )
    live.set_defaults(func=_cmd_live)

    collect = sub.add_parser(
        "collect",
        help="merge one live run's per-process traces: clock alignment, "
             "causal wire spans, merged trace/meter — see "
             "docs/OBSERVABILITY.md",
    )
    _mount(collect, "repro.obs.distributed")

    top = sub.add_parser(
        "top",
        help="poll a live cluster's STAT endpoints: per-party height, "
             "pool depth, backlog, reconnects, request percentiles",
    )
    top.add_argument(
        "--config", required=True, metavar="PATH",
        help="the cluster config JSON the parties were launched with",
    )
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument(
        "--iterations", type=int, default=0, metavar="K",
        help="stop after K polls (0 = until interrupted)",
    )
    top.add_argument("--timeout", type=float, default=2.0,
                     help="per-peer connect+reply budget (seconds)")
    top.add_argument("--json", action="store_true",
                     help="also print each poll as one JSON line")
    top.set_defaults(func=_cmd_top)

    versions = sub.add_parser("versions", help="substrate self-check")
    versions.set_defaults(func=_cmd_versions)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
