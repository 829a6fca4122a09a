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
* ``collect``     — merge a live run's per-process traces: align the n
  monotonic clocks, pair send/recv wire spans, write the merged trace +
  alignment (``--report`` for the run report of that
  directory, ``--check`` for CI) — see ``docs/OBSERVABILITY.md``;
* ``top``         — poll a running live cluster's STAT endpoints and
  render a per-party metrics table (height, pool depth, backlog,
  reconnects, request percentiles) — see ``docs/OBSERVABILITY.md``;
* ``versions``    — substrate self-check (group parameters, codec, sizes).

Performance is measured by ``python3 bench/run.py`` (``BENCHMARK.json``,
``docs/PERFORMANCE.md``), not by a subcommand.  Every subcommand declares
its flags in its own module (``add_arguments(parser)``) next to the
``run(args) -> int`` that reads them; :func:`_mount` hands each its
subparser, so a flag has one declaration and one default.
"""

from __future__ import annotations

import argparse
import importlib
import sys


def _mount(
    parser: argparse.ArgumentParser,
    module_name: str,
    command: str = "",
    always_exit: bool = False,
) -> None:
    """Make ``parser`` the subcommand implemented by ``module_name``: the
    module's ``add_arguments`` declares the flags, its ``run(args) -> int``
    is the command and a non-zero return value the exit status.  A module
    that is home to several subcommands names them: ``add_<command>_arguments``
    and ``<command>(args)``.  ``always_exit`` leaves through ``SystemExit``
    on success too, as ``serve``, ``live`` and ``top`` always have."""
    module = importlib.import_module(module_name)
    add_arguments = getattr(module, f"add_{command}_arguments" if command else "add_arguments")
    run = getattr(module, command or "run")
    add_arguments(parser)

    def dispatch(args: argparse.Namespace) -> None:
        status = run(args)
        if status or always_exit:
            sys.exit(status)

    parser.set_defaults(func=dispatch)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Internet Computer Consensus (PODC 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small ICC0 deployment")
    _mount(demo, "repro.demo", "demo")

    table1 = sub.add_parser("table1", help="reproduce Table 1")
    _mount(table1, "repro.experiments.table1")

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
    _mount(serve, "repro.net.live", "serve", always_exit=True)

    live = sub.add_parser(
        "live",
        help="orchestrate an n-party localhost TCP cluster (one serve "
             "process per party) — see docs/TRANSPORT.md",
    )
    _mount(live, "repro.net.live", "live", always_exit=True)

    collect = sub.add_parser(
        "collect",
        help="merge one live run's per-process traces: clock alignment, "
             "causal wire spans, merged trace — see "
             "docs/OBSERVABILITY.md",
    )
    _mount(collect, "repro.obs.distributed")

    top = sub.add_parser(
        "top",
        help="poll a live cluster's STAT endpoints: per-party height, "
             "pool depth, backlog, reconnects, request percentiles",
    )
    _mount(top, "repro.net.stat", "top", always_exit=True)

    versions = sub.add_parser("versions", help="substrate self-check")
    _mount(versions, "repro.demo", "versions")

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
