"""Run the full evaluation suite and print every table.

Usage::

    python -m repro.experiments.run_all [--quick] [--trace DIR] [--jobs N]

``--quick`` shrinks the Table 1 measurement window from the paper's 5
minutes to 60 seconds (everything else is already fast).  ``--trace DIR``
turns on structured tracing (:mod:`repro.obs`) for every ICC cluster the
experiments build, exporting one JSONL file per run into ``DIR`` — see
``docs/OBSERVABILITY.md``.  ``--jobs N`` fans the enumerable simulations
across ``N`` worker processes (default: all cores); ``--jobs 1`` keeps
the fully in-process serial path.  Tables print in the same order, with
byte-identical content, at any job count.
"""

from __future__ import annotations

import argparse

from . import runner
from .common import enable_tracing, flush_pending_trace
from . import (
    ablations,
    bandwidth,
    comparison,
    dissemination,
    intermittent,
    message_complexity,
    properties,
    responsiveness,
    robustness,
    round_complexity,
    table1,
    throughput_latency,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``python -m repro experiments`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink Table 1's measurement window from 300 s to 60 s",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="export one JSONL trace file per simulation run into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the simulation suite (default: all cores)",
    )


def suite(quick: bool) -> list[tuple[object, list[runner.RunSpec]]]:
    """The runner-enumerable portion of the suite, in table order."""
    return [
        (table1, table1.specs(duration=60.0 if quick else 300.0)),
        (throughput_latency, throughput_latency.specs()),
        (robustness, robustness.specs()),
        (comparison, comparison.specs()),
        (intermittent, intermittent.specs()),
        (ablations, ablations.specs()),
    ]


def run(args: argparse.Namespace) -> int:
    jobs = args.jobs if args.jobs is not None else runner.default_jobs()

    groups = suite(args.quick)
    all_specs = [s for _, group in groups for s in group]
    results = runner.execute(all_specs, jobs=jobs, trace_dir=args.trace)

    # Slice flat results back into per-module lists, preserving order.
    sliced: dict[object, tuple[list[runner.RunSpec], list]] = {}
    offset = 0
    for module, group in groups:
        sliced[module] = (group, results[offset : offset + len(group)])
        offset += len(group)

    # Inline experiments (not yet RunSpec-enumerable) run in-process during
    # the print phase; their trace files are numbered after the runner's.
    if args.trace is not None:
        enable_tracing(args.trace, start=len(all_specs))
    try:
        table1.tabulate(*sliced[table1])
        throughput_latency.tabulate(*sliced[throughput_latency])
        message_complexity.main()
        round_complexity.main()
        robustness.tabulate(*sliced[robustness])
        responsiveness.main()
        dissemination.main()
        comparison.tabulate(*sliced[comparison])
        properties.main()
        intermittent.tabulate(*sliced[intermittent])
        bandwidth.main()
        ablations.tabulate(*sliced[ablations])
    finally:
        flush_pending_trace()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run_all",
        description="Run every experiment and print the paper's tables.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
