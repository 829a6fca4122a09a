"""Run the full evaluation suite and print every table.

Usage::

    python -m repro.experiments.run_all [--quick] [--trace DIR] [--jobs N]

``--quick`` shrinks the Table 1 measurement window from the paper's 5
minutes to 60 seconds (everything else is already fast).  ``--trace DIR``
turns on structured tracing (:mod:`repro.obs`) for every ICC cluster the
experiments build, exporting one JSONL file per run into ``DIR`` — see
``docs/OBSERVABILITY.md``.  ``--jobs N`` fans every simulation of the
suite across ``N`` worker processes (default: all cores); ``--jobs 1``
runs them in-process.  Tables print in the same order, with
byte-identical content, at any job count.
"""

from __future__ import annotations

import argparse

from . import runner
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
    """Every experiment module with its specs, in table order."""
    return [
        (table1, table1.specs(duration=60.0 if quick else 300.0)),
        (throughput_latency, throughput_latency.specs()),
        (message_complexity, message_complexity.specs()),
        (round_complexity, round_complexity.specs()),
        (robustness, robustness.specs()),
        (responsiveness, responsiveness.specs()),
        (dissemination, dissemination.specs()),
        (comparison, comparison.specs()),
        (properties, properties.specs()),
        (intermittent, intermittent.specs()),
        (bandwidth, bandwidth.specs()),
        (ablations, ablations.specs()),
    ]


def tabulate(groups: list[tuple[object, list[runner.RunSpec]]], results: list) -> None:
    """Print every module's table from the suite's flat result list."""
    offset = 0
    for module, group in groups:
        module.tabulate(group, results[offset : offset + len(group)])
        offset += len(group)


def run(args: argparse.Namespace) -> int:
    groups = suite(args.quick)
    results = runner.execute(
        [s for _, group in groups for s in group], jobs=args.jobs, trace_dir=args.trace
    )
    tabulate(groups, results)
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
