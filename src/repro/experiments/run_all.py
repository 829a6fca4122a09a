"""Run the full evaluation suite, print every table and check every claim.

Usage::

    python -m repro.experiments.run_all [--quick] [--trace DIR] [--jobs N]

After the last table, every module's ``CLAIMS`` are read off the rows its
``tabulate`` returned and printed one per line; the exit status is 1 when
any claim fails.  ``--quick`` shrinks the Table 1 measurement window from
the paper's 5 minutes to 60 seconds (everything else is already fast).  ``--trace DIR``
turns on structured tracing (:mod:`repro.obs`) for every ICC cluster the
experiments build, exporting one JSONL file per run into ``DIR`` — see
``docs/OBSERVABILITY.md``.  ``--jobs N`` fans every simulation of the
suite across ``N`` worker processes (default: all cores); ``--jobs 1``
runs them in-process.  Tables print in the same order, with
byte-identical content, at any job count.
"""

from __future__ import annotations

import argparse
import sys

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
from .common import print_table


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
        type=runner.at_least(1),
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


def tabulate(groups: list[tuple[object, list[runner.RunSpec]]], results: list) -> list:
    """Print every module's table from the suite's flat result list and
    return the rows each ``tabulate`` returned, in module order."""
    tables, offset = [], 0
    for module, group in groups:
        tables.append(module.tabulate(group, results[offset : offset + len(group)]))
        offset += len(group)
    return tables


def check(groups: list[tuple[object, list[runner.RunSpec]]], tables: list) -> list[str]:
    """Print one line per claim of every module, checked on its rows, and
    return the ids of the claims that fail."""
    verdicts = [
        (claim, *claim.check(rows))
        for (module, _), rows in zip(groups, tables)
        for claim in module.CLAIMS
    ]
    print_table(
        "Claims: each paper number, checked on the runs above",
        ["claim", "section", "measured", "paper", "verdict"],
        [
            (claim.id, claim.section, f"{measured:.4g}", claim.paper, "OK" if ok else "FAILED")
            for claim, measured, ok in verdicts
        ],
    )
    return [claim.id for claim, _, ok in verdicts if not ok]


def run(args: argparse.Namespace) -> int:
    groups = suite(args.quick)
    results = runner.execute(
        [s for _, group in groups for s in group], jobs=args.jobs, trace_dir=args.trace
    )
    failed = check(groups, tabulate(groups, results))
    if failed:
        print(f"claims FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run_all",
        description="Run every experiment, print the paper's tables and check its claims.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
