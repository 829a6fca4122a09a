"""Experiment harness: one module per table/figure/claim (see DESIGN.md §3).

Every module exposes its point function(s), ``specs(**sweep)``,
``tabulate(specs, results)``, which prints the rows the paper reports and
returns them, and ``CLAIMS``, the paper's numbers checked on those rows;
:func:`repro.experiments.runner.run_experiment` runs one module's sweep.
Run everything, and check every claim, with::

    python -m repro experiments
"""

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

__all__ = [
    "ablations",
    "bandwidth",
    "comparison",
    "dissemination",
    "intermittent",
    "message_complexity",
    "properties",
    "responsiveness",
    "robustness",
    "round_complexity",
    "table1",
    "throughput_latency",
]
