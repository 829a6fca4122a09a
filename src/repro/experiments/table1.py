"""Experiment T1 — reproduce Table 1 of the paper.

Paper setup (Section 5): the Internet Computer, subnets of 13 and 40 nodes
across 33 data centers (ping RTT 6–110 ms, loss < 0.001), measured over a
5-minute window, three scenarios:

=================  =========================  =====================
scenario           13-node subnet             40-node subnet
=================  =========================  =====================
without load       1.09 blocks/s, 1.64 Mb/s   0.41 blocks/s, 4.63 Mb/s
with load          1.10 blocks/s, 4.72 Mb/s   0.41 blocks/s, 7.32 Mb/s
load + ⅓ failures  0.45 blocks/s, 4.39 Mb/s   0.16 blocks/s, 5.06 Mb/s
=================  =========================  =====================

Our reproduction runs ICC1 (the variant the IC deploys) over the WAN delay
model with the same request workload (100 req/s × 1 KB) and ⅓ silent nodes
in the failure scenario.  The protocol parametrization (Δbnd and the
notarization governor ε) is calibrated once to the production block rates
in the *no-load* scenario and then **held fixed** across scenarios, so the
load and failure columns are genuine predictions.

Traffic caveat (also in EXPERIMENTS.md): the paper's Mb/s numbers include
non-consensus traffic ("messages exchanged with the clients, the periodic
cryptographic key resharing scheme, logs, metrics etc."), which a consensus
simulation cannot reproduce; we report consensus-only egress and compare
*deltas* between scenarios, which are consensus-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adversary import SilentMixin, corrupt_class
from ..core.icc1 import ICC1Party
from ..sim.delays import WanDelay
from ..workloads import MempoolWorkload, WorkloadSpec, management_only_source
from . import runner
from .common import make_icc_config, print_table

#: Paper's reported numbers, for side-by-side printing.
PAPER_TABLE1 = {
    (13, "without load"): (1.09, 1.64),
    (13, "with load"): (1.10, 4.72),
    (13, "load + failures"): (0.45, 4.39),
    (40, "without load"): (0.41, 4.63),
    (40, "with load"): (0.41, 7.32),
    (40, "load + failures"): (0.16, 5.06),
}

#: Production-calibrated protocol parameters per subnet size (see module
#: docstring): the IC runs larger subnets with a slower block cadence.
SUBNET_PARAMS = {
    13: dict(delta_bound=1.5, epsilon=0.86),
    40: dict(delta_bound=5.5, epsilon=2.20),
}


@dataclass(frozen=True)
class Table1Cell:
    subnet: int
    scenario: str
    blocks_per_second: float
    node_egress_mbps: float
    paper_blocks_per_second: float
    paper_node_egress_mbps: float


def run_cell(
    subnet: int,
    scenario: str,
    duration: float = 300.0,
    seed: int = 7,
) -> Table1Cell:
    """Run one cell of Table 1 and return measured vs paper numbers."""
    params = SUBNET_PARAMS[subnet]
    n = subnet
    t = (n - 1) // 3
    with_load = scenario in ("with load", "load + failures")
    with_failures = scenario == "load + failures"

    workload = None
    if with_load:
        workload = MempoolWorkload(
            WorkloadSpec(rate_per_second=100.0, payload_bytes=1024), seed=seed
        )
        payload_source = workload.payload_source
    else:
        payload_source = management_only_source(management_bytes=256)

    corrupt: dict[int, type] = {}
    if with_failures:
        silent_cls = corrupt_class(ICC1Party, SilentMixin)
        for index in range(1, t + 1):
            corrupt[index] = silent_cls

    config = make_icc_config(
        "ICC1",
        n=n,
        t=t,
        delta_bound=params["delta_bound"],
        epsilon=params["epsilon"],
        delay_model=WanDelay(),
        seed=seed,
        payload_source=payload_source,
        corrupt=corrupt,
    )
    from ..core.cluster import build_cluster  # local import to avoid cycles

    cluster = build_cluster(config)
    if workload is not None:
        workload.install(cluster, duration=duration, ingress_degree=4)
    cluster.start()
    cluster.run_for(duration, max_events=50_000_000)
    cluster.check_safety()

    observer = cluster.honest_parties[0].index
    blocks = cluster.metrics.blocks_per_second(observer, duration)
    # Average egress over *participating* nodes (silent nodes send nothing,
    # matching how the paper reports per-node traffic of live nodes).
    live = [p.index for p in cluster.honest_parties]
    total_bytes = sum(cluster.metrics.bytes_sent[i] for i in live)
    egress_mbps = total_bytes * 8.0 / len(live) / duration / 1e6

    paper_bps, paper_mbps = PAPER_TABLE1[(subnet, scenario)]
    return Table1Cell(
        subnet=subnet,
        scenario=scenario,
        blocks_per_second=blocks,
        node_egress_mbps=egress_mbps,
        paper_blocks_per_second=paper_bps,
        paper_node_egress_mbps=paper_mbps,
    )


SCENARIOS = ("without load", "with load", "load + failures")


def specs(
    duration: float = 300.0, subnets: tuple[int, ...] = (13, 40), seed: int = 7
) -> list[runner.RunSpec]:
    """One RunSpec per Table 1 cell, in the paper's row order."""
    return [
        runner.spec(
            "table1",
            "table1.run_cell",
            label=f"table1-n{subnet}-{scenario}",
            subnet=subnet,
            scenario=scenario,
            duration=duration,
            seed=seed,
        )
        for subnet in subnets
        for scenario in SCENARIOS
    ]


def tabulate(specs: list[runner.RunSpec], cells: list[Table1Cell]) -> list[Table1Cell]:
    """Print the table from already-computed cells (runner result phase)."""
    rows = [
        (
            f"{c.subnet} node subnet",
            c.scenario,
            f"{c.blocks_per_second:.2f}",
            f"{c.paper_blocks_per_second:.2f}",
            f"{c.node_egress_mbps:.2f}",
            f"{c.paper_node_egress_mbps:.2f}",
        )
        for c in cells
    ]
    print_table(
        "Table 1: average block rate and sent traffic (measured vs paper)",
        ["subnet", "scenario", "blocks/s", "paper blocks/s", "Mb/s (consensus)", "paper Mb/s (total)"],
        rows,
    )
    return cells


def add_arguments(parser) -> None:
    """The ``python -m repro table1`` flags (``repro.__main__`` hands its
    subparser here)."""
    parser.add_argument("--full", action="store_true", help="300 s windows")


def run(args) -> int:
    suite = specs(duration=300.0 if args.full else 60.0)
    tabulate(suite, runner.execute(suite))
    return 0
