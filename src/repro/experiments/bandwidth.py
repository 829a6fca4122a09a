"""Experiment E11 — the leader bottleneck as *latency* under finite uplinks.

[35] (Mir-BFT), which the paper leans on throughout Section 1.1, argues
that on wide-area networks the relevant cost measure is not total
communication but the *maximum number of bits transmitted by any one
party*: a leader pushing (n-1)·S through a finite uplink stalls everyone.
Experiment E7 shows the byte counts; this experiment closes the loop by
giving every node a finite uplink (NIC serialization in the simulator) and
measuring what the bottleneck does to **round time**:

* ICC0's proposer transmits (n-1)·S serially — round time grows linearly
  in n·S/uplink;
* ICC1 (gossip) and ICC2 (erasure-coded RBC) spread the same payload over
  all links and stay near the propagation-delay optimum.

This is the quantitative justification for ICC1/ICC2's existence.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import fixed_size_source
from ..core.cluster import build_cluster
from ..sim.delays import FixedDelay
from . import runner
from .common import Claim, make_icc_config, mean, print_table, row


@dataclass(frozen=True)
class BandwidthResult:
    protocol: str
    n: int
    block_bytes: int
    uplink_mbps: float
    round_time: float

    @property
    def serialization_floor(self) -> float:
        """Time just to push one block copy through the uplink."""
        return self.block_bytes * 8.0 / (self.uplink_mbps * 1e6)


def run_one(
    protocol: str,
    block_bytes: int = 500_000,
    uplink_mbps: float = 50.0,
    n: int = 13,
    rounds: int = 6,
    delta: float = 0.02,
    seed: int = 41,
) -> BandwidthResult:
    config = make_icc_config(
        protocol,
        n=n,
        t=(n - 1) // 3,
        delta_bound=4.0,  # generous: bandwidth, not timeouts, should bind
        epsilon=0.01,
        delay_model=FixedDelay(delta),
        seed=seed,
        max_rounds=rounds,
        payload_source=fixed_size_source(block_bytes),
        gossip_degree=4,
    )
    cluster = build_cluster(config)
    cluster.network.uplink_bps = uplink_mbps * 1e6
    cluster.start()
    cluster.run_for(rounds * 60.0, max_events=30_000_000)
    cluster.check_safety()
    observer = cluster.honest_parties[0]
    durations = cluster.metrics.round_durations(observer.index)
    steady = [v for k, v in durations.items() if k >= 2]
    return BandwidthResult(
        protocol=protocol,
        n=n,
        block_bytes=block_bytes,
        uplink_mbps=uplink_mbps,
        round_time=mean(steady),
    )


def specs(
    protocols: tuple[str, ...] = ("ICC0", "ICC1", "ICC2"), **point
) -> list[runner.RunSpec]:
    """One RunSpec per protocol; ``point`` overrides ``run_one`` defaults."""
    return [
        runner.spec(
            "bandwidth", "bandwidth.run_one",
            label=f"bandwidth-{p}", protocol=p, **point,
        )
        for p in protocols
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[BandwidthResult]
) -> list[BandwidthResult]:
    rows = []
    for r in results:
        rows.append(
            (
                r.protocol,
                f"{r.block_bytes // 1000} KB",
                f"{r.uplink_mbps:.0f} Mb/s",
                f"{r.round_time * 1000:.0f} ms",
                f"{r.round_time / r.serialization_floor:.1f}×",
            )
        )
    print_table(
        "E11: round time under finite uplinks (n=13; the [35] bottleneck "
        "as latency; last column = round time in units of one block's "
        "transmission time)",
        ["protocol", "block S", "uplink", "round time", "vs 1×S floor"],
        rows,
    )
    return results


def _slowdown(protocol: str, over: str):
    return lambda rs: row(rs, protocol=protocol).round_time / row(rs, protocol=over).round_time


def _over_floor(protocol: str):
    return lambda rs: (r := row(rs, protocol=protocol)).round_time / r.serialization_floor


#: ICC0's leader pushes ~(n − 1) serialized copies plus an echo per
#: supporter; the dissemination-aware variants stay within a small factor
#: of one block's transmission time.
CLAIMS = [
    Claim("E11.ICC0-vs-ICC1", "§1.1 [35]", _slowdown("ICC0", "ICC1"), 3, ">"),
    Claim("E11.ICC0-vs-ICC2", "§1.1 [35]", _slowdown("ICC0", "ICC2"), 3, ">"),
    Claim("E11.ICC1.near-floor", "§1.1 [35]", _over_floor("ICC1"), 8, "<"),
    Claim("E11.ICC2.near-floor", "§1.1 [35]", _over_floor("ICC2"), 8, "<"),
]
