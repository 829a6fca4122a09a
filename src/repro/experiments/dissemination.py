"""Experiment E7 — block dissemination cost and the leader bottleneck.

Paper claims (Sections 1 and 1.1):

* in ICC0 the proposer broadcasts the block body to everyone — for block
  size S its egress is (n-1)·S per round: the classic leader bottleneck
  that [35] identifies as *the* limiting factor on WANs;
* ICC1's gossip sub-layer caps the proposer's egress at degree·S (bodies
  are pulled at most once per overlay link);
* ICC2's erasure-coded reliable broadcast makes *every* party transmit
  O(S) bits per round once S = Ω(n·λ·log n) — the dealer sends n
  fragments of size S/(t+1) ≈ 3S, every other party echoes ≈ 3S — so no
  single node is a bottleneck and the maximum per-node egress is flat in n.

We sweep the block size S at fixed n and report, per protocol: the maximum
per-node egress per round (the bottleneck measure of [35]) and the mean
per-node egress per round, in multiples of S.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.delays import FixedDelay
from ..workloads import fixed_size_source
from . import runner
from .common import make_icc_config, print_table, run_icc


@dataclass(frozen=True)
class DisseminationResult:
    protocol: str
    n: int
    block_bytes: int
    max_node_bytes_per_round: float
    mean_node_bytes_per_round: float

    @property
    def max_in_s(self) -> float:
        return self.max_node_bytes_per_round / self.block_bytes

    @property
    def mean_in_s(self) -> float:
        return self.mean_node_bytes_per_round / self.block_bytes


def run_one(
    protocol: str,
    block_bytes: int,
    n: int = 13,
    rounds: int = 8,
    seed: int = 13,
    gossip_degree: int = 4,
) -> DisseminationResult:
    delta = 0.05
    config = make_icc_config(
        protocol,
        n=n,
        t=(n - 1) // 3,
        delta_bound=delta * 6,
        epsilon=0.05,
        delay_model=FixedDelay(delta),
        seed=seed,
        max_rounds=rounds,
        payload_source=fixed_size_source(block_bytes),
        gossip_degree=gossip_degree,
    )
    cluster = run_icc(config, duration=rounds * 3.0 + 20)
    effective_rounds = max(1, max(p.round for p in cluster.honest_parties) - 1)
    per_node = [cluster.metrics.bytes_sent[i] / effective_rounds for i in range(1, n + 1)]
    return DisseminationResult(
        protocol=protocol,
        n=n,
        block_bytes=block_bytes,
        max_node_bytes_per_round=max(per_node),
        mean_node_bytes_per_round=sum(per_node) / n,
    )


def specs(
    block_sizes: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    protocols: tuple[str, ...] = ("ICC0", "ICC1", "ICC2"),
    **point,
) -> list[runner.RunSpec]:
    """One RunSpec per (protocol, block size); ``point`` overrides
    ``run_one`` defaults."""
    return [
        runner.spec(
            "dissemination", "dissemination.run_one",
            label=f"dissemination-{p}-{size // 1000}KB",
            protocol=p, block_bytes=size, **point,
        )
        for p in protocols
        for size in block_sizes
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[DisseminationResult]
) -> list[DisseminationResult]:
    rows = [
        (
            r.protocol,
            f"{r.block_bytes // 1000} KB",
            f"{r.max_in_s:.1f} S",
            f"{r.mean_in_s:.1f} S",
        )
        for r in results
    ]
    print_table(
        "E7: per-node egress per round (n=13; expect ICC0 max ≈ (n-1)·S, "
        "ICC1 max ≈ d·S, ICC2 max ≈ 3·S for large S)",
        ["protocol", "block size S", "max node egress", "mean node egress"],
        rows,
    )
    return results
