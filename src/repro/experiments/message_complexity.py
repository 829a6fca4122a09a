"""Experiment E3 — message complexity per round.

Paper claims (Section 1):

* in any round where the network is synchronous, the expected message
  complexity is **O(n²)** (with overwhelming probability over the beacon);
* the worst case — an adversarial scheduler — is **O(n³)**.

Message complexity counts a broadcast by one party as n messages.

The synchronous measurement sweeps n and fits messages/round against n²;
the worst-case measurement uses a content-aware adversarial scheduler that
(1) lets every party propose (it delays low-rank proposals so nobody sees
a better block in time) and (2) delivers candidate blocks to each party in
*decreasing* rank order, so each party's "best block so far" improves O(n)
times, and every improvement costs an echo plus a notarization share —
Θ(n) broadcasts per party, Θ(n³) messages in total.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.beacon import permutation_from_beacon
from ..core.cluster import Cluster, build_cluster
from ..core.messages import Block, Notarization, NotarizationShare
from ..sim.delays import FixedDelay, MessageAwareDelay
from . import runner
from .common import make_icc_config, mean, print_table, run_icc


@dataclass(frozen=True)
class ComplexityPoint:
    n: int
    messages_per_round: float
    per_n2: float  # messages / n^2
    per_n3: float  # messages / n^3


def _point(cluster: Cluster, n: int, rounds: int) -> ComplexityPoint:
    counted_rounds = range(2, rounds)  # skip boot and tail rounds
    m = mean([cluster.metrics.messages_in_round(k) for k in counted_rounds])
    return ComplexityPoint(n=n, messages_per_round=m, per_n2=m / n**2, per_n3=m / n**3)


def synchronous_point(n: int, rounds: int = 12, seed: int = 1) -> ComplexityPoint:
    """Messages per round in fault-free synchronous rounds at one n."""
    config = make_icc_config(
        "ICC0",
        n=n,
        t=(n - 1) // 3,
        delta_bound=0.2,
        epsilon=0.01,
        delay_model=FixedDelay(0.05),
        seed=seed,
        max_rounds=rounds,
    )
    return _point(run_icc(config, duration=rounds * 0.5 + 5), n, rounds)


def worst_case_point(n: int, rounds: int = 6, seed: int = 3) -> ComplexityPoint:
    """Adversarially scheduled rounds at one n: every party proposes, blocks
    arrive in decreasing-rank order.  Messages/round should scale ~ n³."""
    # Adversary bookkeeping: ranks are derived from the blocks themselves
    # (the scheduler sees message contents, which the paper's adversary
    # does too).
    beacon_oracle: dict[int, dict[int, int]] = {}  # round -> proposer -> rank
    delta_bound = 0.05
    base_delay = 0.01
    gap = 0.1  # spacing between consecutive block deliveries
    # All blocks land after every Δntry gate has passed...
    block_floor = 2 * delta_bound * n + 0.1
    # ...and every notarization share floats until all echoes happened.
    share_floor = block_floor + (n + 2) * gap

    config = make_icc_config(
        "ICC0",
        n=n,
        t=(n - 1) // 3,
        delta_bound=delta_bound,
        epsilon=0.001,
        delay_model=FixedDelay(base_delay),  # placeholder, replaced below
        seed=seed,
        max_rounds=rounds,
    )
    cluster = build_cluster(config)

    def rank_of(block: Block) -> int:
        table = beacon_oracle.get(block.round)
        if table is None:
            # Derive the permutation the same way the parties do.
            value = cluster.parties[0].pool.beacon_value(block.round)
            if value is None:
                return 0
            ranks = permutation_from_beacon(block.round, value, n)
            table = {party: ranks.rank_of(party) for party in range(1, n + 1)}
            beacon_oracle[block.round] = table
        return table.get(block.proposer, 0)

    def strategy(sender: int, receiver: int, now: float, message: object) -> float:
        if isinstance(message, Block):
            # The proposer of rank r sends at ~2·Δbnd·r into the round;
            # aim its arrival at block_floor + (n-1-r)·gap so processing
            # happens in strictly decreasing rank order: every arrival
            # is a new best block and costs each party an echo + share.
            rank = rank_of(message)
            target = block_floor + (n - 1 - rank) * gap - 2 * delta_bound * rank
            return max(base_delay, target)
        if isinstance(message, (NotarizationShare, Notarization)):
            # Float agreement messages so the round cannot finish until
            # every block has been echoed by everyone.
            return share_floor
        return base_delay

    cluster.network.delay_model = MessageAwareDelay(strategy=strategy, max_delay=120.0)
    cluster.start()
    cluster.run_for(rounds * (share_floor + 3) + 10, max_events=50_000_000)
    cluster.check_safety()
    return _point(cluster, n, rounds)


def specs(
    ns: tuple[int, ...] = (4, 7, 10, 13, 19, 25, 31, 40),
    worst_ns: tuple[int, ...] = (4, 7, 10, 13),
    **point,
) -> list[runner.RunSpec]:
    """One RunSpec per n of the synchronous sweep, then one per n of the
    adversarial sweep; ``point`` overrides the point functions' defaults."""
    return [
        runner.spec(
            "message_complexity", f"message_complexity.{kind}_point",
            label=f"messages-{kind}-n{n}", n=n, **point,
        )
        for kind, sweep in (("synchronous", ns), ("worst_case", worst_ns))
        for n in sweep
    ]


def tabulate(specs: list[runner.RunSpec], results: list[ComplexityPoint]) -> dict:
    by_kind = runner.by_kind(specs, results)
    sync = by_kind.get("message_complexity.synchronous_point", [])
    worst = by_kind.get("message_complexity.worst_case_point", [])
    for title, points in (
        ("E3a: messages per round, synchronous rounds (expect ~ c·n², c stable)", sync),
        ("E3b: messages per round, adversarial schedule (expect msgs/n^3 stable)", worst),
    ):
        print_table(
            title,
            ["n", "msgs/round", "msgs/n^2", "msgs/n^3"],
            [
                (p.n, f"{p.messages_per_round:.0f}", f"{p.per_n2:.2f}", f"{p.per_n3:.3f}")
                for p in points
            ],
        )
    return {"synchronous": sync, "worst_case": worst}
