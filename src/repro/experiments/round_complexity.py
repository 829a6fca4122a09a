"""Experiment E4 — round complexity: rounds until a block is committed.

Paper claims (Section 1): for a static adversary, the number of rounds
until a block is committed is **O(1) in expectation and O(log n) with high
probability**; and regardless of the elapsed time, the recursive structure
guarantees that eventually one block is committed *for every round*.

Mechanism: a round commits when its leader is honest (probability
≥ 1 - t/n > 2/3 under the random beacon) and the network cooperates, so
the gap between commits is dominated by a geometric distribution with
success probability (n-t)/n.

Setup: t corrupt parties running the strongest anti-finalization behaviour
(equivocating proposals + finalization withholding + notarize-everything),
so every corrupt-leader round genuinely fails to finalize.  We measure the
distribution of gaps between consecutive committed rounds and compare its
mean with n/(n-t), and its tail with the geometric law.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adversary import AggressiveByzantineMixin, WithholdFinalizationMixin, corrupt_class
from ..core.icc0 import ICC0Party
from ..sim.delays import FixedDelay
from . import runner
from .common import make_icc_config, mean, print_table, run_icc


@dataclass(frozen=True)
class RoundComplexityResult:
    n: int
    t: int
    rounds_observed: int
    committed_rounds: int
    mean_gap: float
    max_gap: int
    expected_mean_gap: float  # n / (n - t)
    all_rounds_eventually_committed: bool


def run_one(n: int, rounds: int = 120, seed: int = 5) -> RoundComplexityResult:
    t = (n - 1) // 3
    attacker = corrupt_class(
        ICC0Party, AggressiveByzantineMixin, WithholdFinalizationMixin
    )
    config = make_icc_config(
        "ICC0",
        n=n,
        t=t,
        delta_bound=0.2,
        epsilon=0.01,
        delay_model=FixedDelay(0.05),
        seed=seed,
        max_rounds=rounds,
        corrupt={i: attacker for i in range(1, t + 1)},
    )
    cluster = run_icc(config, duration=rounds * 2.0 + 20)

    observer = cluster.honest_parties[0]
    committed = sorted({b.round for b in observer.output_log})
    # Rounds with a corrupt leader do not finalize directly; their blocks
    # are swept in by the next finalized round (Figure 2 commits the last
    # k - k_max blocks at once).  The "rounds until a block is committed"
    # statistic is therefore the size of each commit batch: group this
    # observer's commit records by commit time.
    records = cluster.metrics.commits_of(observer.index)
    gaps: list[int] = []
    current_time = None
    current_size = 0
    for record in records:
        if record.time != current_time:
            if current_size:
                gaps.append(current_size)
            current_time = record.time
            current_size = 0
        current_size += 1
    if current_size:
        gaps.append(current_size)
    # P1 + "eventually one block committed for every round": the committed
    # chain contains exactly one block per round 1..k_max.
    contiguous = committed == list(range(1, len(committed) + 1))
    return RoundComplexityResult(
        n=n,
        t=t,
        rounds_observed=rounds,
        committed_rounds=len(committed),
        mean_gap=mean(gaps),
        max_gap=max(gaps) if gaps else 0,
        expected_mean_gap=n / (n - t),
        all_rounds_eventually_committed=contiguous,
    )


def specs(ns: tuple[int, ...] = (7, 13, 25, 40), **point) -> list[runner.RunSpec]:
    """One RunSpec per subnet size; ``point`` overrides ``run_one`` defaults."""
    return [
        runner.spec(
            "round_complexity", "round_complexity.run_one",
            label=f"round-complexity-n{n}", n=n, **point,
        )
        for n in ns
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[RoundComplexityResult]
) -> list[RoundComplexityResult]:
    rows = [
        (
            r.n,
            r.t,
            r.committed_rounds,
            f"{r.mean_gap:.2f}",
            f"{r.expected_mean_gap:.2f}",
            r.max_gap,
            "yes" if r.all_rounds_eventually_committed else "NO",
        )
        for r in results
    ]
    print_table(
        "E4: rounds between commits under an anti-finalization adversary",
        ["n", "t", "commits", "mean gap", "geometric mean n/(n-t)", "max gap (≲ log n tail)", "every round committed"],
        rows,
    )
    return results
