"""Experiment E6 — optimistic responsiveness.

Paper claim (Section 1): "the ICC protocols enjoy the property known as
optimistic responsiveness [30], meaning that the protocol will run as fast
as the network will allow in those rounds where the leader is honest",
whereas Tendermint is *not* responsive: "to guarantee liveness, one
generally has to choose a network-delay upper bound Δbnd that may be
significantly larger than the actual network delay δ, and in Tendermint,
every round takes time O(Δbnd), even when the leader is honest."

Setup: fix a conservative bound Δbnd = 1 s, sweep the *actual* network
delay δ from 5 ms to 200 ms, and measure the per-block time of ICC0 and
Tendermint (whose `timeout_commit` must be set to the same conservative
bound).  ICC0 should track 2δ; Tendermint should stay pinned near Δbnd.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import TendermintParty
from ..core.cluster import ClusterConfig, build_cluster
from ..sim.delays import FixedDelay
from . import runner
from .common import make_icc_config, print_table, run_icc

DELTA_BOUND = 1.0  # the conservative bound both protocols must tolerate


@dataclass(frozen=True)
class ResponsivenessResult:
    delta: float
    icc0_block_time: float
    tendermint_block_time: float


def run_point(delta: float, n: int = 7, blocks: int = 20, seed: int = 11) -> ResponsivenessResult:
    t = (n - 1) // 3
    # ICC0 with Δbnd fixed at the conservative bound.
    config = make_icc_config(
        "ICC0",
        n=n,
        t=t,
        delta_bound=DELTA_BOUND,
        epsilon=0.001,
        delay_model=FixedDelay(delta),
        seed=seed,
        max_rounds=blocks + 2,
    )
    cluster = run_icc(config, duration=blocks * (2 * delta) * 4 + 30)
    observer = cluster.honest_parties[0]
    icc_time = cluster.sim.now
    # Average block time over committed rounds (excluding bootstrap).
    icc_rounds = observer.k_max
    durations = cluster.metrics.round_durations(observer.index)
    steady = [v for k, v in durations.items() if 2 <= k <= blocks]
    icc_block_time = sum(steady) / len(steady) if steady else float("nan")

    # Tendermint with timeout_commit at the same conservative bound.
    tm_config = ClusterConfig(
        party_class=TendermintParty,
        n=n,
        t=t,
        seed=seed,
        delay_model=FixedDelay(delta),
        extra_party_kwargs=dict(
            timeout_propose=DELTA_BOUND * 3,
            timeout_step=DELTA_BOUND * 3,
            timeout_commit=DELTA_BOUND,
            max_heights=blocks,
        ),
    )
    tm = build_cluster(tm_config)
    tm.start()
    tm.run_until_all_committed_round(blocks, timeout=blocks * (DELTA_BOUND + 4 * delta) * 3)
    tm.check_safety()
    tm_block_time = tm.sim.now / max(1, tm.min_committed_round())
    return ResponsivenessResult(
        delta=delta, icc0_block_time=icc_block_time, tendermint_block_time=tm_block_time
    )


def specs(
    deltas: tuple[float, ...] = (0.005, 0.02, 0.05, 0.1, 0.2), **point
) -> list[runner.RunSpec]:
    """One RunSpec per actual delay δ; ``point`` overrides ``run_point`` defaults."""
    return [
        runner.spec(
            "responsiveness", "responsiveness.run_point",
            label=f"responsiveness-d{d * 1000:g}ms", delta=d, **point,
        )
        for d in deltas
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[ResponsivenessResult]
) -> list[ResponsivenessResult]:
    rows = [
        (
            f"{r.delta * 1000:.0f} ms",
            f"{r.icc0_block_time * 1000:.0f} ms",
            f"{r.icc0_block_time / r.delta:.1f} δ",
            f"{r.tendermint_block_time * 1000:.0f} ms",
            f"{r.tendermint_block_time / DELTA_BOUND:.2f} Δbnd",
        )
        for r in results
    ]
    print_table(
        f"E6: block time vs actual delay δ (Δbnd fixed at {DELTA_BOUND:.0f} s)",
        ["δ", "ICC0 block time", "(in δ)", "Tendermint block time", "(in Δbnd)"],
        rows,
    )
    return results
