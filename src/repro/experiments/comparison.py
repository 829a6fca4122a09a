"""Experiment E9 — the cross-protocol comparison of Section 1.1.

Reproduces, by measurement on a common substrate, the comparison table the
paper builds in prose:

==========  ==================  ========  ===========================
protocol    reciprocal          latency   optimistically responsive?
            throughput
==========  ==================  ========  ===========================
ICC0/ICC1   2δ                  3δ        yes
ICC2        3δ                  4δ        yes
PBFT        3δ                  3δ        yes
HotStuff    2δ                  6δ        yes
Tendermint  O(Δbnd)             3δ        no
==========  ==================  ========  ===========================

All five protocols run fault-free over the same fixed-delay network; we
report measured steady-state per-block time and propose→commit latency in
multiples of δ.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import HotStuffParty, PBFTParty, TendermintParty
from ..core.cluster import ClusterConfig, build_cluster
from . import runner
from .common import Claim, make_icc_config, mean, print_table, row, run_icc
from ..sim.delays import FixedDelay

PAPER_ROWS = {
    "ICC0": ("2δ", "3δ", "yes"),
    "ICC1": ("2δ", "3δ", "yes"),
    "ICC2": ("3δ", "4δ", "yes"),
    "PBFT": ("3δ", "3δ", "yes"),
    "HotStuff": ("2δ", "6δ", "yes"),
    "Tendermint": ("O(Δbnd)", "3δ", "no"),
}


@dataclass(frozen=True)
class ComparisonRow:
    protocol: str
    block_time_in_delta: float
    latency_in_delta: float


def run_icc_row(protocol: str, delta: float, n: int, blocks: int, seed: int) -> ComparisonRow:
    config = make_icc_config(
        protocol,
        n=n,
        t=(n - 1) // 3,
        delta_bound=delta * 4,
        epsilon=delta * 0.01,
        delay_model=FixedDelay(delta),
        seed=seed,
        max_rounds=blocks,
        gossip_degree=n - 1,
    )
    cluster = run_icc(config, duration=blocks * delta * 10 + 10)
    observer = cluster.honest_parties[0]
    durations = cluster.metrics.round_durations(observer.index)
    steady = [v for k, v in durations.items() if 2 <= k <= blocks - 1]
    latencies = cluster.metrics.commit_latencies()
    return ComparisonRow(
        protocol=protocol,
        block_time_in_delta=mean(steady) / delta,
        latency_in_delta=mean(latencies) / delta,
    )


def run_baseline_row(cls, kwargs: dict, delta: float, n: int, blocks: int, seed: int) -> ComparisonRow:
    config = ClusterConfig(
        party_class=cls,
        n=n,
        t=(n - 1) // 3,
        seed=seed,
        delay_model=FixedDelay(delta),
        extra_party_kwargs={**kwargs, "max_heights": blocks},
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(blocks, timeout=blocks * 100 * delta + 200)
    cluster.check_safety()
    # Steady-state block time: drop the first few heights (pipeline fill).
    observer = cluster.honest_parties[0]
    records = cluster.metrics.commits_of(observer.index)
    times = sorted(r.time for r in records)
    steady = [b - a for a, b in zip(times[2:], times[3:])]
    latencies = cluster.metrics.commit_latencies()
    return ComparisonRow(
        protocol=cls.protocol_name,
        block_time_in_delta=mean(steady) / delta,
        latency_in_delta=mean(latencies) / delta,
    )


#: Baseline party classes and their timeout kwargs, by protocol name —
#: the self-describing form a RunSpec can carry across process boundaries.
def _baseline_setup(protocol: str, delta: float) -> tuple[type, dict]:
    if protocol == "PBFT":
        return PBFTParty, dict(view_timeout=100 * delta)
    if protocol == "HotStuff":
        return HotStuffParty, dict(base_timeout=100 * delta)
    if protocol == "Tendermint":
        return TendermintParty, dict(
            timeout_propose=100 * delta, timeout_step=100 * delta, timeout_commit=20 * delta
        )
    raise ValueError(f"unknown baseline protocol {protocol!r}")


def baseline_row(protocol: str, delta: float, n: int, blocks: int, seed: int) -> ComparisonRow:
    """RunSpec executor: one baseline row, addressed by protocol name."""
    cls, kwargs = _baseline_setup(protocol, delta)
    return run_baseline_row(cls, kwargs, delta, n, blocks, seed)


def specs(delta: float = 0.05, n: int = 7, blocks: int = 30, seed: int = 17) -> list[runner.RunSpec]:
    """One RunSpec per comparison row (three ICC, three baselines)."""
    out = [
        runner.spec(
            "comparison",
            "comparison.run_icc_row",
            label=f"comparison-{p}",
            protocol=p,
            delta=delta,
            n=n,
            blocks=blocks,
            seed=seed,
        )
        for p in ("ICC0", "ICC1", "ICC2")
    ]
    out += [
        runner.spec(
            "comparison",
            "comparison.baseline_row",
            label=f"comparison-{p}",
            protocol=p,
            delta=delta,
            n=n,
            blocks=blocks,
            seed=seed,
        )
        for p in ("PBFT", "HotStuff", "Tendermint")
    ]
    return out


def tabulate(specs: list[runner.RunSpec], results: list[ComparisonRow]) -> list[ComparisonRow]:
    table_rows = []
    for r in results:
        paper_tp, paper_lat, responsive = PAPER_ROWS[r.protocol]
        table_rows.append(
            (
                r.protocol,
                f"{r.block_time_in_delta:.1f} δ",
                paper_tp,
                f"{r.latency_in_delta:.1f} δ",
                paper_lat,
                responsive,
            )
        )
    print_table(
        "E9: cross-protocol comparison (fault-free, synchronous; Tendermint's "
        "block time includes its Δbnd-scale timeout_commit = 20δ here)",
        ["protocol", "block time", "paper", "latency", "paper", "responsive"],
        table_rows,
    )
    return results


def _block_time(protocol: str):
    return lambda rows: row(rows, protocol=protocol).block_time_in_delta


def _latency(protocol: str):
    return lambda rows: row(rows, protocol=protocol).latency_in_delta


def _halves(rows: list[ComparisonRow]) -> float:
    return _latency("HotStuff")(rows) / _latency("ICC0")(rows)


#: δ = 50 ms, n = 7, 30 blocks per protocol.  HotStuff's latency is checked
#: as 5.5–7.5 δ, Tendermint's block time as dominated by its Δbnd-scale
#: timeout_commit (20δ here), and ICC as halving HotStuff's latency.
CLAIMS = [
    claim
    for p, (block_time, latency) in {
        "ICC0": (2, 3), "ICC1": (2, 3), "ICC2": (3, 4), "PBFT": (3, 3),
    }.items()
    for claim in (
        Claim(f"E9.{p}.block-time", "§1.1", _block_time(p), block_time, rel=0.1),
        Claim(f"E9.{p}.latency", "§1.1", _latency(p), latency, rel=0.1),
    )
] + [
    Claim("E9.HotStuff.block-time", "§1.1", _block_time("HotStuff"), 2, rel=0.1),
    Claim("E9.HotStuff.latency.low", "§1.1", _latency("HotStuff"), 5.5, ">="),
    Claim("E9.HotStuff.latency.high", "§1.1", _latency("HotStuff"), 7.5, "<="),
    Claim("E9.Tendermint.block-time", "§1.1", _block_time("Tendermint"), 10, ">"),
    Claim("E9.Tendermint.latency", "§1.1", _latency("Tendermint"), 3, rel=0.1),
    Claim("E9.ICC0-halves-HotStuff", "§1.1", _halves, 1.8, ">"),
]
