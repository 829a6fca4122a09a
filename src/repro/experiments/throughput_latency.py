"""Experiments E1/E2 — reciprocal throughput and latency of ICC0/ICC1/ICC2.

Paper claims (Section 1): in steady state with honest leaders and network
delay δ ≤ Δbnd,

* ICC0 and ICC1 finish a round every **2δ** (reciprocal throughput) and
  commit a proposed block after **3δ** (latency);
* ICC2 pays one extra δ for the erasure-coded dissemination: **3δ** and
  **4δ** respectively.

This experiment runs all three protocols over a fixed-delay network for a
sweep of δ values and reports measured round duration and propose→commit
latency as multiples of δ.  (ε is set ≈ 0 so the governor does not mask the
intrinsic protocol latency; Δbnd is comfortably above δ so the run is in
the optimistic regime.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.delays import FixedDelay
from . import runner
from .common import Claim, farthest, make_icc_config, mean, print_table, run_icc

#: Paper's steady-state figures, in multiples of δ.
PAPER_NUMBERS = {
    "ICC0": (2.0, 3.0),
    "ICC1": (2.0, 3.0),  # plus gossip hops; measured with direct push below
    "ICC2": (3.0, 4.0),
}


@dataclass(frozen=True)
class ThroughputLatencyResult:
    protocol: str
    delta: float
    round_time: float
    latency: float

    @property
    def round_time_in_delta(self) -> float:
        return self.round_time / self.delta

    @property
    def latency_in_delta(self) -> float:
        return self.latency / self.delta


def run_one(
    protocol: str,
    delta: float,
    n: int = 7,
    rounds: int = 30,
    seed: int = 1,
) -> ThroughputLatencyResult:
    """Measure one (protocol, δ) point in the fault-free optimistic regime."""
    config = make_icc_config(
        protocol,
        n=n,
        t=(n - 1) // 3,
        delta_bound=delta * 4,
        epsilon=delta * 0.01,  # effectively zero; keeps ranks tie-broken
        delay_model=FixedDelay(delta),
        seed=seed,
        max_rounds=rounds,
        # ICC1: a complete overlay makes gossip single-hop so the protocol's
        # intrinsic latency is measured, not the overlay diameter's.
        gossip_degree=n - 1,
    )
    cluster = run_icc(config, duration=rounds * delta * 8 + 5.0)

    durations: list[float] = []
    for party in cluster.honest_parties:
        per_round = cluster.metrics.round_durations(party.index)
        # Skip round 1 (start-up transient: beacon bootstrap).
        durations.extend(v for k, v in per_round.items() if 2 <= k <= rounds - 1)
    latencies = cluster.metrics.commit_latencies()
    return ThroughputLatencyResult(
        protocol=protocol,
        delta=delta,
        round_time=mean(durations),
        latency=mean(latencies),
    )


def specs(
    deltas: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2),
    protocols: tuple[str, ...] = ("ICC0", "ICC1", "ICC2"),
    n: int = 7,
    rounds: int = 30,
) -> list[runner.RunSpec]:
    """One RunSpec per (protocol, δ) measurement point."""
    return [
        runner.spec(
            "throughput_latency",
            "throughput_latency.run_one",
            label=f"tl-{p}-d{int(d * 1000)}ms",
            protocol=p,
            delta=d,
            n=n,
            rounds=rounds,
        )
        for p in protocols
        for d in deltas
    ]


def tabulate(
    specs: list[runner.RunSpec], results: list[ThroughputLatencyResult]
) -> list[ThroughputLatencyResult]:
    rows = []
    for r in results:
        paper_tp, paper_lat = PAPER_NUMBERS[r.protocol]
        rows.append(
            (
                r.protocol,
                f"{r.delta * 1000:.0f} ms",
                f"{r.round_time_in_delta:.2f} δ",
                f"{paper_tp:.0f} δ",
                f"{r.latency_in_delta:.2f} δ",
                f"{paper_lat:.0f} δ",
            )
        )
    print_table(
        "E1/E2: reciprocal throughput and latency (honest leaders, synchronous)",
        ["protocol", "δ", "round time", "paper", "latency", "paper"],
        rows,
    )
    return results


def _every_delta(protocol: str, field: str, paper: float):
    return lambda rs: farthest([getattr(r, field) for r in rs if r.protocol == protocol], paper)


def _claims(protocol: str, round_time: float, latency: float) -> list[Claim]:
    e = "E2" if protocol == "ICC2" else "E1"
    return [
        Claim(
            f"{e}.{protocol}.round-time", "§1",
            _every_delta(protocol, "round_time_in_delta", round_time), round_time, rel=0.05,
        ),
        Claim(
            f"{e}.{protocol}.latency", "§1",
            _every_delta(protocol, "latency_in_delta", latency), latency, rel=0.05,
        ),
    ]


def _scaling(rs: list[ThroughputLatencyResult]) -> float:
    icc0 = {r.delta: r.round_time for r in rs if r.protocol == "ICC0"}
    return icc0[0.2] / icc0[0.05]


#: At every δ of the sweep, 30 rounds each; E1 is ICC0/ICC1, E2 is ICC2.  A
#: round costs c·δ, not c·Δbnd: the round time at 200 ms over that at 50 ms.
CLAIMS = [c for p, figures in PAPER_NUMBERS.items() for c in _claims(p, *figures)] + [
    Claim("E1.delta-scaling", "§1", _scaling, 4.0, rel=0.1),
]
