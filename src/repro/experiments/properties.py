"""Experiment E8 — the protocol properties P1/P2/P3 of Section 3.3.

* **P1 (deadlock-freeness)**: at least one notarized block of depth k is
  added to the tree in every round — checked by confirming every honest
  party keeps finishing rounds under Byzantine attack and an adversarial
  network.
* **P2 (safety)**: if a depth-k block is finalized, no other depth-k
  block is notarized — checked directly on honest parties' pools, plus
  the output prefix property across parties.
* **P3 (liveness)**: if the network turns δ-synchronous while an honest
  leader's round is running, that leader's block is finalized — checked
  under *intermittent synchrony* (synchronous windows between asynchronous
  stretches), confirming commits resume in every synchronous window.

These properties also have dedicated unit/property tests; this experiment
runs the heavier randomized sweeps and prints a verdict table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adversary import (
    AggressiveByzantineMixin,
    EquivocatingProposerMixin,
    SilentMixin,
    WithholdFinalizationMixin,
    corrupt_class,
)
from ..core.cluster import build_cluster
from ..core.icc0 import ICC0Party
from ..faults import Scenario, install_scenario, outage_schedule
from ..sim.delays import FixedDelay, UniformDelay
from . import runner
from .common import Claim, make_icc_config, print_table, row


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    trials: int
    passed: int

    @property
    def ok(self) -> bool:
        return self.passed == self.trials


def check_p2_on_cluster(cluster) -> None:
    """P2: finalized depth-k block => no other notarized depth-k block."""
    for party in cluster.honest_parties:
        pool = party.pool
        max_round = max((b.round for b in party.output_log), default=0)
        for k in range(1, max_round + 1):
            finalized = pool.finalized_blocks(k)
            if not finalized:
                continue
            notarized = pool.notarized_blocks(k)
            hashes = {b.hash for b in notarized}
            if len(hashes) > 1:
                raise AssertionError(
                    f"P2 violated at round {k}: finalized block coexists with "
                    f"{len(hashes)} notarized blocks"
                )


def safety_trial(trial: int, n: int = 10, rounds: int = 20) -> bool:
    """P1+P2 under one randomized Byzantine mix and jittery delays."""
    attackers = [
        corrupt_class(ICC0Party, AggressiveByzantineMixin),
        corrupt_class(ICC0Party, EquivocatingProposerMixin),
        corrupt_class(ICC0Party, SilentMixin),
        corrupt_class(ICC0Party, WithholdFinalizationMixin),
        None,  # crash
    ]
    t = (n - 1) // 3
    corrupt = {i + 1: attackers[(trial + i) % len(attackers)] for i in range(t)}
    config = make_icc_config(
        "ICC0",
        n=n,
        t=t,
        delta_bound=0.3,
        epsilon=0.02,
        delay_model=UniformDelay(0.01, 0.15),
        seed=100 + trial,
        max_rounds=rounds,
        corrupt=corrupt,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_for(rounds * 3.0 + 30)
    cluster.check_safety()
    check_p2_on_cluster(cluster)
    # P1: every honest party finished every round.
    return all(p.round >= rounds for p in cluster.honest_parties)


def liveness_trial(trial: int, n: int = 7) -> bool:
    """P3 under intermittent synchrony: commits resume in sync windows
    (5 s of every 20 s; outage windows fill the rest, as in E10)."""
    config = make_icc_config(
        "ICC0",
        n=n,
        t=(n - 1) // 3,
        delta_bound=0.2,
        epsilon=0.02,
        delay_model=FixedDelay(0.05),
        seed=200 + trial,
    )
    cluster = build_cluster(config)
    install_scenario(cluster, Scenario(
        name="intermittent", events=outage_schedule(20.0, 5.0, 100.0)
    ))
    cluster.start()
    cluster.run_for(100.0, max_events=20_000_000)
    cluster.check_safety()
    # Commits must land in (at least) each of the later sync windows,
    # and every round in between must eventually commit (throughput
    # holds across asynchronous stretches, Section 3.3).
    observer = cluster.honest_parties[0]
    commit_times = sorted(c.time for c in cluster.metrics.commits_of(observer.index))
    windows_hit = {int(ct // 20.0) for ct in commit_times if (ct % 20.0) <= 6.0}
    rounds_contiguous = [b.round for b in observer.output_log] == list(
        range(1, len(observer.output_log) + 1)
    )
    return len(windows_hit) >= 4 and rounds_contiguous and observer.k_max > 0


#: Verdict row name per trial function.
VERDICTS = {
    "properties.safety_trial": "P1+P2 Byzantine sweep",
    "properties.liveness_trial": "P3 intermittent synchrony",
}


def specs(trials: int = 10, liveness_trials: int = 5) -> list[runner.RunSpec]:
    """One RunSpec per trial: the safety sweep, then the liveness sweep."""
    sweeps = (("safety_trial", trials), ("liveness_trial", liveness_trials))
    return [
        runner.spec(
            "properties", f"properties.{fn}",
            label=f"properties-{fn}-{trial}", trial=trial,
        )
        for fn, count in sweeps
        for trial in range(count)
    ]


def tabulate(specs: list[runner.RunSpec], passed: list[bool]) -> list[PropertyVerdict]:
    """Fold the per-trial outcomes into one verdict row per property."""
    verdicts = [
        PropertyVerdict(name=VERDICTS[kind], trials=len(oks), passed=sum(oks))
        for kind, oks in runner.by_kind(specs, passed).items()
    ]
    print_table(
        "E8: protocol properties P1/P2/P3 under adversarial conditions",
        ["property", "trials", "passed", "verdict"],
        [(v.name, v.trials, v.passed, "OK" if v.ok else "FAIL") for v in verdicts],
    )
    return verdicts


def _all_passed(kind: str):
    """The sweep's trial count when every trial passed, else 0."""

    def read(verdicts: list[PropertyVerdict]) -> int:
        verdict = row(verdicts, name=VERDICTS[kind])
        return verdict.trials if verdict.ok else 0

    return read


#: Each sweep runs its full trial count and every trial passes.
CLAIMS = [
    Claim("E8.P1P2", "§3.3", _all_passed("properties.safety_trial"), 10, ">="),
    Claim("E8.P3", "§3.3", _all_passed("properties.liveness_trial"), 5, ">="),
]
