"""Experiment E5 — robust consensus: throughput under Byzantine behaviour.

Section 1.1 ("Robust consensus"): citing [15] (Aardvark), the paper argues
that much of the consensus literature optimises the fault-free path and
collapses under simple Byzantine behaviour — "the throughput of existing
implementations of PBFT drops to zero under certain types of (quite
simple) Byzantine behavior" — while ICC "degrades quite gracefully": a
corrupt-leader round still finishes, just in O(Δbnd) instead of O(δ).

The attack (from [15]): a *slow primary* that stays just under the view-
change timeout.  In PBFT the slow node is primary until a timeout fires —
which it never lets happen — so the whole system runs at the attacker's
pace.  In ICC the same slow party only leads a ~t/n fraction of rounds
(the beacon rotates leaders every round), and other parties' proposals
fill in after Δntry, so throughput degrades by a bounded factor.

We measure committed blocks/s for ICC0 and PBFT, fault-free vs under the
slow-leader attack, and report the throughput retention ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adversary import SlowProposerMixin
from ..baselines import PBFTParty
from ..core.cluster import ClusterConfig, build_cluster
from ..core.icc0 import ICC0Party
from ..faults import ByzantineFault, Scenario, register_behavior, scenario_corrupt
from ..sim.delays import FixedDelay
from . import runner
from .common import Claim, make_icc_config, print_table, row, run_icc

#: The attack's proposal lag — just under the PBFT view timeout below.
ATTACK_LAG = 3.0


class SlowPrimaryPBFT(SlowProposerMixin, PBFTParty):
    """PBFT primary that proposes just under the view-change timeout."""

    def _propose_next(self) -> None:  # noqa: D102
        delay = self.propose_lag
        self.sim.schedule(delay, lambda: PBFTParty._propose_next(self))


def _build_slow_primary(base: type, params: dict) -> type:
    """PBFT-specific behaviour: the slow node must *be* the primary class."""
    SlowPrimaryPBFT.propose_lag = params.get("propose_lag", ATTACK_LAG)
    return SlowPrimaryPBFT


register_behavior("slow-primary-pbft", _build_slow_primary)


def attack_scenario(protocol: str, t: int) -> Scenario:
    """The slow-leader attack of [15], as a declarative fault scenario.

    For ICC the adversary corrupts its full budget of t parties (the
    beacon rotates leaders, so one slow party only costs ~1/n of rounds);
    for PBFT a single slow node suffices — view 1's primary is party 1,
    and it never lets the view-change timeout fire.
    """
    if protocol == "PBFT":
        events = (ByzantineFault(
            party=1, behavior="slow-primary-pbft",
            params=(("propose_lag", ATTACK_LAG),),
        ),)
    else:
        events = tuple(
            ByzantineFault(
                party=i, behavior="slow-proposer",
                params=(("propose_lag", ATTACK_LAG),),
            )
            for i in range(1, t + 1)
        )
    return Scenario(name=f"slow-leader-{protocol.lower()}", events=events)


@dataclass(frozen=True)
class RobustnessResult:
    protocol: str
    scenario: str
    blocks_per_second: float


def run_icc0(n: int, t: int, attack: bool, duration: float, seed: int = 9) -> float:
    delta = 0.05
    corrupt = {}
    if attack:
        corrupt = scenario_corrupt(attack_scenario("ICC0", t), ICC0Party)
    config = make_icc_config(
        "ICC0",
        n=n,
        t=t,
        delta_bound=0.5,
        epsilon=0.01,
        delay_model=FixedDelay(delta),
        seed=seed,
        corrupt=corrupt,
    )
    cluster = run_icc(config, duration=duration)
    observer = cluster.honest_parties[-1].index
    return cluster.metrics.blocks_per_second(observer, duration)


def run_pbft(n: int, t: int, attack: bool, duration: float, seed: int = 9) -> float:
    delta = 0.05
    corrupt = {}
    if attack:
        corrupt = scenario_corrupt(attack_scenario("PBFT", t), PBFTParty)
    config = ClusterConfig(
        party_class=PBFTParty,
        n=n,
        t=t,
        seed=seed,
        delay_model=FixedDelay(delta),
        corrupt=corrupt,
        extra_party_kwargs=dict(view_timeout=4.0),
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_for(duration)
    cluster.check_safety()
    observer = cluster.honest_parties[-1].index
    return cluster.metrics.blocks_per_second(observer, duration)


def specs(n: int = 10, duration: float = 120.0, seed: int = 9) -> list[runner.RunSpec]:
    """One RunSpec per (protocol, attack?) scenario."""
    t = (n - 1) // 3
    out = []
    for protocol, kind in (("ICC0", "robustness.run_icc0"), ("PBFT", "robustness.run_pbft")):
        for attack in (False, True):
            out.append(
                runner.spec(
                    "robustness",
                    kind,
                    label=f"robustness-{protocol}-{'attack' if attack else 'clean'}",
                    n=n,
                    t=t,
                    attack=attack,
                    duration=duration,
                    seed=seed,
                )
            )
    return out


def _as_results(specs: list[runner.RunSpec], values: list[float]) -> list[RobustnessResult]:
    results = []
    for spec, bps in zip(specs, values):
        params = spec.kwargs
        results.append(
            RobustnessResult(
                protocol="ICC0" if spec.kind == "robustness.run_icc0" else "PBFT",
                scenario="slow-leader attack" if params["attack"] else "fault-free",
                blocks_per_second=bps,
            )
        )
    return results


def tabulate(specs: list[runner.RunSpec], values: list[float]) -> list[RobustnessResult]:
    results = _as_results(specs, values)
    by_protocol: dict[str, dict[str, float]] = {}
    for r in results:
        by_protocol.setdefault(r.protocol, {})[r.scenario] = r.blocks_per_second
    rows = []
    for protocol, data in by_protocol.items():
        clean = data["fault-free"]
        attacked = data["slow-leader attack"]
        retention = attacked / clean if clean else float("nan")
        rows.append(
            (protocol, f"{clean:.2f}", f"{attacked:.2f}", f"{retention * 100:.0f}%")
        )
    print_table(
        "E5: throughput under the slow-leader attack of [15]",
        ["protocol", "fault-free blocks/s", "attacked blocks/s", "retention"],
        rows,
    )
    return results


def _rate(rs: list[RobustnessResult], protocol: str, attack: bool) -> float:
    scenario = "slow-leader attack" if attack else "fault-free"
    return row(rs, protocol=protocol, scenario=scenario).blocks_per_second


def _ratio(protocol: str, attack: bool, over: str, over_attack: bool):
    return lambda rs: _rate(rs, protocol, attack) / _rate(rs, over, over_attack)


#: 120 s runs at n = 10.  PBFT runs at the attacker's pace; ICC keeps a
#: usable share of its throughput and stays well ahead of PBFT.
CLAIMS = [
    Claim("E5.PBFT.collapses", "§1.1 [15]", _ratio("PBFT", True, "PBFT", False), 0.10, "<"),
    Claim("E5.ICC0.retains", "§1.1 [15]", _ratio("ICC0", True, "ICC0", False), 0.15, ">"),
    Claim("E5.ICC0-vs-PBFT", "§1.1 [15]", _ratio("ICC0", True, "PBFT", True), 4, ">"),
]
