"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism and sweeps it, quantifying why the
design is what it is:

* **A1 — the ε governor** (Section 3.5): ε trades block rate against
  nothing else *in synchrony* (it simply paces rounds once ε > δ), which
  is why the deployment can tune block time freely without hurting
  latency-per-round.
* **A2 — the Δprop proposer stagger**: without it ("Δprop ≡ 0"), every
  party proposes every round and the network carries n× the block
  traffic; with it, only the leader proposes in good rounds — the
  mechanism the paper credits for avoiding proposal floods.
* **A3 — gossip degree** (ICC1): leader egress grows with the degree while
  propagation latency shrinks with it; d ≈ 4 sits at the knee.
* **A4 — RBC fill delay** (ICC2): an eager fill duplicates fragments that
  in-flight echoes were already delivering; a short grace period removes
  the redundant traffic without affecting delivery latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cluster import build_cluster
from ..sim.delays import FixedDelay
from ..workloads import fixed_size_source
from . import runner
from .common import make_icc_config, mean, print_table


@dataclass(frozen=True)
class AblationRow:
    knob: str
    value: float
    metrics: dict


def epsilon_point(
    epsilon: float, delta: float = 0.05, n: int = 7, rounds: int = 15
) -> AblationRow:
    """A1, one swept point: ε paces rounds; per-round latency unaffected."""
    config = make_icc_config(
        "ICC0", n=n, t=(n - 1) // 3, delta_bound=0.5, epsilon=epsilon,
        delay_model=FixedDelay(delta), seed=21, max_rounds=rounds,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds - 2, timeout=600)
    cluster.check_safety()
    durations = cluster.metrics.round_durations(1)
    steady = [v for k, v in durations.items() if 2 <= k <= rounds - 2]
    return AblationRow(
        knob="epsilon",
        value=epsilon,
        metrics={
            "round_time": mean(steady),
            "predicted": max(epsilon, delta) + delta,
        },
    )


def stagger_point(
    stagger: bool, delta: float = 0.05, n: int = 10, rounds: int = 12
) -> AblationRow:
    """A2, one variant: with or without the Δprop proposer stagger."""
    from ..core.params import StandardDelays

    class NoStagger(StandardDelays):
        def prop(self, rank: int) -> float:
            return 0.0

    label = "staggered (paper)" if stagger else "no stagger"
    delays_cls = StandardDelays if stagger else NoStagger
    config = make_icc_config(
        "ICC0", n=n, t=(n - 1) // 3, delta_bound=0.5, epsilon=0.01,
        delay_model=FixedDelay(delta), seed=22, max_rounds=rounds,
    )
    config.protocol_delays = delays_cls(delta_bound=0.5, epsilon=0.01)
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds - 2, timeout=600)
    cluster.check_safety()
    effective_rounds = max(p.round for p in cluster.parties) - 1
    return AblationRow(
        knob=label,
        value=0.0,
        metrics={
            "proposals_per_round": cluster.metrics.counters["blocks-proposed"]
            / effective_rounds,
            "block_bytes_per_round": cluster.metrics.bytes_by_kind["block"]
            / effective_rounds,
        },
    )


def gossip_degree_point(
    degree: int, n: int = 13, block_bytes: int = 200_000, rounds: int = 6
) -> AblationRow:
    """A3, one swept point: overlay degree `degree`."""
    config = make_icc_config(
        "ICC1", n=n, t=(n - 1) // 3, delta_bound=0.6, epsilon=0.02,
        delay_model=FixedDelay(0.05), seed=23, max_rounds=rounds,
        payload_source=fixed_size_source(block_bytes),
        gossip_degree=degree,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds - 1, timeout=600)
    cluster.check_safety()
    effective_rounds = max(p.round for p in cluster.parties) - 1
    durations = cluster.metrics.round_durations(1)
    steady = [v for k, v in durations.items() if k >= 2]
    return AblationRow(
        knob="degree",
        value=degree,
        metrics={
            "round_time": mean(steady),
            "max_node_egress_per_round_in_s": max(cluster.metrics.bytes_sent.values())
            / effective_rounds
            / block_bytes,
        },
    )


def fill_delay_point(
    fill_delay: float, n: int = 10, block_bytes: int = 100_000, rounds: int = 6
) -> AblationRow:
    """A4, one swept point: RBC fill grace period `fill_delay`."""
    from ..core.icc2 import ICC2Party
    from ..sim.delays import UniformDelay

    class TunedICC2(ICC2Party):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.rbc.fill_delay = fill_delay

    # Jittered delays: fast links reconstruct before slow echoes land,
    # which is when an eager fill duplicates in-flight fragments.
    config = make_icc_config(
        "ICC0",  # placeholder; party_class overridden below
        n=n, t=(n - 1) // 3, delta_bound=0.8, epsilon=0.02,
        delay_model=UniformDelay(0.02, 0.12), seed=24, max_rounds=rounds,
        payload_source=fixed_size_source(block_bytes),
    )
    config.party_class = TunedICC2
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds - 1, timeout=600)
    cluster.check_safety()
    return AblationRow(
        knob="fill_delay",
        value=fill_delay,
        metrics={
            "fill_bytes": cluster.metrics.bytes_by_kind.get("rbc-fill", 0),
            "echo_bytes": cluster.metrics.bytes_by_kind.get("rbc-echo", 0),
            "rounds_done": cluster.min_committed_round(),
        },
    )


def specs(
    epsilons: tuple[float, ...] = (0.0, 0.05, 0.2, 0.5),
    degrees: tuple[int, ...] = (2, 3, 4, 6, 8),
    fill_delays: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25),
) -> list[runner.RunSpec]:
    """One RunSpec per ablation point, sweep order matching the tables."""
    out = [
        runner.spec("ablations", "ablations.epsilon_point", label=f"ablation-eps{e}", epsilon=e)
        for e in epsilons
    ]
    out += [
        runner.spec(
            "ablations",
            "ablations.stagger_point",
            label=f"ablation-stagger-{'on' if s else 'off'}",
            stagger=s,
        )
        for s in (True, False)
    ]
    out += [
        runner.spec(
            "ablations", "ablations.gossip_degree_point", label=f"ablation-degree{d}", degree=d
        )
        for d in degrees
    ]
    out += [
        runner.spec(
            "ablations", "ablations.fill_delay_point", label=f"ablation-fill{f}", fill_delay=f
        )
        for f in fill_delays
    ]
    return out


def tabulate(specs: list[runner.RunSpec], results: list[AblationRow]) -> dict:
    by_kind = runner.by_kind(specs, results)
    eps = by_kind.get("ablations.epsilon_point", [])
    print_table(
        "A1: the ε governor paces rounds exactly as max(ε, δ) + δ predicts",
        ["ε (s)", "round time (s)", "predicted (s)"],
        [
            (r.value, f"{r.metrics['round_time']:.3f}", f"{r.metrics['predicted']:.3f}")
            for r in eps
        ],
    )
    stagger = by_kind.get("ablations.stagger_point", [])
    print_table(
        "A2: Δprop stagger suppresses competing proposals",
        ["variant", "proposals/round", "block bytes/round"],
        [
            (
                r.knob,
                f"{r.metrics['proposals_per_round']:.2f}",
                f"{r.metrics['block_bytes_per_round']:.0f}",
            )
            for r in stagger
        ],
    )
    degree = by_kind.get("ablations.gossip_degree_point", [])
    print_table(
        "A3: gossip degree — leader egress vs round latency (S = 200 KB)",
        ["degree", "round time (s)", "max node egress (in S)"],
        [
            (
                int(r.value),
                f"{r.metrics['round_time']:.3f}",
                f"{r.metrics['max_node_egress_per_round_in_s']:.1f}",
            )
            for r in degree
        ],
    )
    fill = by_kind.get("ablations.fill_delay_point", [])
    print_table(
        "A4: RBC fill grace period — redundant fill traffic vs progress",
        ["fill delay (s)", "fill bytes", "echo bytes", "rounds committed"],
        [
            (
                r.value,
                r.metrics["fill_bytes"],
                r.metrics["echo_bytes"],
                r.metrics["rounds_done"],
            )
            for r in fill
        ],
    )
    return {"epsilon": eps, "stagger": stagger, "degree": degree, "fill": fill}
