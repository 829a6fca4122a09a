"""Chaos sweeps: generated fault scenarios + invariant checking (repro.faults).

The ROADMAP's north star is "handle as many scenarios as you can
imagine"; this experiment makes that a sweep.  Each run draws a scenario
from a seed (:func:`repro.faults.generate_scenario` — crashes,
partitions, lossy/duplicating/corrupting links, outages, clock skew and
Byzantine parties within the t budget), executes it against an ICC
cluster, and checks the safety and bounded-liveness invariants
(:mod:`repro.faults.invariants`).

Parties run with the catch-up subprotocol composed in
(:class:`repro.core.catchup.CatchupMixin`): under message loss a plain
party can wait forever for a beacon share that was dropped (beacon
shares are broadcast exactly once), whereas state sync restores bounded
liveness — which is exactly how the production system pairs consensus
with state sync.

Deterministic by construction: the scenario is derived from
``scenario_seed``, fault decisions from the scenario's RNG stream, the
simulation from ``seed`` — so results and trace files are bit-identical
across repeated runs and at any ``--jobs`` count
(``tests/faults/test_chaos.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ..core.catchup import CatchupMixin
from ..core.cluster import PROTOCOLS, build_cluster
from ..faults import (
    check_invariants,
    generate_scenario,
    install_scenario,
    scenario_corrupt,
)
from ..sim.delays import FixedDelay
from . import runner
from .common import make_icc_config, print_table


@cache
def with_catchup(party_class: type) -> type:
    """``party_class`` with state sync composed in — the chaos-run
    configuration of whichever ICC variant the config names."""
    return type(f"Chaos{party_class.__name__}", (CatchupMixin, party_class), {})


@dataclass(frozen=True)
class ChaosResult:
    """Picklable outcome of one chaos run (travels across the runner pool)."""

    protocol: str
    scenario: str
    scenario_seed: int
    events: str  # compact schedule summary, e.g. "2 crash, 1 partition"
    min_committed: int
    safety_ok: bool
    liveness_ok: bool
    liveness_checked: bool
    violations: tuple[str, ...]
    fault_counts: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.liveness_ok

    @property
    def verdict(self) -> str:
        if not self.safety_ok:
            return "SAFETY VIOLATED"
        if not self.liveness_ok:
            return "LIVENESS VIOLATED"
        return "OK" if self.liveness_checked else "OK (liveness n/a)"


def run_scenario(
    protocol: str = "ICC0",
    n: int = 7,
    scenario_seed: int = 0,
    duration: float = 40.0,
    seed: int = 101,
    delta: float = 0.05,
    delta_bound: float = 0.5,
    liveness_rounds: int = 12,
    intensity: float = 1.0,
) -> ChaosResult:
    """Generate scenario ``scenario_seed``, run it, check the invariants."""
    protocol = protocol.upper()
    t = (n - 1) // 3
    scenario = generate_scenario(
        scenario_seed, n, t, duration, intensity=intensity
    )
    party_class = with_catchup(PROTOCOLS[protocol.lower()])
    config = make_icc_config(
        protocol,
        n=n,
        t=t,
        delta_bound=delta_bound,
        epsilon=0.01,
        delay_model=FixedDelay(delta),
        seed=seed,
        corrupt=scenario_corrupt(scenario, party_class),
    )
    config.party_class = party_class
    cluster = build_cluster(config)
    injector = install_scenario(cluster, scenario)
    cluster.start()
    cluster.run_for(duration)
    report = check_invariants(
        cluster, scenario, duration, liveness_rounds=liveness_rounds
    )
    live_honest = [
        p for p in cluster.honest_parties if not cluster.network.is_crashed(p.index)
    ]
    return ChaosResult(
        protocol=protocol,
        scenario=scenario.name,
        scenario_seed=scenario_seed,
        events=scenario.describe(),
        min_committed=min((p.k_max for p in live_honest), default=0),
        safety_ok=report.safety_ok,
        liveness_ok=report.liveness_ok,
        liveness_checked=report.liveness_checked,
        violations=tuple(f"{v.kind}: {v.detail}" for v in report.violations),
        fault_counts=tuple(sorted(injector.counters.items())),
    )


def specs(
    seeds=range(3),
    protocols=("ICC0", "ICC1", "ICC2"),
    n: int = 7,
    duration: float = 40.0,
    seed: int = 101,
    intensity: float = 1.0,
) -> list[runner.RunSpec]:
    """One RunSpec per (scenario seed × protocol)."""
    out = []
    for scenario_seed in seeds:
        for protocol in protocols:
            out.append(runner.spec(
                "chaos",
                "chaos.run_scenario",
                label=f"chaos-{protocol.lower()}-s{scenario_seed}",
                protocol=protocol,
                n=n,
                scenario_seed=scenario_seed,
                duration=duration,
                seed=seed,
                intensity=intensity,
            ))
    return out


def tabulate(
    specs: list[runner.RunSpec], results: list[ChaosResult]
) -> list[ChaosResult]:
    rows = []
    for result in results:
        fired = ", ".join(f"{k}×{v}" for k, v in result.fault_counts if v) or "-"
        rows.append((
            result.protocol,
            result.scenario_seed,
            result.events,
            fired,
            result.min_committed,
            result.verdict,
        ))
    print_table(
        "Chaos sweep: generated fault scenarios + invariant checking",
        ["protocol", "scenario", "schedule", "faults fired", "rounds", "verdict"],
        rows,
    )
    bad = [r for r in results if not r.ok]
    if bad:
        print()
        for result in bad:
            for violation in result.violations:
                print(f"!! {result.protocol} chaos-{result.scenario_seed}: {violation}")
    else:
        print(f"\nall {len(results)} runs satisfied safety + bounded liveness")
    return results


def add_arguments(parser) -> None:
    """The ``python -m repro chaos`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument(
        "--seed", type=int, default=0,
        help="first scenario seed (each seed fully determines its scenario)",
    )
    parser.add_argument(
        "--count", type=int, default=1, metavar="K",
        help="number of consecutive scenario seeds to sweep",
    )
    parser.add_argument(
        "--protocols", default="icc0,icc1,icc2",
        help="comma-separated ICC variants to run each scenario against",
    )
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--duration", type=float, default=40.0)
    parser.add_argument(
        "--intensity", type=float, default=1.0,
        help="scales how many faults each scenario draws",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (results are identical at any job count)",
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="export one trace JSONL per run into DIR",
    )


def run(args) -> int:
    suite = specs(
        seeds=range(args.seed, args.seed + args.count),
        protocols=tuple(
            p.strip().upper() for p in args.protocols.split(",") if p.strip()
        ),
        n=args.n,
        duration=args.duration,
        intensity=args.intensity,
    )
    results = tabulate(
        suite, runner.execute(suite, jobs=args.jobs, trace_dir=args.trace)
    )
    return 0 if all(r.ok for r in results) else 1
