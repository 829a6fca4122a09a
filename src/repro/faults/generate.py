"""Seeded random-scenario generation for chaos sweeps.

:func:`generate_scenario` draws a coherent, *checkable* scenario from a
seed: faults are sampled so that the invariants of
:mod:`repro.faults.invariants` are guaranteed to be satisfiable —

* Byzantine corruption plus parties left crashed never exceeds t (the
  paper's corruption budget), so safety and eventual liveness hold by
  the protocol's own guarantees;
* every transient fault settles by ``settle_frac · duration``, leaving a
  fault-free tail long enough for the bounded-liveness check to be
  assessable;
* crash schedules alternate crash→recover per party, partitions heal,
  and link-fault windows close — eventual delivery holds after the
  schedule clears.

The generator uses its own ``Random(f"chaos/{seed}")`` stream, so a seed
fully determines the scenario on every machine and at any job count.
"""

from __future__ import annotations

from random import Random

from .scenario import (
    ByzantineFault,
    CrashFault,
    LinkFault,
    OutageFault,
    PartitionFault,
    RecoverFault,
    Scenario,
)

#: Behaviours safe for arbitrary chaos mixes (each tested standalone in
#: the adversary suite; all respect the t < n/3 corruption budget).
CHAOS_BEHAVIORS = (
    "silent",
    "slow-proposer",
    "lazy-leader",
    "withhold-finalization",
    "withhold-notarization",
    "aggressive",
)


def generate_scenario(
    seed: int,
    n: int,
    t: int,
    duration: float,
    *,
    settle_frac: float = 0.6,
    intensity: float = 1.0,
) -> Scenario:
    """A random but invariant-checkable scenario for an n-party cluster."""
    rng = Random(f"chaos/{seed}")
    settle = settle_frac * duration
    events: list = []

    def window(min_frac: float = 0.05, max_frac: float = 0.45) -> tuple[float, float]:
        start = rng.uniform(min_frac, max_frac) * duration
        end = min(start + rng.uniform(0.05, 0.3) * duration, settle)
        return round(start, 3), round(end, 3)

    # Byzantine parties (static corruption, within the t budget).
    n_byz = rng.randint(0, t)
    byz = rng.sample(range(1, n + 1), n_byz)
    for party in byz:
        behavior = rng.choice(CHAOS_BEHAVIORS)
        params: tuple = ()
        if behavior == "slow-proposer":
            params = (("propose_lag", round(rng.uniform(0.5, 2.0), 3)),)
        events.append(ByzantineFault(party=party, behavior=behavior, params=params))

    # Crash/recover cycles on honest parties — all recovered before settle.
    # The paper's model allows at most t faulty parties *at any time*:
    # Byzantine plus concurrently-crashed must stay within t, or the tree
    # stops growing during the outage and the in-flight round's beacon
    # shares (broadcast exactly once) are lost to the crashed parties —
    # an unrecoverable stall even state sync cannot repair, because no
    # peer ever pulls ahead.  Budgeting crashes to t - n_byz keeps the
    # tree growing, so recovered laggards catch up and liveness resumes.
    honest = [i for i in range(1, n + 1) if i not in set(byz)]
    n_crash = rng.randint(0, min(t - n_byz, len(honest)))
    for party in rng.sample(honest, n_crash):
        start, end = window()
        if end <= start:
            continue
        events.append(CrashFault(at=start, party=party))
        events.append(RecoverFault(at=end, party=party))

    # One partition, usually.
    if rng.random() < 0.7:
        size = rng.randint(1, max(1, n // 2))
        group = tuple(sorted(rng.sample(range(1, n + 1), size)))
        start, heal = window(0.1, 0.4)
        if heal > start:
            events.append(PartitionFault(at=start, group=group, heal_at=heal))

    # Link faults: drop / duplicate / corrupt / latency spikes.
    for _ in range(rng.randint(0, max(1, round(3 * intensity)))):
        start, end = window()
        if end <= start:
            continue
        flavor = rng.choice(("drop", "duplicate", "corrupt", "delay"))
        scoped = rng.random() < 0.5  # whole fabric vs one party's links
        sender = rng.randint(1, n) if scoped else None
        events.append(LinkFault(
            start=start,
            end=end,
            sender=sender,
            drop_prob=round(rng.uniform(0.05, 0.3), 3) if flavor == "drop" else 0.0,
            duplicate_prob=(
                round(rng.uniform(0.1, 0.4), 3) if flavor == "duplicate" else 0.0
            ),
            corrupt_prob=(
                round(rng.uniform(0.05, 0.25), 3) if flavor == "corrupt" else 0.0
            ),
            extra_delay=round(rng.uniform(0.1, 0.5), 3) if flavor == "delay" else 0.0,
            jitter=round(rng.uniform(0.0, 0.2), 3) if flavor == "delay" else 0.0,
        ))

    # Occasionally a full-network outage...
    if rng.random() < 0.3:
        start, end = window(0.15, 0.35)
        if end > start:
            events.append(OutageFault(start=start, end=end))

    # ...or a skewed clock: everything one party sends runs late.
    if rng.random() < 0.4:
        start, end = window()
        if end > start:
            events.append(LinkFault(
                start=start, end=end,
                sender=rng.randint(1, n),
                extra_delay=round(rng.uniform(0.05, 0.3), 3),
            ))

    scenario = Scenario(name=f"chaos-{seed}", seed=seed, events=tuple(events))
    scenario.validate(n)
    return scenario
