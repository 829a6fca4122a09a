"""Randomized-schedule fuzz tests and cross-feature composition tests.

Each fuzz case draws a random configuration (network jitter, Byzantine
mix, protocol variant) from a seed and checks the full invariant set:
prefix safety, P2 on pools, chain contiguity, and eventual progress.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    AggressiveByzantineMixin,
    ConsistentFailureMixin,
    EquivocatingProposerMixin,
    LazyLeaderMixin,
    SilentMixin,
    WithholdFinalizationMixin,
    WithholdNotarizationMixin,
    corrupt_class,
)
from repro.core import ClusterConfig, Payload, build_cluster
from repro.core.catchup import CatchupMixin
from repro.core.icc0 import ICC0Party
from repro.core.icc1 import ICC1Party
from repro.core.icc2 import ICC2Party
from repro.experiments.properties import check_p2_on_cluster
from repro.faults import LinkFault, Scenario, install_scenario
from repro.gossip import GossipParams, build_overlay
from repro.sim.delays import FixedDelay, UniformDelay

MIXINS = [
    AggressiveByzantineMixin,
    EquivocatingProposerMixin,
    SilentMixin,
    WithholdFinalizationMixin,
    WithholdNotarizationMixin,
    LazyLeaderMixin,
    ConsistentFailureMixin,
    None,  # crash
]


def fuzz_config(seed: int) -> ClusterConfig:
    from random import Random

    rng = Random(seed)
    n = rng.choice([4, 7, 10])
    t = (n - 1) // 3
    protocol = rng.choice(["ICC0", "ICC1", "ICC2"])
    classes = {"ICC0": ICC0Party, "ICC1": ICC1Party, "ICC2": ICC2Party}
    base = classes[protocol]
    extra = {}
    if protocol == "ICC1":
        extra = dict(
            overlay=build_overlay(n, min(4, n - 1), seed=seed),
            gossip_params=GossipParams(request_timeout=0.4),
        )
    corrupt = {}
    indices = rng.sample(range(1, n + 1), t)
    for index in indices:
        mixin = rng.choice(MIXINS)
        corrupt[index] = None if mixin is None else corrupt_class(base, mixin)
    lo = rng.uniform(0.005, 0.05)
    return ClusterConfig(
        n=n,
        t=t,
        delta_bound=0.4,
        epsilon=rng.uniform(0.005, 0.05),
        delay_model=UniformDelay(lo, lo + rng.uniform(0.01, 0.15)),
        seed=seed,
        max_rounds=12,
        party_class=base,
        corrupt=corrupt,
        gc_depth=rng.choice([None, 6]),
        extra_party_kwargs=extra,
    )


@pytest.mark.parametrize("seed", range(300, 312))
def test_fuzzed_run_upholds_all_invariants(seed):
    config = fuzz_config(seed)
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_for(90.0, max_events=20_000_000)
    # Safety: prefix property + P2 + contiguous committed rounds.
    cluster.check_safety()
    if config.gc_depth is None:
        check_p2_on_cluster(cluster)
    for party in cluster.honest_parties:
        rounds = [b.round for b in party.output_log]
        start = rounds[0] if rounds else 1
        assert rounds == list(range(start, start + len(rounds)))
    # Liveness: every honest party made it through all rounds.
    assert all(p.round >= 12 for p in cluster.honest_parties), (
        f"seed {seed}: liveness stalled at rounds "
        f"{[p.round for p in cluster.honest_parties]}"
    )
    assert cluster.min_committed_round() >= 10


class TestConsistentFailures:
    def test_undetectable_but_tolerated(self):
        consistent = corrupt_class(ICC0Party, ConsistentFailureMixin)
        config = ClusterConfig(
            n=7, t=2, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=15, seed=5,
            corrupt={1: consistent, 2: consistent},
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(13, timeout=300)
        cluster.check_safety()
        # Nothing attributable: no disqualifications were triggered.
        assert cluster.metrics.counters.get("ranks-disqualified", 0) == 0
        # But their slots produced no blocks.
        proposers = {b.proposer for b in cluster.party(3).output_log}
        assert not proposers & {1, 2}


class TestCatchupComposition:
    @pytest.mark.parametrize("base", [ICC1Party, ICC2Party])
    def test_catchup_composes_with_other_protocols(self, base):
        catchup_cls = type(f"Catchup{base.__name__}", (CatchupMixin, base), {})
        extra = dict(lag_threshold=4, request_cooldown=1.0)
        if base is ICC1Party:
            extra.update(
                overlay=build_overlay(4, 3, seed=1),
                gossip_params=GossipParams(request_timeout=0.4),
            )
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), seed=1, gc_depth=5,
            max_rounds=150, party_class=catchup_cls,
            extra_party_kwargs=extra,
        )
        cluster = build_cluster(config)
        cluster.network.crash(4)
        cluster.sim.schedule_at(12.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(50.0)
        laggard = cluster.party(4)
        assert laggard.k_max >= cluster.party(1).k_max - 6
        assert cluster.metrics.counters.get("sync-applied", 0) >= 1


class TestDuplicationIdempotence:
    @pytest.mark.parametrize("party_cls", [ICC0Party, ICC2Party])
    def test_protocols_absorb_duplicated_messages(self, party_cls):
        """Transport-level duplication must be invisible: the pool dedups
        everything, so timing and outputs match the duplicate-free run."""
        def run(dup_prob):
            config = ClusterConfig(
                n=4, t=1, delta_bound=0.3, epsilon=0.01,
                delay_model=FixedDelay(0.05), max_rounds=8, seed=3,
                party_class=party_cls,
            )
            cluster = build_cluster(config)
            install_scenario(cluster, Scenario(
                name="dup", seed=3,
                events=(LinkFault(start=0.0, end=120.0, duplicate_prob=dup_prob),),
            ))
            cluster.start()
            cluster.run_until_all_committed_round(7, timeout=120)
            cluster.check_safety()
            return [b.hash for b in cluster.party(1).output_log]

        assert run(0.0) == run(0.9)


class TestProtocolsUnderLoad:
    @pytest.mark.parametrize("party_cls", [ICC0Party, ICC2Party])
    def test_payloads_with_commands_and_filler(self, party_cls):
        def source(party, round, chain):
            return Payload(commands=(b"cmd-%d" % round,), filler_bytes=5000)

        config = ClusterConfig(
            n=7, t=2, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=8, seed=2,
            party_class=party_cls, payload_source=source,
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(6, timeout=120)
        cluster.check_safety()
        commands = cluster.party(1).output_commands()
        assert len(commands) >= 6
