"""The selective protocol pass is the full pass.

``ICC0Party._admit`` runs ``_progress`` after a pool change only when the
artifact can enable a clause of Figures 1–2, or when a Δprop/Δntry wake is
due that no pass has served yet.  :class:`FullPass` below is the rule it
replaced, a pass after every artifact the pool takes, kept here as the
oracle: the same cluster built with either must hand over the same messages
at the same instants and leave the receiving party in the same state after
every hand-over.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import (
    AggressiveByzantineMixin,
    EquivocatingProposerMixin,
    SlowProposerMixin,
    corrupt_class,
)
from repro.core import ClusterConfig, build_cluster
from repro.core.catchup import CatchupMixin
from repro.core.cluster import protocol_party
from repro.core.icc0 import ICC0Party
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import message_kind


class FullPass:
    """Mixin: run the protocol pass after every artifact the pool takes."""

    def _admit(self, artifact: object) -> bool:
        if not self.pool.add(artifact):
            return False
        self._progress()
        return True


def full_pass(factory):
    return type(f"FullPass{factory.__name__}", (FullPass, factory), {})


def with_full_pass(config: ClusterConfig) -> ClusterConfig:
    """``config`` with the oracle mixed into every party that runs."""
    return replace(
        config,
        party_class=full_pass(config.party_class),
        corrupt={
            index: None if factory is None else full_pass(factory)
            for index, factory in config.corrupt.items()
        },
    )


def party_state(party: ICC0Party) -> tuple:
    return (
        party.round,
        party.k_max,
        party.waiting_beacon,
        tuple(party.notar_shared.items()),
        tuple(sorted(party.disqualified)),
        party.proposed,
        party._beacon_computed,
        party._committed_tip,
        party.metrics.msgs_sent[party.index],
    )


def hand_over_log(config: ClusterConfig, duration: float, setup=None):
    """Run ``config``; return one row per hand-over, ``(now, receiver, kind,
    round, receiver state after it)``, and every party's committed hashes."""
    cluster = build_cluster(config)
    log: list[tuple] = []

    def recording(party):
        on_receive = party.on_receive

        def record(message):
            on_receive(message)
            log.append((
                cluster.sim.now, party.index, message_kind(message),
                getattr(message, "round", None), party_state(party),
            ))

        return record

    for party in cluster.parties:
        party.on_receive = recording(party)
    if setup is not None:
        setup(cluster)
    cluster.start()
    cluster.run_for(duration)
    return log, [party.committed_hashes for party in cluster.parties]


def assert_same_run(config: ClusterConfig, duration: float, setup=None) -> int:
    log, chains = hand_over_log(config, duration, setup)
    oracle_log, oracle_chains = hand_over_log(with_full_pass(config), duration, setup)
    for i, (row, expected) in enumerate(zip(log, oracle_log)):
        assert row == expected, f"hand-over {i} differs from the full pass"
    assert len(log) == len(oracle_log)
    assert chains == oracle_chains
    return len(log)


def _crash_and_revive(index: int, at: float):
    def setup(cluster):
        cluster.network.crash(index)
        cluster.sim.schedule_at(at, lambda: cluster.network.revive(index))

    return setup


class SlowProposer(SlowProposerMixin):
    propose_lag = 0.3


BYZANTINE = {
    "equivocating": EquivocatingProposerMixin,
    "aggressive": AggressiveByzantineMixin,
    "slow": SlowProposer,
}


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([4, 7]))
    t = (n - 1) // 3
    protocol = draw(st.sampled_from(["icc0", "icc1", "icc2"]))
    seed = draw(st.integers(0, 1_000))
    delta = draw(st.sampled_from([0.02, 0.05]))
    if draw(st.booleans()):
        delay_model, bound = FixedDelay(delta), delta
    else:
        delay_model, bound = UniformDelay(delta / 2, delta), delta
    # ε a multiple of δ lines Δntry up with deliveries under FixedDelay.
    epsilon = delta * draw(st.sampled_from([0, 0.5, 1, 2]))
    byzantine = draw(st.sampled_from([None, *sorted(BYZANTINE)]))
    catchup = draw(st.booleans())
    gc_depth = draw(st.sampled_from([None, 3]))
    base, extra = protocol_party(protocol, n, seed=seed, gossip_degree=min(3, n - 1))
    party_class = base
    setup = None
    if catchup:
        party_class = type(f"Catchup{base.__name__}", (CatchupMixin, base), {})
        extra = {**extra, "lag_threshold": 3, "request_cooldown": 0.5}
    corrupt = {}
    if byzantine is not None:
        corrupt[1] = corrupt_class(party_class, BYZANTINE[byzantine])
    if catchup and len(corrupt) < t:
        # A crashed honest party that comes back behind the others.
        setup = _crash_and_revive(n, 1.0)
    config = ClusterConfig(
        n=n, t=t, delta_bound=bound, epsilon=epsilon, seed=seed,
        delay_model=delay_model, max_rounds=14, gc_depth=gc_depth,
        party_class=party_class, corrupt=corrupt, extra_party_kwargs=extra,
    )
    return config, setup


class TestSelectivePassIsTheFullPass:
    @settings(
        max_examples=24, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios())
    def test_generated_clusters(self, scenario):
        config, setup = scenario
        assert assert_same_run(config, 2.5, setup) > 0

    def test_share_at_the_instant_of_a_queued_wake(self):
        """ε = δ under FixedDelay: the leader's own block reaches Δntry(0) at
        2δ, the instant the first round-2 beacon shares land, and some land
        before the wake the leader scheduled for it.  Such a share is below
        the beacon quorum, so only the due wake makes the pass run — without
        it the leader would send its notarization share one event late."""
        config = ClusterConfig(
            n=7, t=2, delta_bound=0.1, epsilon=0.1, seed=1,
            delay_model=FixedDelay(0.1), max_rounds=4,
        )
        ties = []

        def setup(cluster):
            for party in cluster.parties:
                can_enable = party._can_enable

                def watched(artifact, party=party, can_enable=can_enable):
                    enables = can_enable(artifact)
                    if not enables and party._next_wake <= cluster.sim.now:
                        ties.append((cluster.sim.now, party.index, type(artifact)))
                    return enables

                party._can_enable = watched

        hand_over_log(config, 1.0, setup)
        assert ties, "the case no longer builds a share-versus-wake tie"
        assert assert_same_run(config, 1.0) > 0


class TestPassCount:
    #: `_progress` calls on the run below when every artifact the pool took
    #: ran a pass.
    FULL_PASS_CALLS = 2781

    def test_passes_pinned(self, monkeypatch):
        calls = [0]
        progress = ICC0Party._progress

        def counted(self):
            calls[0] += 1
            progress(self)

        monkeypatch.setattr(ICC0Party, "_progress", counted)
        config = ClusterConfig(
            n=13, t=4, delta_bound=0.2, epsilon=0.001, seed=1,
            delay_model=UniformDelay(0.02, 0.08), corrupt={13: None}, max_rounds=12,
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(10, timeout=60)
        assert calls[0] <= self.FULL_PASS_CALLS // 4
