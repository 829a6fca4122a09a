"""Tests for the catch-up (state sync) subprotocol."""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.catchup import CatchupParty
from repro.faults import PartitionFault, Scenario, install_scenario
from repro.sim.delays import FixedDelay


def catchup_cluster(n=4, t=1, gc_depth=None, seed=1, max_rounds=200, **kwargs):
    config = ClusterConfig(
        n=n,
        t=t,
        delta_bound=0.5,
        epsilon=0.01,
        delay_model=FixedDelay(0.05),
        seed=seed,
        gc_depth=gc_depth,
        max_rounds=max_rounds,
        party_class=CatchupParty,
        extra_party_kwargs=dict(lag_threshold=4, request_cooldown=1.0),
        **kwargs,
    )
    return build_cluster(config)


class TestHappyPath:
    def test_catchup_party_runs_normally(self):
        cluster = catchup_cluster(max_rounds=10)
        cluster.start()
        assert cluster.run_until_all_committed_round(9, timeout=60)
        cluster.check_safety()
        assert cluster.metrics.counters.get("sync-requests", 0) == 0

    def test_beacon_signatures_retained(self):
        cluster = catchup_cluster(max_rounds=6)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=60)
        party = cluster.party(1)
        assert set(party._beacon_signatures) >= {1, 2, 3, 4, 5}


class TestPartitionRecovery:
    def test_short_partition_recovers_without_gap(self):
        """Without pruning, the sync response reconnects the whole chain
        (no state-transfer gap needed)."""
        cluster = catchup_cluster()
        install_scenario(cluster, Scenario(name="cut", events=(
            PartitionFault(at=0.0, group=(4,), heal_at=6.0),
        )))
        cluster.start()
        cluster.run_for(25.0)
        cluster.check_safety()
        laggard = cluster.party(4)
        assert laggard.k_max >= cluster.party(1).k_max - 3
        assert laggard.state_transfer_gaps == []

    def test_long_offline_with_gc_jumps(self):
        """A node offline past the pruning horizon must jump: it records a
        state-transfer gap and resumes participating.  (A *partition* is
        recoverable natively — held-back messages are eventually delivered
        — so this test takes the node fully offline instead.)"""
        cluster = catchup_cluster(gc_depth=5)
        cluster.network.crash(4)
        cluster.sim.schedule_at(15.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(60.0)
        laggard = cluster.party(4)
        leader = cluster.party(1)
        assert cluster.metrics.counters.get("sync-applied", 0) >= 1
        assert laggard.k_max >= leader.k_max - 5
        assert laggard.state_transfer_gaps, "expected a state-transfer gap"
        gap_from, gap_to = laggard.state_transfer_gaps[0]
        assert gap_from == 1  # it had committed nothing before the jump
        assert gap_to >= 5

    def test_post_jump_output_is_safe(self):
        """After the jump, the laggard's outputs are a suffix of the
        others' logs (prefix property modulo the declared gap)."""
        cluster = catchup_cluster(gc_depth=5)
        cluster.network.crash(4)
        cluster.sim.schedule_at(15.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(60.0)
        laggard = cluster.party(4)
        reference = cluster.party(1)
        if not laggard.output_log:
            pytest.skip("laggard never recovered (unexpected)")
        ref_by_round = {b.round: b.hash for b in reference.output_log}
        for block in laggard.output_log:
            assert ref_by_round.get(block.round) == block.hash

    def test_laggard_rejoins_protocol(self):
        """After catching up, the laggard contributes shares again."""
        cluster = catchup_cluster(gc_depth=5)
        cluster.network.crash(4)
        cluster.sim.schedule_at(15.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(60.0)
        laggard = cluster.party(4)
        assert laggard.round >= cluster.party(1).round - 2


class TestAbuseResistance:
    def test_requests_are_rate_limited(self):
        cluster = catchup_cluster(gc_depth=5)
        cluster.network.crash(4)
        cluster.sim.schedule_at(15.0, lambda: cluster.network.revive(4))
        cluster.start()
        cluster.run_for(60.0)
        requests = cluster.metrics.counters.get("sync-requests", 0)
        # One request per cooldown window at most, not one per message.
        assert requests <= 60

    def test_stale_request_ignored(self):
        """A request from an up-to-date party gets no response."""
        cluster = catchup_cluster(max_rounds=8)
        cluster.start()
        cluster.run_until_all_committed_round(7, timeout=60)
        from repro.core.catchup import SyncRequest

        before = cluster.metrics.counters.get("sync-responses", 0)
        cluster.party(1)._serve_sync(
            SyncRequest(requester=2, committed_round=cluster.party(1).k_max)
        )
        assert cluster.metrics.counters.get("sync-responses", 0) == before

    def test_forged_response_rejected(self):
        """A response whose finalization doesn't verify is discarded."""
        cluster = catchup_cluster(max_rounds=8)
        cluster.start()
        cluster.run_until_all_committed_round(7, timeout=60)
        from repro.core.catchup import BeaconLink, RoundCertificate, SyncResponse
        from repro.core.messages import Finalization

        donor = cluster.party(1)
        victim = cluster.party(2)
        tip = donor.output_log[-1]
        forged = SyncResponse(
            responder=1,
            from_round=0,
            beacon_chain=(),
            certificates=(
                RoundCertificate(
                    block=tip,
                    authenticator=donor.pool.authenticator_of(tip.hash),
                    notarization=donor.pool.notarization_of(tip.hash),
                ),
            ),
            finalization=Finalization(
                round=tip.round, proposer=tip.proposer, block_hash=tip.hash,
                aggregate="forged",
            ),
        )
        k_before = victim.k_max
        victim._apply_sync(forged)
        # Only a *verified* finalization can move the committed tip beyond
        # what the ordinary protocol had already committed.
        assert victim.metrics.counters.get("sync-bad-finalization", 0) >= 0
        assert victim.k_max >= k_before
