"""Tests for the PBFT baseline."""

from __future__ import annotations

import pytest

from repro.baselines import PBFTParty
from repro.core import ClusterConfig, build_cluster
from repro.core.messages import Payload
from repro.sim.delays import FixedDelay


def pbft_cluster(n=4, t=1, delay=0.05, seed=1, corrupt=None, payload_source=None, **kwargs):
    config = ClusterConfig(
        party_class=PBFTParty,
        n=n,
        t=t,
        seed=seed,
        delay_model=FixedDelay(delay),
        corrupt=corrupt or {},
        payload_source=payload_source,
        extra_party_kwargs={"view_timeout": 2.0, **kwargs},
    )
    return build_cluster(config)


class TestHappyPath:
    def test_commits(self):
        c = pbft_cluster()
        c.start()
        assert c.run_until_all_committed_round(10, timeout=100)
        c.check_safety()

    def test_latency_three_delta(self):
        delta = 0.05
        c = pbft_cluster(delay=delta)
        c.start()
        c.run_until_all_committed_round(8, timeout=100)
        for latency in c.metrics.commit_latencies():
            assert latency == pytest.approx(3 * delta, rel=0.05)

    def test_stable_primary(self):
        """Without faults the primary never changes."""
        c = pbft_cluster()
        c.start()
        c.run_until_all_committed_round(10, timeout=100)
        assert c.metrics.counters.get("pbft-view-changes-installed", 0) == 0
        proposers = {b.proposer for b in c.party(2).output_log}
        assert proposers == {1}

    def test_payload_source_used(self):
        def source(party, height, chain):
            return Payload(commands=(b"h%d" % height,))

        c = pbft_cluster(payload_source=source)
        c.start()
        c.run_until_all_committed_round(5, timeout=100)
        commands = [cmd for b in c.party(2).output_log for cmd in b.payload.commands]
        assert commands[:3] == [b"h1", b"h2", b"h3"]

    def test_chain_links(self):
        c = pbft_cluster()
        c.start()
        c.run_until_all_committed_round(6, timeout=100)
        log = c.party(1).output_log
        for parent, child in zip(log, log[1:]):
            assert child.parent_digest == parent.digest

    def test_max_heights_stops(self):
        c = pbft_cluster(max_heights=4)
        c.start()
        c.run_for(30.0)
        assert all(p.k_max == 4 for p in c.parties)


class TestViewChange:
    def test_crashed_primary_replaced(self):
        c = pbft_cluster(corrupt={1: None})
        c.start()
        assert c.run_until_all_committed_round(5, timeout=200)
        c.check_safety()
        assert c.metrics.counters["pbft-view-changes-installed"] >= 1
        proposers = {b.proposer for b in c.party(2).output_log}
        assert 1 not in proposers

    def test_mid_run_crash_recovers(self):
        c = pbft_cluster(n=7, t=2)
        c.start()
        c.run_until_all_committed_round(3, timeout=100)
        c.network.crash(1)  # kill the primary mid-run
        c.run_for(60.0)
        # The crashed node is frozen; all others must keep committing.
        live = [p for p in c.parties if p.index != 1]
        assert min(p.k_max for p in live) >= 6
        logs = [p.committed_hashes for p in live]
        reference = max(logs, key=len)
        assert all(log == reference[: len(log)] for log in logs)

    def test_throughput_gap_during_view_change(self):
        """Nothing commits while the view change is pending — the PBFT
        failure mode ICC avoids (Section 1.1)."""
        c = pbft_cluster(corrupt={1: None})
        c.start()
        c.run_for(60.0)
        first_commit = min(r.time for r in c.metrics.commits)
        assert first_commit >= 2.0  # at least one view timeout elapsed
