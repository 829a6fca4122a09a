"""Tests for the Tendermint baseline."""

from __future__ import annotations

import pytest

from repro.baselines import TendermintParty
from repro.core import ClusterConfig, build_cluster
from repro.sim.delays import FixedDelay


def tendermint_cluster(
    n=4, t=1, delay=0.05, seed=1, corrupt=None, timeout_commit=0.5, **kwargs
):
    config = ClusterConfig(
        party_class=TendermintParty,
        n=n,
        t=t,
        seed=seed,
        delay_model=FixedDelay(delay),
        corrupt=corrupt or {},
        extra_party_kwargs={
            "timeout_propose": 2.0,
            "timeout_step": 2.0,
            "timeout_commit": timeout_commit,
            **kwargs,
        },
    )
    return build_cluster(config)


class TestHappyPath:
    def test_commits(self):
        c = tendermint_cluster()
        c.start()
        assert c.run_until_all_committed_round(8, timeout=100)
        c.check_safety()

    def test_decide_latency_three_delta(self):
        delta = 0.05
        c = tendermint_cluster(delay=delta)
        c.start()
        c.run_until_all_committed_round(6, timeout=100)
        for latency in c.metrics.commit_latencies():
            assert latency == pytest.approx(3 * delta, rel=0.05)

    def test_not_optimistically_responsive(self):
        """Height time ≈ timeout_commit + 3δ regardless of how small δ is."""
        delta = 0.01
        timeout_commit = 1.0
        c = tendermint_cluster(delay=delta, timeout_commit=timeout_commit)
        c.start()
        c.run_until_all_committed_round(5, timeout=100)
        records = c.metrics.commits_of(1)
        times = sorted(r.time for r in records)
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert gap >= timeout_commit
            assert gap == pytest.approx(timeout_commit + 3 * delta, rel=0.1)

    def test_proposer_rotates(self):
        c = tendermint_cluster()
        c.start()
        c.run_until_all_committed_round(8, timeout=100)
        proposers = [b.proposer for b in c.party(1).output_log]
        assert len(set(proposers)) == 4


class TestFaults:
    def test_crashed_proposer_round_advances(self):
        c = tendermint_cluster(corrupt={1: None})
        c.start()
        assert c.run_until_all_committed_round(5, timeout=300)
        c.check_safety()
        proposers = {b.proposer for b in c.party(2).output_log}
        assert 1 not in proposers

    def test_two_crashes_in_seven(self):
        c = tendermint_cluster(n=7, t=2, corrupt={1: None, 4: None})
        c.start()
        assert c.run_until_all_committed_round(6, timeout=600)
        c.check_safety()

    def test_crashed_proposer_heights_cost_timeouts(self):
        c = tendermint_cluster(corrupt={1: None})
        c.start()
        c.run_until_all_committed_round(5, timeout=300)
        records = c.metrics.commits_of(2)
        times = sorted(r.time for r in records)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps, default=0) >= 2.0  # nil-round timeouts


class TestLocking:
    def test_locked_value_repropose(self):
        """After a quorum of prevotes a validator locks; the next round's
        proposer (possibly another party) must re-propose the locked batch,
        so no two different batches can commit at one height."""
        c = tendermint_cluster(n=4, t=1)
        c.start()
        c.run_until_all_committed_round(6, timeout=100)
        by_height: dict[int, set[bytes]] = {}
        for p in c.honest_parties:
            for b in p.output_log:
                by_height.setdefault(b.height, set()).add(b.digest)
        assert all(len(digests) == 1 for digests in by_height.values())
