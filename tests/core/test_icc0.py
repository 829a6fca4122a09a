"""Integration tests for Protocol ICC0 — fault-free behaviour and timing."""

from __future__ import annotations

import pytest

from repro.adversary import SilentMixin, corrupt_class
from repro.core import ClusterConfig, ICC0Party, Payload, build_cluster
from repro.faults import LinkFault, PartitionFault, Scenario, install_scenario
from repro.sim.delays import FixedDelay, UniformDelay

from .test_cluster_helpers import run_happy_path


class TestHappyPath:
    def test_commits_and_safety(self):
        cluster = run_happy_path(n=4, rounds=5)
        cluster.check_safety()
        assert all(p.k_max >= 5 for p in cluster.parties)

    def test_identical_outputs(self):
        cluster = run_happy_path(n=4, rounds=5)
        logs = [p.committed_hashes[:5] for p in cluster.parties]
        assert all(log == logs[0] for log in logs)

    def test_one_block_per_round(self):
        """The committed chain has exactly one block at every depth."""
        cluster = run_happy_path(n=4, rounds=6)
        rounds = [b.round for b in cluster.party(1).output_log]
        assert rounds == list(range(1, len(rounds) + 1))

    def test_deterministic_given_seed(self):
        a = run_happy_path(n=4, rounds=5, seed=3)
        b = run_happy_path(n=4, rounds=5, seed=3)
        assert a.party(1).committed_hashes == b.party(1).committed_hashes

    def test_different_seeds_choose_different_leaders(self):
        a = run_happy_path(n=7, rounds=5, seed=1)
        b = run_happy_path(n=7, rounds=5, seed=2)
        assert [x.proposer for x in a.party(1).output_log] != [
            x.proposer for x in b.party(1).output_log
        ]

    def test_various_sizes(self):
        for n in (1, 2, 4, 10):
            cluster = run_happy_path(n=n, rounds=3, seed=n)
            cluster.check_safety()
            assert cluster.min_committed_round() >= 3


class TestSteadyStateTiming:
    def test_round_time_is_two_delta(self):
        """Reciprocal throughput 2δ with honest leader + synchrony (§1)."""
        delta = 0.05
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.0005,
            delay_model=FixedDelay(delta), max_rounds=12, seed=1,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(10, timeout=60)
        durations = cluster.metrics.round_durations(1)
        steady = [v for k, v in durations.items() if 2 <= k <= 10]
        for d in steady:
            assert d == pytest.approx(2 * delta, rel=0.05)

    def test_latency_is_three_delta(self):
        delta = 0.05
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.0005,
            delay_model=FixedDelay(delta), max_rounds=12, seed=1,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(10, timeout=60)
        for latency in cluster.metrics.commit_latencies():
            assert latency == pytest.approx(3 * delta, rel=0.05)

    def test_only_leader_proposes_under_synchrony(self):
        """With an honest leader and synchrony, nobody else broadcasts a
        block (the Δprop delays do their job, Section 3.5)."""
        config = ClusterConfig(
            n=7, t=2, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=10, seed=2,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(9, timeout=60)
        proposals = cluster.metrics.counters["blocks-proposed"]
        leader_proposals = cluster.metrics.counters["leader-proposals"]
        assert proposals == leader_proposals

    def test_one_distinct_block_per_synchronous_round(self):
        """'the total number of distinct blocks broadcast by all the honest
        parties is typically O(1)' (Section 1) — with synchrony and honest
        leaders it is exactly one per round."""
        config = ClusterConfig(
            n=7, t=2, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=10, seed=3,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(9, timeout=60)
        for round in range(1, 10):
            distinct = {
                h
                for party in cluster.parties
                for h in party.pool._blocks_by_round.get(round, ())
            }
            assert len(distinct) == 1

    def test_epsilon_throttles_round_rate(self):
        """The governor ε slows rounds down (Section 3.5)."""

        def round_time(epsilon):
            config = ClusterConfig(
                n=4, t=1, delta_bound=0.5, epsilon=epsilon,
                delay_model=FixedDelay(0.02), max_rounds=8, seed=1,
            )
            cluster = build_cluster(config)
            cluster.start()
            cluster.run_until_all_committed_round(6, timeout=60)
            durations = cluster.metrics.round_durations(1)
            return sum(durations.values()) / len(durations)

        assert round_time(0.5) > round_time(0.01) + 0.3


class TestPayloads:
    def test_commands_flow_through(self):
        def source(party, round, chain):
            return Payload(commands=(f"cmd-{round}-{party.index}".encode(),))

        cluster = run_happy_path(n=4, rounds=5, payload_source=source)
        commands = cluster.party(1).output_commands()
        assert len(commands) >= 5
        assert all(c.startswith(b"cmd-") for c in commands)

    def test_proposer_sees_parent_chain(self):
        seen_chains = []

        def source(party, round, chain):
            seen_chains.append((round, [b.round for b in chain]))
            return Payload()

        run_happy_path(n=4, rounds=4, payload_source=source)
        for round, chain_rounds in seen_chains:
            assert chain_rounds == list(range(1, round))


class TestJitteredNetwork:
    def test_safety_and_liveness_with_jitter(self):
        config = ClusterConfig(
            n=7, t=2, delta_bound=0.3, epsilon=0.02,
            delay_model=UniformDelay(0.01, 0.2), max_rounds=15, seed=4,
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(12, timeout=300)
        cluster.check_safety()


class TestPartialSynchrony:
    def test_commits_after_gst(self):
        """Asynchronous until GST = 20 s (up to 8 s of extra delay per
        message): safety always, liveness after GST."""
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.02, seed=5,
            delay_model=FixedDelay(0.05), max_rounds=40,
        )
        cluster = build_cluster(config)
        install_scenario(cluster, Scenario(
            name="gst", events=(LinkFault(start=0.0, end=20.0, jitter=8.0),)
        ))
        cluster.start()
        cluster.run_for(19.0)
        cluster.check_safety()
        committed_before = cluster.max_committed_round()
        cluster.run_for(30.0)
        cluster.check_safety()
        assert cluster.min_committed_round() > committed_before

    def test_partition_heals(self):
        """A partitioned minority catches up after the partition heals."""
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.02, seed=6,
            delay_model=FixedDelay(0.05), max_rounds=60,
        )
        cluster = build_cluster(config)
        install_scenario(cluster, Scenario(name="cut", events=(
            PartitionFault(at=0.0, group=(4,), heal_at=10.0),
        )))
        cluster.start()
        cluster.run_for(9.0)
        assert cluster.party(4).k_max == 0  # cut off
        assert cluster.party(1).k_max > 10  # majority continues
        cluster.run_for(30.0)
        cluster.check_safety()
        assert cluster.party(4).k_max >= cluster.party(1).k_max - 2


class TestEdgeCases:
    def test_single_party_cluster(self):
        cluster = run_happy_path(n=1, rounds=4)
        assert cluster.party(1).k_max >= 4

    def test_max_rounds_stops_protocol(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=5, seed=1,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_for(60.0)
        assert all(p.k_max == 5 for p in cluster.parties)
        assert all(p.round <= 6 for p in cluster.parties)

    def test_corrupt_count_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n=4, t=0, corrupt={1: None})
        # An index outside 1..n names no party: it must not be dropped
        # silently (a factory) or fail later in the network (a crash).
        for index in (0, 5):
            for factory in (corrupt_class(ICC0Party, SilentMixin), None):
                with pytest.raises(ValueError, match="outside 1..4"):
                    ClusterConfig(n=4, t=1, corrupt={index: factory})

    def test_wrong_tracer_type(self):
        with pytest.raises(TypeError):
            ClusterConfig(n=4, t=1, tracer="trace.jsonl")
