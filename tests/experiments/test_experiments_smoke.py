"""Smoke tests for the experiment harness (small parameters).

The full experiment runs are `python -m repro experiments`, which checks
every paper claim on them; these tests confirm every experiment module
executes end-to-end and produces sane shapes.
"""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.experiments import (
    comparison,
    dissemination,
    message_complexity,
    properties,
    responsiveness,
    robustness,
    round_complexity,
    runner,
    table1,
    throughput_latency,
)
from repro.sim.delays import FixedDelay
from repro.workloads import BatchSpec, ClientPopulation, PopulationSpec, RequestBatcher


class TestThroughputLatency:
    def test_icc0_numbers(self):
        r = throughput_latency.run_one("ICC0", delta=0.05, n=4, rounds=10)
        assert r.round_time_in_delta == pytest.approx(2.0, rel=0.05)
        assert r.latency_in_delta == pytest.approx(3.0, rel=0.05)

    def test_icc2_numbers(self):
        # n=7 so the erasure threshold k = t+1 = 3 forces a real echo round
        # (with k <= 2 the dealer's send + own echo already reconstruct, and
        # ICC2 legitimately runs one δ faster than the paper's 3δ/4δ).
        r = throughput_latency.run_one("ICC2", delta=0.05, n=7, rounds=10)
        assert r.round_time_in_delta == pytest.approx(3.0, rel=0.05)
        assert r.latency_in_delta == pytest.approx(4.0, rel=0.05)


class TestMessageComplexity:
    def test_synchronous_quadratic(self):
        points = [message_complexity.synchronous_point(n, rounds=6) for n in (4, 10)]
        # msgs/n² stays flat while msgs/n³ halves: quadratic scaling.
        assert points[0].per_n2 == pytest.approx(points[1].per_n2, rel=0.15)
        assert points[1].per_n3 < points[0].per_n3

    def test_worst_case_cubic(self):
        points = [message_complexity.worst_case_point(n, rounds=4) for n in (4, 10)]
        # msgs/n² grows with n (super-quadratic) under the adversary.
        assert points[1].per_n2 > points[0].per_n2 * 1.5


class TestRoundComplexity:
    def test_constant_expected_gap(self):
        r = round_complexity.run_one(7, rounds=40)
        assert r.all_rounds_eventually_committed
        assert r.mean_gap <= r.expected_mean_gap + 0.5
        assert r.max_gap <= 8  # O(log n) tail at n=7


class TestRobustness:
    def test_icc_degrades_gracefully_pbft_collapses(self):
        results = {(r.protocol, r.scenario): r.blocks_per_second
                   for r in runner.run_experiment(robustness, n=10, duration=40.0)}
        icc_retention = (
            results[("ICC0", "slow-leader attack")] / results[("ICC0", "fault-free")]
        )
        pbft_retention = (
            results[("PBFT", "slow-leader attack")] / results[("PBFT", "fault-free")]
        )
        assert icc_retention > 3 * pbft_retention
        assert results[("ICC0", "slow-leader attack")] > 0.5  # still live


class TestResponsiveness:
    def test_icc_tracks_delta_tendermint_does_not(self):
        r = responsiveness.run_point(delta=0.01, n=4, blocks=8)
        assert r.icc0_block_time == pytest.approx(0.02, rel=0.1)  # 2δ
        assert r.tendermint_block_time >= responsiveness.DELTA_BOUND * 0.9


class TestDissemination:
    def test_leader_bottleneck_ranking(self):
        size = 200_000
        icc0 = dissemination.run_one("ICC0", size, n=10, rounds=5)
        icc1 = dissemination.run_one("ICC1", size, n=10, rounds=5)
        icc2 = dissemination.run_one("ICC2", size, n=10, rounds=5)
        # ICC0's bottleneck ≈ (n-1)·S; ICC1 and ICC2 are far below it.
        assert icc0.max_in_s > 8
        assert icc1.max_in_s < icc0.max_in_s / 3
        assert icc2.max_in_s < icc0.max_in_s / 2


class TestComparison:
    def test_ordering_matches_paper(self):
        rows = {r.protocol: r
                for r in runner.run_experiment(comparison, delta=0.05, n=4, blocks=15)}
        assert rows["ICC0"].block_time_in_delta == pytest.approx(2.0, rel=0.1)
        assert rows["PBFT"].block_time_in_delta == pytest.approx(3.0, rel=0.1)
        assert rows["HotStuff"].latency_in_delta > rows["ICC0"].latency_in_delta
        assert rows["Tendermint"].block_time_in_delta > 10


class TestProperties:
    def test_sweeps_pass(self):
        verdicts = runner.run_experiment(properties, trials=3, liveness_trials=3)
        assert [v.trials for v in verdicts] == [3, 3]
        assert all(v.ok for v in verdicts)


class TestTable1:
    def test_small_subnet_cell(self):
        cell = table1.run_cell(13, "without load", duration=30.0)
        assert 0.8 <= cell.blocks_per_second <= 1.5  # paper: 1.09

    def test_failure_cell_slower(self):
        loaded = table1.run_cell(13, "with load", duration=30.0)
        failed = table1.run_cell(13, "load + failures", duration=30.0)
        assert failed.blocks_per_second < loaded.blocks_per_second * 0.75

    def test_gossip_copies_per_delivered_artifact(self, monkeypatch):
        """On the 40-node no-load cell every party passes each artifact on
        to its d - 1 = 3 other neighbours, never back to its sender: about
        3.2 copies per delivery (about 4.2 when each copy echoed)."""
        import repro.core.cluster as cluster_module

        build = cluster_module.build_cluster
        built, delivered = [], [0]

        def counted(deliver):
            def count(artifact):
                delivered[0] += 1
                deliver(artifact)

            return count

        def counting_build(config):
            cluster = build(config)
            for party in cluster.parties:
                party.gossip.deliver = counted(party.gossip.deliver)
            built.append(cluster)
            return cluster

        monkeypatch.setattr(cluster_module, "build_cluster", counting_build)
        table1.run_cell(40, "without load", duration=20.0)
        kinds = built[0].metrics.msgs_by_kind
        copies = sum(v for k, v in kinds.items() if k.startswith(("gossip-push", "gossip-body")))
        assert delivered[0] > 40_000
        assert copies / delivered[0] <= 3.2

    def test_ingress_counts_admitted_requests_twice(self):
        """Each admitted request, committed or still queued when the window
        closes, is sent d/2 = 2 times by every live node."""
        batcher = RequestBatcher(BatchSpec(), seed=6)
        population = ClientPopulation(
            PopulationSpec(rate_per_second=20.0, payload_bytes=100), batcher, seed=6
        )
        cluster = build_cluster(ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.01, delay_model=FixedDelay(0.05),
            seed=6, payload_source=batcher.payload_source,
            payload_verifier=batcher.verify_block,
        ))
        batcher.bind(cluster)
        population.install(cluster, duration=1.0)
        cluster.start()
        cluster.run_for(1.0)
        assert batcher.completed > 0 and batcher.queue_depth > 0
        wire = 18 + 32 + 100  # header, fast authenticator, body
        ingress = table1.ingress_bytes_per_node(batcher, cluster.honest_parties[0])
        assert ingress == 2 * batcher.submitted * wire == 2 * 19 * wire
