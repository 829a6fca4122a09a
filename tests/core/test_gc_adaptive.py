"""Tests for pool garbage collection (``ClusterConfig.gc_depth``)."""

from __future__ import annotations

from repro.core import ClusterConfig, build_cluster
from repro.sim.delays import FixedDelay


class TestGarbageCollection:
    def test_pool_memory_bounded(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.005,
            delay_model=FixedDelay(0.02), seed=1, gc_depth=5, max_rounds=60,
        )
        cluster = build_cluster(config)
        cluster.start()
        sizes = []
        for _ in range(6):
            cluster.run_for(0.5)
            sizes.append(cluster.party(1).pool.artifact_count())
        cluster.check_safety()
        assert cluster.min_committed_round() >= 30
        # Pool size plateaus instead of growing linearly with rounds.
        assert sizes[-1] < sizes[1] * 2

    def test_unbounded_without_gc(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.005,
            delay_model=FixedDelay(0.02), seed=1, max_rounds=60, gc_depth=None,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_for(1.0)
        early = cluster.party(1).pool.artifact_count()
        cluster.run_for(2.0)
        late = cluster.party(1).pool.artifact_count()
        assert late > early * 1.8  # grows with rounds

    def test_gc_with_byzantine_parties(self):
        from repro.adversary import EquivocatingProposerMixin, corrupt_class
        from repro.core.icc0 import ICC0Party

        config = ClusterConfig(
            n=7, t=2, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), seed=2, gc_depth=5, max_rounds=20,
            corrupt={1: corrupt_class(ICC0Party, EquivocatingProposerMixin), 2: None},
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(18, timeout=300)
        cluster.check_safety()

    def test_prune_returns_count_and_removes(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), seed=1, max_rounds=10,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=60)
        pool = cluster.party(1).pool
        before = pool.artifact_count()
        removed = pool.prune(5)
        assert removed > 0
        assert pool.artifact_count() < before
        assert not pool.notarized_blocks(3)
        assert pool.notarized_blocks(7)  # recent rounds retained
