"""Tests for workload generation and mempool payload sources."""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.sim.delays import FixedDelay
from repro.workloads import (
    MempoolWorkload,
    WorkloadSpec,
    fixed_size_source,
    management_only_source,
)


def make_cluster(workload, n=4, rounds=30, seed=2):
    config = ClusterConfig(
        n=n,
        t=1,
        delta_bound=0.3,
        epsilon=0.01,
        delay_model=FixedDelay(0.05),
        max_rounds=rounds,
        seed=seed,
        payload_source=workload.payload_source,
    )
    return build_cluster(config)


class TestStaticSources:
    def test_management_only(self):
        source = management_only_source(management_bytes=128)
        payload = source(None, 1, [])
        assert payload.wire_size() == 128 + 4
        assert not payload.commands

    def test_fixed_size(self):
        source = fixed_size_source(10_000)
        assert source(None, 1, []).wire_size() == 10_004


class TestMempoolWorkload:
    def test_all_requests_eventually_committed(self):
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=40, payload_bytes=64), seed=1)
        cluster = make_cluster(wl)
        wl.install(cluster, duration=1.5)
        cluster.start()
        cluster.run_for(20.0)
        cluster.check_safety()
        commands = cluster.party(1).output_commands()
        assert len(commands) == wl.submitted
        assert wl.submitted == 60

    def test_no_duplicates_across_blocks(self):
        """Chain-aware getPayload never re-includes a command (Section 3.3)."""
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=40, payload_bytes=64), seed=1)
        cluster = make_cluster(wl)
        wl.install(cluster, duration=1.5)
        cluster.start()
        cluster.run_for(20.0)
        commands = cluster.party(1).output_commands()
        assert len(commands) == len(set(commands))

    def test_payload_bytes_respected(self):
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=10, payload_bytes=1024), seed=1)
        cluster = make_cluster(wl)
        wl.install(cluster, duration=1.0)
        cluster.start()
        cluster.run_for(10.0)
        for block in cluster.party(1).output_log:
            for command in block.payload.commands:
                assert len(command) == 1024

    def test_poisson_arrivals(self):
        wl = MempoolWorkload(
            WorkloadSpec(rate_per_second=50, payload_bytes=32, poisson=True), seed=4
        )
        cluster = make_cluster(wl)
        wl.install(cluster, duration=2.0)
        cluster.start()
        cluster.run_for(15.0)
        # Poisson(100) arrivals: loose sanity band.
        assert 60 <= wl.submitted <= 150

    def test_max_block_commands_cap(self):
        wl = MempoolWorkload(
            WorkloadSpec(rate_per_second=200, payload_bytes=16, max_block_commands=5),
            seed=5,
        )
        cluster = make_cluster(wl)
        wl.install(cluster, duration=2.0)
        cluster.start()
        cluster.run_for(15.0)
        for block in cluster.party(1).output_log:
            assert len(block.payload.commands) <= 5

    def test_ingress_accounting(self):
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=20, payload_bytes=100), seed=6)
        cluster = make_cluster(wl)
        wl.install(cluster, duration=1.0, ingress_degree=4)
        cluster.start()
        cluster.run_for(5.0)
        ingress_bytes = cluster.metrics.bytes_by_kind["ingress"]
        # submitted requests × 4 parties × (degree/2) copies × 100 bytes
        assert ingress_bytes == wl.submitted * 4 * 2 * 100
        assert wl.submitted > 0

    def test_zero_rate_is_noop(self):
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=0, payload_bytes=100))
        cluster = make_cluster(wl)
        wl.install(cluster, duration=10.0)
        cluster.start()
        cluster.run_for(5.0)
        assert wl.submitted == 0

    def test_pruning_bounds_mempool(self):
        wl = MempoolWorkload(WorkloadSpec(rate_per_second=40, payload_bytes=64), seed=7)
        cluster = make_cluster(wl)
        wl.install(cluster, duration=1.5)
        cluster.start()
        cluster.run_for(20.0)
        # All committed commands were pruned from every mempool.
        assert all(not pending for pending in wl._pending.values())
