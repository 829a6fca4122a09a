"""Tests for the static payload sources and the client load pipeline end to
end: a ClientPopulation feeding a RequestBatcher on a running cluster."""

from __future__ import annotations

from repro.core import ClusterConfig, build_cluster, fixed_size_source
from repro.sim.delays import FixedDelay
from repro.workloads import (
    BatchSpec,
    ClientPopulation,
    PopulationSpec,
    RequestBatcher,
    parse_request,
)


def run_pipeline(population_spec, batch_spec=BatchSpec(), seed=2, duration=1.5, drain=18.5):
    batcher = RequestBatcher(batch_spec, seed=seed)
    population = ClientPopulation(population_spec, batcher, seed=seed)
    config = ClusterConfig(
        n=4,
        t=1,
        delta_bound=0.3,
        epsilon=0.01,
        delay_model=FixedDelay(0.05),
        seed=seed,
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
    )
    cluster = build_cluster(config)
    batcher.bind(cluster)
    population.install(cluster, duration=duration)
    cluster.start()
    cluster.run_for(duration + drain)
    cluster.check_safety()
    return cluster, batcher


class TestStaticSources:
    def test_management_only(self):
        """Table 1's *without load* block: a batcher with nothing admitted
        packs its management bytes alone."""
        source = RequestBatcher(BatchSpec(management_bytes=128)).payload_source
        payload = source(None, 1, [])
        assert payload.wire_size() == 128 + 4
        assert not payload.commands

    def test_fixed_size(self):
        source = fixed_size_source(10_000)
        assert source(None, 1, []).wire_size() == 10_004


class TestClientPipeline:
    def test_all_requests_eventually_committed(self):
        cluster, batcher = run_pipeline(PopulationSpec(rate_per_second=40, payload_bytes=64))
        assert len(cluster.party(1).output_commands()) == batcher.submitted == 60

    def test_no_duplicates_across_blocks(self):
        """Chain-aware getPayload never re-includes a request (Section 3.3)."""
        cluster, _ = run_pipeline(PopulationSpec(rate_per_second=40, payload_bytes=64))
        commands = cluster.party(1).output_commands()
        assert commands and len(commands) == len(set(commands))

    def test_committed_requests_leave_the_queue(self):
        """Every committed request is pruned: the shared queue ends empty."""
        _, batcher = run_pipeline(PopulationSpec(rate_per_second=40, payload_bytes=64), seed=7)
        assert batcher.submitted > 0
        assert batcher.queue_depth == 0

    def test_payload_bytes_respected(self):
        cluster, _ = run_pipeline(
            PopulationSpec(rate_per_second=10, payload_bytes=1024), duration=1.0, drain=9.0
        )
        bodies = [parse_request(c).body for c in cluster.party(1).output_commands()]
        assert bodies and all(len(body) == 1024 for body in bodies)

    def test_poisson_arrivals(self):
        _, batcher = run_pipeline(
            PopulationSpec(rate_per_second=50, payload_bytes=32, poisson=True),
            seed=4, duration=2.0, drain=13.0,
        )
        # Poisson(100) arrivals: loose sanity band.
        assert 60 <= batcher.submitted <= 150

    def test_batch_max_caps_every_block(self):
        cluster, batcher = run_pipeline(
            PopulationSpec(rate_per_second=200, payload_bytes=16),
            BatchSpec(batch_max=5),
            seed=5, duration=2.0, drain=13.0,
        )
        sizes = [len(block.payload.commands) for block in cluster.party(1).output_log]
        assert max(sizes) == 5
        assert batcher.completed == sum(sizes)

