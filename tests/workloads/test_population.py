"""Population model: RNG isolation, arrival processes, closed loop."""

from random import Random

from repro.core.cluster import ClusterConfig, build_cluster
from repro.sim.delays import FixedDelay, UniformDelay
from repro.workloads.batching import BatchSpec, RequestBatcher
from repro.workloads.population import ClientPopulation, PopulationSpec, ZipfSampler


def _cluster(batcher, seed=1, n=4):
    config = ClusterConfig(
        n=n, t=1, delta_bound=0.2, epsilon=0.001, seed=seed,
        delay_model=FixedDelay(0.05),
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
    )
    cluster = build_cluster(config)
    batcher.bind(cluster)
    return cluster


def test_install_leaves_sim_rng_untouched():
    """The load-pipeline bugfix contract: installing a population draws
    every sample from its own stream, so the simulation RNG state — and
    therefore every subsequent delay sample — is bit-identical with and
    without load."""
    batcher = RequestBatcher(BatchSpec(), seed=3)
    population = ClientPopulation(
        PopulationSpec(clients=10, rate_per_second=50.0, poisson=True),
        batcher,
        seed=3,
    )
    cluster = _cluster(batcher)
    before = cluster.sim.rng.getstate()
    population.install(cluster, duration=2.0)
    assert cluster.sim.rng.getstate() == before


def test_load_does_not_perturb_consensus_schedule():
    """End to end under a *randomized* delay model (which draws from
    sim.rng per message): enabling load must not shift any delay sample,
    so the consensus schedule — commit times per round — is bit-identical
    with and without load."""
    def commit_times(with_load: bool):
        batcher = RequestBatcher(BatchSpec(), seed=5)
        population = ClientPopulation(
            PopulationSpec(clients=10, rate_per_second=40.0, poisson=True),
            batcher,
            seed=5,
        )
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.001, seed=5,
            delay_model=UniformDelay(0.02, 0.08),
            payload_source=batcher.payload_source,
            payload_verifier=batcher.verify_block,
        )
        cluster = build_cluster(config)
        batcher.bind(cluster)
        if with_load:
            population.install(cluster, duration=1.5)
        times = []
        cluster.party(1).commit_listeners.append(
            lambda block: times.append((block.round, cluster.sim.now))
        )
        cluster.start()
        cluster.run_for(2.0)
        cluster.check_safety()
        return times

    assert commit_times(True) == commit_times(False)


def test_zipf_sampler_deterministic_and_skewed():
    sampler = ZipfSampler(1000, 1.2)
    a = [sampler.sample(Random("x")) for _ in range(50)]
    b = [sampler.sample(Random("x")) for _ in range(50)]
    assert a == b
    draws = [sampler.sample(Random(f"zipf/{i}")) for i in range(500)]
    # Rank 0 must dominate any deep tail rank under s=1.2 skew.
    assert draws.count(0) > sum(1 for d in draws if d >= 500)


def test_zipf_zero_skew_is_uniformish():
    sampler = ZipfSampler(10, 0.0)
    rng = Random(0)
    draws = [sampler.sample(rng) for _ in range(2000)]
    assert set(draws) == set(range(10))


def test_open_loop_deterministic_arrivals_count():
    batcher = RequestBatcher(BatchSpec(), seed=9)
    population = ClientPopulation(
        PopulationSpec(clients=5, rate_per_second=20.0, poisson=False),
        batcher,
        seed=9,
    )
    cluster = _cluster(batcher, seed=9)
    population.install(cluster, duration=2.0)
    cluster.start()
    cluster.run_for(3.0)
    # Deterministic spacing: one arrival every 1/20 s over [0, 2) minus the
    # first interval offset = 39 requests, all committed.
    assert batcher.submitted == 39
    assert batcher.completed == 39


def test_closed_loop_keeps_one_request_in_flight_per_client():
    clients = 6
    batcher = RequestBatcher(BatchSpec(), seed=12)
    population = ClientPopulation(
        PopulationSpec(clients=clients, mode="closed", think_time=0.0,
                       key_space=32, payload_bytes=32),
        batcher,
        seed=12,
    )
    cluster = _cluster(batcher, seed=12)
    population.install(cluster, duration=2.0)
    cluster.start()
    cluster.run_for(3.0)
    assert batcher.completed > clients  # clients resubmitted after commits
    # Per-client sequence numbers are dense: client c sent seqs 0..k.
    per_client = {}
    for rid in batcher.committed_ids:
        client = int.from_bytes(rid[2:6], "big")
        per_client.setdefault(client, []).append(int.from_bytes(rid[6:12], "big"))
    assert set(per_client) == set(range(clients))
    for seqs in per_client.values():
        assert sorted(seqs) == list(range(len(seqs)))


def test_zero_rate_population_is_a_noop():
    batcher = RequestBatcher(BatchSpec(), seed=1)
    population = ClientPopulation(
        PopulationSpec(clients=5, rate_per_second=0.0), batcher, seed=1
    )
    cluster = _cluster(batcher, seed=1)
    population.install(cluster, duration=2.0)
    cluster.start()
    cluster.run_for(2.5)
    assert batcher.submitted == 0
    assert population.generated == 0
