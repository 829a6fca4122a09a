"""Tests for the embeddable cluster API (embed_cluster).

The pin the sharding subsystem stands on: two clusters embedded in ONE
Simulation must produce exactly the finalized chains each would produce
running standalone with the same seed — under fixed *and* random delay
models (the latter proves the per-cluster RNG streams are isolated, not
merely unused).  Plus: namespaced trace streams and per-cluster metrics
stay separate, the simulation's own tracer is restored after embedding,
and config validation rejects wrong protocol types.
"""

from __future__ import annotations

import pytest

from repro.core import Cluster, ClusterConfig, build_cluster, embed_cluster
from repro.obs import Tracer
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.simulator import Simulation


def _config(seed, delay_model, rounds=10):
    return ClusterConfig(
        n=4, t=1, delta_bound=0.3, epsilon=0.005,
        delay_model=delay_model, seed=seed, max_rounds=rounds,
    )


def _committed_hashes(cluster):
    return cluster.honest_parties[0].committed_hashes


def _standalone_chain(seed, delay_model, rounds=10):
    cluster = build_cluster(_config(seed, delay_model, rounds))
    cluster.start()
    cluster.sim.run(until=120.0)
    cluster.check_safety()
    return _committed_hashes(cluster)


class TestBitIdenticalEmbedding:
    @pytest.mark.parametrize(
        "delay_model_factory",
        [lambda: FixedDelay(0.05), lambda: UniformDelay(0.01, 0.12)],
        ids=["fixed-delay", "uniform-delay"],
    )
    def test_two_embedded_equal_two_standalone(self, delay_model_factory):
        sim = Simulation(seed=999)
        clusters = {}
        for name, seed in (("alpha", 11), ("beta", 22)):
            clusters[name] = embed_cluster(
                name, _config(seed, delay_model_factory()), sim
            )
            clusters[name].start()
        sim.run(until=120.0)
        for cluster in clusters.values():
            cluster.check_safety()

        for name, seed in (("alpha", 11), ("beta", 22)):
            embedded = _committed_hashes(clusters[name])
            standalone = _standalone_chain(seed, delay_model_factory())
            assert embedded, f"{name}: no commits"
            assert embedded == standalone, (
                f"{name}: embedded chain diverged from standalone"
            )

    def test_sibling_does_not_perturb(self):
        """Adding a THIRD cluster must not change the other two's chains —
        per-cluster RNG streams draw independently of who else runs."""

        def run(names_seeds):
            sim = Simulation(seed=5)
            clusters = {}
            for name, seed in names_seeds:
                clusters[name] = embed_cluster(
                    name, _config(seed, UniformDelay(0.01, 0.12)), sim
                )
                clusters[name].start()
            sim.run(until=120.0)
            return {n: _committed_hashes(c) for n, c in clusters.items()}

        two = run([("alpha", 11), ("beta", 22)])
        three = run([("alpha", 11), ("beta", 22), ("gamma", 33)])
        assert two["alpha"] == three["alpha"]
        assert two["beta"] == three["beta"]


class TestNamespacedStreams:
    def test_traces_and_metrics_are_separated(self):
        sim = Simulation(seed=1)
        sim.tracer = Tracer()
        a = embed_cluster("alpha", _config(11, FixedDelay(0.05)), sim)
        b = embed_cluster("beta", _config(22, FixedDelay(0.05)), sim)
        a.start()
        b.start()
        sim.run(until=60.0)

        a_commits = a.events("icc.block.committed")
        b_commits = b.events("icc.block.committed")
        assert a_commits and b_commits
        assert all(e.protocol.startswith("alpha/") for e in a_commits)
        assert all(e.protocol.startswith("beta/") for e in b_commits)
        # Each cluster sees only its own slice of the shared sink.
        assert len(a_commits) + len(b_commits) == len(
            sim.tracer.events("icc.block.committed")
        )

        # Each cluster counts into its own Metrics, exactly what it counts
        # standalone.
        assert a.metrics is not b.metrics
        standalone = build_cluster(_config(11, FixedDelay(0.05)))
        standalone.start()
        standalone.sim.run(until=60.0)
        assert sum(a.metrics.msgs_sent.values()) > 0
        assert a.metrics.msgs_sent == standalone.metrics.msgs_sent
        assert a.metrics.commits == standalone.metrics.commits

    def test_sim_sinks_restored_after_embedding(self):
        sim = Simulation(seed=1)
        tracer = Tracer()
        sim.tracer = tracer
        embed_cluster("alpha", _config(11, FixedDelay(0.05)), sim)
        assert sim.tracer is tracer

    def test_handle_delegation(self):
        sim = Simulation(seed=1)
        cluster = embed_cluster("alpha", _config(11, FixedDelay(0.05)), sim)
        assert isinstance(cluster, Cluster)
        assert cluster.name == "alpha"
        assert cluster.sim is sim
        assert cluster.config.namespace == "alpha"
        assert cluster.rng is not None  # the private delay stream
        assert build_cluster(_config(11, FixedDelay(0.05))).name == "cluster11"


class TestConfigValidation:
    def test_wrong_delay_policy_type(self):
        with pytest.raises(TypeError):
            ClusterConfig(n=4, t=1, protocol_delays=0.75)

    def test_wrong_tracer_type(self):
        with pytest.raises(TypeError):
            ClusterConfig(n=4, t=1, tracer="trace.jsonl")

    def test_bad_namespace(self):
        with pytest.raises(ValueError):
            ClusterConfig(n=4, t=1, namespace="a/b")
        with pytest.raises(ValueError):
            ClusterConfig(n=4, t=1, namespace="")
