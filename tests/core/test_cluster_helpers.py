"""Tests for cluster assembly helpers and a long soak run."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core import ClusterConfig, build_cluster
from repro.sim.delays import FixedDelay, UniformDelay


def run_happy_path(n=4, rounds=5, delta=0.1, seed=0, **overrides):
    """A fault-free t = 0 cluster on a fixed-delay network, run until every
    party has committed ``rounds``."""
    config = ClusterConfig(
        n=n,
        t=0,
        delta_bound=delta * 2,
        delay_model=FixedDelay(delta),
        max_rounds=rounds + 2,
        seed=seed,
        **overrides,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds)
    return cluster


class TestClusterHelpers:
    def test_party_lookup(self):
        cluster = run_happy_path(n=4, rounds=2)
        assert cluster.party(3).index == 3

    def test_honest_parties_excludes_corrupt(self):
        config = ClusterConfig(
            n=4, t=1, delay_model=FixedDelay(0.05), corrupt={2: None}, seed=1
        )
        cluster = build_cluster(config)
        assert [p.index for p in cluster.honest_parties] == [1, 3, 4]

    def test_run_until_timeout_returns_false(self):
        config = ClusterConfig(
            n=4, t=1, delay_model=FixedDelay(0.05), max_rounds=3, seed=1
        )
        cluster = build_cluster(config)
        cluster.start()
        assert not cluster.run_until_all_committed_round(100, timeout=2.0)

    def test_check_safety_detects_forged_divergence(self):
        cluster = run_happy_path(n=4, rounds=3)
        # Forge a divergent log on one party.
        victim = cluster.party(2)
        victim.output_log[0] = victim.output_log[1]
        with pytest.raises(AssertionError):
            cluster.check_safety()

    def test_min_max_committed(self):
        cluster = run_happy_path(n=4, rounds=4)
        assert cluster.min_committed_round() <= cluster.max_committed_round()
        assert cluster.min_committed_round() >= 4

    def test_metrics_bytes_conserved_across_kinds(self):
        """Per-party byte totals equal the per-kind decomposition."""
        cluster = run_happy_path(n=4, rounds=5)
        total_by_party = sum(cluster.metrics.bytes_sent.values())
        total_by_kind = sum(cluster.metrics.bytes_by_kind.values())
        assert total_by_party == total_by_kind
        msgs_by_party = sum(cluster.metrics.msgs_sent.values())
        msgs_by_kind = sum(cluster.metrics.msgs_by_kind.values())
        assert msgs_by_party == msgs_by_kind


class TestOneAssembly:
    def test_only_core_cluster_derives_keys_and_params(self):
        """A party is assembled in one place: under ``src/repro`` nothing but
        ``core/cluster.py`` calls ``generate_keyrings`` or constructs
        ``ProtocolParams``, so a second wiring cannot appear unnoticed."""
        package = pathlib.Path(repro.__file__).parent
        callers = set()
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("generate_keyrings", "ProtocolParams"):
                    callers.add((path.relative_to(package).as_posix(), name))
        assert callers == {
            ("core/cluster.py", "generate_keyrings"),
            ("core/cluster.py", "ProtocolParams"),
        }


class TestSoak:
    def test_200_round_soak_with_gc_and_jitter(self):
        """A longer run: jittered network, GC on, full commit coverage."""
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.4, epsilon=0.005,
            delay_model=UniformDelay(0.005, 0.08), seed=77,
            max_rounds=200, gc_depth=8,
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(200, timeout=600)
        cluster.check_safety()
        observer = cluster.party(1)
        rounds = [b.round for b in observer.output_log]
        assert rounds == list(range(1, 201))
        # GC kept the pool bounded.
        assert observer.pool.artifact_count() < 700
