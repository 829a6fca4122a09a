"""Integration tests for ICC1 (gossip) and ICC2 (reliable broadcast)."""

from __future__ import annotations

import pytest

from repro.adversary import EquivocatingProposerMixin, SilentMixin, corrupt_class
from repro.core import ClusterConfig, Payload, build_cluster
from repro.core.icc1 import ICC1Party
from repro.core.icc2 import ICC2Party
from repro.gossip import build_overlay
from repro.sim.delays import FixedDelay


def icc1_config(n=7, t=2, degree=4, rounds=10, seed=1, delta=0.05, **overrides):
    return ClusterConfig(
        n=n,
        t=t,
        delta_bound=delta * 6,
        epsilon=0.01,
        delay_model=FixedDelay(delta),
        max_rounds=rounds,
        seed=seed,
        party_class=ICC1Party,
        extra_party_kwargs=dict(overlay=build_overlay(n, degree, seed=seed)),
        **overrides,
    )


def icc2_config(n=7, t=2, rounds=10, seed=1, delta=0.05, **overrides):
    return ClusterConfig(
        n=n,
        t=t,
        delta_bound=delta * 6,
        epsilon=0.01,
        delay_model=FixedDelay(delta),
        max_rounds=rounds,
        seed=seed,
        party_class=ICC2Party,
        **overrides,
    )


class TestICC1:
    def test_happy_path(self):
        cluster = build_cluster(icc1_config())
        cluster.start()
        assert cluster.run_until_all_committed_round(8, timeout=120)
        cluster.check_safety()

    def test_sparse_overlay(self):
        cluster = build_cluster(icc1_config(n=13, t=4, degree=3, seed=3))
        cluster.start()
        assert cluster.run_until_all_committed_round(8, timeout=300)
        cluster.check_safety()

    def test_large_blocks_are_pulled_not_pushed(self):
        config = icc1_config(
            payload_source=lambda p, r, c: Payload(filler_bytes=50_000)
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=120)
        kinds = cluster.metrics.bytes_by_kind
        assert any(k.startswith("gossip-body:block") for k in kinds)
        assert not any(k.startswith("gossip-push:block") for k in kinds)

    def test_leader_egress_bounded_by_degree(self):
        """The gossip layer removes the (n-1)·S leader bottleneck."""
        block_size = 100_000
        n, degree = 13, 4
        config = icc1_config(
            n=n, t=4, degree=degree, rounds=6, seed=5,
            payload_source=lambda p, r, c: Payload(filler_bytes=block_size),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=300)
        rounds_done = cluster.party(1).k_max
        max_node = max(cluster.metrics.bytes_sent.values()) / rounds_done
        assert max_node < (degree + 1) * block_size  # far below (n-1)·S

    def test_byzantine_mix_over_gossip(self):
        silent = corrupt_class(ICC1Party, SilentMixin)
        equiv = corrupt_class(ICC1Party, EquivocatingProposerMixin)
        cluster = build_cluster(icc1_config(corrupt={1: silent, 2: equiv}, rounds=12))
        cluster.start()
        assert cluster.run_until_all_committed_round(10, timeout=300)
        cluster.check_safety()

    def test_rounds_follow_gossip_latency(self):
        """ICC1 with a complete overlay is as fast as ICC0 (2δ rounds)."""
        delta = 0.05
        cluster = build_cluster(icc1_config(n=4, t=1, degree=3, delta=delta))
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=60)
        durations = cluster.metrics.round_durations(1)
        steady = [v for k, v in durations.items() if 2 <= k <= 8]
        assert min(steady) == pytest.approx(2 * delta, rel=0.2)


class TestICC2:
    def test_happy_path(self):
        cluster = build_cluster(icc2_config())
        cluster.start()
        assert cluster.run_until_all_committed_round(8, timeout=120)
        cluster.check_safety()

    def test_real_payload_roundtrip(self):
        """ICC2 genuinely serializes, erasure-codes and reconstructs blocks."""
        config = icc2_config(
            payload_source=lambda p, r, c: Payload(commands=(b"op-%d" % r,))
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=120)
        cluster.check_safety()
        commands = cluster.party(1).output_commands()
        assert b"op-3" in commands

    def test_round_time_is_three_delta(self):
        delta = 0.05
        cluster = build_cluster(icc2_config(delta=delta, seed=2))
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=120)
        durations = cluster.metrics.round_durations(1)
        steady = [v for k, v in durations.items() if 2 <= k <= 8]
        for d in steady:
            assert d == pytest.approx(3 * delta, rel=0.1)

    def test_per_party_traffic_is_linear_in_block_size(self):
        """Every party's egress is ~3S (n/(t+1)·S), not (n-1)·S."""
        block_size = 60_000
        n = 10
        config = icc2_config(
            n=n, t=3, rounds=6, seed=4,
            payload_source=lambda p, r, c: Payload(filler_bytes=block_size),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=300)
        rounds_done = cluster.party(1).k_max
        per_node = [v / rounds_done for v in cluster.metrics.bytes_sent.values()]
        expansion = n / (3 + 1)
        for egress in per_node:
            assert egress < (expansion + 1.5) * block_size

    def test_byzantine_mix_over_rbc(self):
        silent = corrupt_class(ICC2Party, SilentMixin)
        equiv = corrupt_class(ICC2Party, EquivocatingProposerMixin)
        cluster = build_cluster(icc2_config(corrupt={1: silent, 2: equiv}, rounds=12))
        cluster.start()
        assert cluster.run_until_all_committed_round(10, timeout=300)
        cluster.check_safety()

    def test_crash_failures(self):
        cluster = build_cluster(icc2_config(corrupt={1: None, 2: None}, rounds=10))
        cluster.start()
        assert cluster.run_until_all_committed_round(8, timeout=300)
        cluster.check_safety()
