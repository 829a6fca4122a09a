"""Cross-cutting runs: WAN delays × protocols × crypto backends."""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.icc1 import ICC1Party
from repro.core.icc2 import ICC2Party
from repro.crypto.backend import use_backend
from repro.gossip import build_overlay
from repro.sim import FixedDelay
from repro.sim.delays import WanDelay

from ..crypto.test_backend import PowBackend


def wan_config(party="ICC0", n=7, seed=1, backend="fast", max_rounds=10, **overrides):
    from repro.core.icc0 import ICC0Party

    classes = {"ICC0": ICC0Party, "ICC1": ICC1Party, "ICC2": ICC2Party}
    extra = {}
    if party == "ICC1":
        extra = dict(overlay=build_overlay(n, 4, seed=seed))
    return ClusterConfig(
        n=n,
        t=(n - 1) // 3,
        delta_bound=0.3,
        epsilon=0.02,
        delay_model=WanDelay(),
        seed=seed,
        max_rounds=max_rounds,
        party_class=classes[party],
        crypto_backend=backend,
        extra_party_kwargs=extra,
        **overrides,
    )


class TestWanRuns:
    @pytest.mark.parametrize("protocol", ["ICC0", "ICC1", "ICC2"])
    def test_all_protocols_over_wan(self, protocol):
        cluster = build_cluster(wan_config(protocol))
        cluster.start()
        assert cluster.run_until_all_committed_round(8, timeout=300)
        cluster.check_safety()

    def test_wan_round_times_track_actual_delays(self):
        """Optimistic responsiveness on a heterogeneous WAN: rounds finish
        in network time, far below Δbnd-scale."""
        cluster = build_cluster(wan_config("ICC0"))
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=300)
        durations = cluster.metrics.round_durations(1)
        steady = [v for k, v in durations.items() if k >= 2]
        # One-way delays are <= ~55 ms(+jitter); rounds are ~2 slow-hops.
        assert max(steady) < 0.35
        assert sum(steady) / len(steady) < 0.2


class TestRealCryptoBackend:
    @pytest.mark.parametrize("protocol", ["ICC0", "ICC2"])
    def test_protocols_on_real_crypto(self, protocol):
        """Full runs over the actual discrete-log constructions (small
        group): nothing in the protocol logic depends on the fast backend."""
        cluster = build_cluster(
            wan_config(protocol, n=4, backend="real", max_rounds=4)
        )
        cluster.start()
        assert cluster.run_until_all_committed_round(3, timeout=300)
        cluster.check_safety()

    def test_backends_agree_on_protocol_behaviour(self):
        """Same seed and topology: both backends commit the same chain
        shape (leader schedule differs only via beacon values, so compare
        structure, not hashes)."""
        runs = {}
        for backend in ("fast", "real"):
            cluster = build_cluster(
                wan_config("ICC0", n=4, backend=backend, max_rounds=5)
            )
            cluster.start()
            cluster.run_until_all_committed_round(4, timeout=300)
            cluster.check_safety()
            runs[backend] = [b.round for b in cluster.party(1).output_log]
        assert runs["fast"][:4] == runs["real"][:4] == [1, 2, 3, 4]


class TestRunsIdenticalAcrossBackendsAndQueues:
    """Which modexp backend computes the group operations is an
    implementation choice: the same seeded real-crypto cluster must commit
    the identical chain, to the identical round, at the identical simulated
    instant, under each of them."""

    @staticmethod
    def _fingerprint(group_profile="test"):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=6, seed=0,
            crypto_backend="real", group_profile=group_profile,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=120)
        cluster.check_safety()
        return (
            cluster.party(1).committed_hashes,
            cluster.min_committed_round(),
            cluster.sim.now,
        )

    def test_same_chain_round_and_clock(self):
        default = self._fingerprint()
        with use_backend(PowBackend()):
            reference = self._fingerprint()
        assert len(reference[0]) >= 5 and reference[1] >= 5
        assert default == reference

    def test_same_chain_round_and_clock_on_the_512_bit_group(self):
        """The 96-bit group stops at two 64-bit comb words and a 24-element
        chain; the 512-bit one runs the geometry ``sim_n7_real`` runs."""
        default = self._fingerprint("default")
        with use_backend(PowBackend()):
            reference = self._fingerprint("default")
        assert len(reference[0]) >= 5 and reference[1] >= 5
        assert default == reference
