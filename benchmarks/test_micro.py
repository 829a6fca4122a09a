"""Micro-benchmarks: substrate hot paths.

These quantify the simulator's own costs (crypto, erasure coding, event
dispatch) — useful when sizing larger experiments, and a regression guard
on the substrate.
"""

from __future__ import annotations

import itertools
import os
from random import Random

import pytest

from repro.crypto import schnorr, threshold
from repro.crypto.api import verifiers_for
from repro.crypto.group import test_group as make_test_group
from repro.crypto.keyring import generate_keyrings
from repro.erasure.merkle import MerkleTree
from repro.erasure.reed_solomon import CodecParams, decode, encode
from repro.sim.events import CalendarEventQueue, HeapEventQueue
from repro.sim.simulator import Simulation
from repro.workloads.batching import RealClientAuth, SignedRequest


class TestCryptoMicro:
    def test_schnorr_sign(self, benchmark):
        group = make_test_group()
        rng = Random(1)
        keys = schnorr.keygen(group, rng)
        benchmark(lambda: schnorr.sign(group, keys.secret, b"message", rng))

    def test_schnorr_verify(self, benchmark):
        group = make_test_group()
        rng = Random(1)
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"message", rng)
        verify = verifiers_for(group).schnorr.verify
        benchmark(lambda: verify(keys.public, b"message", sig))

    def test_threshold_share_sign(self, benchmark):
        group = make_test_group()
        rng = Random(1)
        pk, keys = threshold.keygen(group, threshold=5, n=13, rng=rng)
        benchmark(lambda: threshold.sign_share(pk, keys[0], b"beacon", rng))

    def test_threshold_combine(self, benchmark):
        group = make_test_group()
        rng = Random(1)
        pk, keys = threshold.keygen(group, threshold=5, n=13, rng=rng)
        shares = [threshold.sign_share(pk, k, b"beacon", rng) for k in keys[:5]]
        benchmark(lambda: threshold.combine(pk, b"beacon", shares))

    def test_fast_backend_notary_share(self, benchmark):
        rings = generate_keyrings(13, 4, backend="fast")
        benchmark(lambda: rings[0].sign_notary_share(b"message"))


class TestKeyringMicro:
    """The calls ``sim_n7_real`` makes, at its sizes: n = 7, the 512-bit
    ``default`` group, through the keyring (signers over the cluster's fast
    path, verdict cache).  ``TestCryptoMicro`` times module-level functions
    on the 128-bit test group, where a 1.1 ms primality proof inside a
    0.06 ms signature went unseen."""

    @pytest.fixture(scope="class")
    def rings(self):
        return generate_keyrings(7, 2, seed=1, backend="real", group_profile="default")

    def test_sign_notary_share(self, benchmark, rings):
        benchmark(lambda: rings[0].sign_notary_share(b"message"))

    def test_sign_beacon_share(self, benchmark, rings):
        benchmark(lambda: rings[0].sign_beacon_share(b"beacon"))

    def test_combine_beacon(self, benchmark, rings):
        shares = [ring.sign_beacon_share(b"beacon") for ring in rings[:3]]  # t + 1
        benchmark(lambda: rings[0].combine_beacon(b"beacon", shares))

    def test_verify_notary_own_aggregate(self, benchmark, rings):
        # What a party does once per height: it verified the n - t shares as
        # they arrived and then puts its own aggregate into its own pool.
        fresh = (b"own/%d" % i for i in itertools.count())

        def just_combined():
            message = next(fresh)
            shares = [ring.sign_notary_share(message) for ring in rings[:5]]
            assert all(rings[0].verify_notary_share(message, s) for s in shares)
            return (message, rings[0].combine_notary(message, shares)), {}

        assert benchmark.pedantic(rings[0].verify_notary, setup=just_combined, rounds=30)

    def test_verify_notary_share_foreign(self, benchmark, rings):
        # A share never seen before, so the verdict cache cannot answer.
        fresh = (b"foreign/%d" % i for i in itertools.count())

        def unseen():
            message = next(fresh)
            return (message, rings[1].sign_notary_share(message)), {}

        assert benchmark.pedantic(rings[0].verify_notary_share, setup=unseen, rounds=30)


    def test_verify_notary_foreign_aggregate(self, benchmark, rings):
        # n - t = 5 shares, none seen before: five challenge-form checks from
        # comb tables.  (The batch verifier this replaced cost 3-5x as much
        # per share; docs/PERFORMANCE.md has the table.)
        fresh = (b"aggregate/%d" % i for i in itertools.count())

        def unseen():
            message = next(fresh)
            shares = [ring.sign_notary_share(message) for ring in rings[1:6]]
            return (message, rings[1].combine_notary(message, shares)), {}

        assert benchmark.pedantic(rings[0].verify_notary, setup=unseen, rounds=30)

    def test_verify_beacon_share_foreign(self, benchmark, rings):
        # One exponentiation by q (sigma_i's membership), one Shamir walk,
        # two table powers.
        fresh = (b"beacon/%d" % i for i in itertools.count())

        def unseen():
            message = next(fresh)
            return (message, rings[1].sign_beacon_share(message)), {}

        assert benchmark.pedantic(rings[0].verify_beacon_share, setup=unseen, rounds=30)

    def test_client_auth_batch(self, benchmark):
        # ``live_n4_load``'s shape: one broker tick of 30 requests over 8
        # client keys on the 128-bit group, keys warm.
        auth = RealClientAuth(seed=1, group_profile="test")
        requests = [
            SignedRequest(
                client=i % 8, seq=i // 8, key=i, body=b"micro/%d" % i,
                auth=auth.sign(i % 8, i // 8, i, b"micro/%d" % i),
            )
            for i in range(30)
        ]
        assert auth.verify_batch(requests).all_valid()
        benchmark(lambda: auth.verify_batch(requests))


class TestErasureMicro:
    def test_rs_encode_100kb(self, benchmark):
        data = os.urandom(100_000)
        params = CodecParams(5, 13)
        benchmark(lambda: encode(data, params))

    def test_rs_decode_100kb_from_parity(self, benchmark):
        data = os.urandom(100_000)
        params = CodecParams(5, 13)
        shards = encode(data, params)
        subset = {i: shards[i] for i in range(8, 13)}
        benchmark(lambda: decode(subset, params, len(data)))

    def test_merkle_tree_40_leaves(self, benchmark):
        leaves = [os.urandom(1024) for _ in range(40)]
        benchmark(lambda: MerkleTree(leaves))


class TestSimulatorMicro:
    @pytest.mark.parametrize("queue_cls", (CalendarEventQueue, HeapEventQueue))
    def test_event_dispatch_rate(self, benchmark, queue_cls):
        def run_10k_events():
            sim = Simulation(event_queue=queue_cls())
            remaining = [10_000]

            def tick():
                remaining[0] -= 1
                if remaining[0] > 0:
                    sim.schedule(0.001, tick)

            sim.schedule(0.0, tick)
            sim.run()
            return sim.events_processed

        assert benchmark(run_10k_events) == 10_000


class TestEndToEndMicro:
    def test_icc0_simulated_round_cost(self, benchmark):
        """Wall-clock cost of one simulated ICC0 round, 13 parties."""
        from repro.core import ClusterConfig, build_cluster
        from repro.sim.delays import FixedDelay

        def ten_rounds():
            config = ClusterConfig(
                n=13, t=4, delta_bound=0.5, epsilon=0.01,
                delay_model=FixedDelay(0.05), max_rounds=10, seed=1,
            )
            cluster = build_cluster(config)
            cluster.start()
            cluster.run_until_all_committed_round(9, timeout=60)
            return cluster.min_committed_round()

        assert benchmark(ten_rounds) >= 9
