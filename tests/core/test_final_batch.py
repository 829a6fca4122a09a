"""Final coverage batch: RBC-serialize roundtrip property, pool queries,
beacon pipelining across parties, and bandwidth-experiment smoke."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, build_cluster
from repro.core.messages import Block, Payload, ROOT_HASH
from repro.core.serialize import deserialize_block, serialize_block
from repro.sim.delays import FixedDelay


class TestRbcSerializeRoundtripProperty:
    @given(
        st.lists(st.binary(max_size=48), max_size=6),
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_survives_erasure_coding(self, commands, filler, k, seed):
        """serialize → RS-encode → reconstruct from random k shards →
        deserialize is the identity on blocks (the full ICC2 data path)."""
        from random import Random

        from repro.erasure.reed_solomon import CodecParams, decode, encode

        block = Block(
            round=3,
            proposer=2,
            parent_hash=ROOT_HASH,
            payload=Payload(commands=tuple(commands), filler_bytes=filler),
        )
        data = serialize_block(block)
        m = min(k + 8, 40)
        params = CodecParams(k, m)
        shards = encode(data, params)
        chosen = Random(seed).sample(range(m), k)
        restored = decode({i: shards[i] for i in chosen}, params, len(data))
        assert deserialize_block(restored) == block
        assert deserialize_block(restored).hash == block.hash


class TestBeaconPipeliningAcrossParties:
    def test_beacon_runs_ahead_of_rounds(self):
        """The pipelined shares keep the beacon at most one round ahead —
        and never stall the round loop waiting for shares."""
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=10, seed=2,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=60)
        for party in cluster.parties:
            assert party._beacon_computed >= party.round - 1
            # Never absurdly far ahead: shares for k+1 are released only on
            # entering round k.
            assert party._beacon_computed <= party.round + 1


class TestPoolQueries:
    def test_rounds_with_final_activity(self):
        """Rounds *above the committed floor* with a finalized block or a
        stored finalization share, ascending; the floor only moves up."""
        from tests.core.test_pool import Forge

        forge = Forge()
        pool = forge.pool()
        parent = ROOT_HASH
        chain = []
        for round in (1, 2, 3, 4):
            block = forge.block(round=round, proposer=round, parent=parent)
            for artifact in (block, forge.auth(block), forge.notarization(block)):
                assert pool.add(artifact)
            chain.append(block)
            parent = block.hash
        assert pool.rounds_with_final_activity() == []
        pool.add(forge.final_share(chain[3], 1))
        pool.add(forge.finalization(chain[1]))
        pool.add(forge.final_share(chain[0], 2))
        assert pool.rounds_with_final_activity() == [1, 2, 4]
        pool.set_committed_floor(2)
        assert pool.rounds_with_final_activity() == [4]
        # A late share at or below the floor is stored but is no activity.
        assert pool.add(forge.final_share(chain[0], 3))
        assert pool.final_share_count(chain[0].hash) == 2
        assert pool.add(forge.finalization(chain[0]))
        assert pool.is_finalized(chain[0].hash)
        assert pool.rounds_with_final_activity() == [4]
        pool.set_committed_floor(1)  # never lowered
        fork = forge.block(round=2, proposer=3, parent=chain[0].hash)
        assert pool.add(forge.final_share(fork, 4))
        assert pool.rounds_with_final_activity() == [4]
        pool.add(forge.final_share(chain[2], 4))
        assert pool.rounds_with_final_activity() == [3, 4]

    def test_final_activity_stays_above_k_max_in_a_run(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=5, seed=1,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(4, timeout=60)
        for party in cluster.parties:
            assert party.k_max >= 4
            assert all(k > party.k_max for k in party.pool.rounds_with_final_activity())

    def test_finalized_blocks_query(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=4, seed=1,
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(3, timeout=60)
        pool = cluster.party(1).pool
        assert len(pool.finalized_blocks(2)) == 1
        assert pool.finalized_blocks(99) == []


class TestBandwidthExperimentSmoke:
    def test_small_point(self):
        from repro.experiments.bandwidth import run_one

        icc0 = run_one("ICC0", block_bytes=100_000, uplink_mbps=40.0, n=7, rounds=4)
        icc2 = run_one("ICC2", block_bytes=100_000, uplink_mbps=40.0, n=7, rounds=4)
        assert icc0.round_time > icc2.round_time
        assert icc2.round_time < 8 * icc2.serialization_floor


class TestNetworkReviveSemantics:
    def test_revived_party_receives_again(self):
        from repro.sim.metrics import Metrics
        from repro.sim.network import Network
        from repro.sim.simulator import Simulation
        from tests.sim.test_network import Recorder

        sim = Simulation(seed=1)
        net = Network(sim, 2, FixedDelay(0.01), Metrics(n=2))
        a, b = Recorder(1, sim), Recorder(2, sim)
        net.attach(a)
        net.attach(b)
        net.crash(2)
        net.send(1, 2, b"lost")
        sim.run()
        assert b.received == []
        net.revive(2)
        net.send(1, 2, b"found")
        sim.run()
        assert [m for _, m in b.received] == [b"found"]
