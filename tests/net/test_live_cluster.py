"""End-to-end: unmodified protocol parties finalize over real TCP."""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro.core import build_cluster
from repro.core.icc0 import ICC0Party
from repro.faults import Scenario, check_invariants
from repro.net import transport
from repro.net.cluster import LiveCluster
from repro.net.config import local_live_config
from repro.net.live import summarize
from repro.net.party import LiveParty, generate_load_requests
from repro.obs import Tracer, read_jsonl_with_header, trace_header, write_jsonl
from repro.sim.delays import FixedDelay
from repro.sim.metrics import percentile


def quick_config(**overrides):
    defaults = dict(
        t=1, seed=5, epsilon=0.02, target_height=3, timeout=30.0,
        cluster_id="test-live",
    )
    defaults.update(overrides)
    return local_live_config(4, **defaults)


def run_cluster(config, target=None):
    async def scenario():
        async with LiveCluster(config) as cluster:
            ok = await cluster.wait_for_height(
                target if target is not None else config.target_height,
                config.timeout,
            )
            cluster.check_safety()
            return ok, cluster.results()

    return asyncio.run(scenario())


class TestLiveCluster:
    def test_four_parties_finalize_over_tcp(self):
        ok, results = run_cluster(quick_config())
        assert ok
        assert all(r["height"] >= 3 for r in results)
        # Every party is a real ICC0Party; prefix property held (checked
        # inside run_cluster) and the chains share the committed prefix.
        chains = [r["committed"] for r in results]
        shortest = min(len(c) for c in chains)
        assert shortest >= 3
        assert len({tuple(c[:shortest]) for c in chains}) == 1

    @pytest.mark.parametrize(
        "protocol, backend",
        [("icc0", "fast"), ("icc1", "fast"), ("icc2", "fast"), ("icc0", "real")],
    )
    def test_every_protocol_and_backend_crosses_the_codec(self, protocol, backend):
        """Gossip envelopes, erasure-coded fragments and discrete-log
        signature objects all have codec rows; pickle carried them untested."""
        config = quick_config(
            protocol=protocol, crypto_backend=backend, group_profile="test"
        )
        ok, results = run_cluster(config)
        assert ok
        assert all(r["height"] >= 3 for r in results)
        assert [r["frames_rejected"] for r in results] == [0, 0, 0, 0]

    def test_client_load_commits_through_batching_pipeline(self):
        config = quick_config(
            target_height=4, load_requests=24, load_batch=8, seed=2,
        )

        async def scenario():
            async with LiveCluster(config) as cluster:
                observer = cluster.parties[0]
                loop = asyncio.get_running_loop()
                deadline = loop.time() + config.timeout
                # Rounds keep finalizing past target_height; wait for the
                # whole deterministic request set to commit.
                while observer.batcher.completed < config.load_requests:
                    assert loop.time() < deadline, "load did not drain"
                    await asyncio.sleep(0.01)
                cluster.check_safety()
                return cluster.results(), observer.stat_snapshot()

        results, snapshot = asyncio.run(scenario())
        assert results[0]["requests_completed"] == 24
        latencies = results[0]["request_latencies"]
        assert len(latencies) == 24
        assert all(v > 0 for v in latencies)
        # `repro top` (the STAT snapshot) and `repro live --json` (the
        # summary block) read the same p50 off the same latency list.
        p50 = percentile(latencies, 0.50)  # of the list as reported, 6 decimals
        assert round(snapshot["request_p50_s"], 6) == p50
        assert summarize(config, results)["request_latency_p50"] == round(p50, 4)

    def test_summary_block(self):
        config = quick_config(load_requests=16, load_batch=8)
        ok, results = run_cluster(config)
        for record in results:
            record["reached_target"] = ok
        block = summarize(config, results)
        assert block["live_ok"] is True
        assert block["safety_ok"] is True
        assert block["parties_reporting"] == 4
        assert block["min_height"] >= config.target_height
        assert block["heights_per_sec"] > 0

    def test_summary_percentiles_are_nearest_rank(self):
        """One convention everywhere (`repro.sim.metrics.percentile`): the
        median of six samples is the fourth, where `round(q·(len−1))` under
        banker's rounding used to report the third."""
        record = {
            "height": 3, "committed": ["a", "b", "c"], "wall_seconds": 1.0,
            "reached_target": True, "requests_completed": 6,
            "request_latencies": [0.06, 0.05, 0.04, 0.03, 0.02, 0.01],
        }
        block = summarize(quick_config(), [record])
        assert block["request_latency_p50"] == 0.04
        assert block["request_latency_p90"] == 0.06
        assert summarize(quick_config(), [])["request_latency_p50"] == 0.0


class TestTransportShape:
    def test_one_task_per_directed_link(self):
        """Everything on a connection is a protocol callback: a connected
        n = 4 cluster runs one transport task per directed link, its dialer
        — n(n−1) = 12, where the stream design ran four per link (48)."""
        config = quick_config()

        def connected(cluster) -> bool:
            return all(
                len(live.network._inbound) == config.n - 1
                and all(link.connected for link in live.network._links.values())
                for live in cluster.parties
            )

        async def scenario():
            async with LiveCluster(config) as cluster:
                assert await cluster.wait_for_height(1, config.timeout)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + config.timeout
                while not connected(cluster):
                    assert loop.time() < deadline, "cluster never fully connected"
                    await asyncio.sleep(0.01)
                return [
                    task for task in asyncio.all_tasks()
                    if task.get_coro().cr_code.co_filename == transport.__file__
                ]

        tasks = asyncio.run(scenario())
        assert len(tasks) == 4 * 3


class TestOneConfigBuildsSimAndLive:
    """``LiveConfig.cluster_config()`` is the config of both worlds: the
    simulator builds a cluster from it, every live party its own party."""

    @pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (7, 1), (7, 2)])
    def test_sim_and_live_commit_the_same_chain(self, n, seed):
        """Empty payloads and nothing late: the leader is a function of the
        beacon, the beacon of the seed, so the first six blocks are
        bit-identical under a simulated delay and over localhost TCP."""
        config = local_live_config(
            n, t=(n - 1) // 3, seed=seed, epsilon=0.01, delta_bound=1.0,
            target_height=6, timeout=60.0, cluster_id="sim-live",
        )
        sim_config = config.cluster_config()
        sim_config.delay_model = FixedDelay(0.01)
        simulated = build_cluster(sim_config)
        simulated.start()
        assert simulated.run_until_all_committed_round(6, timeout=60.0)
        expected = [h.hex() for h in simulated.party(1).committed_hashes[:6]]

        ok, results = run_cluster(config)
        assert ok
        assert [r["committed"][:6] for r in results] == [expected] * n

    def test_check_invariants_takes_a_live_cluster(self):
        """Safety and bounded liveness over real sockets, by the checker the
        chaos sweeps use — and it sees a divergence planted in one log."""
        config = quick_config(target_height=5)
        quiet = Scenario(name="no faults")

        async def scenario():
            async with LiveCluster(config) as cluster:
                assert await cluster.wait_for_height(5, config.timeout)
                clean = check_invariants(cluster, quiet, config.timeout)
                first, second = cluster.parties[0].party, cluster.parties[1].party
                first.output_log[1] = second.output_log[2]
                return clean, check_invariants(cluster, quiet, config.timeout)

        clean, planted = asyncio.run(scenario())
        assert clean.ok and clean.liveness_checked
        assert clean.parties_checked == (1, 2, 3, 4)
        assert planted.liveness_ok and not planted.safety_ok
        assert any("diverge" in v.detail for v in planted.violations)


class TestTraceExport:
    def test_ring_pressure_export_carries_trace_dropped(self, tmp_path):
        """A live run against a deliberately tiny ring buffer: the export
        must end in a ``trace.dropped`` summary and still round-trip
        through the headered JSONL layer event-for-event."""
        config = quick_config(seed=11)
        tracers = {i: Tracer(capacity=40) for i in range(1, 5)}

        async def scenario():
            cluster = LiveCluster(config, per_party=tracers.get)
            async with cluster:
                ok = await cluster.wait_for_height(
                    config.target_height, config.timeout
                )
                cluster.check_safety()
                return ok

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # ring-full
            assert asyncio.run(scenario())

        for index, tracer in tracers.items():
            assert tracer.dropped > 0, "capacity=40 must overflow"
            exported = tracer.export_events()
            assert exported[-1].kind == "trace.dropped"
            assert exported[-1].payload == {
                "dropped": tracer.dropped,
                "emitted": tracer.emitted,
                "capacity": 40,
            }
            path = str(tmp_path / f"trace-{index}.jsonl")
            header = trace_header(
                run_id="ring-run", party=index, clock_epoch_s=0.0, host="h",
                cluster_id=config.cluster_id,
            )
            write_jsonl(exported, path, header=header)
            loaded_header, loaded = read_jsonl_with_header(path)
            assert loaded_header == header
            assert loaded == exported


class TestLiveParty:
    def test_party_is_unmodified_icc0(self):
        async def scenario():
            config = quick_config()
            live = LiveParty(config, 1, loop=asyncio.get_running_loop())
            try:
                assert type(live.party) is ICC0Party
                assert live.party.sim is live.clock
                assert live.party.network is live.network
            finally:
                await live.network.stop()

        asyncio.run(scenario())

    def test_index_validated(self):
        async def scenario():
            config = quick_config()
            with pytest.raises(ValueError, match="out of range"):
                LiveParty(config, 9, loop=asyncio.get_running_loop())

        asyncio.run(scenario())

    def test_load_requests_deterministic_across_parties(self):
        """Every party derives the same ingress set from the shared seed
        — ids must agree or chain dedup and latency tracking break."""
        from repro.workloads.batching import BatchSpec, RequestBatcher

        config = quick_config(load_requests=12, seed=8)
        batchers = [RequestBatcher(BatchSpec(auth="fast"), seed=8) for _ in range(2)]
        sets = [
            [r.request_id for r in generate_load_requests(config, b)]
            for b in batchers
        ]
        assert sets[0] == sets[1]
        assert len(set(sets[0])) == 12
