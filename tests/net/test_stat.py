"""The STAT metrics endpoint and ``python -m repro top``.

All smoke tests run against an in-process :class:`LiveCluster` — same
sockets and framing as separate processes, but startable inside a test.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

from repro.net.cluster import LiveCluster
from repro.net.config import local_live_config
from repro.net.framing import hello_frame
from repro.net.stat import fetch_stats, render_table, top


def stat_config(**overrides):
    defaults = dict(
        t=1, seed=3, epsilon=0.02, target_height=500, timeout=120.0,
        cluster_id="stat-test", load_requests=24, load_batch=8,
    )
    defaults.update(overrides)
    return local_live_config(4, **defaults)


class TestFetchStats:
    def test_two_polls_heights_advance_and_counters_match(self):
        """The satellite smoke: poll twice mid-run; heights advance
        between polls and the endpoint's connect/reconnect counters are
        the transport's own."""

        async def scenario():
            config = stat_config()
            async with LiveCluster(config) as cluster:
                # Let the cluster get off the ground before the first poll.
                await cluster.parties[0].wait_for_height(2, 30.0)
                first = await fetch_stats(config, timeout=5.0)
                floor = max(s["height"] for s in first.values()) + 2
                await cluster.parties[0].wait_for_height(floor, 30.0)
                second = await fetch_stats(config, timeout=5.0)
                counters = {
                    live.index: (
                        live.network.connects_total,
                        live.network.reconnects_total,
                    )
                    for live in cluster.parties
                }
                run_id = config.effective_run_id()
                return first, second, counters, run_id

        first, second, counters, run_id = asyncio.run(scenario())
        assert sorted(first) == [1, 2, 3, 4]
        assert all(snap is not None for snap in first.values())
        for index in first:
            assert second[index]["height"] >= first[index]["height"]
        # Heights advanced between the polls (cluster kept finalizing).
        assert sum(s["height"] for s in second.values()) > sum(
            s["height"] for s in first.values()
        )
        for index, snap in second.items():
            assert snap["index"] == index
            assert snap["run_id"] == run_id
            assert snap["cluster_id"] == "stat-test"
            connects, reconnects = counters[index]
            # A stable localhost run: no redials after the poll, so the
            # reported counters equal the transport's own totals.
            assert snap["reconnects"] == reconnects
            assert snap["connects"] <= connects  # never invented
            assert snap["connects"] >= 3  # dialled every other party
            assert snap["net_messages"] > 0

    def test_superseded_connection_is_counted(self):
        """``dup_connections`` is the transport's own counter, like
        ``connects`` and ``reconnects``, so a cluster built through the
        programmatic API reports it."""

        async def scenario():
            config = stat_config(load_requests=0)
            async with LiveCluster(config) as cluster:
                sender, target = cluster.parties[0], cluster.parties[1]
                await cluster.wait_for_height(1, 30.0)  # party 1's link to 2 is up
                host, port = config.peer_table()[target.index]
                _reader, writer = await asyncio.open_connection(host, port)
                writer.write(hello_frame(
                    sender.index, config.cluster_id,
                    incarnation=sender.network.incarnation,
                ))
                await writer.drain()
                deadline = asyncio.get_running_loop().time() + 10.0
                while target.network.dup_connections_total == 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                polled = (await fetch_stats(config, timeout=5.0))[target.index]
                writer.close()
                return polled, target.network.dup_connections_total

        polled, counted = asyncio.run(scenario())
        assert 1 <= polled["dup_connections"] <= counted
        assert polled["link_backlog"] >= 0

    def test_paused_link_is_reported(self):
        """``links_paused`` counts outbound links whose write buffer is
        above the high-water mark — a transport counter."""

        async def scenario():
            config = stat_config(load_requests=0)
            async with LiveCluster(config) as cluster:
                live = cluster.parties[0]
                link = live.network._links[2]
                deadline = asyncio.get_running_loop().time() + 10.0
                while not link.connected:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                before = (await fetch_stats(config, timeout=5.0))[live.index]
                link.conn.pause_writing()
                during = (await fetch_stats(config, timeout=5.0))[live.index]
                link.conn.resume_writing()
                after = live.stat_snapshot()
                return [s["links_paused"] for s in (before, during, after)]

        assert asyncio.run(scenario()) == [0, 1, 0]

    def test_unreachable_cluster_reports_none(self):
        async def scenario():
            config = stat_config()  # ports allocated but nobody listening
            return await fetch_stats(config, timeout=0.3)

        stats = asyncio.run(scenario())
        assert stats == {1: None, 2: None, 3: None, 4: None}


class TestRenderTable:
    def test_rows_for_reachable_and_unreachable(self):
        stats = {
            1: {"index": 1, "height": 7, "pool_depth": 3, "link_backlog": 0,
                "links_paused": 1, "connects": 3, "reconnects": 1,
                "requests_completed": 12,
                "request_p50_s": 0.025, "request_p99_s": 0.060,
                "net_messages": 240, "net_bytes": 50000},
            2: None,
        }
        table = render_table(stats)
        lines = table.splitlines()
        assert lines[0].split() == [
            "party", "height", "pool", "backlog", "paused", "conn", "reconn",
            "reqs", "p50ms", "p99ms", "msgs", "bytes",
        ]
        assert lines[1].split() == [
            "1", "7", "3", "0", "1", "3", "1", "12", "25.0", "60.0",
            "240", "50000",
        ]
        assert "(unreachable)" in lines[2]

    def test_missing_latencies_render_as_dash(self):
        table = render_table({1: {"index": 1, "request_p50_s": None}})
        assert table.splitlines()[1].count("-") == 2


class TestTopCli:
    def args(self, config_path, **overrides):
        defaults = dict(
            config=config_path, interval=0.05, iterations=2,
            timeout=2.0, json=False,
        )
        defaults.update(overrides)
        return SimpleNamespace(**defaults)

    def test_top_polls_running_cluster(self, tmp_path, capsys):
        config = stat_config(seed=4)
        config_path = str(tmp_path / "cluster.json")
        config.save(config_path)
        started = threading.Event()
        stop = threading.Event()

        def run_cluster():
            async def main():
                async with LiveCluster(config):
                    started.set()
                    while not stop.is_set():
                        await asyncio.sleep(0.02)

            asyncio.run(main())

        thread = threading.Thread(target=run_cluster, daemon=True)
        thread.start()
        assert started.wait(30.0), "cluster did not start"
        try:
            status = top(self.args(config_path))
        finally:
            stop.set()
            thread.join(30.0)
        assert status == 0
        out = capsys.readouterr().out
        assert "4/4 parties reachable" in out
        assert out.count("party height") == 2  # one table per poll

    def test_top_fails_when_nothing_listens(self, tmp_path, capsys):
        config = stat_config(seed=5)
        config_path = str(tmp_path / "cluster.json")
        config.save(config_path)
        status = top(self.args(config_path, iterations=1, timeout=0.3))
        assert status == 1
        assert "0/4 parties reachable" in capsys.readouterr().out
