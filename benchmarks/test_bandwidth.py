"""Benchmark E11 — the leader bottleneck as latency under finite uplinks."""

from __future__ import annotations

from repro.experiments import bandwidth, runner


class TestE11Bottleneck:
    def test_gossip_and_rbc_beat_naive_broadcast(self, once):
        results = {
            r.protocol: r
            for r in once(
                runner.run_experiment, bandwidth,
                block_bytes=500_000, uplink_mbps=50.0, n=13,
            )
        }
        icc0 = results["ICC0"].round_time
        icc1 = results["ICC1"].round_time
        icc2 = results["ICC2"].round_time
        # The naive broadcast pays ~(n-1) serialized copies at the leader
        # plus another S per echoer; dissemination-aware variants don't.
        assert icc0 > 3 * icc1
        assert icc0 > 3 * icc2
        # And the winners stay within a small factor of the 1×S floor.
        floor = results["ICC1"].serialization_floor
        assert icc1 < 8 * floor
        assert icc2 < 8 * floor
