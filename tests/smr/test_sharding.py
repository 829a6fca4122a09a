"""Tests for multi-subnet sharding (versioned certified streams,
ShardedDeployment, and the ``repro shard`` sweep with its pinned numbers)."""

from __future__ import annotations

import pytest

from repro.experiments import sharding
from repro.obs import Tracer
from repro.smr.sharding import ShardResult, ShardSpec, ShardedDeployment
from repro.smr.xnet import (
    XNET_STREAM_VERSION,
    EnvelopeError,
    StreamCertifier,
    StreamMessage,
    is_stream,
    strip_stream_envelope,
)


class TestStreamWire:
    def test_roundtrip(self):
        certifier = StreamCertifier(b"secret")
        message = StreamMessage(
            version=XNET_STREAM_VERSION,
            source="alpha",
            destination="beta",
            seq=7,
            cert=certifier.certify("alpha", "beta", 7, b"payload"),
            body=b"payload",
        )
        parsed = StreamMessage.from_wire(message.wire())
        assert parsed == message
        assert is_stream(message.wire())
        assert strip_stream_envelope(message.wire()) == b"payload"
        assert certifier.verify(parsed)

    def test_malformed_wire_raises(self):
        with pytest.raises(EnvelopeError):
            StreamMessage.from_wire(b"not a stream")
        with pytest.raises(EnvelopeError):
            StreamMessage.from_wire(b"xstr\x1f\x01alpha-no-separators")

    def test_cert_binds_all_fields(self):
        certifier = StreamCertifier(b"secret")
        cert = certifier.certify("alpha", "beta", 7, b"payload")
        good = StreamMessage(XNET_STREAM_VERSION, "alpha", "beta", 7, cert, b"payload")
        assert certifier.verify(good)
        for tampered in (
            StreamMessage(XNET_STREAM_VERSION, "gamma", "beta", 7, cert, b"payload"),
            StreamMessage(XNET_STREAM_VERSION, "alpha", "gamma", 7, cert, b"payload"),
            StreamMessage(XNET_STREAM_VERSION, "alpha", "beta", 8, cert, b"payload"),
            StreamMessage(XNET_STREAM_VERSION, "alpha", "beta", 7, cert, b"other"),
        ):
            assert not certifier.verify(tampered)
        other = StreamCertifier(b"other-secret")
        assert not other.verify(good)


class TestStreamCertificationAtIngress:
    """Forged / replayed / stale cross-shard envelopes are dropped and
    counted, never delivered to the destination shard."""

    def _deployment(self):
        return ShardedDeployment(ShardSpec(shards=2, n=4, seed=3), tracer=Tracer())

    def test_forged_cert_rejected(self):
        dep = self._deployment()
        forged = StreamMessage(
            version=XNET_STREAM_VERSION,
            source="shard0",
            destination="shard1",
            seq=0,
            cert=b"\x00" * 32,
            body=b"forged command",
        )
        assert dep.xnet.ingress(forged) is False
        assert dep.xnet.rejected == 1
        assert not dep.xnet.subnets["shard1"].received
        rejects = dep.sim.tracer.events("shard.xnet.reject")
        assert len(rejects) == 1
        assert rejects[0].payload["reason"] == "cert"

    def test_wrong_version_rejected(self):
        dep = self._deployment()
        message = StreamMessage(
            version=XNET_STREAM_VERSION + 1,
            source="shard0",
            destination="shard1",
            seq=0,
            cert=dep.xnet.certifier.certify("shard0", "shard1", 0, b"x"),
            body=b"x",
        )
        assert dep.xnet.ingress(message) is False
        assert dep.xnet.rejected == 1
        reasons = [e.payload["reason"] for e in dep.sim.tracer.events("shard.xnet.reject")]
        assert reasons == ["version"]

    def test_replay_rejected(self):
        dep = self._deployment()
        certifier = dep.xnet.certifier
        message = StreamMessage(
            version=XNET_STREAM_VERSION,
            source="shard0",
            destination="shard1",
            seq=0,
            cert=certifier.certify("shard0", "shard1", 0, b"once"),
            body=b"once",
        )
        assert dep.xnet.ingress(message) is True
        # Replaying the same certified message (seq already consumed).
        assert dep.xnet.ingress(message) is False
        assert dep.xnet.rejected == 1
        reasons = [e.payload["reason"] for e in dep.sim.tracer.events("shard.xnet.reject")]
        assert reasons == ["seq"]

    def test_unknown_destination_counted(self):
        dep = self._deployment()
        message = StreamMessage(
            version=XNET_STREAM_VERSION,
            source="shard0",
            destination="nowhere",
            seq=0,
            cert=dep.xnet.certifier.certify("shard0", "nowhere", 0, b"x"),
            body=b"x",
        )
        assert dep.xnet.ingress(message) is False
        assert dep.xnet.undeliverable == 1
        assert dep.xnet.rejected == 0


class TestShardedDeployment:
    def test_cross_shard_end_to_end(self):
        spec = ShardSpec(shards=2, n=4, duration=2.0, xfrac=0.25, seed=0)
        dep = ShardedDeployment(spec)
        result = dep.run()
        assert isinstance(result, ShardResult)
        # Every generated request finalized somewhere; every cross-shard
        # request crossed the fabric and finalized at its destination.
        assert result.committed_cross == dep.population.cross_generated > 0
        assert result.transfers == result.committed_cross
        assert result.rejected == 0
        assert result.undeliverable == 0
        assert result.committed == sum(dep.population.generated.values())
        # Cross-shard latency covers two consensus hops plus the transfer.
        assert result.latency_penalty is not None
        assert result.latency_penalty > 1.0

    def test_deterministic_across_runs(self):
        spec = ShardSpec(shards=2, n=4, duration=1.0, xfrac=0.2, seed=4)
        a = ShardedDeployment(spec).run()
        b = ShardedDeployment(spec).run()
        assert a == b

    def test_aggregate_throughput_scales(self):
        results = {
            k: ShardedDeployment(
                ShardSpec(shards=k, n=4, duration=1.0, seed=0)
            ).run()
            for k in (1, 2)
        }
        assert results[2].goodput == pytest.approx(2 * results[1].goodput)

    def test_local_only_deployment_has_no_transfers(self):
        result = ShardedDeployment(
            ShardSpec(shards=2, n=4, duration=1.0, xfrac=0.0, seed=0)
        ).run()
        assert result.transfers == 0
        assert result.committed_cross == 0
        assert result.committed > 0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec(shards=0)


class TestPinnedNumbers:
    """The numbers docs/SHARDING.md quotes (n=4, 200 req/s per shard, 2 s,
    δ = 50 ms, seed 0).  All simulated time: exact on every machine."""

    def test_goodput_by_shard_count(self):
        goodput = {
            k: sharding.run_deployment(shards=k, seed=0).goodput for k in (1, 2, 4)
        }
        assert goodput == {1: 200.0, 2: 400.0, 4: 800.0}

    def test_cross_shard_penalty(self):
        result = sharding.run_deployment(shards=2, xfrac=0.25, seed=0)
        assert round(result.latency_penalty, 2) == 2.42
        assert result.committed_cross == result.transfers == 208
        assert result.rejected == 0


class TestSweepCli:
    def test_tiny_sweep(self, capsys):
        status = sharding.main([
            "--ks", "1,2", "--n", "4", "--duration", "1.0", "--jobs", "1",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "200/s" in out and "400/s" in out

    def test_specs_labels_and_kinds(self):
        suite = sharding.specs(ks=(1, 2), xfrac=0.25)
        assert [s.kind for s in suite] == ["sharding.run_deployment"] * 2
        assert [s.label for s in suite] == ["shard-k1-n4-x25", "shard-k2-n4-x25"]
