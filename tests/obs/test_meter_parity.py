"""Metering must be a pure observer, to the same standard as tracing:
a run with a live Meter is bit-identical to the same run without one,
and the meter's aggregates agree with Metrics / the trace stream."""

from __future__ import annotations

from repro.baselines import HotStuffParty
from repro.core import ClusterConfig, Payload, build_cluster
from repro.obs import Meter, Tracer
from repro.sim.delays import FixedDelay

ROUNDS = 8
DELTA = 0.05


def run_icc0(meter=None, tracer=None):
    config = ClusterConfig(
        n=4,
        t=1,
        delta_bound=DELTA * 6,
        epsilon=0.01,
        delay_model=FixedDelay(DELTA),
        max_rounds=ROUNDS,
        seed=7,
        payload_source=lambda p, r, c: Payload(commands=(b"cmd-%d" % r,)),
        tracer=tracer,
        meter=meter,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(ROUNDS - 2, timeout=300.0)
    cluster.check_safety()
    return cluster


def run_hotstuff(meter=None):
    config = ClusterConfig(
        party_class=HotStuffParty,
        n=4,
        t=1,
        seed=7,
        delay_model=FixedDelay(DELTA),
        extra_party_kwargs={"max_heights": 6},
        meter=meter,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(5, timeout=300.0)
    cluster.check_safety()
    return cluster


class TestMeterParity:
    def test_icc0_identical_with_and_without_metering(self):
        plain = run_icc0()
        metered = run_icc0(meter=Meter())
        for p, m in zip(plain.parties, metered.parties):
            assert p.committed_hashes == m.committed_hashes
        assert plain.metrics == metered.metrics  # every field, dataclass eq
        assert plain.sim.now == metered.sim.now

    def test_hotstuff_identical_with_and_without_metering(self):
        plain = run_hotstuff()
        metered = run_hotstuff(meter=Meter())
        for p, m in zip(plain.parties, metered.parties):
            assert p.committed_hashes == m.committed_hashes
        assert plain.metrics == metered.metrics
        assert plain.sim.now == metered.sim.now


class TestMeterEquivalence:
    def test_icc0_meter_agrees_with_metrics_and_trace(self):
        meter = Meter()
        tracer = Tracer()
        cluster = run_icc0(meter=meter, tracer=tracer)
        metrics = cluster.metrics

        # Network counters match the Metrics ground truth exactly.
        assert meter.counter_value("net.messages") == sum(
            metrics.msgs_sent.values()
        )
        assert meter.counter_value("net.bytes") == sum(
            metrics.bytes_sent.values()
        )

        # Protocol counters match trace-event counts.
        kinds = {}
        for event in tracer.events():
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        assert meter.counter_value("icc.blocks.proposed") == kinds.get(
            "icc.block.proposed", 0
        )
        assert meter.counter_value("icc.blocks.committed") == kinds.get(
            "icc.block.committed", 0
        )
        assert meter.counter_value("icc.rounds.finished") == kinds.get(
            "icc.round.done", 0
        )

        # Commit-latency histogram holds exactly the Metrics samples.
        hist = meter.histogram("icc.commit.latency")
        samples = metrics.commit_latencies()
        assert hist.count == len(samples)
        assert abs(hist.total - sum(samples)) < 1e-9

        # The simulation gauge is the final clock.
        assert meter.gauge_value("sim.duration") == cluster.sim.now
        assert meter.counter_value("sim.events.processed") > 0

    def test_hotstuff_meter_counts_commits(self):
        meter = Meter()
        cluster = run_hotstuff(meter=meter)
        committed = sum(len(p.output_log) for p in cluster.parties)
        assert meter.counter_value("baseline.commits") == committed
        hist = meter.histogram("baseline.commit.latency")
        assert hist.count == len(cluster.metrics.commit_latencies())
