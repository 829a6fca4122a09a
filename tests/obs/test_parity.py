"""Tracing must be a pure observer: on/off parity + Metrics equivalence.

Two guarantees from the observability design:

* **Parity** — a run with a live ``Tracer`` produces bit-identical
  results (commit logs and every ``Metrics`` field) to the same run
  without one, because emitting never touches the RNG, clock or event
  queue.
* **Equivalence** — the quantities rebuilt from the event stream (by
  ``repro.analysis.trace`` and by the oracles below) equal what
  ``Metrics`` reported for the same run: commit latencies, per-round
  message counts, total bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.adversary import WithholdFinalizationMixin, corrupt_class
from repro.analysis.trace import message_counts, summarize
from repro.baselines import HotStuffParty
from repro.core import ClusterConfig, Payload, build_cluster
from repro.core.icc0 import ICC0Party
from repro.obs import EVENT_KINDS, Tracer
from repro.sim.delays import FixedDelay

# ---------------------------------------------------------------------------
# Trace-side oracles: each rebuilds one Metrics figure from the events alone.
# ---------------------------------------------------------------------------

#: Event kinds emitted only by adversarial (Byzantine) behaviours.
ADVERSARY_KINDS = frozenset(kind for kind in EVENT_KINDS if kind.startswith("adv."))


def _first_by_key(events, kind, key_field):
    """Earliest event of ``kind`` per distinct ``payload[key_field]``."""
    out = {}
    for event in events:
        if event.kind != kind:
            continue
        key = event.payload.get(key_field)
        if key is None:
            continue
        if key not in out or event.time < out[key].time:
            out[key] = event
    return out


def commit_latencies(events) -> dict[str, float]:
    """Per-block commit latency: first commit time minus propose time.

    Reads ``icc.block.proposed`` / ``icc.block.committed`` for the ICC
    family and ``hotstuff.propose`` / ``pbft.propose`` /
    ``tendermint.propose`` / ``baseline.commit`` for the baselines.  Blocks
    that were proposed but never committed (or whose proposal was never
    traced) are omitted — the convention ``Metrics`` uses when
    ``proposed_at`` is missing.
    """
    proposed = {}
    for kind, key_field in (
        ("icc.block.proposed", "block"),
        ("hotstuff.propose", "batch"),
        ("pbft.propose", "batch"),
        ("tendermint.propose", "batch"),
    ):
        proposed.update(_first_by_key(events, kind, key_field))
    committed = {}
    for kind, key_field in (
        ("icc.block.committed", "block"),
        ("baseline.commit", "batch"),
    ):
        committed.update(_first_by_key(events, kind, key_field))
    return {
        block: committed[block].time - proposed[block].time
        for block in committed
        if block in proposed
    }


def bytes_sent(events) -> int:
    """Total wire bytes, matching the ``Metrics`` byte convention.

    Broadcast charges ``(copies - 1) * bytes`` (no wire cost for
    self-delivery), multicast ``receivers * bytes``, send ``bytes``.
    """
    total = 0
    for event in events:
        if event.kind == "net.broadcast":
            total += (int(event.payload["copies"]) - 1) * int(event.payload["bytes"])
        elif event.kind == "net.multicast":
            total += int(event.payload["receivers"]) * int(event.payload["bytes"])
        elif event.kind == "net.send":
            total += int(event.payload["bytes"])
    return total


@dataclass(frozen=True)
class AdversaryActivation:
    """One adversarial action: when, who, what."""

    time: float
    party: int
    kind: str
    round: int | None
    payload: Mapping


def adversary_timeline(events) -> list[AdversaryActivation]:
    """Chronological list of all ``adv.*`` events in the trace."""
    timeline = [
        AdversaryActivation(
            time=event.time,
            party=event.party,
            kind=event.kind,
            round=event.round,
            payload=event.payload,
        )
        for event in events
        if event.kind in ADVERSARY_KINDS
    ]
    timeline.sort(key=lambda a: (a.time, a.party, a.kind))
    return timeline


ROUNDS = 8
DELTA = 0.05


def run_icc0(tracer=None, corrupt=None):
    config = ClusterConfig(
        n=4,
        t=1,
        delta_bound=DELTA * 6,
        epsilon=0.01,
        delay_model=FixedDelay(DELTA),
        max_rounds=ROUNDS,
        seed=7,
        payload_source=lambda p, r, c: Payload(commands=(b"cmd-%d" % r,)),
        corrupt=corrupt or {},
        tracer=tracer,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(ROUNDS - 2, timeout=300.0)
    cluster.check_safety()
    return cluster


def run_hotstuff(tracer=None):
    config = ClusterConfig(
        party_class=HotStuffParty,
        n=4,
        t=1,
        seed=7,
        delay_model=FixedDelay(DELTA),
        extra_party_kwargs={"max_heights": 6},
        tracer=tracer,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(5, timeout=300.0)
    cluster.check_safety()
    return cluster


class TestParity:
    def test_icc0_identical_with_and_without_tracing(self):
        plain = run_icc0()
        traced = run_icc0(tracer=Tracer())
        for p, t in zip(plain.parties, traced.parties):
            assert p.committed_hashes == t.committed_hashes
        assert plain.metrics == traced.metrics  # every field, dataclass eq
        assert plain.sim.now == traced.sim.now

    def test_hotstuff_identical_with_and_without_tracing(self):
        plain = run_hotstuff()
        traced = run_hotstuff(tracer=Tracer())
        for p, t in zip(plain.parties, traced.parties):
            assert p.committed_hashes == t.committed_hashes
        assert plain.metrics == traced.metrics
        assert plain.sim.now == traced.sim.now


class TestMetricsEquivalence:
    def test_icc0_reconstruction_matches_metrics(self):
        tracer = Tracer()
        cluster = run_icc0(tracer=tracer)
        events = tracer.events()
        metrics = cluster.metrics
        assert tracer.dropped == 0

        # Message counts: per-round and total.
        per_round = {
            r: c for r, c in message_counts(events).items() if r is not None
        }
        assert per_round == dict(metrics.msgs_by_round)
        assert sum(message_counts(events).values()) == sum(metrics.msgs_sent.values())

        # Bytes: trace totals use the same (n-1)-wire-copy convention.
        assert bytes_sent(events) == sum(metrics.bytes_sent.values())

        # Commit latencies: per-commit-event reconstruction equals the
        # Metrics sample list exactly (same instants, same floats).
        proposed = {
            e.payload["block"]: e.time for e in events if e.kind == "icc.block.proposed"
        }
        samples = sorted(
            e.time - proposed[e.payload["block"]]
            for e in events
            if e.kind == "icc.block.committed" and e.payload["block"] in proposed
        )
        assert samples == sorted(metrics.commit_latencies())
        # The per-block (first commit) view is a subset of those samples.
        for latency in commit_latencies(events).values():
            assert latency in samples

    def test_hotstuff_reconstruction_matches_metrics(self):
        tracer = Tracer()
        cluster = run_hotstuff(tracer=tracer)
        events = tracer.events()
        metrics = cluster.metrics
        assert sum(message_counts(events).values()) == sum(metrics.msgs_sent.values())
        assert bytes_sent(events) == sum(metrics.bytes_sent.values())
        proposed = {
            e.payload["batch"]: e.time for e in events if e.kind == "hotstuff.propose"
        }
        samples = sorted(
            e.time - proposed[e.payload["batch"]]
            for e in events
            if e.kind == "baseline.commit" and e.payload["batch"] in proposed
        )
        assert samples == sorted(metrics.commit_latencies())


class TestBreakdownAndTimeline:
    def test_adversary_timeline_captures_withholding(self):
        tracer = Tracer()
        withholder = corrupt_class(ICC0Party, WithholdFinalizationMixin)
        run_icc0(tracer=tracer, corrupt={1: withholder})
        timeline = adversary_timeline(tracer.events())
        assert timeline
        assert {a.kind for a in timeline} == {"adv.withhold.finalization"}
        assert {a.party for a in timeline} == {1}
        assert timeline == sorted(timeline, key=lambda a: (a.time, a.party, a.kind))

    def test_summary_counts_line_up(self):
        tracer = Tracer()
        cluster = run_icc0(tracer=tracer)
        summary = summarize(tracer.events())
        assert summary.events == len(tracer)
        assert summary.blocks_committed == len(cluster.party(1).output_log)
        assert summary.rounds_entered >= ROUNDS - 2
        assert adversary_timeline(tracer.events()) == []
