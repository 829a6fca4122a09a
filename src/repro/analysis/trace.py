"""Reconstruct protocol behaviour from a trace event stream.

The functions here are the consumers of :mod:`repro.obs`: given the list
of :class:`~repro.obs.TraceEvent` records a run produced (from a live
``Tracer`` or re-loaded from a JSONL export), they rebuild the quantities
the paper's experiments report — commit latencies, message complexity per
round, and adversary-activation timelines.  The per-height latency
decomposition is :mod:`repro.analysis.critical_path`.

Everything operates on plain event lists, so analyses compose: filter a
list first (by party, by protocol, by round window) and feed the slice to
any function below.  Each function documents which event kinds it reads;
all kinds are defined in :mod:`repro.obs.registry` and documented in
``docs/OBSERVABILITY.md``.  ``python -m repro report`` renders them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..obs.tracer import TraceEvent

#: Event kinds counted as network transmissions, with the payload field
#: giving the number of point-to-point messages each event represents.
_MESSAGE_KINDS = {
    "net.broadcast": "copies",
    "net.multicast": "receivers",
    "net.send": None,  # always exactly one message
}

#: Event kinds emitted only by adversarial (Byzantine) behaviours.
ADVERSARY_KINDS = frozenset(
    {
        "adv.equivocate",
        "adv.withhold.finalization",
        "adv.withhold.notarization",
        "adv.lazy.payload",
        "adv.slow.propose",
        "adv.aggressive.sign",
    }
)


def _first_by_key(
    events: Iterable[TraceEvent], kind: str, key_field: str
) -> dict[object, TraceEvent]:
    """Earliest event of ``kind`` per distinct ``payload[key_field]``."""
    out: dict[object, TraceEvent] = {}
    for event in events:
        if event.kind != kind:
            continue
        key = event.payload.get(key_field)
        if key is None:
            continue
        if key not in out or event.time < out[key].time:
            out[key] = event
    return out


def commit_latencies(events: Sequence[TraceEvent]) -> dict[str, float]:
    """Per-block commit latency: first commit time minus propose time.

    Reads ``icc.block.proposed`` / ``icc.block.committed`` for the ICC
    family and ``hotstuff.propose`` / ``pbft.propose`` /
    ``tendermint.propose`` / ``baseline.commit`` for the baselines.
    Returns ``{block_id: latency}`` keyed by the 16-hex-char short id;
    blocks that were proposed but never committed (or whose proposal was
    never traced, e.g. an equivocating proposer's) are omitted — the same
    convention :class:`repro.sim.metrics.Metrics` uses when
    ``proposed_at`` is missing.
    """
    proposed: dict[object, TraceEvent] = {}
    for kind, key_field in (
        ("icc.block.proposed", "block"),
        ("hotstuff.propose", "batch"),
        ("pbft.propose", "batch"),
        ("tendermint.propose", "batch"),
    ):
        proposed.update(_first_by_key(events, kind, key_field))
    committed: dict[object, TraceEvent] = {}
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


def message_counts(events: Sequence[TraceEvent]) -> dict[int | None, int]:
    """Point-to-point messages per round, from network-layer events.

    Reads ``net.broadcast`` (counted as ``copies`` = n messages, the
    paper's Section 1 convention — self-delivery included), ``net.send``
    (1 message) and ``net.multicast`` (``receivers`` messages).  Returns
    ``{round: count}``; events without round context accumulate under
    ``None``.  Summed over all rounds this equals
    ``Metrics.messages_sent``.
    """
    counts: Counter = Counter()
    for event in events:
        if event.kind not in _MESSAGE_KINDS:
            continue
        count_field = _MESSAGE_KINDS[event.kind]
        counts[event.round] += 1 if count_field is None else int(
            event.payload.get(count_field, 1)
        )
    return dict(counts)


def bytes_sent(events: Sequence[TraceEvent]) -> int:
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


def adversary_timeline(events: Sequence[TraceEvent]) -> list[AdversaryActivation]:
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


@dataclass
class TraceSummary:
    """The counts a report's trace-health table shows for one trace."""

    events: int
    rounds_entered: int
    blocks_committed: int
    #: Events the ring buffer discarded (from the trace.dropped summary
    #: record that Tracer.export_events appends on overflow).
    dropped: int = 0


def summarize(events: Sequence[TraceEvent]) -> TraceSummary:
    """Aggregate a trace into a :class:`TraceSummary`."""
    committed_blocks = {
        event.payload.get("block") or event.payload.get("batch")
        for event in events
        if event.kind in ("icc.block.committed", "baseline.commit")
    }
    rounds = {
        event.round for event in events if event.kind == "icc.round.enter"
    }
    return TraceSummary(
        events=len(events),
        rounds_entered=len(rounds),
        blocks_committed=len(committed_blocks - {None}),
        dropped=sum(
            int(event.payload.get("dropped", 0))
            for event in events
            if event.kind == "trace.dropped"
        ),
    )
