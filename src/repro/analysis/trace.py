"""Reconstruct protocol behaviour from a trace event stream.

The functions here are the consumers of :mod:`repro.obs`: given the list
of :class:`~repro.obs.TraceEvent` records a run produced (from a live
``Tracer`` or re-loaded from a JSONL export), they rebuild the quantities
a run report shows — message complexity per round and the trace-health
counts.  The per-height latency decomposition is
:mod:`repro.analysis.critical_path`.

Everything operates on plain event lists, so analyses compose: filter a
list first (by party, by protocol, by round window) and feed the slice to
any function below.  Each function documents which event kinds it reads;
all kinds are defined in :mod:`repro.obs.registry` and documented in
``docs/OBSERVABILITY.md``.  ``python -m repro report`` renders them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..obs.tracer import TraceEvent

#: Event kinds counted as network transmissions, with the payload field
#: giving the number of point-to-point messages each event represents.
_MESSAGE_KINDS = {
    "net.broadcast": "copies",
    "net.multicast": "receivers",
    "net.send": None,  # always exactly one message
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
