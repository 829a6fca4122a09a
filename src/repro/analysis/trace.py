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
``docs/OBSERVABILITY.md``.

``python -m repro trace`` (:func:`add_arguments` / :func:`run`) prints
:func:`summarize` and the critical paths of a fresh traced simulation or
of a JSONL export.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..obs.export import read_jsonl, write_jsonl
from ..obs.tracer import TraceEvent, Tracer
from .critical_path import critical_paths, format_paths

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
    """Headline numbers for a trace, for the CLI and quick looks."""

    events: int
    kinds: dict[str, int]
    parties: int
    protocols: list[str]
    duration: float
    rounds_entered: int
    blocks_committed: int
    commit_latency_mean: float | None
    messages_total: int
    adversary_events: int
    #: Events the ring buffer discarded (from the trace.dropped summary
    #: record that Tracer.export_events appends on overflow).
    dropped: int = 0


def summarize(events: Sequence[TraceEvent]) -> TraceSummary:
    """Aggregate a trace into a :class:`TraceSummary`."""
    kinds = Counter(event.kind for event in events)
    parties = {event.party for event in events if event.party > 0}
    protocols = sorted({event.protocol for event in events})
    duration = max((event.time for event in events), default=0.0)
    committed_blocks = {
        event.payload.get("block") or event.payload.get("batch")
        for event in events
        if event.kind in ("icc.block.committed", "baseline.commit")
    }
    latencies = commit_latencies(events)
    rounds = {
        event.round for event in events if event.kind == "icc.round.enter"
    }
    return TraceSummary(
        events=len(events),
        kinds=dict(sorted(kinds.items())),
        parties=len(parties),
        protocols=protocols,
        duration=duration,
        rounds_entered=len(rounds),
        blocks_committed=len(committed_blocks - {None}),
        commit_latency_mean=(
            sum(latencies.values()) / len(latencies) if latencies else None
        ),
        messages_total=sum(message_counts(events).values()),
        adversary_events=sum(
            count for kind, count in kinds.items() if kind in ADVERSARY_KINDS
        ),
        dropped=sum(
            int(event.payload.get("dropped", 0))
            for event in events
            if event.kind == "trace.dropped"
        ),
    )


def format_summary(summary: TraceSummary) -> str:
    """Human-readable multi-line rendering of a :class:`TraceSummary`."""
    lines = [
        f"events          {summary.events}",
        f"parties         {summary.parties}",
        f"protocols       {', '.join(summary.protocols) or '-'}",
        f"sim duration    {summary.duration:.3f}s",
        f"rounds entered  {summary.rounds_entered}",
        f"blocks committed {summary.blocks_committed}",
    ]
    if summary.commit_latency_mean is not None:
        lines.append(f"commit latency  {summary.commit_latency_mean:.3f}s mean")
    lines.append(f"messages        {summary.messages_total}")
    if summary.dropped:
        lines.append(f"DROPPED events  {summary.dropped} (ring buffer wrapped)")
    if summary.adversary_events:
        lines.append(f"adversary events {summary.adversary_events}")
    lines.append("event kinds:")
    for kind, count in summary.kinds.items():
        lines.append(f"  {kind:28s} {count}")
    return "\n".join(lines)


# ----------------------------------------------------------------------- cli


def add_arguments(parser) -> None:
    """The ``python -m repro trace`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument(
        "--protocol", choices=["icc0", "icc1", "icc2"], default="icc0"
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--export", metavar="PATH", default=None, help="write events as JSONL"
    )
    parser.add_argument(
        "--input", metavar="PATH", default=None,
        help="summarize an existing JSONL export instead of running",
    )


def run(args) -> int:
    """Trace one fixed-delay simulation (or load ``--input``) and print the
    summary and the per-height critical paths.  The quorum is inferred from
    the trace in both modes, so an export re-loads to the same tables."""
    if args.input is not None:
        events = read_jsonl(args.input)
        print(f"loaded {len(events)} events from {args.input}")
    else:
        from ..experiments.common import make_icc_config, run_icc
        from ..sim import FixedDelay

        tracer = Tracer()
        config = make_icc_config(
            args.protocol,
            n=args.n,
            t=(args.n - 1) // 3,
            delta_bound=args.delta * 6,
            delay_model=FixedDelay(args.delta),
            epsilon=args.delta / 5,
            seed=args.seed,
            max_rounds=args.rounds,
        )
        config.tracer = tracer
        cluster = run_icc(config, duration=args.rounds * args.delta * 8)
        events = tracer.export_events()
        print(
            f"{args.protocol.upper()} n={args.n} δ={args.delta * 1000:.0f} ms "
            f"seed={args.seed}: {cluster.min_committed_round()} rounds committed, "
            f"{len(events)} events traced"
        )
        if tracer.dropped:
            print(f"warning: ring buffer dropped {tracer.dropped} events")
    print()
    print(format_summary(summarize(events)))
    print()
    print(format_paths(critical_paths(events)))
    if args.export is not None:
        count = write_jsonl(events, args.export)
        print(f"\nwrote {count} events to {args.export}")
    return 0
