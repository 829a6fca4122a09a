"""Distributed trace collection and clock alignment for live clusters.

A live cluster run (:mod:`repro.net.live`) produces one trace JSONL and
one result JSON *per process*, each stamped on that
process's private timeline (``WallClock.now`` counts seconds from the
process's own epoch).  This module turns those n private timelines into
one:

1. **Self-identification** — every per-process export starts with a
   header line (:func:`trace_header`) carrying the schema version, the
   run id, the party index and the cluster id, so a trace file is
   attributable without trusting its filename — and the two facts that
   place its timeline: ``clock_epoch_s``, the party's
   :attr:`~repro.net.clock.WallClock.epoch`, and ``host``
   (:func:`~repro.net.clock.host_id`), which names the monotonic clock
   that epoch was read from.

2. **Exact alignment on one host** — every process of a host reads the
   same ``CLOCK_MONOTONIC``, so party ``p``'s local time ``t`` is the
   reference party's ``t + epoch_p - epoch_ref``: the offset is a
   difference of two header fields, not an estimate, and carries no
   uncertainty.  Traces from different hosts share no clock and are
   refused; every live run is on one host.

3. **Collection** — :func:`collect_run` reads every per-process file in
   a run directory, refuses headers that disagree on ``run_id``,
   ``cluster_id`` or ``host`` (or predate schema 2), shifts all events
   onto the reference party's timeline and writes ``merged-trace.jsonl``
   and ``alignment.json``.  The merged trace is a
   normal trace: every existing analysis (critical paths, trace queries,
   reports) runs on it unchanged.  ``python -m repro collect``
   (:func:`add_arguments` / :func:`run`) is that step as a command; its
   ``--check`` also holds the aligned timeline to causality — no matched
   ``net.wire.recv`` may precede its ``net.wire.send``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from .export import read_jsonl_with_header, write_jsonl
from .tracer import TraceEvent

#: Version of the per-process JSONL layout (header line + event lines).
#: 2: the header carries ``clock_epoch_s`` and ``host``.
SCHEMA_VERSION = 2


class CollectError(RuntimeError):
    """A run directory cannot be collected (missing/mixed/unversioned)."""


def trace_header(
    *,
    run_id: str,
    party: int,
    clock_epoch_s: float,
    host: str,
    cluster_id: str = "",
    schema: int = SCHEMA_VERSION,
    **extra: object,
) -> dict:
    """The self-identifying first line of a per-process trace export."""
    header = {
        "schema": schema,
        "run_id": run_id,
        "party": party,
        "cluster_id": cluster_id,
        "clock_epoch_s": clock_epoch_s,
        "host": host,
    }
    header.update(extra)
    return header


@dataclass
class ClockAlignment:
    """Every party's timeline relative to the reference party's, on one host.

    ``offsets[p]`` is party ``p``'s clock epoch minus the reference's, in
    seconds: added to a time party ``p`` recorded, it gives the reference
    party's reading of the same instant.
    """

    reference: int
    host: str
    offsets: dict[int, float]

    def shift(self, party: int, t: float) -> float:
        """Map party-local time ``t`` onto the reference timeline."""
        return t + self.offsets[party]

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "host": self.host,
            "offsets_s": {str(p): o for p, o in sorted(self.offsets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClockAlignment":
        return cls(
            reference=int(data["reference"]),
            host=str(data["host"]),
            offsets={int(p): float(o) for p, o in data["offsets_s"].items()},
        )


def align_events(
    events_by_party: dict[int, list[TraceEvent]], alignment: ClockAlignment
) -> list[TraceEvent]:
    """Shift every party's events onto the reference timeline and merge,
    sorted by aligned time.  ``not_before`` (``icc.share.notarization``) is
    an instant on the same party's clock, so it moves with its event."""
    merged: list[TraceEvent] = []
    for party, events in events_by_party.items():
        for event in events:
            payload = event.payload
            if "not_before" in payload:
                payload = {
                    **payload,
                    "not_before": alignment.shift(party, payload["not_before"]),
                }
            merged.append(
                TraceEvent(
                    time=alignment.shift(party, event.time),
                    party=event.party,
                    protocol=event.protocol,
                    round=event.round,
                    kind=event.kind,
                    payload=payload,
                )
            )
    merged.sort(key=lambda e: e.time)
    return merged


# ---------------------------------------------------------------- collection


@dataclass
class CollectedRun:
    """Everything :func:`collect_run` produced for one run directory."""

    run_id: str
    cluster_id: str
    parties: list[int]
    alignment: ClockAlignment
    events: list[TraceEvent]
    results: dict[int, dict]
    merged_trace_path: str = ""
    alignment_path: str = ""


def collect_run(run_dir: str | pathlib.Path, *, write: bool = True) -> CollectedRun:
    """Merge one run directory's per-process traces.

    Expects ``trace-<i>.jsonl`` files (with headers) plus optional
    ``result-<i>.json``; refuses headerless traces, schemas other than
    :data:`SCHEMA_VERSION`, duplicate parties and headers that disagree on
    ``run_id``, ``cluster_id`` or ``host``.  When ``write`` is true the
    aligned artefacts (``merged-trace.jsonl``, ``alignment.json``) are
    written back into the directory.
    """
    run_dir = pathlib.Path(run_dir)
    trace_files = sorted(run_dir.glob("trace-*.jsonl"))
    if not trace_files:
        raise CollectError(f"no trace-*.jsonl files in {run_dir}")
    events_by_party: dict[int, list[TraceEvent]] = {}
    epochs: dict[int, float] = {}
    first: tuple[dict, str] | None = None  # the header the others must match
    for path in trace_files:
        header, events = read_jsonl_with_header(str(path))
        if header is None:
            raise CollectError(
                f"{path.name}: no trace header (re-run with a current "
                "`repro serve --trace`; headerless traces are not "
                "attributable to a run/party)"
            )
        schema = int(header.get("schema", 0))
        if schema != SCHEMA_VERSION:
            raise CollectError(
                f"{path.name}: unsupported trace schema {schema} (this "
                f"collector reads {SCHEMA_VERSION}, whose header places the "
                "timeline: clock_epoch_s and host)"
            )
        first = first or (header, path.name)
        for key in ("run_id", "cluster_id", "host"):
            if header[key] != first[0][key]:
                raise CollectError(
                    f"{path.name}: mixed {key}s — {header[key]!r} here, "
                    f"{first[0][key]!r} in {first[1]}; these traces must "
                    "not be merged"
                )
        party = int(header["party"])
        if party in events_by_party:
            raise CollectError(f"{path.name}: duplicate trace for party {party}")
        epochs[party] = float(header["clock_epoch_s"])
        events_by_party[party] = events
    run_id, cluster_id, host = first[0]["run_id"], first[0]["cluster_id"], first[0]["host"]

    results: dict[int, dict] = {}
    for path in sorted(run_dir.glob("result-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        result_run = str(data.get("run_id", run_id))
        if result_run != run_id:
            raise CollectError(
                f"{path.name}: run_id {result_run!r} does not match the "
                f"traces' {run_id!r}"
            )
        results[int(data.get("index", -1))] = data

    reference = min(epochs)
    alignment = ClockAlignment(
        reference=reference,
        host=host,
        offsets={p: epoch - epochs[reference] for p, epoch in sorted(epochs.items())},
    )
    events = align_events(events_by_party, alignment)

    collected = CollectedRun(
        run_id=run_id,
        cluster_id=cluster_id,
        parties=sorted(events_by_party),
        alignment=alignment,
        events=events,
        results=results,
    )
    if write:
        merged_trace = run_dir / "merged-trace.jsonl"
        write_jsonl(
            events,
            str(merged_trace),
            header=trace_header(
                run_id=run_id,
                party=reference,
                clock_epoch_s=epochs[reference],
                host=host,
                cluster_id=cluster_id,
                merged=True,
                parties=collected.parties,
            ),
        )
        alignment_path = run_dir / "alignment.json"
        alignment_path.write_text(
            json.dumps(alignment.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        collected.merged_trace_path = str(merged_trace)
        collected.alignment_path = str(alignment_path)
    return collected


# ----------------------------------------------------------------------- cli


def add_arguments(parser) -> None:
    """The ``python -m repro collect`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument(
        "run_dir",
        help="directory holding cluster.json and the trace-*.jsonl / "
             "result-*.json of one `repro live --trace-dir` run",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the run report (markdown; what `repro report "
             "--load --trace-dir RUN_DIR` renders)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless heights finalized, the per-height stage spans "
             "telescope to the measured latency and no message is received "
             "before it was sent",
    )


def run(args) -> int:
    """Merge + align one run directory, then judge it the way its report
    does: same loader, same quorum (``n - t`` of ``cluster.json``)."""
    from ..analysis.critical_path import consistency_line, wire_spans
    from ..experiments import run_report

    collected = collect_run(args.run_dir)
    loaded = run_report.load_run(args.run_dir)
    [(_, _, breakdown)] = run_report.analyse(loaded["traces"], loaded["params"])
    print(
        f"collected run {collected.run_id!r}: {len(collected.parties)} parties, "
        f"{len(collected.events)} events, {breakdown['heights']} finalized "
        "heights"
    )
    print(f"merged trace: {collected.merged_trace_path}")
    print(f"alignment:    {collected.alignment_path}")
    print(consistency_line(breakdown))
    if args.report:
        pathlib.Path(args.report).write_text(
            run_report.generate(**loaded), encoding="utf-8"
        )
        print(f"report:       {args.report}")
    if not args.check:
        return 0
    acausal = sorted(
        key for key, span in wire_spans(collected.events).items() if span < 0
    )
    if acausal:
        print(
            f"collect --check FAILED: {len(acausal)} wire spans received before "
            f"sent on the aligned timeline, first (src, dst, seq) = {acausal[0]}"
        )
        return 1
    if not breakdown["spans_telescope"]:
        print("collect --check FAILED: spans do not telescope (or no heights)")
        return 1
    return 0
