"""Distributed trace collection for live clusters.

A live cluster run (:mod:`repro.net.live`) produces one trace JSONL and
one result JSON *per process*.  Every party stamps its events with
``WallClock.now``, the host's monotonic clock, so all of a host's
processes already write on one timeline.  This module turns the n files
into one run:

1. **Self-identification** — every per-process export starts with a
   header line (:func:`trace_header`) carrying the schema version, the
   run id, the party index, the cluster id and ``host``
   (:func:`~repro.net.clock.host_id`), which names the monotonic clock
   the party's times were read from.  A trace file is attributable
   without trusting its filename.

2. **Collection** — :func:`collect_run` reads every per-process file in
   a run directory, refuses headers that disagree on ``run_id``,
   ``cluster_id`` or ``host`` (traces from different hosts share no
   clock; every live run is on one host) or that carry another schema,
   merges all events by time and writes ``merged-trace.jsonl``.  The
   merged trace is a normal trace: every existing analysis (critical
   paths, trace queries, reports) runs on it unchanged.  ``python -m
   repro report --load --trace-dir D`` collects ``D`` each time it loads it;
   its ``--check`` also holds the timeline to causality — no matched
   ``net.wire.recv`` may precede its ``net.wire.send``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from .export import read_jsonl_with_header, write_jsonl
from .tracer import TraceEvent

#: Version of the per-process JSONL layout (header line + event lines).
#: 2: the header carried the party's clock epoch and ``host``.  3: times
#: are the host's monotonic clock itself, so no header field shifts them.
SCHEMA_VERSION = 3


class CollectError(RuntimeError):
    """A run directory cannot be collected (missing/mixed/unversioned)."""


def trace_header(
    *,
    run_id: str,
    party: int,
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
        "host": host,
    }
    header.update(extra)
    return header


# ---------------------------------------------------------------- collection


@dataclass
class CollectedRun:
    """Everything :func:`collect_run` produced for one run directory."""

    run_id: str
    cluster_id: str
    parties: list[int]
    events: list[TraceEvent]
    results: dict[int, dict]
    merged_trace_path: str = ""


def collect_run(run_dir: str | pathlib.Path, *, write: bool = True) -> CollectedRun:
    """Merge one run directory's per-process traces.

    Expects ``trace-<i>.jsonl`` files (with headers) plus optional
    ``result-<i>.json``; refuses headerless traces, schemas other than
    :data:`SCHEMA_VERSION`, duplicate parties and headers that disagree on
    ``run_id``, ``cluster_id`` or ``host``.  When ``write`` is true the
    merged trace (``merged-trace.jsonl``) is written back into the
    directory.
    """
    run_dir = pathlib.Path(run_dir)
    trace_files = sorted(run_dir.glob("trace-*.jsonl"))
    if not trace_files:
        raise CollectError(f"no trace-*.jsonl files in {run_dir}")
    events_by_party: dict[int, list[TraceEvent]] = {}
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
                f"collector reads {SCHEMA_VERSION}, whose times are the "
                "host's monotonic clock)"
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

    events = [event for party_events in events_by_party.values() for event in party_events]
    events.sort(key=lambda e: e.time)

    collected = CollectedRun(
        run_id=run_id,
        cluster_id=cluster_id,
        parties=sorted(events_by_party),
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
                party=collected.parties[0],
                host=host,
                cluster_id=cluster_id,
                merged=True,
                parties=collected.parties,
            ),
        )
        collected.merged_trace_path = str(merged_trace)
    return collected

