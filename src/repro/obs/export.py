"""JSONL import/export for traces.

One JSON object per line, in emit order, with the exact field layout of
:meth:`repro.obs.TraceEvent.to_dict`:

    {"time": 0.15, "party": 3, "protocol": "ICC0", "round": 1,
     "kind": "icc.block.proposed", "payload": {"block": "9f3a...", ...}}

Round-trips losslessly (``tests/obs`` pins this).  Payload values that are
raw ``bytes`` are converted to hex defensively; emit sites should already
pass JSON-safe values.

Live runs prepend a **header line**: a JSON object carrying
``{"trace_header": {"schema": 2, "run_id": ..., "party": ...,
"cluster_id": ..., "clock_epoch_s": ..., "host": ...}}`` that makes a
per-process export self-identifying and places its timeline
(see :mod:`repro.obs.distributed`).  :func:`read_jsonl` skips header
lines transparently; :func:`read_jsonl_with_header` returns them.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping

from .tracer import TraceEvent

#: Key that marks a JSONL line as a trace header rather than an event.
HEADER_KEY = "trace_header"


def _json_safe(value: object) -> object:
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def write_jsonl(
    events: Iterable[TraceEvent],
    path_or_file: str | IO[str],
    *,
    header: Mapping | None = None,
) -> int:
    """Write events as JSONL; returns the number written.

    When ``header`` is given it is written first as
    ``{"trace_header": {...}}`` — one extra line, not counted in the
    return value.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as handle:
            return write_jsonl(events, handle, header=header)
    if header is not None:
        path_or_file.write(
            json.dumps({HEADER_KEY: _json_safe(dict(header))}, sort_keys=True) + "\n"
        )
    count = 0
    for event in events:
        record = event.to_dict()
        record["payload"] = _json_safe(record["payload"])
        path_or_file.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1
    return count


def read_jsonl(path_or_file: str | IO[str]) -> list[TraceEvent]:
    """Read a JSONL trace back into :class:`TraceEvent` objects.

    Header lines (``{"trace_header": ...}``) are skipped, so traces with
    and without headers both load.
    """
    return read_jsonl_with_header(path_or_file)[1]


def read_jsonl_with_header(
    path_or_file: str | IO[str],
) -> tuple[dict | None, list[TraceEvent]]:
    """Read a JSONL trace, returning ``(header, events)``.

    ``header`` is the dict under the ``trace_header`` key of the first
    header line, or None for headerless (simulator-era) traces.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            return read_jsonl_with_header(handle)
    header: dict | None = None
    events: list[TraceEvent] = []
    for line in path_or_file:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if HEADER_KEY in record:
            if header is None:
                header = dict(record[HEADER_KEY])
            continue
        events.append(TraceEvent.from_dict(record))
    return header, events
