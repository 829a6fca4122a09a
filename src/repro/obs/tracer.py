"""The structured-event tracer: ring-buffered collector + zero-cost no-op.

Its three design constraints — zero cost when disabled, bounded memory
when enabled, no behavioural footprint — are written once, in
``docs/OBSERVABILITY.md`` (*Design*); ``tests/obs/test_parity.py`` pins
the last.  Events carry ``(time, party, protocol, round, kind, payload)``;
``kind`` must be a key of :data:`repro.obs.registry.EVENT_KINDS`, and
``docs/OBSERVABILITY.md`` says what each kind means.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, runtime_checkable

from .registry import EVENT_KINDS

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 1 << 20


def short_id(data: bytes) -> str:
    """Short hex identity for a block hash / digest (16 hex chars)."""
    return data.hex()[:16]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event.

    ``party`` is a 1-based party index, or 0 for infrastructure events
    (simulator, network bookkeeping).  ``protocol`` names the emitting
    layer: a protocol name (``ICC0``, ``HotStuff``, ...) or a substrate
    label (``sim``, ``net``, ``gossip``).  ``round`` is the protocol round
    / height when one applies, else None.  ``payload`` holds the
    kind-specific fields declared in the registry; values are JSON-safe.
    """

    time: float
    party: int
    protocol: str
    round: int | None
    kind: str
    payload: Mapping = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSONL exporter."""
        return {
            "time": self.time,
            "party": self.party,
            "protocol": self.protocol,
            "round": self.round,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceEvent":
        return cls(
            time=float(data["time"]),
            party=int(data["party"]),
            protocol=str(data["protocol"]),
            round=None if data.get("round") is None else int(data["round"]),
            kind=str(data["kind"]),
            payload=dict(data.get("payload", {})),
        )


class UnknownEventKind(KeyError):
    """An emit used a kind that is not in the registry (a schema bug)."""


@runtime_checkable
class TracerLike(Protocol):
    """What a tracer must provide to be installed on a Simulation or
    passed as ``ClusterConfig.tracer``: an ``enabled`` flag that emit
    sites guard on, and the keyword-only ``emit``.  :class:`Tracer` and
    :class:`NullTracer` both satisfy it."""

    def emit(
        self,
        *,
        time: float,
        party: int,
        protocol: str,
        round: int | None,
        kind: str,
        payload: Mapping | None = None,
    ) -> None: ...


class Tracer:
    """Ring-buffered in-memory trace collector."""

    enabled = True

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.capacity = capacity
        self.emitted = 0
        self._drop_warned = False

    def emit(
        self,
        *,
        time: float,
        party: int,
        protocol: str,
        round: int | None,
        kind: str,
        payload: Mapping | None = None,
    ) -> None:
        """Record one event.  ``kind`` must be registered."""
        if kind not in EVENT_KINDS:
            raise UnknownEventKind(
                f"trace event kind {kind!r} is not registered in repro.obs.registry"
            )
        self._buffer.append(
            TraceEvent(
                time=time,
                party=party,
                protocol=protocol,
                round=round,
                kind=kind,
                payload=payload if payload is not None else {},
            )
        )
        self.emitted += 1
        # First eviction: say so once, loudly — a silently truncated trace
        # reads as a complete one to every downstream analysis.
        if (
            not self._drop_warned
            and self.capacity is not None
            and self.emitted > self.capacity
        ):
            self._drop_warned = True
            warnings.warn(
                f"trace ring buffer full (capacity {self.capacity}); oldest "
                "events are being dropped — raise Tracer(capacity=...) or "
                "export more often (exports carry a trace.dropped summary)",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- queries ---------------------------------------------------------------

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """A snapshot of buffered events, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [e for e in self._buffer if e.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(list(self._buffer))

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.emitted - len(self._buffer)

    def export_events(self) -> list[TraceEvent]:
        """Events for export: the buffer, plus a trailing ``trace.dropped``
        summary event when the ring evicted anything — so a truncated
        JSONL export is distinguishable from a complete one after reload
        (the trace-health table of ``repro report`` surfaces it)."""
        events = list(self._buffer)
        if self.dropped:
            last_time = events[-1].time if events else 0.0
            events.append(
                TraceEvent(
                    time=last_time,
                    party=0,
                    protocol="trace",
                    round=None,
                    kind="trace.dropped",
                    payload={
                        "dropped": self.dropped,
                        "emitted": self.emitted,
                        "capacity": self.capacity,
                    },
                )
            )
        return events

    def clear(self) -> None:
        self._buffer.clear()
        self.emitted = 0
        self._drop_warned = False


class NullTracer:
    """The zero-cost disabled tracer: emits nothing, stores nothing.

    ``enabled`` is False, so guarded call sites never build payloads; a
    stray unguarded ``emit`` is still a harmless no-op.
    """

    enabled = False
    capacity = 0
    emitted = 0
    dropped = 0

    def emit(self, **kwargs) -> None:  # noqa: D102 - intentional no-op
        pass

    def events(self, kind: str | None = None) -> list[TraceEvent]:  # noqa: D102
        return []

    def export_events(self) -> list[TraceEvent]:  # noqa: D102
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def clear(self) -> None:  # noqa: D102
        pass


#: The shared default tracer; everything points here unless a run installs
#: a real :class:`Tracer` (e.g. via ``ClusterConfig(tracer=...)``).
NULL_TRACER = NullTracer()
