"""Declarative fault scenarios: typed, seeded schedules of fault events.

The paper's robustness claims (Table 1 under f Byzantine parties,
liveness after partitions heal in the partially-synchronous model) are
about *behaviour under faults*.  A :class:`Scenario` makes the fault side
of such an experiment first-class data instead of hand-wired
``Network.crash`` calls: a named, seeded, composable schedule of typed
fault events that can be validated, serialized to JSON, generated
randomly (:mod:`repro.faults.generate`) and executed against any cluster
(:mod:`repro.faults.inject`).

The fault model (documented in ``docs/FAULTS.md``) distinguishes:

* **process faults** — :class:`CrashFault` / :class:`RecoverFault`
  (a node going silent and rejoining) and :class:`ByzantineFault`
  (a statically corrupted party running an adversary behaviour from
  :mod:`repro.adversary`);
* **network faults** — :class:`PartitionFault` (messages across the cut
  held until heal), :class:`LinkFault` (per-link probabilistic drop,
  duplication, payload corruption, latency and jitter inside a time
  window; a party whose clock runs late is ``LinkFault(sender=p,
  extra_delay=offset)``: everything it sends lags by the offset), and
  :class:`OutageFault` (a full-network asynchronous stretch: deliveries
  land after the outage ends, realising the paper's intermittent-synchrony
  assumption).  All three are decisions of one per-delivery interceptor
  (:class:`repro.faults.inject.FaultInjector`); the network itself only
  knows which parties are crashed.

All timestamps are simulator seconds.  Events are frozen dataclasses so
scenarios are hashable, picklable and comparable — the determinism the
parallel runner relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping


@dataclass(frozen=True)
class CrashFault:
    """Silence ``party`` at time ``at`` (crash failure / node offline)."""

    at: float
    party: int

    kind = "crash"


@dataclass(frozen=True)
class RecoverFault:
    """Bring a previously crashed ``party`` back at time ``at``."""

    at: float
    party: int

    kind = "recover"


@dataclass(frozen=True)
class PartitionFault:
    """Partition ``group`` from the rest from ``at`` until ``heal_at``.

    Messages across the cut are held back and delivered at heal time, so
    eventual delivery — the paper's standing assumption — holds.  When
    several live partitions separate a pair, a copy waits for the *last*
    of them to heal.  A crashed party in ``group`` is still crashed: its
    copies are dropped, not held, until it recovers.
    """

    at: float
    group: tuple[int, ...]
    heal_at: float

    kind = "partition"


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic per-link interference inside ``[start, end)``.

    ``sender``/``receiver`` of ``None`` match any party, so one event can
    degrade a single directed link, everything a party sends, everything
    it receives, or the whole fabric.  Within the window each delivery
    independently suffers:

    * ``drop_prob`` — lost outright (windows are finite, so eventual
      delivery holds *after* the fault clears; protocols recover via
      rebroadcast and the catch-up subprotocol);
    * ``duplicate_prob`` — delivered twice (the second copy trails by a
      uniform fraction of the original delay);
    * ``corrupt_prob`` — the payload is tampered in flight; signature /
      hash checks at the receiver must reject it (messages that carry no
      tamperable authenticated field are dropped instead — equivalent
      from the receiver's point of view);
    * ``extra_delay`` + uniform ``jitter`` — a latency spike (with
      ``sender=p`` and no jitter, ``p``'s clock running ``extra_delay``
      late: a late clock makes every locally-timed send late).
    """

    start: float
    end: float
    sender: int | None = None
    receiver: int | None = None
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    corrupt_prob: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0

    kind = "link"


@dataclass(frozen=True)
class OutageFault:
    """A full-network asynchronous stretch over ``[start, end)``.

    Any message sent during the window, or whose natural arrival lands in
    it, is held so that it arrives one base delay after the window ends
    (a message sent inside the window whose natural arrival lies beyond
    it arrives one base delay after that arrival).  A schedule of outages
    is how intermittent synchrony is written — the experiments E8 (P3)
    and E10 run one; see :func:`outage_schedule`.
    """

    start: float
    end: float

    kind = "outage"


@dataclass(frozen=True)
class ByzantineFault:
    """Statically corrupt ``party`` with a named adversary behaviour.

    ``behavior`` names an entry in the behaviour registry
    (:data:`repro.faults.inject.BEHAVIORS`); ``params`` are its keyword
    arguments as a sorted items tuple (hashable and picklable, matching
    the :class:`~repro.experiments.runner.RunSpec` convention).
    Byzantine corruption is static (the paper's model), so this event
    has no timestamp — it applies from the start of the run.
    """

    party: int
    behavior: str
    params: tuple[tuple[str, Any], ...] = ()

    kind = "byzantine"

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)


#: Every concrete event type, keyed by its ``kind`` tag.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        CrashFault,
        RecoverFault,
        PartitionFault,
        LinkFault,
        OutageFault,
        ByzantineFault,
    )
}

FaultEvent = (
    CrashFault
    | RecoverFault
    | PartitionFault
    | LinkFault
    | OutageFault
    | ByzantineFault
)


class ScenarioError(ValueError):
    """A scenario failed validation (inconsistent or out-of-range events)."""


def _settle_time(event: FaultEvent) -> float:
    """When this event's disturbance is over (static faults settle at 0)."""
    if isinstance(event, (CrashFault, RecoverFault)):
        return event.at
    if isinstance(event, PartitionFault):
        return event.heal_at
    if isinstance(event, (LinkFault, OutageFault)):
        return event.end
    return 0.0  # ByzantineFault: standing corruption, tolerated by assumption


@dataclass(frozen=True)
class Scenario:
    """A named, seeded schedule of fault events.

    ``seed`` drives every probabilistic decision the injector makes while
    executing the scenario (drop/duplicate/corrupt rolls, jitter), through
    an RNG stream independent of the simulation's own — so attaching a
    scenario is deterministic and repeatable by construction.
    """

    name: str
    seed: int = 0
    events: tuple[FaultEvent, ...] = ()

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    def byzantine(self) -> dict[int, ByzantineFault]:
        """Corrupted party index -> its behaviour declaration."""
        return {e.party: e for e in self.events if isinstance(e, ByzantineFault)}

    def clear_time(self) -> float:
        """When the last fault clears (0.0 for an all-static scenario).

        Standing Byzantine corruption does not count — the protocol is
        expected to stay live *despite* it (t < n/3); the liveness
        invariant measures resumption after every *transient* fault has
        settled.
        """
        return max((_settle_time(e) for e in self.events), default=0.0)

    def needs_interceptor(self) -> bool:
        """True when any event requires the per-delivery network hook."""
        return any(
            isinstance(e, (PartitionFault, LinkFault, OutageFault)) for e in self.events
        )

    # -- validation -----------------------------------------------------------

    def validate(self, n: int) -> None:
        """Raise :class:`ScenarioError` unless the scenario is coherent."""

        def check_party(index: int, what: str) -> None:
            if not 1 <= index <= n:
                raise ScenarioError(f"{what}: party {index} outside 1..{n}")

        def check_prob(value: float, what: str) -> None:
            if not 0.0 <= value <= 1.0:
                raise ScenarioError(f"{what}: probability {value} outside [0, 1]")

        crash_state: dict[int, list[tuple[float, bool]]] = {}
        byz: set[int] = set()
        for event in self.events:
            # NaN passes every range check below (all its comparisons are
            # false), so non-finite numbers are refused up front.
            for f in fields(event):
                value = getattr(event, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioError(f"{event.kind}: {f.name} is {value}, not finite")
            if isinstance(event, (CrashFault, RecoverFault)):
                check_party(event.party, event.kind)
                if event.at < 0:
                    raise ScenarioError(f"{event.kind}: negative time {event.at}")
                crash_state.setdefault(event.party, []).append(
                    (event.at, isinstance(event, CrashFault))
                )
            elif isinstance(event, PartitionFault):
                if event.at < 0:
                    raise ScenarioError(f"partition: negative time {event.at}")
                if not event.group:
                    raise ScenarioError("partition: empty group")
                for index in event.group:
                    check_party(index, "partition")
                if event.heal_at <= event.at:
                    raise ScenarioError(
                        f"partition: heal_at {event.heal_at} not after {event.at}"
                    )
            elif isinstance(event, (LinkFault, OutageFault)):
                if event.end <= event.start or event.start < 0:
                    raise ScenarioError(
                        f"{event.kind}: bad window [{event.start}, {event.end})"
                    )
                if isinstance(event, LinkFault):
                    for index, what in ((event.sender, "sender"), (event.receiver, "receiver")):
                        if index is not None:
                            check_party(index, f"link {what}")
                    check_prob(event.drop_prob, "link drop_prob")
                    check_prob(event.duplicate_prob, "link duplicate_prob")
                    check_prob(event.corrupt_prob, "link corrupt_prob")
                    if event.extra_delay < 0 or event.jitter < 0:
                        raise ScenarioError("link: negative delay/jitter")
            elif isinstance(event, ByzantineFault):
                check_party(event.party, "byzantine")
                if event.party in byz:
                    raise ScenarioError(
                        f"byzantine: party {event.party} corrupted twice"
                    )
                byz.add(event.party)
            else:  # pragma: no cover - EVENT_TYPES is the closed set
                raise ScenarioError(f"unknown event type {type(event).__name__}")
        # Crash/recover must alternate per party, in time order.
        for party, transitions in crash_state.items():
            transitions.sort(key=lambda item: item[0])
            down = False
            for at, is_crash in transitions:
                if is_crash and down:
                    raise ScenarioError(f"party {party} crashed twice without recover")
                if not is_crash and not down:
                    raise ScenarioError(f"party {party} recovered without a crash")
                down = is_crash
        overlap = byz & {
            e.party for e in self.events if isinstance(e, (CrashFault, RecoverFault))
        }
        if overlap:
            raise ScenarioError(
                f"parties both Byzantine and crash-scheduled: {sorted(overlap)}"
            )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (the schema documented in ``docs/FAULTS.md``)."""
        out_events = []
        for event in self.events:
            entry: dict[str, Any] = {"kind": event.kind}
            for f in fields(event):
                value = getattr(event, f.name)
                if f.name == "group":
                    value = list(value)
                elif f.name == "params":
                    value = dict(value)
                entry[f.name] = value
            out_events.append(entry)
        return {"name": self.name, "seed": self.seed, "events": out_events}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        events = []
        for entry in data.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_type = EVENT_TYPES.get(kind)
            if event_type is None:
                raise ScenarioError(f"unknown fault event kind {kind!r}")
            if "group" in entry:
                entry["group"] = tuple(entry["group"])
            if "params" in entry:
                entry["params"] = tuple(sorted(dict(entry["params"]).items()))
            try:
                events.append(event_type(**entry))
            except TypeError as exc:
                raise ScenarioError(f"bad {kind} event: {exc}") from None
        return cls(
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 0)),
            events=tuple(events),
        )

    def describe(self) -> str:
        """Compact one-line summary, e.g. ``2 crash, 1 partition, 1 link``."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        if not counts:
            return "fault-free"
        return ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))


def outage_schedule(
    period: float, sync_len: float, duration: float
) -> tuple[OutageFault, ...]:
    """Outage windows realising intermittent synchrony over ``duration``.

    The network is synchronous for the first ``sync_len`` seconds of every
    ``period`` and in outage for the rest, so the synchronous windows are
    the instants with ``time % period < sync_len``
    (``tests/faults/test_ports.py`` pins the schedule against a reference
    delay model that stretches deliveries by that rule).
    ``sync_len == period`` is a network that is always synchronous: no
    windows.
    """
    if not 0 < sync_len <= period:
        raise ScenarioError("need 0 < sync_len <= period")
    if sync_len == period:
        return ()
    windows = []
    start = sync_len
    while start < duration + period:
        windows.append(OutageFault(start=start, end=start - sync_len + period))
        start += period
    return tuple(windows)
