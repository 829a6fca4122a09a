"""The simulation kernel: virtual time plus the event loop.

A :class:`Simulation` owns the clock and the event queue.  Everything else
(network, parties, workloads, adversaries) schedules callbacks on it.  All
randomness used anywhere in a run must derive from :attr:`Simulation.rng`
(or a seed drawn from it), which makes runs reproducible.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from ..obs import NULL_TRACER
from .events import EventHandle, EventQueue


class Simulation:
    """Discrete-event simulation kernel with virtual time in seconds.

    ``event_queue`` swaps the queue implementation (any object with the
    ``EventQueue`` contract — e.g. :class:`repro.sim.events.HeapEventQueue`
    for the legacy single-heap baseline); pass it at construction, before
    anything is scheduled.  Both implementations pop the identical
    (time, seq) order, so runs are bit-identical either way.
    """

    def __init__(self, seed: int = 0, event_queue: EventQueue | None = None) -> None:
        self.rng = Random(seed)
        self.now: float = 0.0
        self.events = event_queue if event_queue is not None else EventQueue()
        self._events_processed = 0
        #: Structured-event tracer (see :mod:`repro.obs`).  The no-op
        #: default makes tracing free; install a real Tracer *before*
        #: building parties/networks — they cache this reference.
        self.tracer = NULL_TRACER

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.events.schedule(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Run ``action`` at absolute simulated time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.events.schedule(time, action)

    def fork_rng(self, label: str = "") -> Random:
        """Derive an independent RNG stream (for a party, workload, ...)."""
        return Random(f"{self.rng.getrandbits(64)}/{label}")

    # -- running ------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        event = self.events.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise RuntimeError("event queue went backwards in time")
        self.now = event.time
        self._events_processed += 1
        event.action()
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Drain events until a bound is reached.

        * ``until``     — stop once virtual time would exceed this value
                          (the clock is advanced to ``until``).
        * ``max_events``— hard cap on processed events (guards against
                          livelock bugs in protocol code).
        * ``stop_when`` — predicate checked after every event.
        """
        processed = 0
        while True:
            next_time = self.events.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            if max_events is not None and processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}; "
                    "possible livelock in protocol logic"
                )
            self.step()
            processed += 1
            if stop_when is not None and stop_when():
                break
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.now, party=0, protocol="sim", round=None, kind="sim.run",
                payload={"events_processed": processed, "until": until},
            )

    @property
    def events_processed(self) -> int:
        return self._events_processed
