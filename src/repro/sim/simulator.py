"""The simulation kernel: virtual time plus the event loop.

A :class:`Simulation` owns the clock and the event queue.  Everything else
(network, parties, workloads, adversaries) schedules callbacks on it.  All
randomness used anywhere in a run must derive from :attr:`Simulation.rng`
(or a seed drawn from it), which makes runs reproducible.
"""

from __future__ import annotations

from math import inf
from random import Random
from typing import Callable

from ..obs import NULL_TRACER
from .events import EventQueue, Timer


class Simulation:
    """Discrete-event simulation kernel with virtual time in seconds."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = Random(seed)
        self.now: float = 0.0
        self.events = EventQueue()
        self._events_processed = 0
        #: Structured-event tracer (see :mod:`repro.obs`).  The no-op
        #: default makes tracing free; install a real Tracer *before*
        #: building parties/networks — they cache this reference.
        self.tracer = NULL_TRACER

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return Timer(self.events, self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Timer:
        """Run ``action`` at absolute simulated time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return Timer(self.events, time, action)

    def defer(self, action: Callable[[], None]) -> None:
        """Run ``action`` once the input being handled is done.  Every
        simulated delivery and timer is an event of its own, so that is at
        once (a wall clock waits for the end of its loop turn)."""
        action()

    def fork_rng(self, label: str = "") -> Random:
        """Derive an independent RNG stream (for a party, workload, ...)."""
        return Random(f"{self.rng.getrandbits(64)}/{label}")

    # -- running ------------------------------------------------------------

    def step(self, until: float = inf) -> bool:
        """Process the next event due by ``until``; False if there is none."""
        entry = self.events.pop(until)
        if entry is None:
            return False
        if entry[0] < self.now:  # pragma: no cover - defensive
            raise RuntimeError("event queue went backwards in time")
        self.now = entry[0]
        self._events_processed += 1
        entry[2](entry[3])
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Drain events until a bound is reached.

        * ``until``     — process every event due at or before this time,
                          then advance the clock to it (also when the
                          queue drains first; never backwards).
        * ``max_events``— hard cap on processed events (guards against
                          livelock bugs in protocol code).
        * ``stop_when`` — predicate checked after every event.
        """
        bound = inf if until is None else until
        step = self.step
        processed = 0
        while True:
            if processed == max_events:
                next_time = self.events.peek_time()
                if next_time is not None and next_time <= bound:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}; "
                        "possible livelock in protocol logic"
                    )
            if not step(bound):
                if until is not None and until > self.now:
                    self.now = until
                break
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
