"""The discrete-event simulator's event queue.

A deterministic priority queue of timed callbacks: one binary heap of
``(time, seq, event)`` tuples.  Ties are broken by insertion order (a
monotone sequence number), so two events scheduled for the same instant
always fire in the order they were scheduled — this is what makes
whole-simulation runs reproducible bit-for-bit.  Every heap comparison is a
tuple comparison in C, and the event object carries no ordering of its own.

``schedule(time, action)`` returns the scheduled event itself (``time``,
``cancelled``, ``cancel()``), and ``pop`` hands back the next live one.
Cancelled events are dropped lazily at the head; ``__len__`` is O(1): a
live-event counter is decremented on cancel and pop.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Callable


class _QueuedEvent:
    """One scheduled callback, and the handle ``schedule`` returns for it.

    The queue stores it inside a ``(time, seq, event)`` tuple and orders by
    the tuple's first two fields, so the event itself needs no ordering.
    ``_queue`` is the owning queue while the event is pending and ``None``
    once it has been popped or cancelled, which is what keeps ``len()``
    exact under double-cancel and cancel-after-fire.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "_queue")

    def __init__(
        self, queue: "EventQueue", time: float, seq: int, action: Callable[[], None]
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue: EventQueue | None = queue

    def cancel(self) -> None:
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None
        self.cancelled = True


class EventQueue:
    """One binary heap of ``(time, seq, event)`` entries."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._live = 0
        self._heap: list[tuple[float, int, _QueuedEvent]] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, action: Callable[[], None]) -> _QueuedEvent:
        # NaN fails both comparisons, so one check rejects negative,
        # infinite and NaN times alike.
        if not 0.0 <= time < inf:
            raise ValueError(f"cannot schedule an event at time {time}")
        self._live += 1
        seq = next(self._counter)
        event = _QueuedEvent(self, time, seq, action)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> _QueuedEvent | None:
        """Next non-cancelled event, or None when the queue is drained."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def peek_time(self) -> float | None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


# bench/tracing.py patches this name for the `sim.queue` span; the next
# [benchmark] change points the span at EventQueue and deletes the alias.
CalendarEventQueue = EventQueue

__all__ = ["EventQueue"]
