"""The discrete-event simulator's event queue.

One binary heap of ``(time, seq, fn, arg)`` tuples, each meaning "call
``fn(arg)`` at ``time``".  Ties are broken by insertion order (a monotone
sequence number), so two events scheduled for the same instant always fire
in the order they were scheduled — this is what makes whole-simulation runs
reproducible bit-for-bit.  Every heap comparison is a tuple comparison in C.

``schedule(time, fn, arg)`` allocates the tuple and nothing else: a network
copy is ``(time, seq, deliver, message)``.  Only a :class:`Timer` is a
handle: ``Timer(queue, time, action)`` queues ``(time, seq, _run_timer,
timer)``; ``pop`` drops a cancelled one when it reaches the head, and
``__len__`` subtracts those still queued.  ``schedule`` and ``pop`` are the
one entry and the one exit, which is where a profiler hooks the queue.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable


class Timer:
    """A cancellable ``action()`` at ``time``: ``seq``, ``cancelled`` and
    ``cancel()``.  ``_queue`` is the owning queue while the timer is
    pending and ``None`` once popped or cancelled, which keeps ``len()``
    exact under double cancel and cancel after pop."""

    __slots__ = ("time", "seq", "action", "cancelled", "_queue")

    def __init__(self, queue: "EventQueue", time: float, action: Callable[[], None]) -> None:
        self.time = time
        self.action = action
        self.cancelled = False
        self._queue: EventQueue | None = queue
        self.seq = queue.schedule(time, _run_timer, self)

    def cancel(self) -> None:
        queue = self._queue
        if queue is not None:
            queue._cancelled += 1
            self._queue = None
        self.cancelled = True


def _run_timer(timer: Timer) -> None:
    timer.action()


class EventQueue:
    """One binary heap of ``(time, seq, fn, arg)`` entries."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled timers still in the heap
        self._heap: list[tuple] = []

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def schedule(self, time: float, fn: Callable[[Any], None], arg: Any = None) -> int:
        """Queue ``fn(arg)`` at ``time``; returns the entry's ``seq``."""
        # NaN fails both comparisons, so one check rejects negative,
        # infinite and NaN times alike.
        if not 0.0 <= time < inf:
            raise ValueError(f"cannot schedule an event at time {time}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq, fn, arg))
        return seq

    def pop(self, until: float = inf) -> tuple | None:
        """Next live entry due at or before ``until``, or None."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            entry = heapq.heappop(heap)
            if entry[2] is _run_timer:
                if entry[3].cancelled:
                    self._cancelled -= 1
                    continue
                entry[3]._queue = None
            return entry
        return None

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap and heap[0][2] is _run_timer and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None


# bench/tracing.py patches this name for the `sim.queue` span; the next
# [benchmark] change points the span at EventQueue and deletes the alias.
CalendarEventQueue = EventQueue

__all__ = ["EventQueue", "Timer"]
