"""Event queues for the discrete-event simulator.

A deterministic priority queue of timed callbacks.  Ties are broken by
insertion order (a monotone sequence number), so two events scheduled for
the same instant always fire in the order they were scheduled — this is
what makes whole-simulation runs reproducible bit-for-bit.

Two implementations share one contract: ``schedule(time, action)`` returns
the scheduled event itself (``time``, ``cancelled``, ``cancel()``), and
``pop`` hands back the next live one.  Both store ``(time, seq, event)``
tuples, so every heap comparison is a tuple comparison in C and the event
object carries no ordering of its own.

* :class:`CalendarEventQueue` — the default (exported as ``EventQueue``).
  A calendar queue: near-future events land in an array of fixed-width
  time slots (each a tiny heap of entries), far-future events wait in an
  overflow heap, and the slot window advances/rebuilds itself with a width
  adapted to the observed event spacing.  Pushes into a slot are O(log k)
  for tiny k.
* :class:`HeapEventQueue` — one binary heap of the same entries, kept as
  the reference implementation: the property tests in
  ``tests/sim/test_event_queue.py`` pin that both queues pop identical
  (time, seq) orders, and ``benchmarks/test_micro.py`` times event
  dispatch under each.

**Ordering correctness of the calendar queue** does not depend on float
arithmetic being exact.  An event's bucket is a *monotone* function of its
time: ``i = int((t - start) * inv_width)`` is nondecreasing in ``t``
(multiplication by a positive constant and truncation of a non-negative
value are both monotone), and the clamps applied on top (``max(i,
cursor)``, ``min(i, nslots - 1)``) are monotone too.  Monotone placement
means an event in a lower bucket can never have a later time than one in a
higher bucket, so draining buckets in index order pops times in
nondecreasing order even when rounding shifts an event one bucket over;
equal times always compute the identical bucket, where the per-slot heap
applies the exact (time, seq) tie-break.  Cancelled events are dropped
lazily at the head, exactly like the reference heap.

``__len__`` is O(1) on both queues: a live-event counter is decremented on
cancel and pop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

#: Number of slots in the calendar window.
_SLOTS = 64
#: Width multiplier: window spans ~4x the mean gap per slot, so bursts of
#: same-instant events share a slot instead of leaving most slots empty.
_WIDTH_FACTOR = 4.0


class _QueuedEvent:
    """One scheduled callback, and the handle ``schedule`` returns for it.

    Both queues store it inside a ``(time, seq, event)`` tuple and order by
    the tuple's first two fields, so the event itself needs no ordering.
    ``_queue`` is the owning queue while the event is pending and ``None``
    once it has been popped or cancelled, which is what keeps ``len()``
    exact under double-cancel and cancel-after-fire.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "_queue")

    def __init__(
        self, queue: "_QueueBase", time: float, seq: int, action: Callable[[], None]
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue: _QueueBase | None = queue

    def cancel(self) -> None:
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None
        self.cancelled = True


class _QueueBase:
    """Shared sequence/live-count substrate for both queues."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class HeapEventQueue(_QueueBase):
    """One binary heap of ``(time, seq, event)`` entries.

    The ordering reference for :class:`CalendarEventQueue` (and the
    baseline leg of the event-queue benchmark): the simplest queue that
    satisfies the contract, with cancelled events dropped lazily at the
    head.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, _QueuedEvent]] = []

    def schedule(self, time: float, action: Callable[[], None]) -> _QueuedEvent:
        if time < 0:
            raise ValueError("cannot schedule an event in negative time")
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


class CalendarEventQueue(_QueueBase):
    """Calendar/slot queue: near-future slots + far-future overflow heap.

    The window covers ``[start, end)`` split into ``_SLOTS`` fixed-width
    buckets; ``cursor`` is the lowest possibly-nonempty bucket.  Events
    before ``start`` (possible because the queue API allows scheduling at
    any non-negative time) go to a small "early" heap that always drains
    first; events at or past ``end`` wait in the overflow heap.  When the
    window runs dry it is rebuilt over the overflow with a slot width
    adapted to the pending events' spacing.  See the module docstring for
    the ordering argument.
    """

    def __init__(self) -> None:
        super().__init__()
        self._early: list[tuple[float, int, _QueuedEvent]] = []
        self._slots: list[list[tuple[float, int, _QueuedEvent]]] = [
            [] for _ in range(_SLOTS)
        ]
        self._cursor = 0
        self._in_window = 0
        self._overflow: list[tuple[float, int, _QueuedEvent]] = []
        # Empty initial window: everything overflows until the first
        # rebuild observes real event spacing and sizes the slots.
        self._start = 0.0
        self._end = 0.0
        self._inv_width = 0.0

    # -- placement ---------------------------------------------------------

    def schedule(self, time: float, action: Callable[[], None]) -> _QueuedEvent:
        if time < 0:
            raise ValueError("cannot schedule an event in negative time")
        self._live += 1
        seq = next(self._counter)
        event = _QueuedEvent(self, time, seq, action)
        entry = (time, seq, event)
        if time >= self._end:
            heapq.heappush(self._overflow, entry)
        elif time < self._start:
            heapq.heappush(self._early, entry)
        else:
            i = int((time - self._start) * self._inv_width)
            if i >= _SLOTS:
                i = _SLOTS - 1
            if i < self._cursor:
                i = self._cursor
            heapq.heappush(self._slots[i], entry)
            self._in_window += 1
        return event

    def _rebuild(self) -> None:
        """Re-anchor the window over the overflow heap (slots are empty).

        Slot width adapts to the observed spacing: the window spans
        ``_WIDTH_FACTOR``× the mean gap per slot over the events being
        migrated, so roughly the next ``_SLOTS``/``_WIDTH_FACTOR`` events
        land in distinct slots while same-instant bursts share one.
        Cancelled events are dropped here (their live count was already
        settled at cancel time).
        """
        overflow = [e for e in self._overflow if not e[2].cancelled]
        heapq.heapify(overflow)
        self._overflow = overflow
        if not overflow:
            return
        start = overflow[0][0]
        sample = overflow[: min(len(overflow), 256)]
        span = max(t for t, _, _ in sample) - start
        n = len(sample)
        width = (span / n) * _WIDTH_FACTOR if span > 0.0 and n > 1 else 1.0
        self._start = start
        self._end = start + width * _SLOTS
        self._inv_width = 1.0 / width
        self._cursor = 0
        slots = self._slots
        keep: list[tuple[float, int, _QueuedEvent]] = []
        migrated = 0
        for entry in overflow:
            t = entry[0]
            if t < self._end:
                i = int((t - start) * self._inv_width)
                if i >= _SLOTS:
                    i = _SLOTS - 1
                slots[i].append(entry)
                migrated += 1
            else:
                keep.append(entry)
        for slot in slots:
            if len(slot) > 1:
                heapq.heapify(slot)
        heapq.heapify(keep)
        self._overflow = keep
        self._in_window += migrated

    def _min_heap(self) -> list[tuple[float, int, _QueuedEvent]] | None:
        """The heap holding the global minimum, cancelled heads pruned.

        Returns the early heap or a window slot (never the overflow: when
        only the overflow has events the window is rebuilt over it first).
        """
        while True:
            if self._early:
                heap = self._early
                in_window = False
            elif self._in_window:
                slots = self._slots
                c = self._cursor
                while not slots[c]:
                    c += 1
                self._cursor = c
                heap = slots[c]
                in_window = True
            elif self._overflow:
                self._rebuild()
                continue
            else:
                return None
            if heap[0][2].cancelled:
                heapq.heappop(heap)
                if in_window:
                    self._in_window -= 1
                continue
            return heap

    def pop(self) -> _QueuedEvent | None:
        """Next non-cancelled event, or None when the queue is drained."""
        heap = self._min_heap()
        if heap is None:
            return None
        if heap is not self._early:
            self._in_window -= 1
        event = heapq.heappop(heap)[2]
        event._queue = None
        self._live -= 1
        return event

    def peek_time(self) -> float | None:
        heap = self._min_heap()
        return heap[0][0] if heap is not None else None


#: The simulator's default queue.
EventQueue = CalendarEventQueue

__all__ = [
    "EventQueue",
    "CalendarEventQueue",
    "HeapEventQueue",
]
