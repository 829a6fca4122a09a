"""Edge-case and equivalence tests for the two event-queue implementations.

``CalendarEventQueue`` (the default) must be observationally identical to
``HeapEventQueue`` (the legacy single-heap reference): same pop order,
same cancellation semantics, same ``len``.  The property test drives both
with the same randomized schedule/pop/cancel program and compares every
observable after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import CalendarEventQueue, EventQueue, HeapEventQueue

QUEUES = [HeapEventQueue, CalendarEventQueue]


def _noop() -> None:
    pass


class TestDefault:
    def test_default_is_calendar(self):
        assert EventQueue is CalendarEventQueue


@pytest.mark.parametrize("queue_cls", QUEUES)
class TestEdgeCases:
    def test_cancel_then_peek(self, queue_cls):
        q = queue_cls()
        q.schedule(1.0, _noop).cancel()
        later = q.schedule(2.0, _noop)
        assert q.peek_time() == 2.0
        assert q.pop() is later
        assert q.peek_time() is None

    def test_cancel_all_then_drain(self, queue_cls):
        q = queue_cls()
        handles = [q.schedule(float(i % 5), _noop) for i in range(20)]
        for handle in handles:
            handle.cancel()
        assert len(q) == 0
        assert not q
        assert q.peek_time() is None
        assert q.pop() is None

    def test_len_is_live_count(self, queue_cls):
        q = queue_cls()
        handles = [q.schedule(float(i), _noop) for i in range(10)]
        assert len(q) == 10
        handles[3].cancel()
        assert len(q) == 9
        handles[3].cancel()  # double-cancel is a no-op
        assert len(q) == 9
        q.pop()
        assert len(q) == 8
        # cancel after pop must not corrupt the count
        handles[0].cancel()
        assert len(q) == 8

    def test_negative_time_rejected(self, queue_cls):
        q = queue_cls()
        with pytest.raises(ValueError):
            q.schedule(-0.5, _noop)

    def test_same_instant_fifo(self, queue_cls):
        q = queue_cls()
        fired = []
        for i in range(50):
            q.schedule(1.0, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list(range(50))

    def test_handle_cancelled_flag(self, queue_cls):
        q = queue_cls()
        handle = q.schedule(1.0, _noop)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled


class TestCalendarInternals:
    """Paths specific to the calendar queue: window rebuilds and overflow."""

    def test_rebuild_over_wide_time_span(self):
        q = CalendarEventQueue()
        times = [float(i * 1000) for i in range(10)] + [0.5, 1.5, 2.5]
        for t in times:
            q.schedule(t, _noop)
        assert [q.pop().time for _ in range(len(times))] == sorted(times)

    def test_schedule_before_window_start(self):
        q = CalendarEventQueue()
        for t in (10.0, 11.0, 12.0):
            q.schedule(t, _noop)
        assert q.pop().time == 10.0  # rebuild anchors the window at 10.0
        q.schedule(0.25, _noop)  # before the window: the early heap
        assert q.peek_time() == 0.25
        assert [q.pop().time for _ in range(3)] == [0.25, 11.0, 12.0]

    def test_cancelled_events_dropped_at_rebuild(self):
        q = CalendarEventQueue()
        handles = [q.schedule(float(i * 100), _noop) for i in range(8)]
        for handle in handles[::2]:
            handle.cancel()
        assert [q.pop().time for _ in range(4)] == [100.0, 300.0, 500.0, 700.0]
        assert q.pop() is None

    def test_burst_of_identical_times_across_rebuilds(self):
        q = CalendarEventQueue()
        fired = []
        for i in range(100):
            q.schedule(5.0, lambda i=i: fired.append(i))
        q.schedule(9999.0, _noop)
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list(range(100))


#: One step of the randomized queue program: (op, operand).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "pop", "cancel", "peek"]),
        st.integers(min_value=0, max_value=400),
    ),
    min_size=1,
    max_size=120,
)


class TestEquivalence:
    """Property pin: calendar and heap queues are observationally equal."""

    @given(_steps)
    @settings(max_examples=200, deadline=None)
    def test_same_observable_behaviour(self, steps):
        heap, calendar = HeapEventQueue(), CalendarEventQueue()
        heap_handles, calendar_handles = [], []
        now = 0.0
        for op, operand in steps:
            if op == "schedule":
                # Coarse quantization (and an occasional far-future jump)
                # forces ties and overflow/rebuild traffic.
                time = now + (operand % 40) / 8.0 + (500.0 if operand % 11 == 0 else 0.0)
                heap_handles.append(heap.schedule(time, _noop))
                calendar_handles.append(calendar.schedule(time, _noop))
            elif op == "pop":
                a, b = heap.pop(), calendar.pop()
                if a is None:
                    assert b is None
                else:
                    assert (a.time, a.seq) == (b.time, b.seq)
                    now = a.time
            elif op == "cancel" and heap_handles:
                i = operand % len(heap_handles)
                heap_handles[i].cancel()
                calendar_handles[i].cancel()
            elif op == "peek":
                assert heap.peek_time() == calendar.peek_time()
            assert len(heap) == len(calendar)
            assert bool(heap) == bool(calendar)
        drained_heap = []
        while (e := heap.pop()) is not None:
            drained_heap.append((e.time, e.seq))
        drained_calendar = []
        while (e := calendar.pop()) is not None:
            drained_calendar.append((e.time, e.seq))
        assert drained_heap == drained_calendar
        assert drained_heap == sorted(drained_heap)
