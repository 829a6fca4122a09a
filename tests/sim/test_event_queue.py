"""Edge cases and an ordering property for the simulator's event queue.

The queue is one binary heap of ``(time, seq, fn, arg)`` entries; only
``Timer`` entries carry a cancellable handle.  The property test runs random
schedule/timer/pop/cancel/peek programs and checks every observable against
``sorted`` over the live ``(time, seq)`` pairs.  Whole-run ordering is
pinned separately by ``tests/sim/test_delivery_pins.py`` and the goldens.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FixedDelay, Network, Simulation
from repro.sim import events
from repro.sim.events import EventQueue, Timer
from tests.sim.test_network import Recorder

#: The edge cases run on the queue and on the ``CalendarEventQueue`` name,
#: which ``bench/tracing.py`` still patches and which must stay the queue.
QUEUES = [
    pytest.param(EventQueue, id="HeapEventQueue"),
    pytest.param(events.CalendarEventQueue, id="CalendarEventQueue"),
]


def _noop(_arg=None) -> None:
    pass


def _drain(q: EventQueue) -> None:
    while (entry := q.pop()) is not None:
        entry[2](entry[3])


class TestEdgeCases:
    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_cancel_then_peek(self, queue_cls):
        q = queue_cls()
        Timer(q, 1.0, _noop).cancel()
        later = Timer(q, 2.0, _noop)
        assert q.peek_time() == 2.0
        assert q.pop()[3] is later
        assert q.peek_time() is None

    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_cancel_all_then_drain(self, queue_cls):
        q = queue_cls()
        handles = [Timer(q, float(i % 5), _noop) for i in range(20)]
        for handle in handles:
            handle.cancel()
        assert len(q) == 0
        assert not q
        assert q.peek_time() is None
        assert q.pop() is None

    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_len_is_live_count(self, queue_cls):
        q = queue_cls()
        handles = [Timer(q, float(i), _noop) for i in range(10)]
        q.schedule(3.5, _noop, "copy")
        assert len(q) == 11
        handles[3].cancel()
        assert len(q) == 10
        handles[3].cancel()  # double-cancel is a no-op
        assert len(q) == 10
        q.pop()
        assert len(q) == 9
        # cancel after pop must not corrupt the count
        handles[0].cancel()
        assert len(q) == 9
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.5]
        assert len(q) == 6

    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_negative_time_rejected(self, queue_cls):
        q = queue_cls()
        with pytest.raises(ValueError):
            q.schedule(-0.5, _noop)
        with pytest.raises(ValueError):
            Timer(q, -0.5, _noop)
        assert len(q) == 0

    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_same_instant_fifo(self, queue_cls):
        q = queue_cls()
        fired = []
        for i in range(50):
            if i % 3:
                q.schedule(1.0, fired.append, i)
            else:
                Timer(q, 1.0, lambda i=i: fired.append(i))
        _drain(q)
        assert fired == list(range(50))

    @pytest.mark.parametrize("queue_cls", QUEUES)
    def test_handle_cancelled_flag(self, queue_cls):
        q = queue_cls()
        handle = Timer(q, 1.0, _noop)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled

    def test_earlier_time_after_a_pop(self):
        # The queue itself accepts any finite non-negative time; only
        # Simulation refuses the past.
        q = EventQueue()
        for t in (10.0, 11.0, 12.0):
            q.schedule(t, _noop)
        assert q.pop()[0] == 10.0
        q.schedule(0.25, _noop)
        assert q.peek_time() == 0.25
        assert [q.pop()[0] for _ in range(3)] == [0.25, 11.0, 12.0]

    def test_pop_until_leaves_later_entries(self):
        q = EventQueue()
        Timer(q, 1.0, _noop).cancel()
        q.schedule(2.0, _noop, "b")
        q.schedule(1.5, _noop, "a")
        assert q.pop(until=1.6)[3] == "a"
        assert q.pop(until=1.6) is None
        assert len(q) == 1
        assert q.pop(until=2.0)[3] == "b"

    def test_entry_is_one_tuple(self):
        # A copy is `fn(arg)` at its time: no closure, no handle.
        q = EventQueue()
        seq = q.schedule(0.5, _noop, "message")
        assert q.pop() == (0.5, seq, _noop, "message")


class TestNonFiniteTime:
    """NaN and ±inf are refused where they enter, and nothing is queued."""

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_queue_rejects(self, time):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(time, _noop)
        assert len(q) == 0
        assert q.peek_time() is None

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_simulation_schedule_rejects(self, delay):
        sim = Simulation()
        sim.schedule(1.0, _noop)
        with pytest.raises(ValueError):
            sim.schedule(delay, _noop)
        sim.run()
        assert sim.now == 1.0
        assert sim.events_processed == 1

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_schedule_at_rejects(self, time):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule_at(time, _noop)
        assert len(sim.events) == 0

    def test_nan_delay_sample_in_transmit(self):
        sim = Simulation()
        network = Network(sim, 2, FixedDelay(math.nan))
        receiver = Recorder(2, sim)
        network.attach(receiver)
        with pytest.raises(ValueError):
            network.send(1, 2, b"m")
        sim.run()
        assert receiver.received == []
        assert sim.now == 0.0


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
    """Property pin: the queue is observationally equal to ``sorted`` over
    its live (time, seq) pairs, after every step of a random program."""

    @given(_steps)
    @settings(max_examples=200, deadline=None)
    def test_same_observable_behaviour(self, steps):
        q = EventQueue()
        handles = []
        live: dict[int, tuple[float, int]] = {}
        for op, operand in steps:
            if op == "schedule":
                # Coarse quantization forces ties; an occasional far-future
                # jump spreads the heap.  Odd operands queue a cancellable
                # timer, even ones a bare entry.
                time = (operand % 40) / 8.0 + (500.0 if operand % 11 == 0 else 0.0)
                if operand % 2:
                    handle = Timer(q, time, _noop)
                    handles.append(handle)
                    seq = handle.seq
                else:
                    seq = q.schedule(time, _noop)
                live[seq] = (time, seq)
            elif op == "pop":
                entry = q.pop()
                if not live:
                    assert entry is None
                else:
                    assert entry[:2] == sorted(live.values())[0]
                    del live[entry[1]]
            elif op == "cancel" and handles:
                handle = handles[operand % len(handles)]
                handle.cancel()
                live.pop(handle.seq, None)
            elif op == "peek":
                expected = sorted(live.values())[0][0] if live else None
                assert q.peek_time() == expected
            assert len(q) == len(live)
            assert bool(q) == bool(live)
        drained = []
        while (entry := q.pop()) is not None:
            drained.append(entry[:2])
        assert drained == sorted(live.values())
