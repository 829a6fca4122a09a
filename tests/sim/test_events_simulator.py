"""Tests for the event queue and simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim.events import EventQueue, Timer
from repro.sim.simulator import Simulation


def _noop(_arg=None) -> None:
    pass


def _drain(q: EventQueue) -> None:
    while (entry := q.pop()) is not None:
        entry[2](entry[3])


class TestEventQueue:
    def test_ordering_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, fired.append, "b")
        q.schedule(1.0, fired.append, "a")
        q.schedule(3.0, fired.append, "c")
        _drain(q)
        assert fired == ["a", "b", "c"]

    def test_fifo_tiebreak(self):
        """Events at the same instant fire in scheduling order (determinism)."""
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(1.0, fired.append, i)
        _drain(q)
        assert fired == list(range(10))

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        handle = Timer(q, 1.0, lambda: fired.append("x"))
        handle.cancel()
        assert handle.cancelled
        assert q.pop() is None
        assert fired == []

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1.0, _noop)

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        h = Timer(q, 1.0, lambda: None)
        q.schedule(2.0, _noop)
        assert len(q) == 2
        h.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        h = Timer(q, 1.0, lambda: None)
        q.schedule(2.0, _noop)
        h.cancel()
        assert q.peek_time() == 2.0


class TestSimulation:
    def test_clock_advances(self):
        sim = Simulation()
        times = []
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.5]
        assert sim.now == 2.5

    def test_run_until(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock advanced to the bound
        sim.run()
        assert fired == [1, 5]

    @pytest.mark.parametrize(
        "times", [(), (1.0,), (1.0, 5.0)], ids=["empty", "drains_first", "later_pending"]
    )
    def test_run_until_ends_at_bound(self, times):
        sim = Simulation()
        for t in times:
            sim.schedule_at(t, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.events_processed == len([t for t in times if t <= 2.0])
        assert len(sim.events) == len([t for t in times if t > 2.0])

    def test_run_until_never_goes_back(self):
        sim = Simulation()
        sim.schedule(3.0, lambda: None)
        sim.run()
        sim.run(until=1.0)
        assert sim.now == 3.0

    def test_cancelled_timer_is_not_an_event(self):
        sim = Simulation()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5)).cancel()
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_step_is_one_event(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        assert sim.step()
        assert (fired, sim.now, sim.events_processed) == ([1.0], 1.0, 1)
        assert not sim.step(until=1.5)
        assert sim.step() and not sim.step()
        assert (fired, sim.now, sim.events_processed) == ([1.0, 2.0], 2.0, 2)

    def test_nested_scheduling(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_max_events_guard(self):
        sim = Simulation()

        def loop():
            sim.schedule(0.1, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_stop_when(self):
        sim = Simulation()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_determinism_across_runs(self):
        def run_once(seed):
            sim = Simulation(seed=seed)
            values = []
            for i in range(5):
                sim.schedule(sim.rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)

    def test_fork_rng_streams_independent(self):
        sim = Simulation(seed=1)
        a = sim.fork_rng("a")
        b = sim.fork_rng("b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]
