"""WallClock: the Simulation scheduling surface over an asyncio loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.net.clock import WallClock, host_id
from repro.obs import NULL_TRACER


def run(coro):
    return asyncio.run(coro)


class TestWallClock:
    def test_now_starts_near_zero_and_advances(self):
        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop())
            first = clock.now
            await asyncio.sleep(0.01)
            return first, clock.now

        first, later = run(scenario())
        assert first == pytest.approx(0.0, abs=0.005)
        assert later > first

    def test_epoch_places_now_on_the_host_clock(self):
        """Two clocks of one host differ by exactly their epochs: what
        trace alignment relies on."""

        async def scenario():
            loop = asyncio.get_running_loop()
            early = WallClock(loop=loop)
            await asyncio.sleep(0.01)
            late = WallClock(loop=loop)
            return early.now, late.now, early.epoch, late.epoch, loop.time()

        early_now, late_now, early_epoch, late_epoch, host_now = run(scenario())
        assert early_epoch < late_epoch < host_now
        assert early_now - late_now == pytest.approx(late_epoch - early_epoch, abs=1e-3)
        assert host_id() == host_id() != ""

    def test_schedule_runs_action(self):
        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop())
            fired = asyncio.Event()
            clock.schedule(0.0, fired.set)
            await asyncio.wait_for(fired.wait(), 1.0)
            return True

        assert run(scenario())

    def test_negative_delay_rejected(self):
        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop())
            with pytest.raises(ValueError):
                clock.schedule(-0.1, lambda: None)

        run(scenario())

    def test_schedule_at_clamps_past_times(self):
        """Unlike the simulator, a slightly-past target must run ASAP, not
        raise — wall time moves between computing the target and calling."""

        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop())
            fired = asyncio.Event()
            clock.schedule_at(clock.now - 5.0, fired.set)
            await asyncio.wait_for(fired.wait(), 1.0)
            return True

        assert run(scenario())

    def test_default_sinks_are_null(self):
        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop())
            assert clock.tracer is NULL_TRACER

        run(scenario())

    def test_fork_rng_streams_differ(self):
        async def scenario():
            clock = WallClock(loop=asyncio.get_running_loop(), seed=3)
            a, b = clock.fork_rng("a"), clock.fork_rng("a")
            return a.random(), b.random()

        a, b = run(scenario())
        assert a != b  # each fork consumes parent entropy

    def test_seeded_rng_reproducible(self):
        async def scenario(seed):
            clock = WallClock(loop=asyncio.get_running_loop(), seed=seed)
            return clock.rng.random()

        assert run(scenario(11)) == run(scenario(11))
