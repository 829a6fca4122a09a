"""The live load pump is an open loop: chunk k is due at ``t0 + k * tick``.

``LiveParty._pump_load`` is driven here by a hand-stepped clock and an
``admit_batch`` that *takes time*, so the schedule is checked exactly — no
sockets, no wall clock.  Re-arming ``load_tick`` after the admission (the
behaviour this pins against) makes chunk k arrive at ``t0 + k * (tick + cost)``.
"""

from __future__ import annotations

import asyncio
import heapq

import pytest

from repro.net.config import local_live_config
from repro.net.party import LiveParty

TICK = 0.05
BATCH = 4


class SteppedClock:
    """``now`` + ``schedule_at`` of :class:`repro.net.clock.WallClock`, with
    time that moves only when the test (or a slow callee) moves it."""

    def __init__(self, start: float) -> None:
        self.now = start
        self._timers: list[tuple[float, int, object]] = []
        self.scheduled_for: list[float] = []

    def schedule_at(self, time, action):
        self.scheduled_for.append(time)
        heapq.heappush(self._timers, (time, len(self.scheduled_for), action))
        return action  # any non-None handle

    def run(self) -> None:
        while self._timers:
            time, _, action = heapq.heappop(self._timers)
            self.now = max(self.now, time)  # a late timer runs as soon as possible
            action()


def pumped(admit_cost, requests=22, start=3.25):
    """Run the whole pump; returns (clock, [(instant, ids, stamps)] per chunk)."""

    async def scenario():
        config = local_live_config(
            4, t=1, seed=5, cluster_id="test-pump",
            load_requests=requests, load_batch=BATCH, load_tick=TICK,
        )
        live = LiveParty(config, 1, loop=asyncio.get_running_loop())
        try:
            offered = [r.request_id for r in live._load_queue]
            clock = live.clock = SteppedClock(start)
            chunks = []

            def admit_batch(batch):
                chunks.append((clock.now, [r.request_id for r, _ in batch],
                               {arrived for _, arrived in batch}))
                clock.now += admit_cost(len(chunks) - 1)
                return len(batch)

            live.batcher.admit_batch = admit_batch
            live._pump_load()
            clock.run()
            assert live._load_handle is None
            return clock, chunks, offered
        finally:
            await live.network.stop()

    return asyncio.run(scenario())


class TestPumpSchedule:
    def test_admission_instants_ignore_what_admission_costs(self):
        start = 3.25
        clock, chunks, _ = pumped(lambda k: 0.004, start=start)
        assert len(chunks) == 6  # 22 requests, 4 per chunk
        for k, (instant, _ids, stamps) in enumerate(chunks):
            assert instant == pytest.approx(start + k * TICK, abs=1e-12)
            assert stamps == {instant}  # requests are stamped with their admission
        # Due instants are absolute: nothing accumulates over the run.
        assert clock.scheduled_for == pytest.approx(
            [start + k * TICK for k in range(1, 6)], abs=1e-12
        )

    def test_every_request_admitted_once_in_order(self):
        _, chunks, offered = pumped(lambda k: 0.0)
        assert [rid for _, ids, _ in chunks for rid in ids] == offered
        assert [len(ids) for _, ids, _ in chunks] == [4, 4, 4, 4, 4, 2]

    def test_a_stall_is_caught_up_not_carried(self):
        """One admission that overruns two ticks: the chunks that came due
        meanwhile run back to back, and the schedule is on time again after."""
        start = 1.0
        _, chunks, _ = pumped(lambda k: 0.12 if k == 1 else 0.001, start=start)
        instants = [instant for instant, _, _ in chunks]
        assert instants[0] == pytest.approx(start)
        assert instants[1] == pytest.approx(start + TICK)
        assert instants[2] == pytest.approx(start + TICK + 0.12)  # due at +2 ticks: late
        assert instants[3] == pytest.approx(start + TICK + 0.121)  # due at +3 ticks: late
        assert instants[4] == pytest.approx(start + 4 * TICK)
        assert instants[5] == pytest.approx(start + 5 * TICK)
