"""Tests for the network delay models.

The models are stationary; asynchrony until GST and intermittent
synchrony are scenario windows over one of them.  Those two regimes are
tested here end to end: one message crosses a :class:`Network` with the
scenario installed, and :func:`arrival` reads when it landed.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.faults import FaultInjector, LinkFault, OutageFault, Scenario, outage_schedule
from repro.sim import Network, Simulation
from repro.sim.delays import (
    FixedDelay,
    MessageAwareDelay,
    UniformDelay,
    WanDelay,
)
from tests.sim.test_network import Recorder


def arrival(now: float, events, base: float = 0.1) -> float:
    """When a message party 1 sends at ``now`` reaches party 2 over
    ``FixedDelay(base)`` with the scenario ``events`` installed."""
    sim = Simulation()
    network = Network(sim, 2, FixedDelay(base))
    receiver = Recorder(2, sim)
    network.attach(receiver)
    FaultInjector(Scenario(name="window", events=tuple(events)), network).install()
    sim.schedule_at(now, lambda: network.send(1, 2, b"m"))
    sim.run()
    [(landed, _)] = receiver.received
    return landed


def in_sync_window(time: float, period: float, sync_len: float) -> bool:
    return time % period < sync_len


class TestFixedAndUniform:
    def test_fixed(self):
        d = FixedDelay(0.25)
        assert d.sample(1, 2, 0.0, None, Random(1)) == 0.25

    def test_uniform_bounds(self):
        d = UniformDelay(0.1, 0.2)
        rng = Random(1)
        for _ in range(100):
            s = d.sample(1, 2, 0.0, None, rng)
            assert 0.1 <= s <= 0.2


class TestWan:
    def test_symmetric_base_latency(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        ab = d.sample(1, 2, 0.0, None, rng)
        ba = d.sample(2, 1, 0.0, None, rng)
        assert ab == ba

    def test_base_latency_stable_per_pair(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        assert d.sample(1, 2, 0.0, None, rng) == d.sample(1, 2, 5.0, None, rng)

    def test_pairs_differ(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        samples = {d.sample(1, j, 0.0, None, rng) for j in range(2, 10)}
        assert len(samples) > 1

    def test_range_matches_paper(self):
        """One-way base delays live in [3 ms, 55 ms] (6-110 ms RTT)."""
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        for j in range(2, 40):
            assert 0.003 <= d.sample(1, j, 0.0, None, rng) <= 0.055

    def test_self_delay_zero(self):
        d = WanDelay()
        assert d.sample(3, 3, 0.0, None, Random(1)) == 0.0


class TestPartialSynchrony:
    """Asynchronous until GST = 10: a window that ends at GST."""

    def test_after_gst_uses_base(self):
        window = [LinkFault(start=0.0, end=10.0, jitter=5.0)]
        assert arrival(10.0, window) == pytest.approx(10.1)
        assert arrival(50.0, window) == pytest.approx(50.1)

    def test_before_gst_bounded_by_gst_plus_base(self):
        """Eventual delivery: held by an outage until GST, a message still
        lands one base delay after it."""
        for now in (0.0, 5.0, 9.9):
            assert now < arrival(now, [OutageFault(start=0.0, end=10.0)]) <= 10.1 + 1e-9

    def test_adversarial_async_delay(self):
        window = [LinkFault(start=0.0, end=10.0, extra_delay=3.0)]
        assert arrival(0.0, window) == pytest.approx(3.1)


class TestIntermittentSynchrony:
    """Synchronous for the first 3 s of every 10 s: ``outage_schedule``."""

    windows = outage_schedule(10.0, 3.0, 20.0)

    def test_window_detection(self):
        def in_outage(t: float) -> bool:
            return any(w.start <= t < w.end for w in self.windows)

        assert not in_outage(0.5)
        assert not in_outage(12.0)
        assert in_outage(5.0)

    def test_inside_window_fast(self):
        assert arrival(0.5, self.windows) == pytest.approx(0.6)

    def test_outside_window_lands_in_next(self):
        landed = arrival(5.0, self.windows)
        assert in_sync_window(landed, 10.0, 3.0)
        assert landed >= 10.0

    def test_straddling_window_edge_deferred(self):
        # Sent at 2.8, base arrival 3.3 is outside the window: defer.
        assert in_sync_window(arrival(2.8, self.windows, base=0.5), 10.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            outage_schedule(1.0, 2.0, 10.0)


class TestAdversarial:
    """``MessageAwareDelay`` is the adversarial scheduler: whatever the
    strategy asks for is clamped into [0, max_delay], so eventual delivery
    holds."""

    def test_strategy_applied(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: 7.0)
        assert d.sample(1, 2, 0.0, "m", Random(1)) == 7.0

    def test_clamped_to_max(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: 1e9, max_delay=30.0)
        assert d.sample(1, 2, 0.0, "m", Random(1)) == 30.0

    def test_negative_clamped_to_zero(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: -5.0)
        assert d.sample(1, 2, 0.0, "m", Random(1)) == 0.0

    def test_message_aware(self):
        d = MessageAwareDelay(
            strategy=lambda s, r, now, m: 5.0 if m == "slow" else 0.1
        )
        assert d.sample(1, 2, 0.0, "slow", Random(1)) == 5.0
        assert d.sample(1, 2, 0.0, "fast", Random(1)) == 0.1
