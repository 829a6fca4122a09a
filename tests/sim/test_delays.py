"""Tests for the network delay models."""

from __future__ import annotations

from random import Random

import pytest

from repro.sim.delays import (
    FixedDelay,
    IntermittentSynchrony,
    MessageAwareDelay,
    PartialSynchrony,
    UniformDelay,
    WanDelay,
)


class TestFixedAndUniform:
    def test_fixed(self):
        d = FixedDelay(0.25)
        assert d.sample(1, 2, 0.0, Random(1)) == 0.25

    def test_uniform_bounds(self):
        d = UniformDelay(0.1, 0.2)
        rng = Random(1)
        for _ in range(100):
            s = d.sample(1, 2, 0.0, rng)
            assert 0.1 <= s <= 0.2


class TestWan:
    def test_symmetric_base_latency(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        ab = d.sample(1, 2, 0.0, rng)
        ba = d.sample(2, 1, 0.0, rng)
        assert ab == ba

    def test_base_latency_stable_per_pair(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        assert d.sample(1, 2, 0.0, rng) == d.sample(1, 2, 5.0, rng)

    def test_pairs_differ(self):
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        samples = {d.sample(1, j, 0.0, rng) for j in range(2, 10)}
        assert len(samples) > 1

    def test_range_matches_paper(self):
        """One-way base delays live in [3 ms, 55 ms] (6-110 ms RTT)."""
        d = WanDelay(jitter_sigma=0.0)
        rng = Random(3)
        for j in range(2, 40):
            assert 0.003 <= d.sample(1, j, 0.0, rng) <= 0.055

    def test_self_delay_zero(self):
        d = WanDelay()
        assert d.sample(3, 3, 0.0, Random(1)) == 0.0


class TestPartialSynchrony:
    def test_after_gst_uses_base(self):
        d = PartialSynchrony(base=FixedDelay(0.1), gst=10.0, max_async=5.0)
        assert d.sample(1, 2, 10.0, Random(1)) == 0.1
        assert d.sample(1, 2, 50.0, Random(1)) == 0.1

    def test_before_gst_bounded_by_gst_plus_base(self):
        """Eventual delivery: even 'asynchronous' messages land soon after GST."""
        d = PartialSynchrony(base=FixedDelay(0.1), gst=10.0, max_async=100.0)
        rng = Random(1)
        for now in (0.0, 5.0, 9.9):
            s = d.sample(1, 2, now, rng)
            assert now + s <= 10.0 + 0.1 + 1e-9

    def test_adversarial_async_delay(self):
        d = PartialSynchrony(
            base=FixedDelay(0.1),
            gst=10.0,
            async_delay=lambda s, r, now: 3.0,
        )
        assert d.sample(1, 2, 0.0, Random(1)) == 3.0


class TestIntermittentSynchrony:
    def test_window_detection(self):
        d = IntermittentSynchrony(base=FixedDelay(0.1), period=10.0, sync_len=3.0)
        assert d.in_sync_window(0.5)
        assert d.in_sync_window(12.0)
        assert not d.in_sync_window(5.0)

    def test_inside_window_fast(self):
        d = IntermittentSynchrony(base=FixedDelay(0.1), period=10.0, sync_len=3.0)
        assert d.sample(1, 2, 0.5, Random(1)) == 0.1

    def test_outside_window_lands_in_next(self):
        d = IntermittentSynchrony(base=FixedDelay(0.1), period=10.0, sync_len=3.0)
        s = d.sample(1, 2, 5.0, Random(1))
        arrival = 5.0 + s
        assert d.in_sync_window(arrival)
        assert arrival >= 10.0

    def test_straddling_window_edge_deferred(self):
        d = IntermittentSynchrony(base=FixedDelay(0.5), period=10.0, sync_len=3.0)
        # Sent at 2.8, base arrival 3.3 is outside the window: defer.
        s = d.sample(1, 2, 2.8, Random(1))
        assert d.in_sync_window(2.8 + s)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntermittentSynchrony(base=FixedDelay(0.1), period=1.0, sync_len=2.0)


class TestAdversarial:
    """``MessageAwareDelay`` is the adversarial scheduler: whatever the
    strategy asks for is clamped into [0, max_delay] on both entry points,
    so eventual delivery holds."""

    def test_strategy_applied(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: 7.0)
        assert d.sample(1, 2, 0.0, Random(1)) == 7.0
        assert d.sample_message(1, 2, 0.0, "m", Random(1)) == 7.0

    def test_clamped_to_max(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: 1e9, max_delay=30.0)
        assert d.sample(1, 2, 0.0, Random(1)) == 30.0
        assert d.sample_message(1, 2, 0.0, "m", Random(1)) == 30.0

    def test_negative_clamped_to_zero(self):
        d = MessageAwareDelay(strategy=lambda s, r, now, m: -5.0)
        assert d.sample(1, 2, 0.0, Random(1)) == 0.0
        assert d.sample_message(1, 2, 0.0, "m", Random(1)) == 0.0

    def test_message_aware(self):
        d = MessageAwareDelay(
            strategy=lambda s, r, now, m: 5.0 if m == "slow" else 0.1
        )
        assert d.sample_message(1, 2, 0.0, "slow", Random(1)) == 5.0
        assert d.sample_message(1, 2, 0.0, "fast", Random(1)) == 0.1
