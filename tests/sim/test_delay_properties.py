"""Property-based tests for the delay models' contracts, and for the two
time-window regimes written as scenarios over them."""

from __future__ import annotations

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import OutageFault, outage_schedule
from repro.sim.delays import WanDelay
from tests.sim.test_delays import arrival, in_sync_window

times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
pairs = st.tuples(st.integers(1, 40), st.integers(1, 40))


class TestEventualDelivery:
    @given(times)
    @example(499.95)  # sent within one base delay of GST: lands after it
    @example(499.99)
    @settings(max_examples=100, deadline=None)
    def test_partial_synchrony_delivers_by_gst_plus_base(self, now):
        """No message is ever delayed past GST + one base delay, even when
        an outage holds everything until GST."""
        landed = arrival(now, [OutageFault(start=0.0, end=500.0)])
        assert landed >= now
        assert landed <= max(now, 500.0) + 0.1 + 1e-6

    @given(times)
    @settings(max_examples=100, deadline=None)
    def test_intermittent_arrivals_land_in_sync_windows(self, now):
        landed = arrival(now, outage_schedule(10.0, 3.0, 1000.0), base=0.05)
        assert landed - now >= 0.05 - 1e-9
        assert in_sync_window(landed, 10.0, 3.0)

    @given(times, pairs, st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_wan_delays_positive_and_bounded(self, now, pair, seed):
        model = WanDelay(jitter_sigma=0.2)
        sender, receiver = pair
        rng = Random(seed)
        delay = model.sample(sender, receiver, now, None, rng)
        if sender == receiver:
            assert delay == 0.0
        else:
            assert 0.0 < delay < 1.0  # base <= 55 ms, jitter is log-normal


class TestDeterminism:
    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_wan_base_latency_reproducible_per_seeded_stream(self, seed):
        def draw():
            model = WanDelay(jitter_sigma=0.0)
            rng = Random(seed)
            return [model.sample(1, j, 0.0, None, rng) for j in range(2, 10)]

        assert draw() == draw()
