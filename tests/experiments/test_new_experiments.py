"""Smoke tests for the E10 and ablation experiment modules."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import epsilon_point, stagger_point
from repro.experiments.intermittent import run_schedule as run_intermittent


class TestIntermittent:
    def test_throughput_constant_across_windows(self):
        result = run_intermittent(period=16.0, sync_len=4.0, duration=64.0, n=4)
        assert result.total_rounds_committed > 0
        per_window = [w.commits_in_window for w in result.windows]
        assert len(per_window) >= 3
        assert min(per_window) > 0.6 * max(per_window)

    def test_everything_eventually_commits(self):
        result = run_intermittent(period=16.0, sync_len=4.0, duration=64.0, n=4)
        assert result.total_rounds_committed >= result.total_rounds_grown - 3


class TestAblations:
    def test_epsilon_model(self):
        for row in (epsilon_point(e, rounds=8) for e in (0.0, 0.3)):
            assert row.metrics["round_time"] == pytest.approx(
                row.metrics["predicted"], rel=0.1
            )

    def test_stagger_effect(self):
        staggered, flooded = (stagger_point(s, n=7, rounds=8) for s in (True, False))
        assert (
            flooded.metrics["proposals_per_round"]
            > 3 * staggered.metrics["proposals_per_round"]
        )
