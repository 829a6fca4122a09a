"""Benchmarks E10 (intermittent synchrony) and A1–A4 (ablations)."""

from __future__ import annotations

import pytest

from repro.experiments import ablations, runner
from repro.experiments.intermittent import run_schedule as run_intermittent


def ablation(once, point: str) -> list[ablations.AblationRow]:
    """One ablation's rows at the suite's own sweep defaults."""
    suite = [s for s in ablations.specs() if s.kind == f"ablations.{point}"]
    return once(runner.execute, suite, jobs=1)


class TestE10IntermittentSynchrony:
    def test_constant_throughput(self, once):
        result = once(run_intermittent, period=20.0, sync_len=5.0, duration=120.0)
        # The tree grows and *commits* at a steady rate despite 75% of the
        # time being asynchronous ("the system will maintain a constant
        # throughput", Section 3.3).
        assert result.total_rounds_committed >= result.total_rounds_grown - 4
        per_window = [w.commits_in_window for w in result.windows]
        assert min(per_window) > 0.7 * max(per_window)


class TestA1Epsilon:
    def test_governor_paces_rounds(self, once):
        rows = ablation(once, "epsilon_point")
        for row in rows:
            assert row.metrics["round_time"] == pytest.approx(
                row.metrics["predicted"], rel=0.05
            )


class TestA2Stagger:
    def test_stagger_suppresses_proposal_flood(self, once):
        staggered, flooded = ablation(once, "stagger_point")
        assert staggered.metrics["proposals_per_round"] < 1.5
        assert flooded.metrics["proposals_per_round"] > 8
        assert (
            flooded.metrics["block_bytes_per_round"]
            > 1.5 * staggered.metrics["block_bytes_per_round"]
        )


class TestA3GossipDegree:
    def test_degree_knee(self, once):
        rows = {int(r.value): r.metrics for r in ablation(once, "gossip_degree_point")}
        # Sparse overlays pay latency; d>=3 converges.
        assert rows[2]["round_time"] > rows[4]["round_time"]
        # Leader egress stays a small multiple of S at every degree —
        # far below ICC0's (n-1)·S = 12·S.
        for metrics in rows.values():
            assert metrics["max_node_egress_per_round_in_s"] < 4


class TestA4FillDelay:
    def test_grace_period_removes_redundant_fills(self, once):
        rows = {r.value: r.metrics for r in ablation(once, "fill_delay_point")}
        assert rows[0.0]["fill_bytes"] > 10 * max(1, rows[0.25]["fill_bytes"])
        # Progress unaffected.
        done = {v["rounds_done"] for v in rows.values()}
        assert len(done) == 1
