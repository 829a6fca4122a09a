"""Benchmark E9 — the cross-protocol comparison table of Section 1.1.

Paper (in multiples of δ): ICC0/ICC1 2/3, ICC2 3/4, PBFT 3/3,
HotStuff 2/6, Tendermint O(Δbnd)/3.  One benchmarked run regenerates the
whole table; the assertions check every row.
"""

from __future__ import annotations

import pytest

from repro.experiments import comparison, runner


class TestComparisonTable:
    def test_all_rows_match_paper(self, once):
        rows = {
            r.protocol: r
            for r in once(runner.run_experiment, comparison, delta=0.05, n=7, blocks=25)
        }

        assert rows["ICC0"].block_time_in_delta == pytest.approx(2.0, rel=0.1)
        assert rows["ICC0"].latency_in_delta == pytest.approx(3.0, rel=0.1)

        assert rows["ICC1"].block_time_in_delta == pytest.approx(2.0, rel=0.1)
        assert rows["ICC1"].latency_in_delta == pytest.approx(3.0, rel=0.1)

        assert rows["ICC2"].block_time_in_delta == pytest.approx(3.0, rel=0.1)
        assert rows["ICC2"].latency_in_delta == pytest.approx(4.0, rel=0.1)

        assert rows["PBFT"].block_time_in_delta == pytest.approx(3.0, rel=0.1)
        assert rows["PBFT"].latency_in_delta == pytest.approx(3.0, rel=0.1)

        assert rows["HotStuff"].block_time_in_delta == pytest.approx(2.0, rel=0.1)
        assert 5.5 <= rows["HotStuff"].latency_in_delta <= 7.5

        # Tendermint is not optimistically responsive: block time is
        # dominated by its Δbnd-scale timeout_commit (20δ here).
        assert rows["Tendermint"].block_time_in_delta > 10
        assert rows["Tendermint"].latency_in_delta == pytest.approx(3.0, rel=0.1)

        # Headline ordering: ICC halves HotStuff's commit latency.
        assert rows["ICC0"].latency_in_delta < rows["HotStuff"].latency_in_delta / 1.8
