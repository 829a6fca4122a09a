"""Benchmark E5 — robust consensus under the slow-leader attack of [15].

Paper (Section 1.1): PBFT-style protocols can be throttled to near-zero by
a primary that stays just under the view-change timeout; ICC degrades
gracefully because leadership rotates via the beacon every round and other
parties' proposals fill in after Δntry.
"""

from __future__ import annotations

from repro.experiments import robustness, runner


class TestSlowLeaderAttack:
    def test_icc_retains_pbft_collapses(self, once):
        results = {
            (r.protocol, r.scenario): r.blocks_per_second
            for r in once(runner.run_experiment, robustness, n=10, duration=90.0)
        }
        icc_clean = results[("ICC0", "fault-free")]
        icc_attacked = results[("ICC0", "slow-leader attack")]
        pbft_clean = results[("PBFT", "fault-free")]
        pbft_attacked = results[("PBFT", "slow-leader attack")]

        # PBFT runs at the attacker's pace (~1 batch per lag interval).
        assert pbft_attacked / pbft_clean < 0.10
        # ICC keeps a usable fraction of its throughput...
        assert icc_attacked / icc_clean > 0.15
        # ...and in absolute terms stays an order of magnitude ahead.
        assert icc_attacked > 4 * pbft_attacked
