"""Benchmark E3 — message complexity (Section 1).

Paper: O(n²) expected per synchronous round; O(n³) worst case under an
adversarial scheduler.
"""

from __future__ import annotations

import pytest

from repro.experiments import message_complexity, runner
from repro.experiments.message_complexity import synchronous_point, worst_case_point


def tables(once, **sweep):
    """Both tables of E3 for one trimmed sweep, as ``tabulate`` returns them."""
    return once(runner.run_experiment, message_complexity, **sweep)


class TestSynchronousQuadratic:
    def test_constant_per_n2(self, once):
        points = tables(once, ns=(4, 7, 13, 25, 40), worst_ns=(), rounds=10)["synchronous"]
        ratios = [p.per_n2 for p in points]
        # messages/n² is flat across a 10x n range: clean O(n²).
        assert max(ratios) / min(ratios) < 1.25

    def test_absolute_constant_small(self, once):
        points = tables(once, ns=(13,), worst_ns=(), rounds=10)["synchronous"]
        # Each party makes a small constant number of broadcasts per round.
        assert points[0].per_n2 < 12


class TestWorstCaseCubic:
    def test_per_n3_stabilizes(self, once):
        points = tables(once, ns=(), worst_ns=(4, 7, 10, 13), rounds=5)["worst_case"]
        # messages/n³ converges (to ~2 + O(1/n)) while messages/n² grows
        # linearly in n: the adversary really extracts Θ(n³).
        per_n3 = [p.per_n3 for p in points]
        assert per_n3[-1] == pytest.approx(per_n3[-2], rel=0.15)
        per_n2 = [p.per_n2 for p in points]
        assert per_n2[-1] > per_n2[0] * 2

    def test_adversary_beats_synchronous(self, once):
        def both():
            return synchronous_point(10, rounds=6), worst_case_point(10, rounds=4)

        sync, worst = once(both)
        assert worst.messages_per_round > sync.messages_per_round * 2
