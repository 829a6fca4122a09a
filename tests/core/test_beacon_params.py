"""Tests for the random-beacon permutation and protocol parameters."""

from __future__ import annotations

import pytest

from repro.analysis.theory import corrupt_leader_probability
from repro.core.beacon import permutation_from_beacon
from repro.core.params import ProtocolParams, StandardDelays, max_faults


class TestPermutation:
    def test_is_permutation(self):
        ranks = permutation_from_beacon(1, b"\x01" * 32, 10)
        assert sorted(ranks.by_rank) == list(range(1, 11))

    def test_deterministic(self):
        a = permutation_from_beacon(3, b"\x05" * 32, 7)
        b = permutation_from_beacon(3, b"\x05" * 32, 7)
        assert a.by_rank == b.by_rank

    def test_round_changes_permutation(self):
        a = permutation_from_beacon(1, b"\x05" * 32, 7)
        b = permutation_from_beacon(2, b"\x05" * 32, 7)
        assert a.by_rank != b.by_rank  # overwhelmingly likely

    def test_value_changes_permutation(self):
        a = permutation_from_beacon(1, b"\x05" * 32, 7)
        b = permutation_from_beacon(1, b"\x06" * 32, 7)
        assert a.by_rank != b.by_rank

    def test_rank_of_inverts_party_at(self):
        ranks = permutation_from_beacon(1, b"\x09" * 32, 9)
        for r in range(9):
            assert ranks.rank_of(ranks.party_at(r)) == r

    def test_leader_is_rank_zero(self):
        ranks = permutation_from_beacon(1, b"\x09" * 32, 9)
        assert ranks.leader == ranks.party_at(0)

    def test_leader_roughly_uniform(self):
        """Each party leads ~1/n of rounds over many beacon values."""
        n = 5
        counts = {i: 0 for i in range(1, n + 1)}
        trials = 2000
        for k in range(trials):
            value = k.to_bytes(32, "big")
            counts[permutation_from_beacon(1, value, n).leader] += 1
        for leader, count in counts.items():
            assert abs(count / trials - 1 / n) < 0.05

    def test_corrupt_leader_probability(self):
        assert corrupt_leader_probability(13, 4) == pytest.approx(4 / 13)
        assert corrupt_leader_probability(13, 4) < 1 / 3


class TestStandardDelays:
    def test_recommended_functions(self):
        """Eq. (2): Δprop(r) = 2·Δbnd·r, Δntry(r) = 2·Δbnd·r + ε."""
        d = StandardDelays(delta_bound=0.5, epsilon=0.1)
        assert d.prop(0) == 0.0
        assert d.prop(3) == 3.0
        assert d.ntry(0) == 0.1
        assert d.ntry(3) == 3.1

    def test_liveness_condition(self):
        """2δ + Δprop(0) <= Δntry(1) whenever δ <= Δbnd (Section 3.5)."""
        d = StandardDelays(delta_bound=0.5, epsilon=0.0)
        delta = 0.5  # delta == Δbnd, the worst allowed
        assert 2 * delta + d.prop(0) <= d.ntry(1)

    def test_non_decreasing(self):
        d = StandardDelays(delta_bound=0.2, epsilon=0.05)
        for r in range(10):
            assert d.prop(r + 1) >= d.prop(r)
            assert d.ntry(r + 1) >= d.ntry(r)


class TestProtocolParams:
    def test_quorums(self):
        p = ProtocolParams(n=13, t=4, delays=StandardDelays(1.0))
        assert p.notarization_quorum == 9
        assert p.finalization_quorum == 9
        assert p.beacon_quorum == 5

    def test_t_bound(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=9, t=3, delays=StandardDelays(1.0))

    def test_max_faults(self):
        assert max_faults(4) == 1
        assert max_faults(13) == 4
        assert max_faults(40) == 13
        for n in range(1, 50):
            assert 3 * max_faults(n) < n
