"""Unit and property tests for Shamir secret sharing."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.shamir import Share, deal, lagrange_at_zero, reconstruct

FIELD = PrimeField(2**61 - 1)


class TestDeal:
    def test_share_count(self, rng):
        shares = deal(FIELD, 42, threshold=3, n=7, rng=rng)
        assert len(shares) == 7
        assert [s.index for s in shares] == list(range(1, 8))

    def test_threshold_bounds(self, rng):
        with pytest.raises(ValueError):
            deal(FIELD, 1, threshold=0, n=5, rng=rng)
        with pytest.raises(ValueError):
            deal(FIELD, 1, threshold=6, n=5, rng=rng)

    def test_threshold_one_is_replication(self, rng):
        shares = deal(FIELD, 99, threshold=1, n=4, rng=rng)
        assert all(s.value == 99 for s in shares)


class TestReconstruct:
    def test_exact_threshold(self, rng):
        shares = deal(FIELD, 123456, threshold=3, n=7, rng=rng)
        assert reconstruct(FIELD, shares[:3]) == 123456

    def test_any_subset(self, rng):
        shares = deal(FIELD, 777, threshold=3, n=7, rng=rng)
        assert reconstruct(FIELD, [shares[1], shares[4], shares[6]]) == 777

    def test_extra_shares_fine(self, rng):
        shares = deal(FIELD, 5, threshold=2, n=5, rng=rng)
        assert reconstruct(FIELD, shares) == 5

    def test_too_few_shares_gives_garbage(self, rng):
        """Fewer than threshold shares cannot reveal the secret (they
        interpolate a lower-degree polynomial through the wrong points)."""
        secret = 31337
        shares = deal(FIELD, secret, threshold=3, n=7, rng=rng)
        wrong = reconstruct(FIELD, shares[:2])
        # With overwhelming probability this is not the secret.
        assert wrong != secret

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reconstruct(FIELD, [])

    @given(
        st.integers(min_value=0, max_value=2**61 - 2),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, secret, threshold, extra, pyrng):
        n = threshold + extra
        shares = deal(FIELD, secret, threshold=threshold, n=n, rng=pyrng)
        chosen = pyrng.sample(shares, threshold)
        assert reconstruct(FIELD, chosen) == secret


class TestTwoSharings:
    def test_shares_are_additive(self, rng):
        """Shamir sharing is linear: share-wise sums share the sum."""
        a = deal(FIELD, 100, threshold=2, n=4, rng=rng)
        b = deal(FIELD, 23, threshold=2, n=4, rng=rng)
        summed = [
            Share(index=x.index, value=FIELD.add(x.value, y.value))
            for x, y in zip(a, b)
        ]
        assert reconstruct(FIELD, summed[:2]) == 123

    def test_lagrange_helper_matches(self, rng):
        shares = deal(FIELD, 55, threshold=3, n=5, rng=rng)
        chosen = shares[1:4]
        exponents, denominator = lagrange_at_zero([s.index for s in chosen])
        acc = sum(a * s.value for a, s in zip(exponents, chosen)) % FIELD.modulus
        assert FIELD.div(acc, denominator) == 55
        lams = FIELD.lagrange_coefficients_at_zero([s.index for s in chosen])
        assert [FIELD.div(a, denominator) for a in exponents] == lams

    def test_lagrange_helper_rejects_repeated_or_zero_points(self):
        for indices in ([1, 2, 1], [0, 3]):
            with pytest.raises(ValueError):
                lagrange_at_zero(indices)
