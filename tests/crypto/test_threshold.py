"""Tests for the (t, h, n)-threshold unique-signature scheme (approach iii)."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dleq, fastpath, threshold
from repro.crypto.backend import CryptoBackend, use_backend
from repro.crypto.group import group_for_profile

from .reference import threshold_sign_share
from .test_backend import PowBackend


@pytest.fixture(scope="module")
def ctx(group):
    return fastpath.for_group(group)


@pytest.fixture(scope="module")
def setup(group):
    from random import Random

    rng = Random(99)
    pk, keys = threshold.keygen(group, threshold=3, n=7, rng=rng)
    return group, pk, keys, rng


class TestKeygen:
    def test_share_publics_match_secrets(self, setup):
        group, pk, keys, _ = setup
        for key in keys:
            assert pk.share_public(key.index) == group.power_g(key.secret)

    def test_master_public_consistent_with_shares(self, setup):
        """Recombining share secrets gives the master secret (in exponent)."""
        group, pk, keys, _ = setup
        from repro.crypto.shamir import Share, reconstruct

        secret = reconstruct(
            group.scalar_field, [Share(k.index, k.secret) for k in keys[:3]]
        )
        assert group.power_g(secret) == pk.master_public


class TestShares:
    def test_share_sign_verify(self, setup, ctx):
        group, pk, keys, rng = setup
        share = threshold_sign_share(pk, keys[0], b"message", rng)
        assert threshold.verify_share(ctx, pk, b"message", share)

    def test_share_wrong_message_rejected(self, setup, ctx):
        group, pk, keys, rng = setup
        share = threshold_sign_share(pk, keys[0], b"message", rng)
        assert not threshold.verify_share(ctx, pk, b"other", share)

    def test_share_wrong_index_rejected(self, setup, ctx):
        group, pk, keys, rng = setup
        share = threshold_sign_share(pk, keys[0], b"m", rng)
        forged = threshold.SignatureShare(index=2, value=share.value, proof=share.proof)
        assert not threshold.verify_share(ctx, pk, b"m", forged)

    def test_share_index_out_of_range_rejected(self, setup, ctx):
        group, pk, keys, rng = setup
        share = threshold_sign_share(pk, keys[0], b"m", rng)
        forged = threshold.SignatureShare(index=99, value=share.value, proof=share.proof)
        assert not threshold.verify_share(ctx, pk, b"m", forged)


class TestCombine:
    def test_combine_and_verify(self, setup, ctx):
        group, pk, keys, rng = setup
        shares = [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"m", shares)
        assert threshold.verify(ctx, pk, b"m", sig)

    def test_uniqueness_across_share_subsets(self, setup):
        """The combined value is identical for ANY valid share subset —
        the property the random beacon depends on (Section 2.3)."""
        group, pk, keys, rng = setup
        a = threshold.combine(
            pk, b"m", [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        )
        b = threshold.combine(
            pk, b"m", [threshold_sign_share(pk, k, b"m", rng) for k in keys[4:7]]
        )
        assert a.value == b.value

    def test_value_is_master_signature(self, setup):
        """Combined value equals H2(m)^master_sk (combination in exponent)."""
        group, pk, keys, rng = setup
        from repro.crypto.shamir import Share, reconstruct
        from repro.crypto.unique import message_point

        master = reconstruct(
            group.scalar_field, [Share(k.index, k.secret) for k in keys[:3]]
        )
        sig = threshold.combine(
            pk, b"m", [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        )
        assert sig.value == group.power(message_point(group, b"m"), master)

    def test_too_few_shares_raises(self, setup):
        group, pk, keys, rng = setup
        shares = [threshold_sign_share(pk, k, b"m", rng) for k in keys[:2]]
        with pytest.raises(ValueError):
            threshold.combine(pk, b"m", shares)

    def test_duplicate_shares_dont_count(self, setup):
        group, pk, keys, rng = setup
        share = threshold_sign_share(pk, keys[0], b"m", rng)
        with pytest.raises(ValueError):
            threshold.combine(pk, b"m", [share, share, share])

    def test_forged_combined_rejected(self, setup, ctx):
        group, pk, keys, rng = setup
        shares = [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"m", shares)
        forged = threshold.ThresholdSignature(value=group.power_g(5), shares=sig.shares)
        assert not threshold.verify(ctx, pk, b"m", forged)

    def test_combined_wrong_message_rejected(self, setup, ctx):
        group, pk, keys, rng = setup
        shares = [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"m", shares)
        assert not threshold.verify(ctx, pk, b"other", sig)

    def test_verify_rejects_insufficient_carried_shares(self, setup, ctx):
        group, pk, keys, rng = setup
        shares = [threshold_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"m", shares)
        stripped = threshold.ThresholdSignature(value=sig.value, shares=sig.shares[:2])
        assert not threshold.verify(ctx, pk, b"m", stripped)


def combine_per_share(group, shares) -> int:
    """The oracle of ``threshold.combine``: the per-share Lagrange loop
    Π σ_i^{λ_i mod q}, one full-width power per share."""
    lams = group.scalar_field.lagrange_coefficients_at_zero([s.index for s in shares])
    value = 1
    for lam, share in zip(lams, shares):
        value = group.mul(value, group.power(share.value, lam))
    return value


class TestCombineOracle:
    """``combine`` raises small integer powers once to D⁻¹ mod q; on
    subgroup members that is the per-share loop, bit for bit, for any index
    subset, any order, duplicates included."""

    @settings(max_examples=30, deadline=None)
    @given(
        profile=st.sampled_from(["test", "default"]),
        indices=st.lists(st.integers(1, 40), min_size=1, max_size=14, unique=True),
        repeats=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_combine_equals_per_share_loop(self, profile, indices, repeats, seed):
        group, rng = group_for_profile(profile), Random(seed)
        shares = [
            threshold.SignatureShare(i, group.power_g(rng.randrange(1, group.q)), dleq.DleqProof(0, 0))
            for i in indices
        ]
        pk = threshold.ThresholdPublicKey(
            group=group, threshold=len(indices), n=40,
            master_public=group.g, share_publics=(group.g,) * 40,
        )
        expected = combine_per_share(group, shares)
        # A repeated index is dropped, so the first h distinct shares count.
        offered = shares[:1] * repeats + shares + shares[::-1]
        for backend in (CryptoBackend(), PowBackend()):
            with use_backend(backend):
                sig = threshold.combine(pk, b"oracle", offered)
            assert sig.value == expected, backend.name
            assert sig.shares == tuple(shares)
