"""Tests for the multi-signature scheme (approach ii: S_notary / S_final)."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto import fastpath, multisig

from .reference import multisig_sign_share, multisig_verify


@pytest.fixture(scope="module")
def ctx(group):
    return fastpath.for_group(group)


@pytest.fixture(scope="module")
def setup(group):
    rng = Random(7)
    pk, keys = multisig.keygen(group, threshold=3, n=5, rng=rng)
    return pk, keys, rng


class TestShares:
    def test_sign_verify_share(self, setup, ctx):
        pk, keys, rng = setup
        share = multisig_sign_share(pk, keys[0], b"block", rng)
        assert multisig.verify_share(ctx, pk, b"block", share)

    def test_share_identifies_signer(self, setup, ctx):
        pk, keys, rng = setup
        share = multisig_sign_share(pk, keys[2], b"block", rng)
        assert share.index == 3

    def test_wrong_message_rejected(self, setup, ctx):
        pk, keys, rng = setup
        share = multisig_sign_share(pk, keys[0], b"block", rng)
        assert not multisig.verify_share(ctx, pk, b"other", share)

    def test_reassigned_index_rejected(self, setup, ctx):
        pk, keys, rng = setup
        share = multisig_sign_share(pk, keys[0], b"m", rng)
        forged = multisig.MultisigShare(index=2, signature=share.signature)
        assert not multisig.verify_share(ctx, pk, b"m", forged)

    def test_out_of_range_index_rejected(self, setup, ctx):
        pk, keys, rng = setup
        share = multisig_sign_share(pk, keys[0], b"m", rng)
        forged = multisig.MultisigShare(index=0, signature=share.signature)
        assert not multisig.verify_share(ctx, pk, b"m", forged)


class TestAggregate:
    def test_combine_verify(self, setup, ctx):
        pk, keys, rng = setup
        shares = [multisig_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        agg = multisig.combine(pk, b"m", shares)
        assert multisig_verify(ctx, pk, b"m", agg)

    def test_signatories_descriptor(self, setup, ctx):
        """Approach (ii) signatures identify the signatories (Section 2.3)."""
        pk, keys, rng = setup
        shares = [multisig_sign_share(pk, k, b"m", rng) for k in (keys[1], keys[3], keys[4])]
        agg = multisig.combine(pk, b"m", shares)
        assert set(agg.signatories) == {2, 4, 5}

    def test_combine_dedupes(self, setup, ctx):
        pk, keys, rng = setup
        s0 = multisig_sign_share(pk, keys[0], b"m", rng)
        shares = [s0, s0] + [multisig_sign_share(pk, k, b"m", rng) for k in keys[1:3]]
        agg = multisig.combine(pk, b"m", shares)
        assert len(set(agg.signatories)) == 3

    def test_too_few_raises(self, setup, ctx):
        pk, keys, rng = setup
        shares = [multisig_sign_share(pk, k, b"m", rng) for k in keys[:2]]
        with pytest.raises(ValueError):
            multisig.combine(pk, b"m", shares)

    def test_below_threshold_aggregate_rejected(self, setup, ctx):
        pk, keys, rng = setup
        shares = [multisig_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        agg = multisig.combine(pk, b"m", shares)
        stripped = multisig.Multisignature(shares=agg.shares[:2])
        assert not multisig_verify(ctx, pk, b"m", stripped)

    def test_wrong_message_rejected(self, setup, ctx):
        pk, keys, rng = setup
        shares = [multisig_sign_share(pk, k, b"m", rng) for k in keys[:3]]
        agg = multisig.combine(pk, b"m", shares)
        assert not multisig_verify(ctx, pk, b"other", agg)

    def test_duplicate_padding_rejected(self, setup, ctx):
        """An aggregate padded with duplicates of one signer must not pass."""
        pk, keys, rng = setup
        s0 = multisig_sign_share(pk, keys[0], b"m", rng)
        fake = multisig.Multisignature(shares=(s0, s0, s0))
        assert not multisig_verify(ctx, pk, b"m", fake)
