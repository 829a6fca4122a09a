"""Tests for the signing and verification surface of the scheme modules.

Each scheme module signs and verifies with plain functions over a
:class:`~repro.crypto.fastpath.FastPath`: ``schnorr.sign``/``verify``,
``multisig.sign_share``/``verify_share``, ``threshold.sign_share``/
``verify_share``/``verify`` and ``dleq.check``.  Covers: every scheme has
that surface and no wrapper layer sits on top of it, each verifier's
verdicts, and the production signers producing bit-identical output to the
reference signers of ``tests/crypto/reference.py``.
"""

from __future__ import annotations

import importlib
import inspect
from random import Random

import pytest

from repro.crypto import dleq, fastpath, multisig, schnorr, threshold
from repro.crypto.dleq import DleqStatement
from repro.crypto.unique import message_point
from repro.workloads.batching import RealClientAuth, SignedRequest

from .reference import (
    dleq_prove,
    multisig_sign_share,
    multisig_verify,
    schnorr_sign,
    threshold_sign_share,
)


def _ctx(group):
    return fastpath.for_group(group)


def _nonce(group, seed):
    return group.scalar_field.random_nonzero(Random(seed))


class TestProtocols:
    def test_verifiers_conform(self):
        """Every scheme verifies through a module function whose first
        argument is the context."""
        for verify in (
            schnorr.verify, multisig.verify_share, threshold.verify_share,
            threshold.verify, dleq.check,
        ):
            assert list(inspect.signature(verify).parameters)[0] == "ctx", verify.__qualname__

    def test_signers_conform(self, group, rng):
        """Every signer takes the context first and the caller's nonce last."""
        ctx = _ctx(group)
        secret = group.random_scalar(rng)
        sig = schnorr.sign(ctx, secret, group.power_g(secret), b"m", _nonce(group, 1))
        assert schnorr.verify(ctx, group.power_g(secret), b"m", sig)
        for sign in (schnorr.sign, multisig.sign_share, threshold.sign_share):
            names = list(inspect.signature(sign).parameters)
            assert (names[0], names[-1]) == ("ctx", "nonce"), sign.__qualname__

    def test_suite_is_cached(self, group):
        assert _ctx(group) is _ctx(group)


class TestSchnorrVerifier:
    def test_single_and_batch(self, group, rng):
        ctx = _ctx(group)
        items = []
        for i in range(5):
            pair = schnorr.keygen(group, rng)
            message = b"api/%d" % i
            items.append((pair.public, message, schnorr_sign(group, pair.secret, message, rng)))
        assert [schnorr.verify(ctx, *item) for item in items] == [True] * 5

    def test_out_of_range_response_rejected(self, group, rng):
        ctx = _ctx(group)
        pair = schnorr.keygen(group, rng)
        sig = schnorr_sign(group, pair.secret, b"m", rng)
        bad = schnorr.SchnorrSignature(sig.challenge, sig.response + group.q)
        assert not schnorr.verify(ctx, pair.public, b"m", bad)
        bad = schnorr.SchnorrSignature(sig.challenge + group.q, sig.response)
        assert not schnorr.verify(ctx, pair.public, b"m", bad)

    def test_batch_report_counts(self, group):
        """A batch of client requests is one call and one verdict per
        request, in order."""
        auth = RealClientAuth(seed=3, group_profile="test")
        requests = [
            SignedRequest(client=c, seq=1, key=c, auth=auth.sign(c, 1, c, b"v"), body=b"v")
            for c in range(2)
        ]
        requests[1] = SignedRequest(1, 1, 1, requests[1].auth, b"tampered")
        assert auth.verify_batch(requests) == [True, False]


class TestAggregateVerifiers:
    def test_threshold_signature(self, group, rng):
        ctx = _ctx(group)
        pk, keys = threshold.keygen(group, threshold=3, n=5, rng=rng)
        shares = [threshold_sign_share(pk, k, b"beacon", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"beacon", shares)
        assert threshold.verify(ctx, pk, b"beacon", sig)
        forged = threshold.ThresholdSignature(value=sig.value, shares=sig.shares[:2])
        assert not threshold.verify(ctx, pk, b"beacon", forged)

    def test_multisignature(self, group, rng):
        ctx = _ctx(group)
        pk, keys = multisig.keygen(group, threshold=3, n=4, rng=rng)
        shares = [multisig_sign_share(pk, k, b"notarize", rng) for k in keys[:3]]
        sig = multisig.combine(pk, b"notarize", shares)
        assert multisig_verify(ctx, pk, b"notarize", sig)
        short = multisig.Multisignature(shares=sig.shares[:2])
        assert not multisig_verify(ctx, pk, b"notarize", short)


class TestApiIsOnlyVerifySurface:
    """The scheme modules are the surface: no wrapper module sits on top of
    them, and the slow reference signers live in the tests."""

    def test_wrappers_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.crypto.api")
        assert not hasattr(dleq, "prove")
        for module in (threshold, multisig):
            assert hasattr(module, "verify_share"), module.__name__
        assert not hasattr(multisig, "verify")
        assert not hasattr(fastpath.FastPath, "warm_bases")

    def test_api_covers_every_scheme(self, group, rng):
        ctx = _ctx(group)

        secret = group.random_scalar(rng)
        h2 = message_point(group, b"m")
        proof = dleq_prove(group, secret, group.g, h2, rng)
        statement = DleqStatement(group.g, group.power_g(secret), h2, group.power(h2, secret))
        assert dleq.check(ctx, statement, proof, ctx.message_chain(b"m"))

        tpk, tkeys = threshold.keygen(group, threshold=2, n=3, rng=rng)
        tshare = threshold_sign_share(tpk, tkeys[0], b"m", rng)
        assert threshold.verify_share(ctx, tpk, b"m", tshare)
        tsig = threshold.combine(
            tpk, b"m", [threshold_sign_share(tpk, k, b"m", rng) for k in tkeys[:2]]
        )
        assert threshold.verify(ctx, tpk, b"m", tsig)

        mpk, mkeys = multisig.keygen(group, threshold=2, n=3, rng=rng)
        mshare = multisig_sign_share(mpk, mkeys[0], b"m", rng)
        assert multisig.verify_share(ctx, mpk, b"m", mshare)
        msig = multisig.combine(
            mpk, b"m", [multisig_sign_share(mpk, k, b"m", rng) for k in mkeys[:2]]
        )
        assert multisig_verify(ctx, mpk, b"m", msig)


class TestSignerBitIdentity:
    """Production signers reproduce the reference signers draw for draw."""

    def test_schnorr(self, group):
        secret = 1234567
        a = schnorr_sign(group, secret, b"m", Random(7))
        b = schnorr.sign(_ctx(group), secret, group.power_g(secret), b"m", _nonce(group, 7))
        assert a == b

    def test_threshold_share(self, group, rng):
        pk, keys = threshold.keygen(group, threshold=2, n=3, rng=rng)
        a = threshold_sign_share(pk, keys[1], b"m", Random(11))
        b = threshold.sign_share(_ctx(group), pk, keys[1], b"m", _nonce(group, 11))
        assert a == b

    def test_multisig_share(self, group, rng):
        pk, keys = multisig.keygen(group, threshold=2, n=3, rng=rng)
        a = multisig_sign_share(pk, keys[2], b"m", Random(13))
        b = multisig.sign_share(_ctx(group), pk, keys[2], b"m", _nonce(group, 13))
        assert a == b

    def test_client_auth_signature_pinned(self):
        """The load client's deterministic-nonce signature, pinned byte for
        byte: it signs through ``schnorr.sign`` with a nonce derived from the
        key and message, and neither may change what a client sends."""
        message = (3, 5, 11, b"put\x1fk\x1fv")
        assert RealClientAuth(seed=7).sign(*message).hex() == (
            "487bd91d0ff1690304a38ddf0ddf989448db9d21e1fe6f9e"
        )
        assert RealClientAuth(seed=7, group_profile="default").sign(*message).hex() == (
            "6886208b6d01dadd6c8e165a609f2f88d2efde116c9f8215"
            "522b84d42bb75a3f73a5444c0cef24e87b8dbf9acb734564"
            "7ee8b59f9fd55e02e45c4057e6d6b27b"
        )
