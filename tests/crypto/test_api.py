"""Tests for the unified verifier API (``repro.crypto.api``).

Covers: Protocol conformance, batch == single for every scheme, the API
being the *only* verification surface (the deprecated module-level
``verify`` wrappers are gone), and the API signers producing
bit-identical output to the module sign functions.
"""

from __future__ import annotations

from random import Random

from repro.crypto import api, dleq, multisig, schnorr, threshold, unique
from repro.crypto.dleq import DleqStatement
from repro.crypto.unique import message_point


def _suite(group):
    return api.verifiers_for(group)


class TestProtocols:
    def test_verifiers_conform(self, group):
        suite = _suite(group)
        for verifier in (
            suite.schnorr, suite.dleq, suite.threshold_share,
            suite.threshold, suite.multisig_share, suite.multisig,
        ):
            assert isinstance(verifier, api.Verifier)

    def test_signers_conform(self, group, rng):
        signer = api.SchnorrSigner(group, group.random_scalar(rng))
        assert isinstance(signer, api.Signer)

    def test_suite_is_cached(self, group):
        assert _suite(group) is _suite(group)


class TestSchnorrVerifier:
    def test_single_and_batch(self, group, rng):
        suite = _suite(group)
        items = []
        for i in range(5):
            pair = schnorr.keygen(group, rng)
            message = b"api/%d" % i
            items.append((pair.public, message, schnorr.sign(group, pair.secret, message, rng)))
        assert all(suite.schnorr.verify(*item) for item in items)
        assert suite.schnorr.verify_batch(items) == [True] * 5

    def test_out_of_range_response_rejected(self, group, rng):
        suite = _suite(group)
        pair = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, pair.secret, b"m", rng)
        bad = schnorr.SchnorrSignature(sig.challenge, sig.response + group.q)
        assert not suite.schnorr.verify(pair.public, b"m", bad)
        bad = schnorr.SchnorrSignature(sig.challenge + group.q, sig.response)
        assert not suite.schnorr.verify(pair.public, b"m", bad)

    def test_batch_report_counts(self, group, rng):
        suite = _suite(group)
        pair = schnorr.keygen(group, rng)
        good = schnorr.sign(group, pair.secret, b"m", rng)
        bad = schnorr.SchnorrSignature(good.challenge, (good.response + 1) % group.q)
        report = api.BatchResult.of(
            suite.schnorr.verify_batch([(pair.public, b"m", good), (pair.public, b"m", bad)])
        )
        assert report.results == [True, False]
        assert report.stats.count == 2
        assert report.stats.invalid == 1
        assert not report.all_valid()


class TestAggregateVerifiers:
    def test_threshold_signature(self, group, rng):
        suite = _suite(group)
        pk, keys = threshold.keygen(group, threshold=3, n=5, rng=rng)
        shares = [threshold.sign_share(pk, k, b"beacon", rng) for k in keys[:3]]
        sig = threshold.combine(pk, b"beacon", shares)
        assert suite.threshold.verify(pk, b"beacon", sig)
        forged = threshold.ThresholdSignature(value=sig.value, shares=sig.shares[:2])
        assert not suite.threshold.verify(pk, b"beacon", forged)
        assert suite.threshold.verify_batch(
            [(pk, b"beacon", sig), (pk, b"beacon", forged)]
        ) == [True, False]

    def test_multisignature(self, group, rng):
        suite = _suite(group)
        pk, keys = multisig.keygen(group, threshold=3, n=4, rng=rng)
        shares = [multisig.sign_share(pk, k, b"notarize", rng) for k in keys[:3]]
        sig = multisig.combine(pk, b"notarize", shares)
        assert suite.multisig.verify(pk, b"notarize", sig)
        short = multisig.Multisignature(shares=sig.shares[:2])
        assert not suite.multisig.verify(pk, b"notarize", short)


class TestApiIsOnlyVerifySurface:
    """The deprecated module-level ``verify`` wrappers are removed; the
    scheme modules expose keygen/sign/combine only, and all verification
    goes through :func:`repro.crypto.api.verifiers_for`."""

    def test_wrappers_are_gone(self):
        for module in (schnorr, dleq, unique, threshold, multisig):
            assert not hasattr(module, "verify"), module.__name__
        for module in (threshold, multisig):
            assert not hasattr(module, "verify_share"), module.__name__

    def test_api_covers_every_scheme(self, group, rng):
        suite = _suite(group)

        secret = group.random_scalar(rng)
        h2 = message_point(group, b"m")
        proof = dleq.prove(group, secret, group.g, h2, rng)
        statement = DleqStatement(
            group.g, group.power_g(secret), h2, group.power(h2, secret)
        )
        assert suite.dleq.verify(statement, b"", proof)

        tpk, tkeys = threshold.keygen(group, threshold=2, n=3, rng=rng)
        tshare = threshold.sign_share(tpk, tkeys[0], b"m", rng)
        assert suite.threshold_share.verify(tpk, b"m", tshare)
        tsig = threshold.combine(
            tpk, b"m", [threshold.sign_share(tpk, k, b"m", rng) for k in tkeys[:2]]
        )
        assert suite.threshold.verify(tpk, b"m", tsig)

        mpk, mkeys = multisig.keygen(group, threshold=2, n=3, rng=rng)
        mshare = multisig.sign_share(mpk, mkeys[0], b"m", rng)
        assert suite.multisig_share.verify(mpk, b"m", mshare)
        msig = multisig.combine(
            mpk, b"m", [multisig.sign_share(mpk, k, b"m", rng) for k in mkeys[:2]]
        )
        assert suite.multisig.verify(mpk, b"m", msig)


class TestSignerBitIdentity:
    """API signers reproduce the module-level sign output draw-for-draw."""

    def test_schnorr(self, group):
        secret = 1234567
        a = schnorr.sign(group, secret, b"m", Random(7))
        b = api.SchnorrSigner(group, secret).sign(b"m", Random(7))
        assert a == b

    def test_threshold_share(self, group, rng):
        pk, keys = threshold.keygen(group, threshold=2, n=3, rng=rng)
        a = threshold.sign_share(pk, keys[1], b"m", Random(11))
        b = api.ThresholdShareSigner(pk, keys[1]).sign(b"m", Random(11))
        assert a == b

    def test_multisig_share(self, group, rng):
        pk, keys = multisig.keygen(group, threshold=2, n=3, rng=rng)
        a = multisig.sign_share(pk, keys[2], b"m", Random(13))
        b = api.MultisigShareSigner(pk, keys[2]).sign(b"m", Random(13))
        assert a == b
