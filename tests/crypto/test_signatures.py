"""Tests for Schnorr signatures and DLEQ proofs.

Verification goes through :mod:`repro.crypto.api` (the only verification
surface since the deprecated module-level ``verify`` wrappers were
removed); signing and keygen stay on the scheme modules.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dleq, schnorr
from repro.crypto.api import verifiers_for
from repro.crypto.dleq import DleqStatement
from repro.crypto.group import default_group


@pytest.fixture(scope="module")
def suite(group):
    return verifiers_for(group)


class TestSchnorr:
    def test_sign_verify(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"hello", rng)
        assert suite.schnorr.verify(keys.public, b"hello", sig)

    def test_wrong_message_rejected(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"hello", rng)
        assert not suite.schnorr.verify(keys.public, b"goodbye", sig)

    def test_wrong_key_rejected(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        other = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"hello", rng)
        assert not suite.schnorr.verify(other.public, b"hello", sig)

    def test_tampered_response_rejected(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"m", rng)
        bad = schnorr.SchnorrSignature(sig.challenge, (sig.response + 1) % group.q)
        assert not suite.schnorr.verify(keys.public, b"m", bad)

    def test_tampered_commitment_rejected(self, group, rng, suite):
        # The commitment is not carried; its hash is.  A challenge taken over
        # any other commitment does not match the one the verifier recomputes.
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"m", rng)
        other = schnorr._challenge(group, keys.public, group.power_g(3), b"m")
        bad = schnorr.SchnorrSignature(other, sig.response)
        assert not suite.schnorr.verify(keys.public, b"m", bad)

    def test_out_of_range_values_rejected(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"m", rng)
        for bad in (
            schnorr.SchnorrSignature(sig.challenge, group.q + sig.response),
            schnorr.SchnorrSignature(group.q + sig.challenge, sig.response),
            schnorr.SchnorrSignature(sig.challenge, -1),
            schnorr.SchnorrSignature(-1, sig.response),
        ):
            assert not suite.schnorr.verify(keys.public, b"m", bad)
        assert not suite.schnorr.verify(0, b"m", sig)  # the key is not an element

    def test_signatures_are_randomized(self, group, rng, suite):
        keys = schnorr.keygen(group, rng)
        a = schnorr.sign(group, keys.secret, b"m", rng)
        b = schnorr.sign(group, keys.secret, b"m", rng)
        assert a != b  # fresh nonce each time
        assert suite.schnorr.verify(keys.public, b"m", a)
        assert suite.schnorr.verify(keys.public, b"m", b)

    def test_to_bytes_length(self, group, rng):
        keys = schnorr.keygen(group, rng)
        sig = schnorr.sign(group, keys.secret, b"m", rng)
        assert len(sig.to_bytes(group)) == 2 * group.scalar_width
        assert 2 * default_group().scalar_width == 64


class TestSchnorrDecoder:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), message=st.binary(max_size=40))
    def test_round_trip(self, group, seed, message):
        rng = Random(seed)
        sig = schnorr.sign(group, group.random_scalar(rng), message, rng)
        assert schnorr.signature_from_bytes(group, sig.to_bytes(group)) == sig

    def test_malformed_input_raises(self, group, rng):
        width = group.scalar_width
        sig = schnorr.sign(group, group.random_scalar(rng), b"m", rng)
        data = sig.to_bytes(group)
        q_bytes = group.q.to_bytes(width, "big")
        for bad in (
            b"",
            data[:-1],  # truncated
            data + b"\x00",  # over-long
            q_bytes + data[width:],  # c == q
            data[:width] + q_bytes,  # s == q
            b"\xff" * (2 * width),
        ):
            with pytest.raises(ValueError):
                schnorr.signature_from_bytes(group, bad)


class TestDleq:
    def test_prove_verify(self, group, rng, suite):
        x = group.random_scalar(rng)
        g2 = group.hash_to_group("base2", b"x")
        proof = dleq.prove(group, x, group.g, g2, rng)
        statement = DleqStatement(group.g, group.power_g(x), g2, group.power(g2, x))
        assert suite.dleq.verify(statement, b"", proof)

    def test_wrong_statement_rejected(self, group, rng, suite):
        x = group.random_scalar(rng)
        y = (x + 1) % group.q
        g2 = group.hash_to_group("base2", b"x")
        proof = dleq.prove(group, x, group.g, g2, rng)
        # B = g2^y with y != x: proof must not verify.
        statement = DleqStatement(group.g, group.power_g(x), g2, group.power(g2, y))
        assert not suite.dleq.verify(statement, b"", proof)

    def test_tampered_proof_rejected(self, group, rng, suite):
        x = group.random_scalar(rng)
        g2 = group.hash_to_group("base2", b"x")
        proof = dleq.prove(group, x, group.g, g2, rng)
        statement = DleqStatement(group.g, group.power_g(x), g2, group.power(g2, x))
        bad = dleq.DleqProof(proof.challenge, (proof.response + 1) % group.q)
        assert not suite.dleq.verify(statement, b"", bad)
        swapped = dleq.DleqProof(proof.response, proof.challenge)
        assert not suite.dleq.verify(statement, b"", swapped)
        assert len(proof.to_bytes(group)) == 2 * group.scalar_width

    def test_non_element_inputs_rejected(self, group, rng, suite):
        x = group.random_scalar(rng)
        g2 = group.hash_to_group("base2", b"x")
        proof = dleq.prove(group, x, group.g, g2, rng)
        statement = DleqStatement(0, group.power_g(x), g2, group.power(g2, x))
        assert not suite.dleq.verify(statement, b"", proof)
