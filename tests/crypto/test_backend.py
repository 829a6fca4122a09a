"""Tests for the modular-exponentiation backend.

The contract under test: the comb strategy computes bit-identical values to
a bare-``pow`` oracle for every operation the group and fast path route
through it, so the tables are purely a performance decision.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import schnorr
from repro.crypto.api import verifiers_for
from repro.crypto.backend import CryptoBackend, active_backend, use_backend
from repro.crypto.group import group_for_profile


class PowBackend(CryptoBackend):
    """The correctness oracle: Python's ``pow`` everywhere, no tables, no
    shared squaring chain and no Straus walk."""

    name = "pow"

    def fixed_power(self, base, modulus, max_bits, window=None):
        return lambda exponent: pow(base, exponent, modulus)

    def powers(self, base, exponents, modulus):
        return [pow(base, e, modulus) for e in exponents]

    def simultaneous_power(self, b1, e1, b2, e2, modulus):
        return pow(b1, e1, modulus) * pow(b2, e2, modulus) % modulus


BACKENDS = (PowBackend(), CryptoBackend())


class TestSelection:
    def test_default_backend_is_the_comb_strategy(self):
        assert type(active_backend()) is CryptoBackend
        assert active_backend().name == "window"

    def test_use_backend_scopes_and_restores(self):
        before = active_backend()
        oracle = PowBackend()
        with use_backend(oracle) as installed:
            assert installed is oracle and active_backend() is oracle
        assert active_backend() is before


class TestBitIdentity:
    """The comb strategy computes the same numbers as the oracle."""

    def _ops(self, group):
        rng = Random(7)
        x = group.random_scalar(rng)
        a = group.power_g(group.random_scalar(rng))
        return (
            group.power_g(x),
            group.power(a, x),
            group.inv(a),
            group.hash_to_group("backend/identity", b"probe"),
            group.is_element(a),
        )

    def test_group_operations_identical(self, group):
        with use_backend(BACKENDS[0]):
            reference = self._ops(group)
        for backend in BACKENDS:
            with use_backend(backend):
                assert self._ops(group) == reference, backend.name

    def test_batch_verification_identical(self, group):
        rng = Random(11)
        items = []
        for i in range(8):
            pair = schnorr.keygen(group, rng)
            message = b"backend/batch/%d" % i
            items.append(
                (pair.public, message, schnorr.sign(group, pair.secret, message, rng))
            )
        # Forge one item so the rejecting path runs under each backend too.
        pk, message, sig = items[3]
        items[3] = (pk, message, type(sig)(sig.challenge, (sig.response + 1) % group.q))
        verdicts = []
        for backend in BACKENDS:
            with use_backend(backend):
                suite = verifiers_for(group)
                verdicts.append(suite.schnorr.verify_batch(items))
        expected = [True] * 8
        expected[3] = False
        assert all(v == expected for v in verdicts)

    def test_fixed_power_matches_pow(self, group):
        for backend in BACKENDS:
            power = backend.fixed_power(group.g, group.p, group.q.bit_length())
            for e in (0, 1, 2, group.q - 1, group.q // 3):
                assert power(e) == pow(group.g, e, group.p), backend.name


class TestCryptoBackend:
    def test_powmod_keeps_no_per_base_state(self, group):
        """Tables exist only for bases a caller declares (``fixed_power``):
        a base that keeps coming back through ``powmod`` leaves nothing
        behind, however often it comes."""
        b = CryptoBackend()
        base = group.power_g(1234)
        for _ in range(5):
            assert b.powmod(base, 99, group.p) == pow(base, 99, group.p)
        assert vars(b) == {}

    def test_negative_exponent_falls_back_to_pow(self, group):
        b = CryptoBackend()
        base = group.power_g(5)
        assert b.powmod(base, -1, group.p) == pow(base, -1, group.p)

    def test_table_overflow_exponent_rejected(self, group):
        power = CryptoBackend().fixed_power(group.g, group.p, 16)
        with pytest.raises(ValueError):
            power(1 << 20)


GROUPS = {profile: group_for_profile(profile) for profile in ("test", "default")}


def exponents(q):
    """0, 1 and q - 1, byte and nibble boundaries, any width up to q's (so
    two draws have unequal bit lengths and the shorter one zero top bytes),
    and uniform scalars."""
    bits = q.bit_length()
    edges = [0, 1, 2, 15, 16, 255, 256, q - 1, q // 2]
    edges += [(1 << (8 * k)) + d for k in range(1, bits // 8) for d in (-1, 0)]
    return st.one_of(
        st.sampled_from(edges),
        st.integers(1, bits).flatmap(lambda width: st.integers(0, (1 << width) - 1)),
        st.integers(0, q - 1),
    )


class TestKernels:
    """``powers`` and the Straus walk give exactly ``pow``'s values."""

    backend = CryptoBackend()

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_powers_match_pow(self, profile, data):
        group = GROUPS[profile]
        base = group.power_g(data.draw(st.integers(1, group.q - 1)))
        exps = data.draw(st.lists(exponents(group.q), min_size=1, max_size=3))
        assert self.backend.powers(base, exps, group.p) == [pow(base, e, group.p) for e in exps]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_walk_matches_pow(self, profile, data):
        group = GROUPS[profile]
        p = group.p
        b1, b2 = (group.power_g(data.draw(st.integers(1, group.q - 1))) for _ in range(2))
        e1, e2 = data.draw(exponents(group.q)), data.draw(exponents(group.q))
        expected = pow(b1, e1, p) * pow(b2, e2, p) % p
        assert self.backend.simultaneous_power(b1, e1, b2, e2, p) == expected

    @pytest.mark.parametrize("profile", sorted(GROUPS))
    def test_powers_edge_calls(self, profile):
        group = GROUPS[profile]
        p, q = group.p, group.q
        base = group.power_g(4242)
        calls = [
            (0,), (1,), (q - 1,), (0, 0), (0, q - 1), (q - 1, 1),
            (1 << (q.bit_length() - 1), 3),  # the short one is all zero top bytes
            (255, 256, q - 1),  # three exponents of unequal lengths
            (q - 1, 0, 1),
        ]
        for exps in calls:
            assert self.backend.powers(base, exps, p) == [pow(base, e, p) for e in exps], exps
        assert self.backend.powers(base, (), p) == []
        # A base outside [0, p) is reduced first, as ``pow`` reduces it.
        assert self.backend.powers(base + p, (5, q - 1), p) == [pow(base, e, p) for e in (5, q - 1)]

    def test_pow_oracle_overrides_both_kernels(self):
        assert PowBackend.powers is not CryptoBackend.powers
        assert PowBackend.simultaneous_power is not CryptoBackend.simultaneous_power
