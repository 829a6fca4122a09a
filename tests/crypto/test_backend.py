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

from repro.crypto import fastpath, schnorr
from repro.crypto.backend import Comb, CryptoBackend, active_backend, use_backend
from repro.crypto.group import group_for_profile

from .reference import schnorr_sign


class PowBackend(CryptoBackend):
    """The correctness oracle: Python's ``pow`` everywhere, no comb, and a
    "chain" whose powers are ``pow`` of its first element."""

    name = "pow"

    def fixed_power(self, base, modulus, max_bits, max_tables=None):
        return lambda exponent: pow(base, exponent, modulus)

    def chain(self, base, max_bits, modulus):
        return [pow(base, 1, modulus)]

    def chain_powers(self, chain, exponents, modulus):
        return [pow(chain[0], e, modulus) for e in exponents]


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
                (pair.public, message, schnorr_sign(group, pair.secret, message, rng))
            )
        # Forge one item so the rejecting path runs under each backend too.
        pk, message, sig = items[3]
        items[3] = (pk, message, type(sig)(sig.challenge, (sig.response + 1) % group.q))
        verdicts = []
        for backend in BACKENDS:
            with use_backend(backend):
                ctx = fastpath.for_group(group)
                verdicts.append([schnorr.verify(ctx, *item) for item in items])
        expected = [True] * 8
        expected[3] = False
        assert all(v == expected for v in verdicts)

    def test_fixed_power_matches_pow(self, group):
        for backend in BACKENDS:
            for max_tables in (None, 4):
                power = backend.fixed_power(group.g, group.p, group.q.bit_length(), max_tables)
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
        for max_tables in (None, 1):
            power = CryptoBackend().fixed_power(group.g, group.p, 16, max_tables)
            with pytest.raises(ValueError):
                power(1 << 20)

    def test_chain_overflow_exponent_rejected(self, group):
        backend = CryptoBackend()
        chain = backend.chain(group.g, 16, group.p)
        assert len(chain) == 4
        assert backend.chain_powers(chain, ((1 << 16) - 1,), group.p) == [
            pow(group.g, (1 << 16) - 1, group.p)
        ]
        for e in (1 << 16, 1 << 20, -1):
            with pytest.raises(ValueError):
                backend.chain_powers(chain, (3, e), group.p)

    def test_comb_spacing_must_divide_a_word_row(self, group):
        for spacing in (0, 3, 16):
            with pytest.raises(ValueError):
                Comb(group.p, group.g, 16, spacing)

    @pytest.mark.parametrize(
        "max_bits, max_tables, spacing",
        [(256, None, 1), (256, 32, 1), (256, 4, 8), (256, 1, 8), (96, 4, 4), (96, 8, 2),
         (64, 4, 2), (160, 4, 8)],
    )
    def test_fixed_power_geometry_follows_the_width(self, group, max_bits, max_tables, spacing):
        """The fewest squarings whose tables number at most ``max_tables``."""
        comb = CryptoBackend().fixed_power(group.g, group.p, max_bits, max_tables).__self__
        assert comb.spacing == spacing


GROUPS = {profile: group_for_profile(profile) for profile in ("test", "default")}


def exponents(q):
    """0, 1, q - 1, q and 2^bits - 1, nibble (so byte and 64-bit word)
    boundaries, any width up to q's (so two draws have unequal bit lengths
    and the shorter one zero top bytes), and uniform scalars."""
    bits = q.bit_length()
    edges = [0, 1, 2, q - 1, q, q // 2, (1 << bits) - 1]
    edges += [(1 << (4 * k)) + d for k in range(1, bits // 4) for d in (-1, 0)]
    return st.one_of(
        st.sampled_from(edges),
        st.integers(1, bits).flatmap(lambda width: st.integers(0, (1 << width) - 1)),
        st.integers(0, q - 1),
    )


class TestKernels:
    """The chain, its bucket evaluation and the comb give exactly ``pow``'s
    values."""

    backend = CryptoBackend()

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_powers_match_pow(self, profile, data):
        group = GROUPS[profile]
        base = group.power_g(data.draw(st.integers(1, group.q - 1)))
        exps = data.draw(st.lists(exponents(group.q), min_size=1, max_size=3))
        chain = self.backend.chain(base, group.q.bit_length(), group.p)
        assert self.backend.chain_powers(chain, exps, group.p) == [
            pow(base, e, group.p) for e in exps
        ]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.sampled_from((1, 2, 4, 8)), st.data())
    def test_comb_matches_pow(self, profile, spacing, data):
        group = GROUPS[profile]
        base = group.power_g(data.draw(st.integers(1, group.q - 1)))
        max_bits = data.draw(st.sampled_from((group.q.bit_length(), 1, 8, 63, 64, 65, 100)))
        power = Comb(group.p, base, max_bits, spacing).power
        e = data.draw(exponents(group.q)) & ((1 << max_bits) - 1)
        assert power(e) == pow(base, e, group.p)

    @pytest.mark.parametrize("profile", sorted(GROUPS))
    def test_powers_edge_calls(self, profile):
        group = GROUPS[profile]
        p, q = group.p, group.q
        bits = q.bit_length()
        base = group.power_g(4242)
        calls = [
            (0,), (1,), (q - 1,), (q,), (0, 0), (0, q - 1), (q - 1, 1), (q - 3, q),
            ((1 << bits) - 1,),  # every digit of the chain non-zero
            (1 << (bits - 1), 3),  # the short one is all zero top bytes
            (15, 16, 255, 256, q - 1),  # nibble and byte boundaries
            (q - 1, 0, 1),
        ]
        chain = self.backend.chain(base, bits, p)
        assert len(chain) == (bits + 3) // 4
        for exps in calls:
            assert self.backend.chain_powers(chain, exps, p) == [pow(base, e, p) for e in exps], exps
        assert self.backend.chain_powers(chain, (), p) == []
        # A base outside [0, p) is reduced first, as ``pow`` reduces it.
        assert self.backend.chain(base + p, bits, p) == chain
        # A chain of one element covers one 4-bit digit.
        assert self.backend.chain(base, 0, p) == [base]
        assert self.backend.chain_powers([base], (15,), p) == [pow(base, 15, p)]

    def test_pow_oracle_overrides_both_kernels(self):
        for kernel in ("fixed_power", "chain", "chain_powers"):
            assert getattr(PowBackend, kernel) is not getattr(CryptoBackend, kernel), kernel
