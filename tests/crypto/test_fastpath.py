"""Tests for the crypto fast path: verification and precomputation.

The per-item oracles defined here (``verify_schnorr_single`` /
``verify_dleq_single``) are the correctness reference; everything here pins
``schnorr.verify`` and ``dleq.check`` over a ``FastPath`` and the
exponentiation shortcuts to them / to plain ``pow``.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dleq, fastpath, schnorr, threshold
from repro.crypto.backend import Comb, CryptoBackend
from repro.crypto.dleq import DleqStatement
from repro.crypto.group import group_for_profile
from repro.crypto.keyring import generate_keyrings
from repro.crypto.unique import message_point

from .reference import dleq_prove, schnorr_sign


# ---------------------------------------------------------------------------
# exponentiation primitives
# ---------------------------------------------------------------------------


#: The comb's spacings: columns per table, one more than its squarings.
SPACINGS = (1, 2, 4, 8)


class TestFixedBaseTable:
    """The Lim–Lee comb at every spacing: a public key's (8), ``g``'s (1)
    and the two between."""

    def test_matches_pow(self, group, rng):
        for spacing in SPACINGS:
            comb = Comb(group.p, group.g, group.q.bit_length(), spacing)
            for _ in range(20):
                e = rng.randrange(group.q)
                assert comb.power(e) == pow(group.g, e, group.p), spacing

    def test_zero_and_max(self, group):
        bits = group.q.bit_length()
        top = (1 << bits) - 1
        for spacing in SPACINGS:
            comb = Comb(group.p, group.g, bits, spacing)
            assert comb.power(0) == 1
            assert comb.power(top) == pow(group.g, top, group.p), spacing

    def test_exponent_out_of_range(self, group):
        for spacing in SPACINGS:
            comb = Comb(group.p, group.g, 16, spacing)
            for e in (1 << 16, 1 << 64, -1):
                with pytest.raises(ValueError):
                    comb.power(e)



class TestByteWideTable:
    """g's comb at spacing 1: a table per column of every 64-bit word, so a
    power is one multiplication per non-zero digit byte and no squaring."""

    @pytest.mark.parametrize("profile", ["test", "default"])
    def test_matches_pow_at_every_byte_boundary(self, profile):
        group = group_for_profile(profile)
        bits = group.q.bit_length()
        boundaries = [1 << (8 * k) for k in range(1, (bits + 7) // 8) if 8 * k < bits]
        exponents = [0, 1, group.q - 1, (1 << bits) - 1]
        exponents += [e + d for e in boundaries for d in (-1, 0, 1)]
        for spacing in SPACINGS:
            comb = Comb(group.p, group.g, bits, spacing)
            for e in exponents:
                assert comb.power(e) == pow(group.g, e, group.p), (spacing, e)

    @pytest.mark.parametrize("max_bits", [16, 96, 100])
    def test_exponent_out_of_range(self, group, max_bits):
        comb = Comb(group.p, group.g, max_bits, 1)
        assert comb.power((1 << max_bits) - 1) == pow(group.g, (1 << max_bits) - 1, group.p)
        for e in (1 << max_bits, 1 << (max_bits + 8), 1 << 200):
            with pytest.raises(ValueError):
                comb.power(e)

    def test_fast_path_power_g_is_byte_wide(self, group):
        power_g = fastpath.FastPath(group)._power_g
        assert power_g.__self__.spacing == 1
        words = -(-group.q.bit_length() // 64)
        assert len(power_g.__self__._tables) == 8 * words


#: The DLEQ check's two-base product, each power read off its base's chain.
backend = CryptoBackend()


def two_base(b1, e1, b2, e2, group):
    p, bits = group.p, group.q.bit_length()
    (x,) = backend.chain_powers(backend.chain(b1, bits, p), (e1,), p)
    (y,) = backend.chain_powers(backend.chain(b2, bits, p), (e2,), p)
    return x * y % p


class TestMultiExp:
    def test_check_exponents_match_pow(self, group, rng):
        # At the exponents the DLEQ check reads off the two chains: a
        # response s and a negated challenge q - c, q itself included.
        for _ in range(8):
            b1 = group.power_g(rng.randrange(1, group.q))
            b2 = group.power_g(rng.randrange(1, group.q))
            s, c = rng.randrange(group.q), rng.getrandbits(64)
            expected = pow(b1, s, group.p) * pow(b2, group.q - c, group.p) % group.p
            assert two_base(b1, s, b2, group.q - c, group) == expected
        assert two_base(b1, 0, b2, group.q, group) == 1

    def test_empty_product(self, group):
        assert two_base(group.g, 0, group.power_g(7), 0, group) == 1

    def test_two_full_width_exponents_match_pow(self, group, rng):
        for _ in range(10):
            b1 = group.power_g(rng.randrange(1, group.q))
            b2 = group.power_g(rng.randrange(1, group.q))
            e1, e2 = rng.randrange(group.q), rng.randrange(group.q)
            expected = pow(b1, e1, group.p) * pow(b2, e2, group.p) % group.p
            assert two_base(b1, e1, b2, e2, group) == expected

    @pytest.mark.parametrize("profile", ["test", "default"])
    def test_edge_exponents_match_pow(self, profile):
        """Zero on either side, odd and unequal bit lengths, and q - 1."""
        group = group_for_profile(profile)
        p, q = group.p, group.q
        b1, b2 = group.power_g(12345), group.power_g(67890)
        widths = (1, 2, 3, 7, 8, 63, 64, 65, q.bit_length() - 1)
        exponents = [0, 1, 2, 3, q - 1] + [(1 << w) - 1 for w in widths] + [1 << w for w in widths]
        for e1 in exponents:
            for e2 in exponents:
                expected = pow(b1, e1, p) * pow(b2, e2, p) % p
                assert two_base(b1, e1, b2, e2, group) == expected, (e1, e2)


# ---------------------------------------------------------------------------
# the fast verifiers vs the per-item oracle
# ---------------------------------------------------------------------------
#
# The oracles are the reference semantics of schnorr.verify and dleq.check:
# no caches, no precomputation, no shared state.  The fast checks must
# accept exactly the items these accept.


def verify_schnorr_single(group, public, message, signature) -> bool:
    """Exact per-item Schnorr check: H(pk, g**s · pk**(-c), m) == c."""
    c, s = signature.challenge, signature.response
    if not (0 <= c < group.q and 0 <= s < group.q):
        return False
    if not group.is_element(public):
        return False
    commitment = group.mul(group.power_g(s), group.power(public, -c))
    return schnorr._challenge(group, public, commitment, message) == c


def verify_dleq_single(group, statement, proof) -> bool:
    """Exact per-item DLEQ check: H(g1, A, g2, B, g1**s·A**(-c), g2**s·B**(-c)) == c."""
    c, s = proof.challenge, proof.response
    if not (0 <= c < group.q and 0 <= s < group.q):
        return False
    g1, a, g2, b = statement
    if not all(group.is_element(x) for x in statement):
        return False
    t1 = group.mul(group.power(g1, s), group.power(a, -c))
    t2 = group.mul(group.power(g2, s), group.power(b, -c))
    return dleq._challenge(group, g1, a, g2, b, t1, t2) == c


def _ctx(group):
    """A context of its own: no table or membership verdict carries over
    from another test."""
    return fastpath.FastPath(group)


def _check(ctx, statement, proof):
    """``dleq.check`` with g2's squaring chain built for the statement."""
    group = ctx.group
    chain = ctx.backend.chain(statement.g2, group.q.bit_length(), group.p)
    return dleq.check(ctx, statement, proof, chain)


def _schnorr_verdicts(ctx, items):
    return [schnorr.verify(ctx, *item) for item in items]


def _dleq_verdicts(ctx, items):
    return [_check(ctx, statement, proof) for statement, _, proof in items]


def _schnorr_items(group, rng, count):
    items = []
    for i in range(count):
        pair = schnorr.keygen(group, rng)
        message = b"fp/%d" % i
        items.append((pair.public, message, schnorr_sign(group, pair.secret, message, rng)))
    return items


def _dleq_items(group, rng, count, message=b"fp/dleq"):
    items = []
    for i in range(count):
        secret = group.random_scalar(rng)
        h2 = message_point(group, message)
        statement = DleqStatement(
            group.g, group.power_g(secret), h2, group.power(h2, secret)
        )
        items.append((statement, b"", dleq_prove(group, secret, group.g, h2, rng)))
    return items


def _scalar_forgeries(q, c, s):
    """Every (c, s) the issue lists: off by one, and out of range."""
    out_of_range = (-1, q, q + 5)
    return (
        [(c + 1, s), (c - 1, s), (c, s + 1), (c, s - 1)]
        + [(bad, s) for bad in out_of_range]
        + [(c, bad) for bad in out_of_range]
    )


class TestBatchSchnorr:
    def test_all_valid(self, group, rng):
        assert _schnorr_verdicts(_ctx(group), _schnorr_items(group, rng, 8)) == [True] * 8

    def test_forged_item_pinpointed(self, group, rng):
        items = _schnorr_items(group, rng, 8)
        pk, message, sig = items[3]
        items[3] = (pk, message, replace(sig, response=(sig.response + 1) % group.q))
        results = _schnorr_verdicts(_ctx(group), items)
        assert results == [True, True, True, False, True, True, True, True]

    def test_two_forgeries_both_isolated(self, group, rng):
        items = _schnorr_items(group, rng, 6)
        for bad in (0, 5):
            pk, message, sig = items[bad]
            items[bad] = (pk, b"other-message", sig)
        results = _schnorr_verdicts(_ctx(group), items)
        assert results == [False, True, True, True, True, False]

    def test_matches_oracle_exactly(self, group, rng):
        items = _schnorr_items(group, rng, 5)
        pk, message, sig = items[2]
        items[2] = (pk, message, replace(sig, challenge=1))
        oracle = [verify_schnorr_single(group, *item) for item in items]
        assert _schnorr_verdicts(_ctx(group), items) == oracle
        assert oracle == [True, True, False, True, True]


class TestBatchDleq:
    def test_all_valid(self, group, rng):
        assert _dleq_verdicts(_ctx(group), _dleq_items(group, rng, 6)) == [True] * 6

    def test_forged_item_pinpointed(self, group, rng):
        items = _dleq_items(group, rng, 6)
        statement, _, proof = items[4]
        items[4] = (statement, b"", replace(proof, response=(proof.response + 1) % group.q))
        results = _dleq_verdicts(_ctx(group), items)
        assert results == [True, True, True, True, False, True]

    def test_non_member_element_rejected(self, group, rng):
        # No statement element outside the prime-order subgroup may reach an
        # exponentiation whose exponent was reduced mod q; the item is
        # rejected and the rest of the batch is unaffected.
        ctx = _ctx(group)
        non_member = group.p - 1  # order 2, not in the subgroup (q odd)
        assert not ctx.is_member(non_member)
        items = _dleq_items(group, rng, 4)
        statement, _, proof = items[1]
        items[1] = (statement._replace(a=non_member), b"", proof)
        statement, _, proof = items[2]
        items[2] = (statement._replace(b=statement.b * non_member % group.p), b"", proof)
        assert _dleq_verdicts(ctx, items) == [True, False, False, True]

    def test_ground_share_value_off_the_subgroup_is_rejected(self, group, rng):
        """The attack ``repro.crypto.dleq`` describes, carried out: B = σ·ω
        with ω of order 2 and the nonce ground until q - c is even.  The
        recomputed commitments then hash back to c, and only the membership
        check on B stands between this proof and a second share value."""
        p, q, g = group.p, group.q, group.g
        x = group.random_scalar(rng)
        g2 = message_point(group, b"ground")
        a, b = group.power_g(x), group.power(g2, x) * (p - 1) % p
        while True:
            k = group.random_scalar(rng)
            t1, t2 = group.power_g(k), group.power(g2, k)
            c = dleq._challenge(group, g, a, g2, b, t1, t2)
            if (q - c) % 2 == 0:
                break
        s = (k + c * x) % q
        assert pow(g, s, p) * pow(a, q - c, p) % p == t1
        assert pow(g2, s, p) * pow(b, q - c, p) % p == t2
        statement, proof = DleqStatement(g, a, g2, b), dleq.DleqProof(c, s)
        assert not _check(_ctx(group), statement, proof)
        assert not verify_dleq_single(group, statement, proof)

    def test_ground_share_value_never_enters_the_membership_cache(self):
        """The same attack on a beacon share, through a cluster's keyrings:
        σ_i·(p - 1) on first sight is rejected by the check whose chain of B
        proves membership, is never cached as a member, and is rejected
        again — through the same verifier and at a second keyring."""
        rings = generate_keyrings(4, 1, seed=5, backend="real")
        shared, ctx = rings[0]._shared, rings[0]._ctx
        group, pk, message = shared.group, shared.beacon_pk, b"ground/beacon"
        p, q, g = group.p, group.q, group.g
        x = rings[1]._beacon_key.secret
        g2 = ctx.message_point(message)
        a, b = pk.share_public(2), group.power(g2, x) * (p - 1) % p
        rng = Random(9)
        while True:
            k = group.random_scalar(rng)
            c = dleq._challenge(group, g, a, g2, b, group.power_g(k), group.power(g2, k))
            if (q - c) % 2 == 0:
                break
        forged = threshold.SignatureShare(2, b, dleq.DleqProof(c, (k + c * x) % q))
        honest = rings[1].sign_beacon_share(message)
        assert honest.value == b * (p - 1) % p
        assert rings[3].verify_beacon_share(message, honest)  # A and H2(m) now cached
        assert honest.value in ctx._members
        misses = ctx.stats.member_misses
        assert not rings[0].verify_beacon_share(message, forged)
        assert b not in ctx._members and ctx.stats.member_misses == misses + 1
        assert not threshold.verify_share(ctx, pk, message, forged)
        assert not rings[2].verify_beacon_share(message, forged)
        assert b not in ctx._members and ctx.stats.member_misses == misses + 3

    def test_matches_oracle_exactly(self, group, rng):
        items = _dleq_items(group, rng, 5)
        statement, _, proof = items[0]
        items[0] = (statement, b"", dleq.DleqProof(proof.response, proof.challenge))
        oracle = [verify_dleq_single(group, s, pr) for s, _, pr in items]
        assert _dleq_verdicts(_ctx(group), items) == oracle
        assert oracle == [False, True, True, True, True]


class TestBatchPropertyEquivalence:
    """The fast verifiers accept exactly what the per-item oracle accepts:
    valid signatures and every forgery, on the 128-bit and 512-bit groups."""

    @settings(max_examples=12, deadline=None)
    @given(profile=st.sampled_from(["test", "default"]), seed=st.integers(0, 2**16))
    def test_schnorr_batch_iff_oracle(self, profile, seed):
        group, rng = group_for_profile(profile), Random(seed)
        (pk, message, sig), (pk2, message2, sig2) = _schnorr_items(group, rng, 2)
        forged = [
            (pk, message, schnorr.SchnorrSignature(c, s))
            for c, s in _scalar_forgeries(group.q, sig.challenge, sig.response)
        ]
        forged.append((pk2, message, sig))  # wrong key
        forged.append((pk, message2, sig))  # wrong message
        forged.append((pk, message, sig2))  # another signature's (c, s)
        items = [(pk, message, sig), (pk2, message2, sig2)] + forged
        oracle = [verify_schnorr_single(group, *item) for item in items]
        assert _schnorr_verdicts(_ctx(group), items) == oracle
        assert oracle == [True, True] + [False] * len(forged)

    @settings(max_examples=12, deadline=None)
    @given(profile=st.sampled_from(["test", "default"]), seed=st.integers(0, 2**16))
    def test_dleq_batch_iff_oracle(self, profile, seed):
        group, rng = group_for_profile(profile), Random(seed)
        (st1, _, proof), (st2, _, proof2) = _dleq_items(group, rng, 2)
        omega = group.p - 1  # order 2: omega**q != 1
        forged = [
            (st1, b"", dleq.DleqProof(c, s))
            for c, s in _scalar_forgeries(group.q, proof.challenge, proof.response)
        ]
        forged.append((st1._replace(a=st2.a), b"", proof))  # wrong key
        forged.append((st1._replace(g2=group.power(st1.g2, 2)), b"", proof))  # wrong message
        forged.append((st1, b"", proof2))  # another share's (c, s)
        forged.append((st1._replace(b=st1.b * omega % group.p), b"", proof))  # sigma off the subgroup
        forged.append((st1._replace(b=st2.b), b"", proof))  # sigma another member
        items = [(st1, b"", proof), (st2, b"", proof2)] + forged
        oracle = [verify_dleq_single(group, s, pr) for s, _, pr in items]
        assert _dleq_verdicts(_ctx(group), items) == oracle
        assert oracle == [True, True] + [False] * len(forged)


# ---------------------------------------------------------------------------
# context caches
# ---------------------------------------------------------------------------


class TestFastPathContext:
    def test_message_point_memoized(self, group):
        ctx = fastpath.FastPath(group)
        before = ctx.stats.h2_misses
        a = ctx.message_point(b"memo")
        b = ctx.message_point(b"memo")
        assert a == b == message_point(group, b"memo")
        assert ctx.stats.h2_misses == before + 1
        assert ctx.stats.h2_hits >= 1

    def test_membership_cache(self, group, rng):
        ctx = fastpath.FastPath(group)
        element = group.power_g(rng.randrange(1, group.q))
        misses = ctx.stats.member_misses
        assert ctx.is_member(element)
        assert ctx.is_member(element)
        assert ctx.stats.member_misses == misses + 1
        assert ctx.stats.member_hits >= 1

    def test_power_helpers_match_pow(self, group, rng):
        ctx = fastpath.FastPath(group)
        e = rng.randrange(group.q)
        assert ctx.power_g(e) == pow(group.g, e, group.p)
        base = group.power_g(rng.randrange(1, group.q))
        assert ctx.power_base(base, e) == pow(base, e, group.p)
        # second call goes through the cached per-base table
        assert ctx.power_base(base, e) == pow(base, e, group.p)

    def test_for_group_shares_context(self, group):
        assert fastpath.for_group(group) is fastpath.for_group(group)
