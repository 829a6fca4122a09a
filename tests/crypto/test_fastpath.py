"""Tests for the crypto fast path: verification and precomputation.

The per-item oracles (``verify_schnorr_single`` / ``verify_dleq_single``)
are the correctness reference; everything here pins the verifiers of
``repro.crypto.api`` and the exponentiation shortcuts to them / to plain
``pow``.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import api, dleq, fastpath, schnorr, unique
from repro.crypto.dleq import DleqStatement
from repro.crypto.group import group_for_profile
from repro.crypto.unique import message_point


# ---------------------------------------------------------------------------
# exponentiation primitives
# ---------------------------------------------------------------------------


class TestFixedBaseTable:
    def test_matches_pow(self, group, rng):
        table = fastpath.FixedBaseTable(group.p, group.g, group.q.bit_length())
        for _ in range(20):
            e = rng.randrange(group.q)
            assert table.power(e) == pow(group.g, e, group.p)

    def test_zero_and_max(self, group):
        bits = group.q.bit_length()
        table = fastpath.FixedBaseTable(group.p, group.g, bits)
        assert table.power(0) == 1
        top = (1 << bits) - 1
        assert table.power(top) == pow(group.g, top, group.p)

    def test_exponent_out_of_range(self, group):
        table = fastpath.FixedBaseTable(group.p, group.g, 16)
        with pytest.raises(ValueError):
            table.power(1 << 16)


class TestMultiExp:
    def test_straus_matches_pow(self, group, rng):
        # Straus interleaving for two bases, at the exponents the DLEQ check
        # gives it: a response s and a negated challenge q - c.
        for _ in range(8):
            b1 = group.power_g(rng.randrange(1, group.q))
            b2 = group.power_g(rng.randrange(1, group.q))
            s, c = rng.randrange(group.q), rng.getrandbits(64)
            expected = pow(b1, s, group.p) * pow(b2, group.q - c, group.p) % group.p
            assert fastpath.simultaneous_power(group.p, b1, s, b2, group.q - c) == expected

    def test_empty_product(self, group):
        assert fastpath.simultaneous_power(group.p, group.g, 0, group.power_g(7), 0) == 1

    def test_shamir_matches_pow(self, group, rng):
        for _ in range(10):
            b1 = group.power_g(rng.randrange(1, group.q))
            b2 = group.power_g(rng.randrange(1, group.q))
            e1, e2 = rng.randrange(group.q), rng.randrange(group.q)
            expected = pow(b1, e1, group.p) * pow(b2, e2, group.p) % group.p
            assert fastpath.simultaneous_power(group.p, b1, e1, b2, e2) == expected


# ---------------------------------------------------------------------------
# the fast verifiers vs the per-item oracle
# ---------------------------------------------------------------------------


def _suite(group):
    """Verifiers over a context of their own: no table or membership
    verdict carries over from another test."""
    return api.VerifierSuite.over(fastpath.FastPath(group))


def _schnorr_items(group, rng, count):
    items = []
    for i in range(count):
        pair = schnorr.keygen(group, rng)
        message = b"fp/%d" % i
        items.append((pair.public, message, schnorr.sign(group, pair.secret, message, rng)))
    return items


def _dleq_items(group, rng, count, message=b"fp/dleq"):
    items = []
    for i in range(count):
        secret = group.random_scalar(rng)
        sig = unique.sign(group, secret, message, rng)
        statement = DleqStatement(
            group.g, group.power_g(secret), message_point(group, message), sig.value
        )
        items.append((statement, b"", sig.proof))
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
        assert _suite(group).schnorr.verify_batch(_schnorr_items(group, rng, 8)) == [True] * 8

    def test_forged_item_pinpointed(self, group, rng):
        items = _schnorr_items(group, rng, 8)
        pk, message, sig = items[3]
        items[3] = (pk, message, replace(sig, response=(sig.response + 1) % group.q))
        results = _suite(group).schnorr.verify_batch(items)
        assert results == [True, True, True, False, True, True, True, True]

    def test_two_forgeries_both_isolated(self, group, rng):
        items = _schnorr_items(group, rng, 6)
        for bad in (0, 5):
            pk, message, sig = items[bad]
            items[bad] = (pk, b"other-message", sig)
        results = _suite(group).schnorr.verify_batch(items)
        assert results == [False, True, True, True, True, False]

    def test_matches_oracle_exactly(self, group, rng):
        items = _schnorr_items(group, rng, 5)
        pk, message, sig = items[2]
        items[2] = (pk, message, replace(sig, challenge=1))
        oracle = [fastpath.verify_schnorr_single(group, *item) for item in items]
        assert _suite(group).schnorr.verify_batch(items) == oracle
        assert oracle == [True, True, False, True, True]


class TestBatchDleq:
    def test_all_valid(self, group, rng):
        assert _suite(group).dleq.verify_batch(_dleq_items(group, rng, 6)) == [True] * 6

    def test_forged_item_pinpointed(self, group, rng):
        items = _dleq_items(group, rng, 6)
        statement, _, proof = items[4]
        items[4] = (statement, b"", replace(proof, response=(proof.response + 1) % group.q))
        results = _suite(group).dleq.verify_batch(items)
        assert results == [True, True, True, True, False, True]

    def test_non_member_element_rejected(self, group, rng):
        # No statement element outside the prime-order subgroup may reach an
        # exponentiation whose exponent was reduced mod q; the item is
        # rejected and the rest of the batch is unaffected.
        suite = _suite(group)
        non_member = group.p - 1  # order 2, not in the subgroup (q odd)
        assert not suite.ctx.is_member(non_member)
        items = _dleq_items(group, rng, 4)
        statement, _, proof = items[1]
        items[1] = (statement._replace(a=non_member), b"", proof)
        statement, _, proof = items[2]
        items[2] = (statement._replace(b=statement.b * non_member % group.p), b"", proof)
        assert suite.dleq.verify_batch(items) == [True, False, False, True]

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
        assert not _suite(group).dleq.verify(statement, b"", proof)
        assert not fastpath.verify_dleq_single(group, statement, proof)

    def test_matches_oracle_exactly(self, group, rng):
        items = _dleq_items(group, rng, 5)
        statement, _, proof = items[0]
        items[0] = (statement, b"", dleq.DleqProof(proof.response, proof.challenge))
        oracle = [fastpath.verify_dleq_single(group, s, pr) for s, _, pr in items]
        assert _suite(group).dleq.verify_batch(items) == oracle
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
        oracle = [fastpath.verify_schnorr_single(group, *item) for item in items]
        assert _suite(group).schnorr.verify_batch(items) == oracle
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
        oracle = [fastpath.verify_dleq_single(group, s, pr) for s, _, pr in items]
        assert _suite(group).dleq.verify_batch(items) == oracle
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
