"""Backend-parity tests: the fast and real keyrings must be interchangeable.

Every behaviour the protocol observes is tested against both backends via
parametrized fixtures — this is what justifies running large experiments on
the fast backend (DESIGN.md §2).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.dleq import DleqStatement
from repro.crypto.keyring import generate_keyrings
from repro.crypto.unique import message_point

from .test_fastpath import _scalar_forgeries, verify_dleq_single, verify_schnorr_single


@pytest.fixture(params=["fast", "real"], scope="module")
def rings(request):
    return generate_keyrings(4, 1, seed=5, backend=request.param)


class TestAuth:
    def test_sign_verify(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert rings[1].verify_auth(1, b"block", sig)

    def test_wrong_signer_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(2, b"block", sig)

    def test_wrong_message_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(1, b"other", sig)

    def test_out_of_range_signer_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(0, b"block", sig)
        assert not rings[1].verify_auth(5, b"block", sig)


class TestNotaryAndFinal:
    def test_notary_quorum_roundtrip(self, rings):
        m = b"notarize-me"
        shares = [r.sign_notary_share(m) for r in rings[:3]]  # n - t = 3
        assert all(rings[0].verify_notary_share(m, s) for s in shares)
        agg = rings[0].combine_notary(m, shares)
        assert rings[3].verify_notary(m, agg)

    def test_notary_under_quorum_raises(self, rings):
        m = b"notarize-me"
        shares = [r.sign_notary_share(m) for r in rings[:2]]
        with pytest.raises(ValueError):
            rings[0].combine_notary(m, shares)

    def test_notary_aggregate_wrong_message(self, rings):
        m = b"notarize-me"
        agg = rings[0].combine_notary(m, [r.sign_notary_share(m) for r in rings[:3]])
        assert not rings[1].verify_notary(b"else", agg)

    def test_final_is_independent_instance(self, rings):
        """A notary share must not verify as a finalization share."""
        m = b"message"
        notary_share = rings[0].sign_notary_share(m)
        assert not rings[1].verify_final_share(m, notary_share)

    def test_final_quorum_roundtrip(self, rings):
        m = b"finalize-me"
        shares = [r.sign_final_share(m) for r in rings[:3]]
        agg = rings[0].combine_final(m, shares)
        assert rings[2].verify_final(m, agg)


class TestBeacon:
    def test_quorum_is_t_plus_1(self, rings):
        m = b"beacon-round-1"
        shares = [r.sign_beacon_share(m) for r in rings[:2]]  # t + 1 = 2
        sig = rings[0].combine_beacon(m, shares)
        assert rings[3].verify_beacon(m, sig)

    def test_value_unique_across_subsets(self, rings):
        m = b"beacon-round-1"
        a = rings[0].combine_beacon(m, [r.sign_beacon_share(m) for r in rings[:2]])
        b = rings[0].combine_beacon(m, [r.sign_beacon_share(m) for r in rings[2:4]])
        assert rings[0].beacon_value(a) == rings[0].beacon_value(b)

    def test_values_differ_across_messages(self, rings):
        a = rings[0].combine_beacon(
            b"r1", [r.sign_beacon_share(b"r1") for r in rings[:2]]
        )
        b = rings[0].combine_beacon(
            b"r2", [r.sign_beacon_share(b"r2") for r in rings[:2]]
        )
        assert rings[0].beacon_value(a) != rings[0].beacon_value(b)

    def test_share_index(self, rings):
        share = rings[2].sign_beacon_share(b"m")
        assert rings[0].share_index(share) == 3

    def test_single_share_insufficient(self, rings):
        with pytest.raises(ValueError):
            rings[0].combine_beacon(b"m", [rings[0].sign_beacon_share(b"m")])


class TestFactory:
    def test_t_bound_enforced(self):
        with pytest.raises(ValueError):
            generate_keyrings(3, 1)  # 3t >= n

    def test_t_zero_allowed(self):
        rings = generate_keyrings(3, 0)
        assert len(rings) == 3

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            generate_keyrings(4, 1, backend="quantum")

    @pytest.mark.parametrize("backend", ["fast", "real"])
    def test_unknown_profile_rejected_on_either_backend(self, backend):
        with pytest.raises(ValueError, match="group profile"):
            generate_keyrings(4, 1, backend=backend, group_profile="nope")

    @pytest.mark.parametrize(
        "n, t, seed, profile, digest",
        [
            (4, 1, 42, "test", "470226edf13829ed420bd7282a107b39c81642ad48d20f6458b18ab0d1b6ec01"),
            (7, 2, 1, "default", "6b32e18a0548d52bf1c1f29eefe4f02fc6399660fbdfdab5fdc8e3a7388e9394"),
        ],
    )
    def test_derivation_pinned(self, n, t, seed, profile, digest):
        """Every public key and every party's secret material, bit for bit:
        ``Random(seed)`` is consumed in the same order by every version."""
        rings = generate_keyrings(n, t, seed=seed, backend="real", group_profile=profile)
        shared = rings[0]._shared
        beacon = shared.beacon_pk
        public = [
            shared.group.p, shared.group.q, shared.group.g, *shared.auth_publics,
            shared.notary_pk.threshold, *shared.notary_pk.publics,
            shared.final_pk.threshold, *shared.final_pk.publics,
            beacon.threshold, beacon.master_public, *beacon.share_publics,
        ]
        secret = [
            value
            for ring in rings
            for value in (
                ring._auth_secret,
                ring._notary_key.index, ring._notary_key.secret,
                ring._final_key.index, ring._final_key.secret,
                ring._beacon_key.index, ring._beacon_key.secret,
            )
        ]
        assert hashlib.sha256(repr((public, secret)).encode()).hexdigest() == digest

    def test_deterministic_per_seed(self):
        a = generate_keyrings(4, 1, seed=1)
        b = generate_keyrings(4, 1, seed=1)
        assert a[0].sign_auth(b"x") == b[0].sign_auth(b"x")

    def test_seeds_differ(self):
        a = generate_keyrings(4, 1, seed=1)
        b = generate_keyrings(4, 1, seed=2)
        assert a[0].sign_auth(b"x") != b[0].sign_auth(b"x")


class TestBatchVerification:
    """Several items at once.  The keyring has no batch entry point (a loop
    of challenge-form checks outran the batch verifier at every size,
    docs/PERFORMANCE.md); what the batch tests pinned holds of the loop and
    of an aggregate's carried shares: a forged item among valid ones is the
    only ``False``, on both backends."""

    def test_auth_batch(self, rings):
        items = [(i, b"m%d" % i, rings[i - 1].sign_auth(b"m%d" % i)) for i in (1, 2, 3)]
        items.append((2, b"m1", items[0][2]))  # signer-1 sig claimed by 2
        assert [rings[0].verify_auth(*item) for item in items] == [True, True, True, False]

    def test_notary_share_batch_matches_single(self, rings):
        shares = [ring.sign_notary_share(b"msg") for ring in rings]
        assert all(rings[0].verify_notary_share(b"msg", s) for s in shares)
        assert not rings[0].verify_notary_share(b"other", shares[0])  # wrong message
        # An aggregate's verdict is that of its shares, one by one.
        assert rings[0].verify_notary(b"msg", rings[1].combine_notary(b"msg", shares[1:]))
        assert not rings[0].verify_notary(b"other", rings[1].combine_notary(b"msg", shares[1:]))

    def test_final_share_batch(self, rings):
        shares = [rings[i].sign_final_share(b"msg") for i in range(3)]
        assert all(rings[0].verify_final_share(b"msg", s) for s in shares)
        # final and notary are independent scheme instances
        assert not rings[0].verify_final_share(b"msg", rings[0].sign_notary_share(b"msg"))

    def test_beacon_share_batch(self, rings):
        shares = [rings[i].sign_beacon_share(b"beacon") for i in range(4)]
        shares.append(rings[0].sign_beacon_share(b"not-beacon"))
        verdicts = [rings[0].verify_beacon_share(b"beacon", s) for s in shares]
        assert verdicts == [True] * 4 + [False]

    def test_empty_batch(self, rings):
        aggregate = rings[0].combine_notary(b"m", [r.sign_notary_share(b"m") for r in rings])
        carried = "shares" if hasattr(aggregate, "shares") else "signatories"
        assert not rings[0].verify_notary(b"m", replace(aggregate, **{carried: ()}))

    def test_singleton_batch(self, rings):
        share = rings[1].sign_notary_share(b"solo")
        assert rings[0].verify_notary_share(b"solo", share)
        with pytest.raises(ValueError):  # one share is under the n - t quorum
            rings[0].combine_notary(b"solo", [share])


class TestRealKeyringAgainstTheOracle:
    """A forged share gets the verdict of the cache-free per-item oracle, on
    the 128-bit and the 512-bit group."""

    @settings(max_examples=10, deadline=None)
    @given(profile=st.sampled_from(["test", "default"]), seed=st.integers(0, 2**16))
    def test_notary_share(self, profile, seed):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile=profile)
        shared, message = rings[0]._shared, b"notary/%d" % seed
        share, other = (ring.sign_notary_share(message) for ring in rings[1:3])
        sig = share.signature
        forged = [
            replace(share, signature=replace(sig, challenge=c, response=s))
            for c, s in _scalar_forgeries(shared.group.q, sig.challenge, sig.response)
        ]
        forged.append(replace(share, index=other.index))  # wrong key
        forged.append(replace(share, signature=other.signature))  # another share's (c, s)
        cases = [(message, c) for c in [share, other] + forged] + [(b"other", share)]
        oracle = [
            verify_schnorr_single(
                shared.group, shared.notary_pk.public(c.index), m, c.signature
            )
            for m, c in cases
        ]
        assert [rings[0].verify_notary_share(m, c) for m, c in cases] == oracle
        assert oracle == [True, True] + [False] * (len(forged) + 1)

    @settings(max_examples=10, deadline=None)
    @given(profile=st.sampled_from(["test", "default"]), seed=st.integers(0, 2**16))
    def test_beacon_share(self, profile, seed):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile=profile)
        shared, message = rings[0]._shared, b"beacon/%d" % seed
        group = shared.group
        share, other = (ring.sign_beacon_share(message) for ring in rings[1:3])
        proof = share.proof
        forged = [
            replace(share, proof=replace(proof, challenge=c, response=s))
            for c, s in _scalar_forgeries(group.q, proof.challenge, proof.response)
        ]
        forged.append(replace(share, index=other.index))  # wrong key
        forged.append(replace(share, proof=other.proof))  # another share's (c, s)
        forged.append(replace(share, value=share.value * (group.p - 1) % group.p))  # off the subgroup
        forged.append(replace(share, value=other.value))  # another member
        cases = [(message, c) for c in [share, other] + forged] + [(b"other", share)]
        oracle = [
            verify_dleq_single(
                group,
                DleqStatement(
                    group.g, shared.beacon_pk.share_public(c.index), message_point(group, m), c.value
                ),
                c.proof,
            )
            for m, c in cases
        ]
        assert [rings[0].verify_beacon_share(m, c) for m, c in cases] == oracle
        assert oracle == [True, True] + [False] * (len(forged) + 1)


class TestResultCache:
    def test_repeat_verification_hits_cache(self):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        share = rings[1].sign_notary_share(b"cached")
        assert ring.verify_notary_share(b"cached", share)
        misses = ring.cache_misses
        hits = ring.cache_hits
        assert ring.verify_notary_share(b"cached", share)
        assert ring.cache_hits == hits + 1
        assert ring.cache_misses == misses

    def test_batch_uses_cache(self):
        # The shares an aggregate carries go through the verdict cache.
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        shares = [rings[i].sign_notary_share(b"msg") for i in range(1, 4)]
        aggregate = rings[1].combine_notary(b"msg", shares)
        hits, misses = ring.cache_hits, ring.cache_misses
        assert ring.verify_notary(b"msg", aggregate)
        assert (ring.cache_hits, ring.cache_misses) == (hits, misses + 3)
        assert ring.verify_notary(b"msg", aggregate)
        assert (ring.cache_hits, ring.cache_misses) == (hits + 3, misses + 3)

    def test_negative_verdicts_cached_too(self):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        share = rings[1].sign_notary_share(b"one-message")
        assert not ring.verify_notary_share(b"another-message", share)
        hits = ring.cache_hits
        assert not ring.verify_notary_share(b"another-message", share)
        assert ring.cache_hits == hits + 1
