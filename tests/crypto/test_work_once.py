"""The real-crypto path does each piece of work once.

Exact counts, no wall clock: how often q is proved prime, how many
exponentiations a party spends on what it made itself, what the verdict
cache may and may not answer, what a challenge-form check exponentiates, and
who owns the comb tables.  The modexp counts come from a counting backend
installed with ``use_backend`` — every ``Group``/``FastPath`` exponentiation
routes through the active backend.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, build_cluster
from repro.core import messages as msg
from repro.core.messages import Finalization, Notarization
from repro.core.pool import MessagePool
from repro.crypto import api, fastpath, field
from repro.crypto.backend import DEFAULT_WINDOW, CryptoBackend, use_backend
from repro.crypto.keyring import generate_keyrings
from repro.crypto.multisig import Multisignature
from repro.sim import FixedDelay
from repro.workloads.batching import RealClientAuth, SignedRequest

from ..core.test_pool import Forge


class CountingBackend(CryptoBackend):
    """The comb strategy with a count of every exponentiation it is asked for."""

    name = "counting"

    def __init__(self) -> None:
        self.powmods = 0
        self.fixed_calls = 0

    def powmod(self, base, exponent, modulus):
        self.powmods += 1
        return pow(base, exponent, modulus)

    def fixed_power(self, base, modulus, max_bits, window=DEFAULT_WINDOW):
        power = super().fixed_power(base, modulus, max_bits, window)

        def counted(exponent):
            self.fixed_calls += 1
            return power(exponent)

        return counted

    @property
    def exponentiations(self) -> int:
        return self.powmods + self.fixed_calls


@pytest.fixture
def counting():
    backend = CountingBackend()
    with use_backend(backend):
        yield backend


@pytest.fixture
def forge(counting):
    """Real-backend artifacts whose every exponentiation ``counting`` sees."""
    return Forge(seed=3, backend="real")


@pytest.fixture
def warm(counting):
    """``sim_n7_real``'s keyrings, every public key's membership proof and
    comb table already paid for (once per cluster, on first use)."""
    rings = generate_keyrings(7, 2, seed=3, backend="real")
    for ring in rings[1:]:
        assert rings[0].verify_notary_share(b"warm", ring.sign_notary_share(b"warm"))
        assert rings[0].verify_beacon_share(b"warm", ring.sign_beacon_share(b"warm"))
    return rings


def _real_cluster(seed=1, max_rounds=5):
    return build_cluster(
        ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.02, delay_model=FixedDelay(0.05),
            seed=seed, max_rounds=max_rounds, crypto_backend="real",
        )
    )


def _context(cluster) -> fastpath.FastPath:
    return cluster.parties[0].keys._suite.ctx


# -- (a) q is proved prime once per Group ----------------------------------


def test_primality_proof_at_most_once_per_group(monkeypatch):
    calls = []
    proof = field.is_probable_prime

    def counted(n):
        calls.append(n)
        return proof(n)

    monkeypatch.setattr(field, "is_probable_prime", counted)
    cluster = _real_cluster()
    calls.clear()  # key generation is set-up; the rounds are what is counted
    cluster.start()
    assert cluster.run_until_all_committed_round(3, timeout=300)
    # Every sign_* and combine_beacon reads group.scalar_field: ≥ 3 proofs
    # per party per round before it was cached, none after (one if nothing
    # earlier in the process has read it).
    assert len(calls) <= 1


# -- (b) a party's own work costs it nothing --------------------------------


class TestOwnArtifactsCostNothing:
    def test_own_shares_authenticator_and_aggregates(self, forge, counting):
        ring = forge.rings[0]
        pool = MessagePool(ring)
        block = forge.block(round=1, proposer=1)
        own = [
            forge.auth(block),
            forge.beacon_share(1, signer=1),
            forge.notar_share(block, signer=1),
            forge.final_share(block, signer=1),
        ]
        before = (counting.exponentiations, ring.cache_misses)
        assert pool.add(block)
        for artifact in own:
            assert pool.add(artifact)
        assert (counting.exponentiations, ring.cache_misses) == before

        # The other parties' shares are checked on arrival, as ever ...
        for signer in (2, 3):
            assert pool.add(forge.notar_share(block, signer))
            assert pool.add(forge.final_share(block, signer))
        assert counting.exponentiations > before[0]
        assert ring.cache_misses == before[1] + 4

        # ... so the aggregates this party then combines from them are known
        # share by share.
        before = (counting.exponentiations, ring.cache_misses)
        assert pool.combinable_notarization(1, quorum=3) == block
        notarization = ring.combine_notary(
            msg.notarization_message(1, 1, block.hash),
            [s.share for s in pool.notar_shares(block.hash)],
        )
        finalization = ring.combine_final(
            msg.finalization_message(1, 1, block.hash),
            [s.share for s in pool.final_shares(block.hash)],
        )
        assert pool.add(Notarization(1, 1, block.hash, notarization))
        assert pool.add(Finalization(1, 1, block.hash, finalization))
        assert pool.is_notarized(block.hash) and pool.is_finalized(block.hash)
        assert (counting.exponentiations, ring.cache_misses) == before
        assert pool.stats.invalid_dropped == 0


# -- (c) nothing is trusted that was not signed here or verified here -------


class TestNothingTrustedUnverified:
    M = b"notarize-me"

    def _shares(self, forge):
        return [ring.sign_notary_share(self.M) for ring in forge.rings]

    def test_own_index_with_another_signature_is_dropped(self, forge):
        ring = forge.rings[0]
        pool = MessagePool(ring)
        block = forge.block(round=1, proposer=2)
        genuine = forge.notar_share(block, signer=1)
        by_two = forge.notar_share(block, signer=2).share
        over_other_message = ring.sign_notary_share(b"something else")
        for forged in (replace(by_two, index=1), over_other_message):
            assert forged != genuine.share
            dropped = pool.stats.invalid_dropped
            assert not pool.add(replace(genuine, share=forged))
            assert pool.stats.invalid_dropped == dropped + 1
        assert pool.add(genuine)

    def test_one_forged_share_among_cached_ones(self, forge, counting):
        ring = forge.rings[0]
        own, second, third, _ = self._shares(forge)
        assert ring.verify_notary_share(self.M, second)
        forged = replace(forge.rings[2].sign_notary_share(b"something else"), index=3)
        misses = ring.cache_misses
        assert not ring.verify_notary(self.M, Multisignature((own, second, forged)))
        assert ring.cache_misses == misses + 1
        # The genuine third share completes it, at one more check.
        assert ring.verify_notary(self.M, Multisignature((own, second, third)))
        assert ring.cache_misses == misses + 2

    def test_under_quorum_costs_nothing(self, forge, counting):
        ring = forge.rings[0]
        _, second, third, _ = self._shares(forge)
        before = (counting.exponentiations, ring.cache_misses)
        for shares in ((), (second, third), (second, second, second)):
            assert not ring.verify_notary(self.M, Multisignature(shares))
        assert (counting.exponentiations, ring.cache_misses) == before

    def test_foreign_aggregate_of_seen_shares_costs_nothing(self, forge, counting):
        ring = forge.rings[0]
        foreign = self._shares(forge)[1:]
        assert all(ring.verify_notary_share(self.M, s) for s in foreign)
        aggregate = forge.rings[1].combine_notary(self.M, foreign)
        before = (counting.exponentiations, ring.cache_misses)
        assert ring.verify_notary(self.M, aggregate)
        assert (counting.exponentiations, ring.cache_misses) == before

    def test_foreign_aggregate_of_unseen_shares_is_five_checks_and_no_powmod(self, warm, counting):
        ring = warm[0]
        aggregate = warm[1].combine_notary(self.M, [r.sign_notary_share(self.M) for r in warm[1:6]])
        before = (counting.powmods, ring.cache_misses)
        assert ring.verify_notary(self.M, aggregate)
        assert (counting.powmods, ring.cache_misses) == (before[0], before[1] + 5)


# -- (d) no element a peer chose is exponentiated, except sigma_i ------------


class TestChallengeFormExponentiatesNothingUntrusted:
    """``powmod`` is the exponentiation of a base with no table, which is
    what anything off the wire is.  If one of these counts rises, a
    membership proof of a peer-chosen element has crept back."""

    def test_unseen_notarization_share_costs_no_powmod(self, warm, counting):
        share = warm[1].sign_notary_share(b"m")
        before = counting.powmods
        assert warm[0].verify_notary_share(b"m", share)
        assert counting.powmods == before

    def test_unseen_beacon_share_costs_the_membership_of_sigma_once_per_cluster(
        self, warm, counting
    ):
        share = warm[1].sign_beacon_share(b"m")
        before = counting.powmods
        assert warm[0].verify_beacon_share(b"m", share)
        assert counting.powmods == before + 1
        # A second party of the cluster finds sigma_i in the shared cache.
        assert warm[2].verify_beacon_share(b"m", share)
        assert counting.powmods == before + 1


_RINGS = generate_keyrings(4, 1, seed=11, backend="real")
_M = b"equivalence"
#: Valid shares of all four parties, each party's share over another message,
#: and party 2's signature under party 1's and an out-of-range index.
_CANDIDATES = (
    [ring.sign_notary_share(_M) for ring in _RINGS]
    + [ring.sign_notary_share(b"other") for ring in _RINGS]
    + [replace(_RINGS[1].sign_notary_share(_M), index=i) for i in (1, 0, 5)]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_CANDIDATES), max_size=6), st.sampled_from([_M, b"other"]))
def test_aggregate_verdict_equals_the_suite_verifier(shares, message):
    """Cache state carries over between examples on purpose: the verdict
    must not depend on what the keyring has seen."""
    ring = _RINGS[0]
    aggregate = Multisignature(tuple(shares))
    reference = api.verifiers_for(ring._shared.group).multisig
    assert ring.verify_notary(message, aggregate) == reference.verify(
        ring._shared.notary_pk, message, aggregate
    )


# -- (e) the cluster owns its tables ----------------------------------------


class TestClusterOwnsItsContext:
    def test_context_dies_with_the_cluster(self):
        cluster = _real_cluster()
        cluster.start()
        assert cluster.run_until_all_committed_round(2, timeout=300)
        ref = weakref.ref(_context(cluster))
        assert len(ref()._tables) > 0
        del cluster
        gc.collect()
        assert ref() is None

    def test_two_clusters_share_no_table(self):
        a, b = _real_cluster(seed=1), _real_cluster(seed=1)  # same keys
        assert all(p.keys._suite.ctx is _context(a) for p in a.parties)
        assert _context(a) is not _context(b)
        assert _context(a) not in fastpath._CONTEXTS.values()
        a.start()
        assert a.run_until_all_committed_round(2, timeout=300)
        assert len(_context(a)._tables) > 0
        assert len(_context(b)._tables) == 0


# -- (f) a substituted backend gets the process-wide contexts of its own -----


class TestContextPerBackendInstance:
    def test_two_instances_get_two_contexts(self, group):
        contexts = []
        for backend in (CountingBackend(), CountingBackend()):  # one name, two instances
            with use_backend(backend):
                ctx = fastpath.for_group(group)
                assert ctx.backend is backend
                assert api.verifiers_for(group).ctx is ctx
                contexts.append(ctx)
        assert contexts[0] is not contexts[1]

    def test_counting_backend_sees_client_auth(self, counting):
        auth = RealClientAuth(seed=17, group_profile="test")
        body = b"put\x1fk\x1fv"
        requests = [
            SignedRequest(client=c, seq=1, key=c, auth=auth.sign(c, 1, c, body), body=body)
            for c in range(4)
        ]
        counting.powmods = counting.fixed_calls = 0
        assert auth.verify_batch(requests).results == [True] * 4
        # One membership proof per fresh client key, then g**s and pk**(-c)
        # from the two comb tables per request.
        assert (counting.powmods, counting.fixed_calls) == (4, 8)
