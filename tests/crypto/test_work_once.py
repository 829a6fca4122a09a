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
import itertools
import math
import weakref
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, build_cluster
from repro.core import messages as msg
from repro.core.messages import Finalization, Notarization
from repro.core.pool import MessagePool
from repro.crypto import fastpath, field
from repro.crypto.backend import CryptoBackend, use_backend
from repro.crypto.keyring import RealKeyring, generate_keyrings
from repro.crypto.multisig import Multisignature
from repro.sim import FixedDelay
from repro.workloads.batching import RealClientAuth, SignedRequest

from ..core.test_pool import Forge
from .reference import multisig_verify, threshold_sign_share


class CountingBackend(CryptoBackend):
    """The comb strategy with a count of every exponentiation it is asked
    for, the exponent's bit length of each ``powmod`` in call order, and the
    multiplications of each public-key comb power (one per non-zero digit;
    its squarings are spacing - 1)."""

    name = "counting"

    def __init__(self) -> None:
        self.powmods = 0
        self.fixed_calls = 0
        self.chains = 0
        self.chain_calls = 0
        self.chain_reads = 0
        self.powmod_widths: list[int] = []
        self.key_mults: list[int] = []

    def powmod(self, base, exponent, modulus):
        self.powmods += 1
        self.powmod_widths.append(exponent.bit_length())
        return pow(base, exponent, modulus)

    def fixed_power(self, base, modulus, max_bits, max_tables=None):
        power = super().fixed_power(base, modulus, max_bits, max_tables)
        comb = power.__self__

        def counted(exponent):
            self.fixed_calls += 1
            if comb.spacing > 1:
                self.key_mults.append(len(comb.digits(exponent).replace(b"\0", b"")))
            return power(exponent)

        return counted

    def chain(self, base, max_bits, modulus):
        self.chains += 1
        return super().chain(base, max_bits, modulus)

    def chain_powers(self, chain, exponents, modulus):
        self.chain_calls += 1
        self.chain_reads += len(exponents)
        return super().chain_powers(chain, exponents, modulus)

    @property
    def exponentiations(self) -> int:
        return self.powmods + self.fixed_calls + self.chains + self.chain_calls


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
    return cluster.parties[0].keys._ctx


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
        share = warm[1].sign_beacon_share(b"m")  # H2(m)'s chain: the signer's
        before = (counting.powmods, counting.chains, counting.chain_reads)
        tables = counting.fixed_calls
        assert warm[0].verify_beacon_share(b"m", share)
        # No powmod: g**s and A**(-c) come from the combs, g2**s is read off
        # H2(m)'s cached chain, and sigma_i**(q-c) and its membership
        # sigma_i**q are two reads of the one chain of sigma_i.
        assert (counting.powmods, counting.chains, counting.chain_reads) == (
            before[0], before[1] + 1, before[2] + 3
        )
        assert counting.fixed_calls == tables + 2
        # A second party of the cluster finds sigma_i in the shared cache:
        # its chain again, but no membership read.
        assert warm[2].verify_beacon_share(b"m", share)
        assert (counting.powmods, counting.chains, counting.chain_reads) == (
            before[0], before[1] + 2, before[2] + 5
        )


class TestBeaconSignCost:
    def test_sign_is_one_shared_chain_and_the_module_signers_share(self, warm, counting):
        """sigma_i = H2(m)**sk_i and the commitment H2(m)**k are two reads
        of H2(m)'s cached chain, g**k from g's comb: no ``powmod`` and no
        squaring.  The share is the reference signer's under the same RNG,
        bit for bit."""
        ring = warm[1]
        ring._ctx.message_chain(b"m")  # H2(m)'s chain: once per cluster per message
        state = ring._rng.getstate()
        before = (counting.powmods, counting.chains, counting.chain_reads, counting.fixed_calls)
        share = ring.sign_beacon_share(b"m")
        after = (counting.powmods, counting.chains, counting.chain_reads, counting.fixed_calls)
        assert after == (before[0], before[1], before[2] + 2, before[3] + 1)
        ring._rng.setstate(state)
        reference = threshold_sign_share(ring._shared.beacon_pk, ring._beacon_key, b"m", ring._rng)
        assert (share.index, share.value, share.proof) == (
            reference.index, reference.value, reference.proof
        )
        assert ring.verify_beacon_share(b"m", share) and warm[0].verify_beacon_share(b"m", share)

    def test_sim_n7_real_epoch_counts_per_height(self, counting):
        """The counts docs/PERFORMANCE.md quotes: ``sim_n7_real``'s cluster
        (n = 7, t = 2, 512-bit group, ε = 0.05, 50 ms links, seed 1) from
        height 3 to 30.  Per height, H2(m) gets one chain for the cluster;
        each party signs one beacon share (two reads of it) and checks t = 2
        foreign ones (one chain of sigma_i each, read at q - c, and at q on
        the cluster's first sight of sigma_i, and H2(m)'s chain read at s).
        The full-width powmods left are H2(m)'s cofactor power and the
        beacon combine's power by D⁻¹: 3.37 per height, where sigma_i's
        membership added 3 more (6.4 with the Straus walk, 20.4 when the
        signer paid two powmods).  A public key's comb power is 7 squarings
        and at most 32 multiplications (52 table multiplications before)."""
        cluster = build_cluster(
            ClusterConfig(
                n=7, t=2, delta_bound=1.0, epsilon=0.05, delay_model=FixedDelay(0.05),
                seed=1, crypto_backend="real", group_profile="default",
            )
        )
        cluster.start()
        assert cluster.run_until_all_committed_round(3, timeout=300)
        height0, widths0 = cluster.min_committed_round(), len(counting.powmod_widths)
        before = (counting.chains, counting.chain_calls, counting.chain_reads,
                  counting.fixed_calls, len(counting.key_mults))
        assert cluster.run_until_all_committed_round(30, timeout=300)
        heights = cluster.min_committed_round() - height0
        full_width = sum(w > 64 for w in counting.powmod_widths[widths0:])
        key_mults = counting.key_mults[before[4]:]
        assert heights == 27
        assert full_width == 91  # 3.37 per height
        assert (counting.chains - before[0]) / heights == 15.0  # 1 H2(m) + 14 sigma_i
        assert (counting.chain_calls - before[1]) / heights == 35.0  # 7 signs + 2 x 14 checks
        assert (counting.chain_reads - before[2]) / heights == 45.0  # 14 + 14 + 14 + 3 memberships
        assert (counting.fixed_calls - before[3]) / heights == 174.0
        assert len(key_mults) / heights == 76.0
        assert max(key_mults) <= 32


    def test_one_party_with_a_context_of_its_own_per_round(self, counting):
        """What a deployed party pays per round of beacon work, with no
        cluster-mate to share H2(m)'s chain or a membership result: sign
        its share (two reads of H2(m)'s chain), check t = 2 foreign shares
        (a chain of each sigma_i, read at q - c and at q, and H2(m)'s chain
        read at s), combine t + 1.  The one full-width powmod left is
        H2(m)'s cofactor power; sigma_i's membership cost two more when it
        was a powmod, and each check a Straus walk."""
        rings = generate_keyrings(7, 2, seed=1, backend="real", group_profile="default")
        mine = rings[0]
        own_ctx = fastpath.FastPath(mine._shared.group)
        party = RealKeyring(
            index=1, n=7, t=2, shared=replace(mine._shared, ctx=own_ctx),
            auth_secret=mine._auth_secret, notary_key=mine._notary_key,
            final_key=mine._final_key, beacon_key=mine._beacon_key, rng=Random(5),
        )
        rounds = [b"round/%d" % r for r in range(6)]
        foreign = {m: [ring.sign_beacon_share(m) for ring in rings[1:3]] for m in rounds}

        def round_of_beacon_work(m):
            own = party.sign_beacon_share(m)
            assert all(party.verify_beacon_share(m, share) for share in foreign[m])
            party.combine_beacon(m, [own, *foreign[m]])

        for m in rounds[:2]:  # the two share keys' combs are built once
            round_of_beacon_work(m)
        widths0 = len(counting.powmod_widths)
        before = (counting.chains, counting.chain_reads, counting.fixed_calls)
        for m in rounds[2:]:
            round_of_beacon_work(m)
        per_round = [
            (after - start) / 4
            for after, start in zip(
                (counting.chains, counting.chain_reads, counting.fixed_calls), before
            )
        ]
        full_width = sum(w > 64 for w in counting.powmod_widths[widths0:])
        assert per_round == [3.0, 8.0, 5.0] and full_width / 4 == 1.0


class TestBeaconCombineCost:
    def test_combine_of_t_plus_1_verified_shares_is_one_full_width_power(
        self, warm, counting
    ):
        """Each share is raised to its small a_i of λ_i = a_i / D; only the
        product's power D⁻¹ mod q is full-width, where the per-share loop
        made t + 1 of them.  When every λ_i is an integer (12 of the 35
        index triples, among them 1, 2, 3), D = 1 and that power is by 1."""
        shares = [ring.sign_beacon_share(b"m") for ring in warm]
        assert all(warm[0].verify_beacon_share(b"m", share) for share in shares)
        full_width = {}
        for chosen in itertools.combinations(shares, 3):  # t + 1 of n = 7
            before = (counting.powmods, counting.fixed_calls)
            signature = warm[0].combine_beacon(b"m", chosen)
            widths = counting.powmod_widths[before[0]:]
            assert counting.fixed_calls == before[1]
            assert len(widths) == 3 + 1 and max(widths[:3]) <= 64
            indices = [s.index for s in chosen]
            integral = all(
                Fraction(
                    math.prod(x for x in indices if x != i),
                    math.prod(x - i for x in indices if x != i),
                ).denominator == 1
                for i in indices
            )
            assert (widths[3] > 64) == (not integral)
            full_width[tuple(indices)] = widths[3] > 64
            assert warm[0].verify_beacon(b"m", signature)
        assert full_width[(1, 2, 4)] and not full_width[(1, 2, 3)]
        assert sum(full_width.values()) == 35 - 12


class TestPartialWordCombCost:
    """At |q| = 96 the exponent's top 64-bit word holds 4 of its 8 rows, so
    its comb tables fold in pairs into 8-bit digits: a power of ``g`` is ≤ 12
    table multiplications (8 + 4; 8 + 8 unfolded, 12 with the byte-wide
    table before the combs), a public key's 3 squarings and ≤ 12."""

    @staticmethod
    def _comb(power):
        comb = power.__self__
        tables = sum(len(table) > 1 for table in comb._tables)
        worst = len(comb.digits((1 << comb.max_bits) - 1).replace(b"\0", b""))
        return comb, tables, worst

    def test_g_and_public_key_powers(self, group):
        ctx = fastpath.FastPath(group, backend=CryptoBackend())
        assert ctx._q_bits == 96
        comb, tables, worst = self._comb(ctx._power_g)
        assert (comb.spacing, tables, worst) == (1, 12, 12)
        key = group.power_g(12345)
        comb, tables, worst = self._comb(ctx._key_comb(key))
        assert (comb.spacing, tables, worst) == (4, 3, 12)
        rng = Random(5)
        for exponent in [0, 1, group.q - 1] + [rng.randrange(group.q) for _ in range(64)]:
            assert len(comb.digits(exponent).replace(b"\0", b"")) <= 12
            assert comb.power(exponent) == pow(key, exponent, group.p)
            assert ctx._power_g(exponent) == pow(group.g, exponent, group.p)


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
    reference = fastpath.for_group(ring._shared.group)
    assert ring.verify_notary(message, aggregate) == multisig_verify(
        reference, ring._shared.notary_pk, message, aggregate
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
        assert all(p.keys._ctx is _context(a) for p in a.parties)
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
                assert RealClientAuth(group_profile="test")._ctx is ctx
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
        assert auth.verify_batch(requests) == [True] * 4
        # One membership proof per fresh client key, then g**s and pk**(-c)
        # from the two comb tables per request.
        assert (counting.powmods, counting.fixed_calls) == (4, 8)
