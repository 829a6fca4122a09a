"""Tests for the distributed key generation protocol."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto import threshold
from repro.crypto.api import verifiers_for
from repro.crypto.dkg import Deal, make_deal, run_dkg, verify_share
from repro.crypto.keyring import generate_keyrings


class TestHonestRun:
    def test_produces_working_threshold_keys(self, group, rng):
        result = run_dkg(group, h=3, n=7, rng=rng)
        assert result.qualified == set(range(1, 8))
        assert not result.complaints
        # The keys must behave exactly like dealer-generated ones.
        shares = [
            threshold.sign_share(result.public, k, b"msg", rng)
            for k in result.key_shares[:3]
        ]
        assert all(verifiers_for(group).threshold_share.verify(result.public, b"msg", s) for s in shares)
        sig = threshold.combine(result.public, b"msg", shares)
        assert verifiers_for(group).threshold.verify(result.public, b"msg", sig)

    def test_uniqueness_across_subsets(self, group, rng):
        result = run_dkg(group, h=3, n=7, rng=rng)
        a = threshold.combine(
            result.public, b"m",
            [threshold.sign_share(result.public, k, b"m", rng) for k in result.key_shares[:3]],
        )
        b = threshold.combine(
            result.public, b"m",
            [threshold.sign_share(result.public, k, b"m", rng) for k in result.key_shares[4:7]],
        )
        assert a.value == b.value

    def test_share_publics_consistent(self, group, rng):
        result = run_dkg(group, h=2, n=4, rng=rng)
        for key in result.key_shares:
            assert result.public.share_public(key.index) == group.power_g(key.secret)

    def test_master_public_matches_reconstruction(self, group, rng):
        from repro.crypto.shamir import Share, reconstruct

        result = run_dkg(group, h=3, n=7, rng=rng)
        secret = reconstruct(
            group.scalar_field,
            [Share(k.index, k.secret) for k in result.key_shares[:3]],
        )
        assert group.power_g(secret) == result.public.master_public

    def test_no_trusted_party_saw_the_secret(self, group, rng):
        """Any h shares reconstruct the same secret — but no single deal
        contains it (each dealer only knows its own summand)."""
        from repro.crypto.shamir import Share, reconstruct

        result = run_dkg(group, h=3, n=7, rng=rng)
        s1 = reconstruct(
            group.scalar_field, [Share(k.index, k.secret) for k in result.key_shares[:3]]
        )
        s2 = reconstruct(
            group.scalar_field, [Share(k.index, k.secret) for k in result.key_shares[4:7]]
        )
        assert s1 == s2

    def test_validation(self, group, rng):
        with pytest.raises(ValueError):
            run_dkg(group, h=0, n=4, rng=rng)
        with pytest.raises(ValueError):
            run_dkg(group, h=5, n=4, rng=rng)


class TestByzantineDealers:
    def test_inconsistent_share_disqualifies_dealer(self, group, rng):
        def corrupt_share(deal: Deal) -> Deal:
            shares = list(deal.shares)
            shares[2] = (shares[2] + 1) % group.q  # lie to party 3
            return Deal(dealer=deal.dealer, commitments=deal.commitments, shares=tuple(shares))

        result = run_dkg(group, h=3, n=7, rng=rng, tamper={2: corrupt_share})
        assert 2 not in result.qualified
        assert result.complaints[2] == {3}
        # The remaining key material still works.
        shares = [
            threshold.sign_share(result.public, k, b"m", rng)
            for k in result.key_shares[:3]
        ]
        sig = threshold.combine(result.public, b"m", shares)
        assert verifiers_for(group).threshold.verify(result.public, b"m", sig)

    def test_malformed_deal_disqualified(self, group, rng):
        def truncate(deal: Deal) -> Deal:
            return Deal(dealer=deal.dealer, commitments=deal.commitments[:-1], shares=deal.shares)

        result = run_dkg(group, h=3, n=7, rng=rng, tamper={5: truncate})
        assert 5 not in result.qualified

    def test_t_corrupt_dealers_tolerated(self, group, rng):
        def garbage(deal: Deal) -> Deal:
            shares = tuple((s + 7) % group.q for s in deal.shares)
            return Deal(dealer=deal.dealer, commitments=deal.commitments, shares=shares)

        result = run_dkg(group, h=3, n=7, rng=rng, tamper={1: garbage, 2: garbage})
        assert result.qualified == {3, 4, 5, 6, 7}
        shares = [
            threshold.sign_share(result.public, k, b"m", rng)
            for k in result.key_shares[4:7]
        ]
        sig = threshold.combine(result.public, b"m", shares)
        assert verifiers_for(group).threshold.verify(result.public, b"m", sig)

    def test_all_dealers_corrupt_fails_loudly(self, group, rng):
        def garbage(deal: Deal) -> Deal:
            shares = tuple((s + 1) % group.q for s in deal.shares)
            return Deal(dealer=deal.dealer, commitments=deal.commitments, shares=shares)

        with pytest.raises(RuntimeError):
            run_dkg(group, h=3, n=4, rng=rng, tamper={i: garbage for i in range(1, 5)})


class TestDealPrimitives:
    def test_honest_deal_verifies_everywhere(self, group, rng):
        deal = make_deal(group, dealer=1, h=3, n=5, rng=rng)
        assert all(verify_share(group, deal, j) for j in range(1, 6))

    def test_forged_share_fails(self, group, rng):
        deal = make_deal(group, dealer=1, h=3, n=5, rng=rng)
        forged = Deal(
            dealer=1,
            commitments=deal.commitments,
            shares=tuple((s + 1) % group.q for s in deal.shares),
        )
        assert not any(verify_share(group, forged, j) for j in range(1, 6))


class TestKeyringIntegration:
    def test_dkg_backed_keyring_runs_consensus(self):
        """End-to-end: beacon keys from the DKG drive an ICC0 cluster."""
        from repro.core import ClusterConfig, build_cluster
        from repro.sim.delays import FixedDelay

        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=5, seed=1,
            crypto_backend="real",
        )
        # Rebuild keyrings with the DKG setup and swap them in.
        rings = generate_keyrings(4, 1, seed=1, backend="real", setup="dkg")
        cluster = build_cluster(config)
        for party, ring in zip(cluster.parties, rings):
            party.keys = ring
            party.pool._keys = ring
        cluster.start()
        assert cluster.run_until_all_committed_round(4, timeout=60)
        cluster.check_safety()

    def test_dkg_setup_rejected_for_fast_backend(self):
        # The fast backend has no real key material for a DKG to produce.
        with pytest.raises(ValueError, match="real backend"):
            generate_keyrings(4, 1, backend="fast", setup="dkg")
