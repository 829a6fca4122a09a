"""Tests for the pool's verify-on-add rule and its superseded-share filter.

The contract (see ``repro.core.pool``'s docstring): every share is verified
inside ``add`` — a forgery never enters the pool — except a share whose
aggregate the pool already holds, or whose round is below the prune floor,
which is dropped without touching the keyring.  Queries, ``artifact_count``
and ``prune`` are pure reads.
"""

from __future__ import annotations

import pytest

from repro.core import messages as msg
from repro.core.messages import BeaconShare, FinalizationShare, NotarizationShare
from repro.core.pool import MessagePool
from repro.obs import Tracer
from repro.sim.simulator import Simulation

from .test_pool import Forge

KINDS = ("notar", "final", "beacon")
SHARE_VERIFIERS = ("verify_notary_share", "verify_final_share", "verify_beacon_share")

#: Share verifications per party on the end-to-end run below at the commit
#: before the superseded filter (lazy flushing verified what queries observed).
PARENT_SHARE_VERIFICATIONS = [48, 48, 50, 48]


class CountingKeyring:
    """Keyring double: counts share verifications, delegates everything."""

    def __init__(self, inner):
        self._inner = inner
        self.share_verifications = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in SHARE_VERIFIERS:
            def counted(message, share):
                self.share_verifications += 1
                return attr(message, share)
            return counted
        if name.endswith("_share_batch"):
            def counted_batch(items):
                self.share_verifications += len(items)
                return attr(items)
            return counted_batch
        return attr


def _counting_pool(forge):
    keys = CountingKeyring(forge.rings[0])
    return MessagePool(keys), keys


def _forged(forge, kind, block, signer):
    """A share by the right signer over the wrong message: passes the
    structural signer-index check, fails the signature check."""
    ring = forge.rings[signer - 1]
    if kind == "beacon":
        return BeaconShare(round=1, signer=signer, share=ring.sign_beacon_share(b"forged"))
    cls, sign = {
        "notar": (NotarizationShare, ring.sign_notary_share),
        "final": (FinalizationShare, ring.sign_final_share),
    }[kind]
    return cls(
        round=block.round, proposer=block.proposer, block_hash=block.hash,
        signer=signer, share=sign(b"forged"),
    )


def _share_count(pool, kind, block):
    return {
        "notar": lambda: pool.notar_share_count(block.hash),
        "final": lambda: pool.final_share_count(block.hash),
        "beacon": lambda: pool.beacon_share_count(1),
    }[kind]()


class TestForgedShareRejectedAtAdd:
    @pytest.mark.parametrize("backend", ("fast", "real"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_rejected_counted_and_traced(self, kind, backend):
        forge = Forge(seed=7, backend=backend)
        pool = forge.pool()
        tracer = Tracer()
        pool.bind_tracing(tracer, Simulation(), party=1, protocol="test")
        block = forge.block()
        pool.add(block)
        assert pool.add(_forged(forge, kind, block, signer=2)) is False
        assert pool.stats.invalid_dropped == 1
        assert _share_count(pool, kind, block) == 0
        assert [e.kind for e in tracer.events()] == ["pool.invalid"]

    def test_forgery_does_not_cost_honest_shares_their_slot(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        assert pool.add(forge.notar_share(block, 1))
        assert not pool.add(_forged(forge, "notar", block, signer=2))
        assert pool.add(forge.notar_share(block, 2))  # the real one still lands
        assert not pool.add(forge.notar_share(block, 2))
        assert pool.stats.duplicates == 1
        assert {s.signer for s in pool.notar_shares(block.hash)} == {1, 2}


def _lying(forge, kind, block, signer, round=7, proposer=2):
    """A share validly signed by ``signer`` over another round and proposer,
    carrying ``block``'s hash."""
    ring = forge.rings[signer - 1]
    cls, sign, message = {
        "notar": (NotarizationShare, ring.sign_notary_share, msg.notarization_message),
        "final": (FinalizationShare, ring.sign_final_share, msg.finalization_message),
    }[kind]
    return cls(
        round=round, proposer=proposer, block_hash=block.hash, signer=signer,
        share=sign(message(round, proposer, block.hash)),
    )


class TestShareMustNameItsBlock:
    """A share's claimed ``(round, proposer)`` is bound to its block's: a
    validly signed share over another round must not count towards the
    block's quorum, where it would spoil the aggregate combined from it."""

    @pytest.mark.parametrize("backend", ("fast", "real"))
    @pytest.mark.parametrize("block_first", (True, False), ids=("block-first", "share-first"))
    @pytest.mark.parametrize("kind", ("notar", "final"))
    def test_dropped_and_the_remaining_aggregate_verifies(self, kind, block_first, backend):
        forge = Forge(seed=7, backend=backend)
        pool, keys = _counting_pool(forge)
        block = forge.block()
        honest = {"notar": forge.notar_share, "final": forge.final_share}[kind]
        combinable = {
            "notar": pool.combinable_notarization, "final": pool.combinable_finalization,
        }[kind]
        lying = _lying(forge, kind, block, signer=4)
        if block_first:
            pool.add(block)
            assert pool.add(lying) is False
            assert keys.share_verifications == 0  # before any signature check
        else:
            assert pool.add(lying)  # nothing to hold it against yet
            if kind == "final":
                assert pool.rounds_with_final_activity() == [7]
            assert pool.add(block)
        assert pool.stats.invalid_dropped == 1
        assert _share_count(pool, kind, block) == 0
        assert pool.rounds_with_final_activity() == []
        pool.add(forge.auth(block))
        assert pool.add(honest(block, 1)) and pool.add(honest(block, 2))
        assert combinable(1, 3) is None  # two shares, not three
        assert pool.add(honest(block, 3))
        assert combinable(1, 3) == block
        ring = forge.rings[0]
        message, shares, combine, verify = {
            "notar": (msg.notarization_message, pool.notar_shares,
                      ring.combine_notary, ring.verify_notary),
            "final": (msg.finalization_message, pool.final_shares,
                      ring.combine_final, ring.verify_final),
        }[kind]
        signed = message(block.round, block.proposer, block.hash)
        assert verify(signed, combine(signed, [s.share for s in shares(block.hash)]))

    def test_honest_share_of_the_same_signer_still_lands(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        assert not pool.add(_lying(forge, "notar", block, signer=4))
        assert pool.add(forge.notar_share(block, 4))
        assert {s.signer for s in pool.notar_shares(block.hash)} == {4}

    def test_purge_keeps_other_activity_in_the_claimed_round(self):
        """The lying round leaves the finalization index only if nothing
        else is stored there."""
        forge = Forge()
        pool = forge.pool()
        first = forge.block()
        seventh = forge.block(round=7, proposer=2)
        assert pool.add(_lying(forge, "final", first, signer=4))
        assert pool.add(forge.final_share(seventh, 3))
        assert pool.add(first)
        assert pool.rounds_with_final_activity() == [7]
        assert pool.final_share_count(first.hash) == 0
        assert pool.final_share_count(seventh.hash) == 1

    def test_anchor_install_purges_too(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block()
        assert pool.add(_lying(forge, "final", block, signer=4))
        assert pool.install_anchor(block, forge.auth(block), forge.notarization(block))
        assert pool.final_share_count(block.hash) == 0
        assert pool.stats.invalid_dropped == 1


class TestSupersededSharesDropped:
    @pytest.mark.parametrize("kind", KINDS)
    def test_never_reaches_the_keyring(self, kind):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        block = forge.block()
        pool.add(block)
        aggregate_arrives, late_share = {
            "notar": (lambda: pool.add(forge.notarization(block)),
                      forge.notar_share(block, 4)),
            "final": (lambda: pool.add(forge.finalization(block)),
                      forge.final_share(block, 4)),
            "beacon": (lambda: pool.set_beacon_value(1, b"\x11" * 32),
                       forge.beacon_share(1, 4)),
        }[kind]
        aggregate_arrives()
        for resend in (1, 2):  # a re-add is superseded again, not a duplicate
            assert pool.add(late_share) is False
            assert pool.stats.superseded == resend
        assert keys.share_verifications == 0
        assert pool.stats.duplicates == pool.stats.invalid_dropped == 0
        assert _share_count(pool, kind, block) == 0

    def test_share_before_its_aggregate_is_verified_and_kept(self):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        block = forge.block()
        pool.add(block)
        assert pool.add(forge.notar_share(block, 1))
        pool.add(forge.notarization(block))
        assert keys.share_verifications == 1
        assert pool.notar_share_count(block.hash) == 1
        assert pool.stats.superseded == 0


class TestStaleArtifactsDropped:
    """Below the prune floor nothing is verified and nothing is stored."""

    def test_late_share_for_a_pruned_round_costs_no_verification(self):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        block = forge.block()
        pool.add(block)
        assert pool.add(forge.notar_share(block, 1))
        verified = keys.share_verifications
        assert pool.prune(before_round=2) == 1
        before = pool.artifact_count()
        late = (
            forge.notar_share(block, 2), forge.final_share(block, 2),
            forge.beacon_share(1, 2), _forged(forge, "final", block, signer=3),
            block, forge.auth(block), forge.notarization(block), forge.finalization(block),
        )
        for resend in (1, 2):  # stale again, never a duplicate
            assert [pool.add(artifact) for artifact in late] == [False] * len(late)
            assert pool.stats.stale == resend * len(late)
        assert keys.share_verifications == verified
        assert pool.artifact_count() == before
        assert pool.stats.invalid_dropped == pool.stats.duplicates == 0
        assert pool.rounds_with_final_activity() == []

    def test_rounds_at_and_above_the_floor_are_unaffected(self):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        first = forge.block()
        second = forge.block(round=2, proposer=2, parent=first.hash)
        for artifact in (first, forge.auth(first), forge.notarization(first)):
            pool.add(artifact)
        pool.prune(before_round=2)
        for artifact in (second, forge.auth(second), forge.notar_share(second, 1)):
            assert pool.add(artifact)
        assert pool.stats.stale == 0
        assert keys.share_verifications == 1
        assert pool.is_authentic(second.hash)

    def test_unknown_type_still_raises_above_a_floor(self):
        forge = Forge()
        pool = forge.pool()
        pool.prune(before_round=3)
        with pytest.raises(TypeError):
            pool.add("what is this")


class TestBufferedBeaconShares:
    def test_verified_when_previous_value_is_revealed(self):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        tracer = Tracer()
        pool.bind_tracing(tracer, Simulation(), party=1, protocol="test")
        value1 = b"\x22" * 32
        for signer in (1, 2):
            assert pool.add(forge.beacon_share(2, signer, previous=value1))
        assert pool.add(forge.beacon_share(2, 3, previous=b"\x33" * 32))  # garbage
        assert pool.stats.buffered_beacon_shares == 3
        assert keys.share_verifications == 0  # R_1 unknown: nothing to check against
        pool.set_beacon_value(1, value1)
        assert keys.share_verifications == 3
        assert {s.signer for s in pool.beacon_shares_for(2)} == {1, 2}
        assert pool.stats.invalid_dropped == 1
        assert [e.kind for e in tracer.events()] == ["pool.invalid"]

    def test_resent_share_buffered_once(self):
        forge = Forge()
        pool = forge.pool()
        value1 = b"\x22" * 32
        share = forge.beacon_share(2, 3, previous=value1)
        assert [pool.add(share) for _ in range(5)] == [True] + [False] * 4
        assert pool.stats.buffered_beacon_shares == 1
        assert pool.stats.duplicates == 4
        pool.set_beacon_value(1, value1)
        assert pool.beacon_share_count(2) == 1


class TestReadsDoNoVerification:
    def test_queries_artifact_count_and_prune(self):
        forge = Forge()
        pool, keys = _counting_pool(forge)
        block = forge.block()
        for artifact in (
            block, forge.auth(block), forge.notar_share(block, 1),
            forge.final_share(block, 2), forge.beacon_share(1, 3),
            forge.beacon_share(3, 3, previous=b"\x44" * 32),  # stays buffered
        ):
            assert pool.add(artifact)
        verified_at_add = keys.share_verifications
        assert verified_at_add == 3
        # root, block, authenticator and three verified shares; not the buffered one
        assert pool.artifact_count() == 6
        pool.combinable_notarization(1, 1)
        pool.combinable_finalization(1, 1)
        pool.rounds_with_final_activity()
        pool.notar_shares(block.hash), pool.final_shares(block.hash)
        pool.beacon_shares_for(1)
        assert pool.prune(before_round=2) == 1
        assert keys.share_verifications == verified_at_add


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ("fast", "real"))
    def test_cluster_verifies_no_more_shares_than_parent(self, backend):
        from repro.core import ClusterConfig, build_cluster
        from repro.sim.delays import FixedDelay

        config = ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=6, seed=3,
            crypto_backend=backend,
        )
        cluster = build_cluster(config)
        for party in cluster.parties:
            party.pool._keys = CountingKeyring(party.pool._keys)
        cluster.start()
        cluster.run_until_all_committed_round(5, timeout=120)
        cluster.check_safety()
        assert len(cluster.party(1).committed_hashes) == 5
        assert cluster.sim.now == 0.6
        verified = [p.pool._keys.share_verifications for p in cluster.parties]
        assert all(v <= parent for v, parent in zip(verified, PARENT_SHARE_VERIFICATIONS))
        assert all(p.pool.stats.superseded > 0 for p in cluster.parties)
        assert all(p.pool.stats.invalid_dropped == 0 for p in cluster.parties)

    @pytest.mark.parametrize(
        "knob",
        ("crypto_batch", "crypto_flush_across_heights",
         "crypto_flush_min_batch", "crypto_flush_deadline"),
    )
    def test_removed_knobs_are_gone_not_aliased(self, knob):
        from repro.core import ClusterConfig

        with pytest.raises(TypeError):
            ClusterConfig(n=4, t=1, **{knob: 0})
