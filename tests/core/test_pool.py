"""Tests for the message pool and the block predicates of Section 3.4."""

from __future__ import annotations

import pytest

from repro.core import messages as msg
from repro.core.messages import (
    Authenticator,
    BeaconShare,
    Block,
    EMPTY_PAYLOAD,
    Finalization,
    FinalizationShare,
    GENESIS_BEACON,
    Notarization,
    NotarizationShare,
    Payload,
    ROOT_HASH,
)
from repro.core.pool import MessagePool
from repro.crypto.keyring import generate_keyrings


class Forge:
    """Produces correctly-signed artifacts for tests (n=4, t=1)."""

    def __init__(self, seed=0, backend="fast"):
        self.rings = generate_keyrings(4, 1, seed=seed, backend=backend)

    def block(self, round=1, proposer=1, parent=ROOT_HASH, payload=EMPTY_PAYLOAD):
        return Block(round=round, proposer=proposer, parent_hash=parent, payload=payload)

    def auth(self, block):
        signed = msg.authenticator_message(block.round, block.proposer, block.hash)
        return Authenticator(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signature=self.rings[block.proposer - 1].sign_auth(signed),
        )

    def notar_share(self, block, signer):
        signed = msg.notarization_message(block.round, block.proposer, block.hash)
        return NotarizationShare(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signer=signer,
            share=self.rings[signer - 1].sign_notary_share(signed),
        )

    def notarization(self, block, signers=(1, 2, 3)):
        signed = msg.notarization_message(block.round, block.proposer, block.hash)
        shares = [self.rings[s - 1].sign_notary_share(signed) for s in signers]
        return Notarization(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            aggregate=self.rings[0].combine_notary(signed, shares),
        )

    def final_share(self, block, signer):
        signed = msg.finalization_message(block.round, block.proposer, block.hash)
        return FinalizationShare(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signer=signer,
            share=self.rings[signer - 1].sign_final_share(signed),
        )

    def finalization(self, block, signers=(1, 2, 3)):
        signed = msg.finalization_message(block.round, block.proposer, block.hash)
        shares = [self.rings[s - 1].sign_final_share(signed) for s in signers]
        return Finalization(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            aggregate=self.rings[0].combine_final(signed, shares),
        )

    def beacon_share(self, round, signer, previous=GENESIS_BEACON):
        signed = msg.beacon_message(round, previous)
        return BeaconShare(
            round=round,
            signer=signer,
            share=self.rings[signer - 1].sign_beacon_share(signed),
        )

    def pool(self):
        return MessagePool(self.rings[0])


@pytest.fixture
def forge():
    return Forge()


class TestRootSpecialCase:
    def test_root_is_everything(self, forge):
        pool = forge.pool()
        assert pool.is_authentic(ROOT_HASH)
        assert pool.is_valid(ROOT_HASH)
        assert pool.is_notarized(ROOT_HASH)
        assert pool.is_finalized(ROOT_HASH)


class TestPredicateLadder:
    def test_block_alone_not_authentic(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        assert not pool.is_authentic(block.hash)

    def test_authentic_after_authenticator(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        pool.add(forge.auth(block))
        assert pool.is_authentic(block.hash)
        # Round-1 block's parent is root (notarized) => valid immediately.
        assert pool.is_valid(block.hash)

    def test_valid_requires_notarized_parent(self, forge):
        pool = forge.pool()
        parent = forge.block(round=1)
        child = forge.block(round=2, parent=parent.hash)
        pool.add(child)
        pool.add(forge.auth(child))
        pool.add(parent)
        pool.add(forge.auth(parent))
        assert not pool.is_valid(child.hash)  # parent not notarized yet
        pool.add(forge.notarization(parent))
        assert pool.is_valid(child.hash)

    def test_notarized_requires_valid(self, forge):
        """A notarization that arrives before the block/auth waits for them."""
        pool = forge.pool()
        block = forge.block()
        pool.add(forge.notarization(block))
        assert not pool.is_notarized(block.hash)
        pool.add(block)
        assert not pool.is_notarized(block.hash)
        pool.add(forge.auth(block))
        assert pool.is_notarized(block.hash)

    def test_finalized_ladder(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(forge.finalization(block))
        assert not pool.is_finalized(block.hash)
        pool.add(block)
        pool.add(forge.auth(block))
        assert pool.is_finalized(block.hash)

    def test_deep_chain_validates_transitively(self, forge):
        """A notarization arriving for round 1 unlocks a buffered subtree."""
        pool = forge.pool()
        b1 = forge.block(round=1)
        b2 = forge.block(round=2, parent=b1.hash)
        b3 = forge.block(round=3, parent=b2.hash)
        # Deliver out of order: deepest first.
        for b in (b3, b2, b1):
            pool.add(b)
            pool.add(forge.auth(b))
        pool.add(forge.notarization(b2))
        pool.add(forge.notarization(b1))  # this unlocks b2 -> then b3
        assert pool.is_notarized(b2.hash)
        assert pool.is_valid(b3.hash)

    def test_chain_reconstruction(self, forge):
        pool = forge.pool()
        b1 = forge.block(round=1)
        b2 = forge.block(round=2, parent=b1.hash)
        for b in (b1, b2):
            pool.add(b)
            pool.add(forge.auth(b))
        pool.add(forge.notarization(b1))
        assert [b.hash for b in pool.chain(b2.hash)] == [b1.hash, b2.hash]

    def test_chain_missing_ancestor_raises(self, forge):
        pool = forge.pool()
        b2 = forge.block(round=2, parent=b"\x07" * 32)
        pool.add(b2)
        with pytest.raises(KeyError):
            pool.chain(b2.hash)


class TestRejection:
    def test_bad_authenticator_dropped(self, forge):
        pool = forge.pool()
        block = forge.block(proposer=1)
        wrong_signer = Authenticator(
            round=1,
            proposer=1,
            block_hash=block.hash,
            signature=forge.rings[1].sign_auth(b"garbage"),
        )
        pool.add(block)
        assert not pool.add(wrong_signer)
        assert pool.stats.invalid_dropped == 1

    @pytest.mark.parametrize("block_first", (True, False))
    def test_authenticator_claiming_another_round_is_not_for_this_block(
        self, forge, block_first
    ):
        """Validly signed by the proposer, but over round 7: under pruning its
        signer could otherwise pick the floor at which the pool forgets it."""
        pool = forge.pool()
        block = forge.block(round=1, proposer=1)
        signed = msg.authenticator_message(7, 1, block.hash)
        lying = Authenticator(
            round=7, proposer=1, block_hash=block.hash,
            signature=forge.rings[0].sign_auth(signed),
        )
        if block_first:
            assert pool.add(block)
            assert not pool.add(lying)
        else:
            assert pool.add(lying)
            assert pool.add(block)
        assert pool.stats.invalid_dropped == 1
        assert not pool.is_authentic(block.hash) and not pool.is_valid(block.hash)
        assert pool.authenticator_of(block.hash) is None
        assert pool.add(forge.auth(block))  # the real one is no duplicate
        assert pool.is_valid(block.hash)

    def test_bad_round_block_dropped(self, forge):
        pool = forge.pool()
        assert not pool.add(forge.block(round=0))
        assert not pool.add(forge.block(proposer=9))

    def test_share_signer_mismatch_dropped(self, forge):
        pool = forge.pool()
        block = forge.block()
        share = forge.notar_share(block, signer=2)
        lying = NotarizationShare(
            round=1, proposer=1, block_hash=block.hash, signer=3, share=share.share
        )
        assert not pool.add(lying)

    def test_duplicates_counted(self, forge):
        pool = forge.pool()
        block = forge.block()
        assert pool.add(block)
        assert not pool.add(block)
        assert pool.stats.duplicates == 1

    def test_unknown_type_raises(self, forge):
        with pytest.raises(TypeError):
            forge.pool().add("what is this")


class TestShareCounting:
    def test_combinable_notarization(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        pool.add(forge.auth(block))
        for signer in (1, 2):
            pool.add(forge.notar_share(block, signer))
        assert pool.combinable_notarization(1, quorum=3) is None
        pool.add(forge.notar_share(block, 3))
        found = pool.combinable_notarization(1, quorum=3)
        assert found is not None and found.hash == block.hash

    def test_combinable_skips_notarized(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        pool.add(forge.auth(block))
        for signer in (1, 2, 3):
            pool.add(forge.notar_share(block, signer))
        pool.add(forge.notarization(block))
        assert pool.combinable_notarization(1, quorum=3) is None

    def test_duplicate_shares_not_double_counted(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        pool.add(forge.auth(block))
        share = forge.notar_share(block, 2)
        pool.add(share)
        assert not pool.add(share)
        assert pool.notar_share_count(block.hash) == 1

    def test_combinable_finalization(self, forge):
        pool = forge.pool()
        block = forge.block()
        pool.add(block)
        pool.add(forge.auth(block))
        for signer in (1, 2, 3):
            pool.add(forge.final_share(block, signer))
        found = pool.combinable_finalization(1, quorum=3)
        assert found is not None and found.hash == block.hash


class TestBeaconShares:
    def test_verified_when_previous_known(self, forge):
        pool = forge.pool()
        assert pool.add(forge.beacon_share(1, 2))
        assert pool.beacon_share_count(1) == 1

    def test_future_round_buffered(self, forge):
        pool = forge.pool()
        r1_value = b"\x42" * 32
        share = forge.beacon_share(2, 3, previous=r1_value)
        pool.add(share)
        assert pool.beacon_share_count(2) == 0  # cannot verify yet
        pool.set_beacon_value(1, r1_value)
        assert pool.beacon_share_count(2) == 1

    def test_buffered_garbage_dropped_on_reveal(self, forge):
        pool = forge.pool()
        share = forge.beacon_share(2, 3, previous=b"\x01" * 32)
        pool.add(share)
        pool.set_beacon_value(1, b"\x02" * 32)  # share was for a different R_1
        assert pool.beacon_share_count(2) == 0
        assert pool.stats.invalid_dropped == 1

    def test_round_zero_value_is_genesis(self, forge):
        assert forge.pool().beacon_value(0) == GENESIS_BEACON

    def test_set_value_idempotent(self, forge):
        pool = forge.pool()
        pool.set_beacon_value(1, b"\x01" * 32)
        pool.set_beacon_value(1, b"\x02" * 32)  # ignored
        assert pool.beacon_value(1) == b"\x01" * 32
