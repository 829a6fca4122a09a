"""Property-based tests of the message pool: order independence, monotonicity.

Delivery order is adversary-controlled (Section 3.1), so the pool's
predicates must be *insensitive to arrival order* and *monotone* (an
artifact never loses a classification as more messages arrive).  These are
the lemmas the protocol's safety arguments implicitly lean on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Payload, ROOT_HASH
from tests.core.test_pool import Forge


def build_chain_messages(forge: Forge, depth: int):
    """All artifacts for a fully notarized+finalized chain of ``depth``."""
    messages = []
    blocks = []
    for round in range(1, depth + 1):
        parent = blocks[-1].hash if blocks else ROOT_HASH
        block = forge.block(
            round=round,
            proposer=(round % 4) + 1,
            parent=parent,
            payload=Payload(commands=(b"r%d" % round,)),
        )
        blocks.append(block)
        messages.append(block)
        messages.append(forge.auth(block))
        messages.append(forge.notarization(block))
        for signer in (1, 2, 3):
            messages.append(forge.notar_share(block, signer))
        messages.append(forge.finalization(block))
    return blocks, messages


def stored_rounds(pool) -> list[int]:
    """The own round of every artifact the pool holds (root aside)."""
    rounds = [b.round for h, b in pool.blocks.items() if h != ROOT_HASH]
    for by_hash in (pool._authenticators, pool._notarizations, pool._finalizations):
        rounds.extend(a.round for a in by_hash.values())
    for by_hash in (pool._notar_shares, pool._final_shares):
        rounds.extend(s.round for shares in by_hash.values() for s in shares.values())
    for by_round in (pool._blocks_by_round, pool._beacon_shares, pool._buffered_beacon_shares):
        rounds.extend(by_round)
    return rounds


class TestOrderIndependence:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_final_state_independent_of_delivery_order(self, pyrng):
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=4)
        shuffled = list(messages)
        pyrng.shuffle(shuffled)
        pool = forge.pool()
        for message in shuffled:
            pool.add(message)
        for block in blocks:
            assert pool.is_valid(block.hash)
            assert pool.is_notarized(block.hash)
            assert pool.is_finalized(block.hash)

    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_predicates_are_monotone(self, pyrng, prefix_len):
        """Classifications gained after a prefix never disappear later."""
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=3)
        shuffled = list(messages)
        pyrng.shuffle(shuffled)
        pool = forge.pool()
        cut = min(prefix_len, len(shuffled))
        for message in shuffled[:cut]:
            pool.add(message)
        snapshot = {
            b.hash: (
                pool.is_authentic(b.hash),
                pool.is_valid(b.hash),
                pool.is_notarized(b.hash),
                pool.is_finalized(b.hash),
            )
            for b in blocks
        }
        for message in shuffled[cut:]:
            pool.add(message)
        for block in blocks:
            before = snapshot[block.hash]
            after = (
                pool.is_authentic(block.hash),
                pool.is_valid(block.hash),
                pool.is_notarized(block.hash),
                pool.is_finalized(block.hash),
            )
            for gained, still in zip(before, after):
                assert not gained or still

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_duplicates_never_change_state(self, pyrng):
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=3)
        pool = forge.pool()
        for message in messages:
            pool.add(message)
        count = pool.artifact_count()
        replay = list(messages)
        pyrng.shuffle(replay)
        for message in replay:
            assert not pool.add(message)
        assert pool.artifact_count() == count


class TestPruneProperties:
    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_prune_preserves_retained_rounds(self, pyrng, cutoff):
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=5)
        shuffled = list(messages)
        pyrng.shuffle(shuffled)
        pool = forge.pool()
        for message in shuffled:
            pool.add(message)
        pool.prune(cutoff)
        for block in blocks:
            if block.round < cutoff:
                assert not pool.is_notarized(block.hash)
                assert block.hash not in pool.blocks
            else:
                assert pool.is_finalized(block.hash)

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_nothing_below_the_floor_survives(self, pyrng, cutoff, held_back):
        """Artifacts go by their *own* round: a share or aggregate whose block
        never arrived (here: any artifact the shuffle holds back) is reclaimed
        like the rest, and the ones held back are refused afterwards."""
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=5)
        for block in blocks:
            messages.append(forge.final_share(block, 2))
            # Round 1 verifies against the genesis value; later rounds stay
            # buffered, their previous value being unknown to this pool.
            messages.append(forge.beacon_share(block.round, 3))
        shuffled = list(messages)
        pyrng.shuffle(shuffled)
        cut = len(shuffled) - min(held_back, len(shuffled))
        pool = forge.pool()
        for message in shuffled[:cut]:
            pool.add(message)
        pool.prune(cutoff)
        for message in shuffled[cut:]:
            stored = pool.add(message)
            assert not (stored and message.round < cutoff)
        assert all(round >= cutoff for round in stored_rounds(pool))
        assert pool._authentic - {ROOT_HASH} == set(pool._authenticators)
        assert pool._valid | pool._notarized | pool._finalized <= set(pool.blocks)
        assert all(
            child in pool.blocks for children in pool._children.values() for child in children
        )
        assert all(k >= cutoff for k in pool.rounds_with_final_activity())

    def test_prune_is_idempotent(self):
        forge = Forge()
        blocks, messages = build_chain_messages(forge, depth=5)
        pool = forge.pool()
        for message in messages:
            pool.add(message)
        first = pool.prune(4)
        assert first > 0
        assert pool.prune(4) == 0
