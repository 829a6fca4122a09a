"""Each party hashes each signed statement of Section 3.4 once.

Every share of one block signs the same (k, α, H(B)), and every beacon share
of one round the same (k, R_{k-1}); the pool builds each once per party and
keeps it only while shares can still read it.  The counts come from wrapping
the three statement functions of :mod:`repro.core.messages`; the party a call belongs to
is the :class:`~repro.core.pool.MessagePool` on the stack.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core import messages as msg
from repro.core.messages import NotarizationShare
from repro.core.pool import BEACON, MessagePool
from repro.sim import UniformDelay

from .test_pool import Forge


def _calling_pool() -> MessagePool:
    frame = sys._getframe(2)
    while frame is not None:
        owner = frame.f_locals.get("self")
        if isinstance(owner, MessagePool):
            return owner
        frame = frame.f_back
    raise AssertionError("statement built outside a pool")


@pytest.fixture
def builds(monkeypatch):
    """Counter of statement-function calls by (pool, kind, *what the statement names)."""
    counts: Counter = Counter()
    for kind, name in (
        ("notarization", "notarization_message"),
        ("finalization", "finalization_message"),
        ("beacon", "beacon_message"),
    ):
        original = getattr(msg, name)

        def counted(*args, kind=kind, original=original):
            counts[(id(_calling_pool()), kind, *args)] += 1
            return original(*args)

        monkeypatch.setattr(msg, name, counted)
    return counts


def _run(n=7, t=2, heights=10, **kwargs):
    config = ClusterConfig(
        n=n, t=t, delta_bound=0.5, epsilon=0.01,
        delay_model=UniformDelay(0.01, 0.08), seed=3, **kwargs,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(heights, timeout=120)
    assert cluster.min_committed_round() >= heights
    return cluster


class TestOncePerParty:
    def test_each_statement_built_once_per_party(self, builds):
        cluster = _run()
        assert builds, "the statement functions were never reached"
        assert max(builds.values()) == 1, builds.most_common(3)
        kinds = Counter(key[1] for key in builds)
        parties = {p.index for p in cluster.honest_parties}
        # Every party built at least the ten finalized blocks' statements.
        assert kinds["notarization"] >= 10 * len(parties)
        assert kinds["finalization"] >= 10 * len(parties)
        assert kinds["beacon"] >= 10 * len(parties)
        # ...and the signers and combiners read the same memo: no party built
        # a statement outside its pool.
        pools = {id(p.pool) for p in cluster.honest_parties}
        assert {key[0] for key in builds} <= pools


class TestLyingShares:
    def test_misnamed_share_for_a_held_block_is_invalid(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block(round=1, proposer=1)
        pool.add(block)
        assert pool.add(forge.notar_share(block, 2))
        # Validly signed over what it names, but it names round 2.
        signed = msg.notarization_message(2, 1, block.hash)
        liar = NotarizationShare(2, 1, block.hash, 3, forge.rings[2].sign_notary_share(signed))
        assert not pool.add(liar)
        assert pool.stats.invalid_dropped == 1
        assert pool.notar_share_count(block.hash) == 1

    def test_unheld_block_share_checked_against_what_it_names(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block(round=1, proposer=1)
        # Block not held: the honest statement enters the memo first.
        assert pool.add(forge.notar_share(block, 2))
        honest = msg.notarization_message(1, 1, block.hash)
        # A share naming (2, 3, H(B)) but signed over the memoized (1, 1, H(B))
        # is checked against (2, 3, H(B)) and fails.
        stolen = NotarizationShare(2, 3, block.hash, 3, forge.rings[2].sign_notary_share(honest))
        assert not pool.add(stolen)
        assert pool.stats.invalid_dropped == 1
        # One signed over what it names passes, and is kept apart.
        named = msg.notarization_message(2, 3, block.hash)
        liar = NotarizationShare(2, 3, block.hash, 4, forge.rings[3].sign_notary_share(named))
        assert pool.add(liar)
        assert ("notarization", 2, 3, block.hash) in pool._statements
        assert ("notarization", 1, 1, block.hash) in pool._statements
        # The block arrives: the liar is dropped, and so is its statement.
        pool.add(block)
        assert pool.stats.invalid_dropped == 2
        assert pool.notar_share_count(block.hash) == 1
        assert ("notarization", 2, 3, block.hash) not in pool._statements

    def test_failed_share_leaves_no_entry(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block(round=1, proposer=1)
        share = forge.notar_share(block, 2)
        forged = NotarizationShare(1, 1, block.hash, 2, forge.rings[1].sign_notary_share(b"x"))
        assert not pool.add(forged)
        assert not pool._statements
        assert pool.add(share)
        assert list(pool._statements) == [("notarization", 1, 1, block.hash)]


class TestMemoIsBounded:
    def test_entries_leave_with_the_aggregate(self):
        forge = Forge()
        pool = forge.pool()
        block = forge.block(round=1, proposer=1)
        pool.add(block)
        pool.add(forge.auth(block))
        for signer in (1, 2):
            pool.add(forge.notar_share(block, signer))
            pool.add(forge.final_share(block, signer))
        assert len(pool._statements) == 2
        pool.add(forge.notarization(block))
        assert list(pool._statements) == [("finalization", 1, 1, block.hash)]
        pool.add(forge.finalization(block))
        assert not pool._statements
        # Later shares are superseded before any statement is read.
        pool.add(forge.notar_share(block, 3))
        pool.add(forge.final_share(block, 3))
        assert not pool._statements

    def test_beacon_entry_leaves_with_the_value(self):
        forge = Forge()
        pool = forge.pool()
        pool.add(forge.beacon_share(1, 2))
        assert list(pool._statements) == [(BEACON, 1, msg.GENESIS_BEACON)]
        pool.set_beacon_value(1, b"\x01" * 32)
        assert not pool._statements

    def test_entries_of_unsettled_blocks_leave_at_the_floors(self):
        """A block that never gets its aggregate (a sibling that lost its
        round) leaves its entries behind until a floor passes its round."""
        forge = Forge()
        pool = forge.pool()
        lost = forge.block(round=1, proposer=2)
        later = forge.block(round=3, proposer=1)
        for block in (lost, later):
            pool.add(forge.notar_share(block, 3))
            pool.add(forge.final_share(block, 3))
        pool.add(forge.beacon_share(1, 2))
        assert len(pool._statements) == 5
        pool.set_committed_floor(1)
        assert sorted(key[1] for key in pool._statements) == [3, 3]
        pool.prune(4)
        assert not pool._statements

    def test_cluster_with_pruning(self):
        cluster = _run(heights=12, gc_depth=3)
        for party in cluster.honest_parties:
            pool = party.pool
            assert pool._prune_floor > 0
            assert all(key[1] >= pool._prune_floor for key in pool._statements)
            # Nothing at or below the committed height is kept.
            assert all(key[1] > party.k_max for key in pool._statements)
            settled = set(pool._notarizations) & set(pool._finalizations)
            assert not [key for key in pool._statements if key[-1] in settled]
