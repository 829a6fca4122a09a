"""Tests for the baselines' vote admission (``BaselineParty.enqueue_vote``).

Votes used to be coalesced per simulated instant and verified in one
deferred flush event; that path is gone (each vote is verified as it
arrives).  The hashes both paths committed are pinned below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import (
    BaselineClusterConfig,
    HotStuffParty,
    PBFTParty,
    TendermintParty,
    build_baseline_cluster,
)
from repro.crypto.keyring import generate_keyrings
from repro.sim.delays import FixedDelay

#: (heights, sha256 over the committed hashes in order) of party 1 after 20
#: simulated seconds at n=4, t=1, seed=2, δ=0.05 — recorded at the last
#: commit that had both the deferred-flush and the eager path, where
#: ``test_commits_identical_with_and_without_batching`` held them equal.
COMMITTED = {
    PBFTParty: (133, "9ecfdb0dc2f258a255e89227271f8484370c3f31ef20121265db5efe3391f45b"),
    HotStuffParty: (197, "d8615fc0c8b308c6a00aff12f66f33471e3759a3a5353f4541621ae0e82ffb7e"),
    TendermintParty: (18, "ac1c3f64dbb8605857e635a6c3d30b10ad01b9127885c54ebe6b533c8fd7a202"),
}


class TestBatchedVotesParity:
    @pytest.mark.parametrize("party_class", [PBFTParty, HotStuffParty, TendermintParty])
    def test_commits_identical_with_and_without_batching(self, party_class):
        config = BaselineClusterConfig(
            party_class=party_class, n=4, t=1, seed=2, delay_model=FixedDelay(0.05),
        )
        cluster = build_baseline_cluster(config)
        cluster.start()
        cluster.run_for(20.0)
        cluster.check_safety()
        hashes = cluster.party(1).committed_hashes
        heights, digest = COMMITTED[party_class]
        assert len(hashes) == cluster.min_committed_height() == heights
        assert hashlib.sha256(b"".join(hashes)).hexdigest() == digest


class TestVoteHelpers:
    def _parties(self):
        config = BaselineClusterConfig(
            party_class=PBFTParty, n=4, t=1, seed=5, delay_model=FixedDelay(0.05),
        )
        return build_baseline_cluster(config).parties

    def test_votes_are_valid_matches_single(self):
        parties = self._parties()
        votes = [
            parties[i].make_vote("pbft", "prepare", 1, 1, b"\x07" * 32)
            for i in range(4)
        ]
        # Forge one: vote claims voter 1 but carries voter 2's share.
        forged = votes[0].__class__(
            protocol="pbft", phase="prepare", view=1, height=1,
            digest=b"\x07" * 32, voter=1, share=votes[1].share,
        )
        checker = parties[3]
        assert [checker.vote_is_valid(v) for v in votes + [forged]] == [True] * 4 + [False]
        accepted = []
        checker._accept_vote = accepted.append
        for vote in votes + [forged]:
            checker.enqueue_vote(vote)
        assert accepted == votes

    def test_forged_vote_never_accepted(self):
        party = self._parties()[0]
        rings = generate_keyrings(4, 1, seed=99, backend="fast")  # wrong keys
        forged = party.make_vote("pbft", "prepare", 1, 1, b"\x01" * 32).__class__(
            protocol="pbft", phase="prepare", view=1, height=1,
            digest=b"\x01" * 32, voter=2, share=rings[1].sign_notary_share(b"junk"),
        )
        accepted = []
        party._accept_vote = accepted.append
        party.enqueue_vote(forged)
        assert accepted == []

    def test_eager_mode_accepts_immediately(self):
        parties = self._parties()
        vote = parties[1].make_vote("pbft", "prepare", 1, 1, b"\x02" * 32)
        accepted = []
        parties[0]._accept_vote = accepted.append
        parties[0].enqueue_vote(vote)
        assert accepted == [vote]  # in the call itself, not in a later event
