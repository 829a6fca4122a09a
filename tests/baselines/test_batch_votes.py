"""Tests for the baselines' vote admission (``BaselineParty.enqueue_vote``).

Votes used to be coalesced per simulated instant and verified in one
deferred flush event; that path is gone (each vote is verified as it
arrives).  The hashes both paths committed are pinned below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import HotStuffParty, PBFTParty, TendermintParty
from repro.core import ClusterConfig, build_cluster
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
        config = ClusterConfig(
            party_class=party_class, n=4, t=1, seed=2, delay_model=FixedDelay(0.05),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_for(20.0)
        cluster.check_safety()
        hashes = cluster.party(1).committed_hashes
        heights, digest = COMMITTED[party_class]
        assert len(hashes) == cluster.min_committed_round() == heights
        assert hashlib.sha256(b"".join(hashes)).hexdigest() == digest


#: (sha256 over every honest party's committed hashes, messages sent) at
#: n=4, t=1, seed=1, δ=0.05 with one crashed party, five heights — recorded
#: from the baselines' own builder at the commit before ``build_cluster``
#: took them over.
CRASHED = {
    PBFTParty: (
        dict(view_timeout=2.0), 1,
        "34dca8fc3a5dd6f6bd2ce9919dcc443b0e4117776f86d12d3ae8a5e83ce2021a", 156,
    ),
    HotStuffParty: (
        dict(base_timeout=2.0), 2,
        "fca77cb92983fe87da78d5a627662c49ca4549848eb5fd70b0a37b236f0de14f", 57,
    ),
    TendermintParty: (
        dict(timeout_propose=1.0, timeout_step=1.0, timeout_commit=0.2), 1,
        "ee1cbe116802fb0b1189b16d2d51cb8ab268fedef1d38bf6218612069ee57e22", 188,
    ),
}


class TestOneAssemblyIsBitIdentical:
    @pytest.mark.parametrize("party_class", [PBFTParty, HotStuffParty, TendermintParty])
    def test_crashed_party_run_matches_the_dedicated_builder(self, party_class):
        kwargs, crashed, digest, messages = CRASHED[party_class]
        cluster = build_cluster(ClusterConfig(
            party_class=party_class, n=4, t=1, seed=1, delay_model=FixedDelay(0.05),
            corrupt={crashed: None}, extra_party_kwargs=kwargs,
        ))
        cluster.start()
        assert cluster.run_until_all_committed_round(5, timeout=300)
        cluster.check_safety()
        hashes = [h for p in cluster.honest_parties for h in p.committed_hashes]
        assert hashlib.sha256(b"".join(hashes)).hexdigest() == digest
        assert sum(cluster.metrics.msgs_sent.values()) == messages


class TestVoteHelpers:
    def _parties(self):
        config = ClusterConfig(
            party_class=PBFTParty, n=4, t=1, seed=5, delay_model=FixedDelay(0.05),
        )
        return build_cluster(config).parties

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
