"""Edge-case tests for the baselines: equivocation, orphans, nil rounds."""

from __future__ import annotations

import pytest

from repro.baselines import HotStuffParty, PBFTParty, TendermintParty
from repro.baselines.common import Batch, GENESIS_DIGEST
from repro.baselines.pbft import PrePrepare
from repro.core import ClusterConfig, build_cluster
from repro.core.messages import Payload
from repro.sim.delays import FixedDelay, UniformDelay


class TestPBFTEdges:
    def test_equivocating_preprepare_first_wins(self):
        """A primary pre-preparing two batches for one slot cannot split
        replicas: each accepts whichever arrived first and ignores the
        other; safety (agreement on one digest per height) holds."""

        class EquivocatingPrimary(PBFTParty):
            def _propose_next(self):
                if self._done():
                    return
                height = self.k_max + 1
                if (self.view, height) in self._accepted:
                    return
                parent = self.output_log[-1].digest if self.output_log else GENESIS_DIGEST
                for tag in (b"twin-a", b"twin-b"):
                    batch = Batch(
                        height=height,
                        proposer=self.index,
                        parent_digest=parent,
                        payload=Payload(commands=(tag,)),
                    )
                    self.metrics.proposed_at.setdefault(batch.digest, self.sim.now)
                    half = self.n // 2
                    for receiver in range(1, self.n + 1):
                        chosen = tag == b"twin-a" if receiver <= half else tag == b"twin-b"
                        if chosen:
                            self._send(receiver, PrePrepare(view=self.view, batch=batch))

        config = ClusterConfig(
            party_class=PBFTParty,
            n=4, t=1, seed=1, delay_model=FixedDelay(0.05),
            corrupt={1: EquivocatingPrimary},
            extra_party_kwargs=dict(view_timeout=2.0),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_for(30.0)
        # No two honest replicas commit different batches at one height.
        by_height: dict[int, set[bytes]] = {}
        for party in cluster.honest_parties:
            for batch in party.output_log:
                by_height.setdefault(batch.height, set()).add(batch.digest)
        assert all(len(d) == 1 for d in by_height.values())

    def test_view_change_carries_prepared_batch(self):
        """A batch prepared (but not committed) before the view change is
        re-proposed by the new primary, not lost."""
        config = ClusterConfig(
            party_class=PBFTParty,
            n=4, t=1, seed=2, delay_model=FixedDelay(0.05),
            extra_party_kwargs=dict(view_timeout=1.5),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(2, timeout=60)
        # Crash the primary right before it would commit height 3.
        cluster.network.crash(1)
        cluster.run_for(30.0)
        live = [p for p in cluster.parties if p.index != 1]
        assert min(p.k_max for p in live) >= 4


class TestHotStuffEdges:
    def test_orphan_proposals_buffered(self):
        """Proposals arriving before their parents are held, not dropped."""
        config = ClusterConfig(
            party_class=HotStuffParty,
            n=4, t=1, seed=3,
            delay_model=UniformDelay(0.01, 0.2),  # heavy reordering
            extra_party_kwargs=dict(base_timeout=3.0),
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(10, timeout=300)
        cluster.check_safety()

    def test_locked_qc_advances(self):
        config = ClusterConfig(
            party_class=HotStuffParty,
            n=4, t=1, seed=4, delay_model=FixedDelay(0.05),
            extra_party_kwargs=dict(base_timeout=3.0),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(8, timeout=100)
        assert all(p.locked_qc.view > 0 for p in cluster.parties)

    def test_vote_relay_recovers_crashed_successor(self):
        """Votes swallowed by a crashed next-leader are recovered from the
        NewView messages (the LibraBFT-style last-vote relay)."""
        config = ClusterConfig(
            party_class=HotStuffParty,
            n=4, t=1, seed=5, delay_model=FixedDelay(0.05),
            corrupt={2: None},
            extra_party_kwargs=dict(base_timeout=1.5),
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(5, timeout=300)
        cluster.check_safety()


class TestTendermintEdges:
    def test_nil_round_then_progress(self):
        """A crashed proposer's round ends in nil precommits; the next
        round (new proposer) decides."""
        config = ClusterConfig(
            party_class=TendermintParty,
            n=4, t=1, seed=6, delay_model=FixedDelay(0.05),
            corrupt={1: None},
            extra_party_kwargs=dict(timeout_propose=1.0, timeout_step=1.0, timeout_commit=0.2),
        )
        cluster = build_cluster(config)
        cluster.start()
        assert cluster.run_until_all_committed_round(4, timeout=300)
        cluster.check_safety()
        # Height 4's proposer rotation means party 1 was proposer at least
        # once; those heights took the nil-round detour.
        assert cluster.sim.now > 2.0

    def test_round_number_grows_under_repeated_failure(self):
        """With the proposer crashed, replicas walk rounds r=1,2,... at
        the same height until a live proposer's turn."""
        config = ClusterConfig(
            party_class=TendermintParty,
            n=4, t=1, seed=7, delay_model=FixedDelay(0.05),
            corrupt={1: None},
            extra_party_kwargs=dict(timeout_propose=0.5, timeout_step=0.5, timeout_commit=0.1),
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(6, timeout=300)
        cluster.check_safety()
