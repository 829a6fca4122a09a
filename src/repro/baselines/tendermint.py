"""Tendermint on the shared simulation substrate.

The gossip-era baseline of Section 1.1.  Faithful to the properties the
paper compares on:

* rotating proposer per height/round, propose → prevote → precommit with
  value locking (safety under asynchrony);
* **not optimistically responsive**: after deciding a height, replicas
  wait ``timeout_commit`` (a protocol parameter that must be set to a
  conservative network bound Δbnd) before starting the next height — so
  every height costs O(Δbnd) even when the actual delay δ is tiny.  This
  is the real `timeout_commit` mechanism of production Tendermint and is
  exactly the behaviour experiment E6 measures against ICC's 2δ rounds.
* round timeouts grow linearly with the round number, so liveness is
  recovered after asynchrony or faulty proposers.

Dissemination here uses plain broadcast (production Tendermint gossips;
ICC1's gossip sub-layer plays that role in our ICC comparison — using
broadcast for both keeps the latency comparison apples-to-apples).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import DIGEST_SIZE
from ..obs import short_id
from .common import Batch, BaselineParty, GENESIS_DIGEST, Vote

#: Digest placeholder for nil votes.
NIL = b"\x00" * DIGEST_SIZE


@dataclass(frozen=True)
class TMProposal:
    """Proposal for (height, round)."""

    height: int
    round: int
    batch: Batch

    kind = "tendermint-proposal"

    def wire_size(self) -> int:
        return 16 + self.batch.wire_size()


class TendermintParty(BaselineParty):
    """One Tendermint validator."""

    protocol_name = "Tendermint"

    def __init__(
        self,
        *,
        timeout_propose: float = 3.0,
        timeout_step: float = 3.0,
        timeout_commit: float = 1.0,  # the Δbnd-scale non-responsive wait
        max_heights: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.timeout_propose = timeout_propose
        self.timeout_step = timeout_step
        self.timeout_commit = timeout_commit
        self.max_heights = max_heights
        self.height = 1
        self.round = 1
        self.step = "new"  # "propose" | "prevote" | "precommit" | "done"
        self.locked_batch: Batch | None = None
        self.locked_round = 0
        self._batches: dict[bytes, Batch] = {}
        self._prevotes: dict[tuple[int, int, bytes], set[int]] = {}
        self._precommits: dict[tuple[int, int, bytes], set[int]] = {}
        self._prevoted: set[tuple[int, int]] = set()
        self._precommitted: set[tuple[int, int]] = set()
        self._decided_digest: dict[int, bytes] = {}

    # ------------------------------------------------------------------ identity

    def proposer_of(self, height: int, round: int) -> int:
        return ((height + round - 2) % self.n) + 1

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self._enter_round(self.height, self.round)

    def _enter_round(self, height: int, round: int) -> None:
        if self._done() or height != self.height:
            return
        self.round = round
        self.step = "propose"
        if self.proposer_of(height, round) == self.index:
            self._propose(height, round)
        self.sim.schedule(
            self.timeout_propose * round,
            lambda: self._on_timeout(height, round, "propose"),
        )
        self._recheck(height, round)

    def _propose(self, height: int, round: int) -> None:
        if self.locked_batch is not None:
            batch = self.locked_batch  # must re-propose the locked value
        else:
            parent = self.output_log[-1].digest if self.output_log else GENESIS_DIGEST
            payload = self.build_payload(height, self.output_log)
            batch = Batch(
                height=height, proposer=self.index, parent_digest=parent, payload=payload
            )
        self.metrics.proposed_at.setdefault(batch.digest, self.sim.now)
        self.metrics.count("tendermint-proposals")
        if self.tracer.enabled:
            self._trace(
                "tendermint.propose", round=height,
                tm_round=round, batch=short_id(batch.digest),
            )
        self._broadcast(TMProposal(height=height, round=round, batch=batch), round=height)

    # ------------------------------------------------------------------ messages

    def on_receive(self, message: object) -> None:
        if isinstance(message, TMProposal):
            self._on_proposal(message)
        elif isinstance(message, Vote) and message.protocol == "tendermint":
            self.enqueue_vote(message)

    def _on_proposal(self, message: TMProposal) -> None:
        batch = message.batch
        if batch.proposer != self.proposer_of(message.height, message.round):
            return
        self._batches[batch.digest] = batch
        if message.height != self.height or message.round != self.round:
            self._try_decide(message.height)
            return
        if self.step != "propose":
            return
        slot = (message.height, message.round)
        if slot in self._prevoted:
            return
        self._prevoted.add(slot)
        self.step = "prevote"
        # Locking rule: prevote the proposal unless locked on something else.
        if self.locked_batch is not None and self.locked_batch.digest != batch.digest:
            digest = NIL
        else:
            digest = batch.digest
        vote = self.make_vote("tendermint", "prevote", message.round, message.height, digest)
        self._broadcast(vote, round=message.height)
        self.sim.schedule(
            self.timeout_step * message.round,
            lambda: self._on_timeout(message.height, message.round, "prevote"),
        )

    def _accept_vote(self, vote: Vote) -> None:
        key = (vote.height, vote.view, vote.digest)
        table = self._prevotes if vote.phase == "prevote" else self._precommits
        table.setdefault(key, set()).add(vote.voter)
        self._recheck(vote.height, vote.view)

    def _recheck(self, height: int, round: int) -> None:
        if height != self.height:
            self._try_decide(height)
            return
        slot = (height, round)
        # Quorum of prevotes for a value -> lock + precommit it.
        if self.step in ("prevote", "propose") and slot not in self._precommitted:
            for (h, r, digest), voters in list(self._prevotes.items()):
                if (h, r) != slot or digest == NIL:
                    continue
                if len(voters) >= self.quorum and digest in self._batches:
                    self._precommitted.add(slot)
                    self._prevoted.add(slot)
                    self.locked_batch = self._batches[digest]
                    self.locked_round = round
                    self.step = "precommit"
                    vote = self.make_vote("tendermint", "precommit", round, height, digest)
                    self._broadcast(vote, round=height)
                    self.sim.schedule(
                        self.timeout_step * round,
                        lambda: self._on_timeout(height, round, "precommit"),
                    )
                    break
        # Quorum of nil prevotes -> precommit nil.
        nil_prevotes = self._prevotes.get((height, round, NIL), set())
        if (
            self.step == "prevote"
            and slot not in self._precommitted
            and len(nil_prevotes) >= self.quorum
        ):
            self._precommitted.add(slot)
            self.step = "precommit"
            vote = self.make_vote("tendermint", "precommit", round, height, NIL)
            self._broadcast(vote, round=height)
            self.sim.schedule(
                self.timeout_step * round,
                lambda: self._on_timeout(height, round, "precommit"),
            )
        # Quorum of precommits for a value -> decide.
        self._try_decide(height)
        # Quorum of nil precommits -> next round.
        nil_precommits = self._precommits.get((height, round, NIL), set())
        if self.step == "precommit" and len(nil_precommits) >= self.quorum:
            self._enter_round(height, round + 1)

    def _try_decide(self, height: int) -> None:
        if height != self.height:
            return
        for (h, r, digest), voters in list(self._precommits.items()):
            if h != height or digest == NIL:
                continue
            if len(voters) >= self.quorum and digest in self._batches:
                batch = self._batches[digest]
                self.commit_batch(batch)
                self.metrics.count("tendermint-decisions")
                if self.tracer.enabled:
                    self._trace(
                        "tendermint.decide", round=height, batch=short_id(digest)
                    )
                self.height += 1
                self.round = 1
                self.step = "new"
                self.locked_batch = None
                self.locked_round = 0
                next_height = self.height
                # timeout_commit: the non-responsive inter-height wait.
                self.sim.schedule(
                    self.timeout_commit, lambda: self._enter_round(next_height, 1)
                )
                return

    def _on_timeout(self, height: int, round: int, step: str) -> None:
        if self._done() or height != self.height or round != self.round:
            return
        slot = (height, round)
        if step == "propose" and self.step == "propose":
            # No (acceptable) proposal: prevote nil.
            self._prevoted.add(slot)
            self.step = "prevote"
            vote = self.make_vote("tendermint", "prevote", round, height, NIL)
            self._broadcast(vote, round=height)
            self.sim.schedule(
                self.timeout_step * round,
                lambda: self._on_timeout(height, round, "prevote"),
            )
        elif step == "prevote" and self.step == "prevote" and slot not in self._precommitted:
            self._precommitted.add(slot)
            self.step = "precommit"
            vote = self.make_vote("tendermint", "precommit", round, height, NIL)
            self._broadcast(vote, round=height)
            self.sim.schedule(
                self.timeout_step * round,
                lambda: self._on_timeout(height, round, "precommit"),
            )
        elif step == "precommit" and self.step == "precommit":
            self._enter_round(height, round + 1)
