"""PBFT (Castro–Liskov) on the shared simulation substrate.

The reference point for all later BFT work (Section 1.1).  Implemented
faithfully where it matters to the paper's comparisons:

* three-phase agreement: pre-prepare (leader broadcast), prepare
  (all-to-all), commit (all-to-all) — latency 3δ per batch;
* a *stable* primary that is only replaced by a **view change** when
  replicas time out — the property that makes PBFT fragile under the
  slow-primary attack of [15] (experiment E5): a primary that stays just
  under the timeout throttles the whole system indefinitely, because
  unlike ICC nobody else may propose;
* view changes carry each replica's highest *prepared* batch so the new
  primary re-proposes it (the safety-critical part of the view-change
  protocol; checkpoint garbage collection is omitted as in our ICC
  implementation).

Non-pipelined (one outstanding batch), so reciprocal throughput is 3δ —
the number HotStuff improves to 2δ and ICC0/ICC1 match at 2δ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.messages import Payload
from ..obs import short_id
from .common import Batch, BaselineParty, GENESIS_DIGEST, Vote


@dataclass(frozen=True)
class PrePrepare:
    """Primary's proposal for (view, height)."""

    view: int
    batch: Batch

    kind = "pbft-preprepare"

    def wire_size(self) -> int:
        return 8 + self.batch.wire_size()


@dataclass(frozen=True)
class ViewChange:
    """Vote to install ``new_view``, carrying the highest prepared batch."""

    new_view: int
    voter: int
    prepared_height: int
    prepared_batch: Batch | None = field(compare=False)

    kind = "pbft-viewchange"

    def wire_size(self) -> int:
        size = 8 + 4 + 8 + 48
        if self.prepared_batch is not None:
            size += self.prepared_batch.wire_size()
        return size


class PBFTParty(BaselineParty):
    """One PBFT replica."""

    protocol_name = "PBFT"

    def __init__(self, *, view_timeout: float = 4.0, max_heights: int | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.view = 1
        self.view_timeout = view_timeout
        self.max_heights = max_heights
        self._accepted: dict[tuple[int, int], Batch] = {}  # (view, height) -> batch
        self._batches: dict[bytes, Batch] = {}
        self._prepares: dict[tuple[int, int, bytes], set[int]] = {}
        self._commits: dict[tuple[int, int, bytes], set[int]] = {}
        self._prepare_voted: set[tuple[int, int]] = set()
        self._commit_voted: set[tuple[int, int]] = set()
        self._committable: dict[int, Batch] = {}
        self._highest_prepared: tuple[int, Batch | None] = (0, None)
        self._view_changes: dict[int, dict[int, ViewChange]] = {}
        self._view_change_sent = 0
        self._last_progress = 0.0

    # ------------------------------------------------------------------ identity

    def primary_of(self, view: int) -> int:
        return ((view - 1) % self.n) + 1

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.index

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self._last_progress = self.sim.now
        if self.is_primary:
            self._propose_next()
        self._arm_timeout()

    def _arm_timeout(self) -> None:
        self.sim.schedule(self.view_timeout / 2, self._check_timeout)

    def _check_timeout(self) -> None:
        if self._done():
            return
        if self.sim.now - self._last_progress >= self.view_timeout:
            self._request_view_change(self.view + 1)
        self._arm_timeout()

    # ------------------------------------------------------------------ proposing

    def _propose_next(self) -> None:
        if self._done():
            return
        height = self.k_max + 1
        if (self.view, height) in self._accepted:
            return  # already proposed / accepted for this slot
        prepared_height, prepared_batch = self._highest_prepared
        if prepared_batch is not None and prepared_height == height:
            batch = prepared_batch  # re-propose what may have committed elsewhere
        else:
            parent = self.output_log[-1].digest if self.output_log else GENESIS_DIGEST
            payload = self.build_payload(height, self.output_log)
            batch = Batch(
                height=height, proposer=self.index, parent_digest=parent, payload=payload
            )
        self.metrics.proposed_at.setdefault(batch.digest, self.sim.now)
        self.metrics.count("pbft-proposals")
        if self.tracer.enabled:
            self._trace(
                "pbft.propose", round=height,
                view=self.view, batch=short_id(batch.digest),
            )
        message = PrePrepare(view=self.view, batch=batch)
        self._broadcast(message, round=height)

    # ------------------------------------------------------------------ message handling

    def on_receive(self, message: object) -> None:
        if isinstance(message, PrePrepare):
            self._on_preprepare(message)
        elif isinstance(message, Vote) and message.protocol == "pbft":
            self.enqueue_vote(message)
        elif isinstance(message, ViewChange):
            self._on_view_change(message)

    def _on_preprepare(self, message: PrePrepare) -> None:
        batch = message.batch
        if message.view != self.view:
            return
        if batch.proposer != self.primary_of(message.view):
            return  # only the primary may pre-prepare
        slot = (message.view, batch.height)
        if slot in self._accepted and self._accepted[slot].digest != batch.digest:
            return  # equivocating primary; first one wins, timeout handles the rest
        if batch.height <= self.k_max:
            return
        self._accepted[slot] = batch
        self._batches[batch.digest] = batch
        if slot not in self._prepare_voted:
            self._prepare_voted.add(slot)
            vote = self.make_vote("pbft", "prepare", message.view, batch.height, batch.digest)
            self._broadcast(vote, round=batch.height)
        self._evaluate(message.view, batch.height, batch.digest)

    def _accept_vote(self, vote: Vote) -> None:
        key = (vote.view, vote.height, vote.digest)
        table = self._prepares if vote.phase == "prepare" else self._commits
        table.setdefault(key, set()).add(vote.voter)
        self._evaluate(vote.view, vote.height, vote.digest)

    def _evaluate(self, view: int, height: int, digest: bytes) -> None:
        key = (view, height, digest)
        slot = (view, height)
        batch = self._batches.get(digest)
        # prepared: pre-prepare accepted + quorum of prepares.
        if (
            batch is not None
            and self._accepted.get(slot) is not None
            and self._accepted[slot].digest == digest
            and len(self._prepares.get(key, ())) >= self.quorum
            and slot not in self._commit_voted
        ):
            self._commit_voted.add(slot)
            if height > self._highest_prepared[0]:
                self._highest_prepared = (height, batch)
            vote = self.make_vote("pbft", "commit", view, height, digest)
            self._broadcast(vote, round=height)
        # committed: quorum of commits.
        if batch is not None and len(self._commits.get(key, ())) >= self.quorum:
            self._committable.setdefault(height, batch)
            self._execute_ready()

    def _execute_ready(self) -> None:
        progressed = False
        while True:
            batch = self._committable.get(self.k_max + 1)
            if batch is None:
                break
            self.commit_batch(batch)
            progressed = True
        if progressed:
            self._last_progress = self.sim.now
            if self.is_primary:
                self._propose_next()

    # ------------------------------------------------------------------ view change

    def _request_view_change(self, new_view: int) -> None:
        if self._view_change_sent >= new_view:
            return
        self._view_change_sent = new_view
        prepared_height, prepared_batch = self._highest_prepared
        if prepared_height <= self.k_max:
            prepared_height, prepared_batch = 0, None
        message = ViewChange(
            new_view=new_view,
            voter=self.index,
            prepared_height=prepared_height,
            prepared_batch=prepared_batch,
        )
        self.metrics.count("pbft-view-changes-requested")
        self._broadcast(message)

    def _on_view_change(self, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        votes = self._view_changes.setdefault(message.new_view, {})
        votes[message.voter] = message
        if len(votes) < self.quorum:
            return
        # Install the new view.
        self.view = message.new_view
        self._last_progress = self.sim.now
        self.metrics.count("pbft-view-changes-installed")
        if self.tracer.enabled:
            self._trace("pbft.viewchange", new_view=self.view)
        # Adopt the highest prepared batch reported by the quorum.
        for vc in votes.values():
            if vc.prepared_batch is not None and vc.prepared_height > self._highest_prepared[0]:
                self._highest_prepared = (vc.prepared_height, vc.prepared_batch)
        if self.is_primary:
            self._propose_next()
