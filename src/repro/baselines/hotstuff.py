"""Chained HotStuff on the shared simulation substrate.

The closest modern competitor discussed in Section 1.1.  Implemented
features match the claims the paper compares against:

* rotating leader every view, linear message pattern: the leader
  broadcasts a proposal, replicas send votes to the *next* leader;
* chained (pipelined) operation: every proposal carries a QC for its
  parent, so one batch completes per view — reciprocal throughput 2δ;
* the three-chain commit rule: a node is committed when it heads a chain
  of three QCs with consecutive views — commit latency ≈ 6δ (vs 3δ for
  ICC0/ICC1 and PBFT);
* a pacemaker: on timeout, replicas send NewView (carrying their highest
  QC) to the next leader, who proposes once it hears from a quorum —
  like ICC, HotStuff is optimistically responsive;
* like PBFT — and unlike ICC — the leader alone disseminates the batch,
  and a silent leader's view produces nothing (experiments E5/E9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import DIGEST_SIZE, tagged_hash
from ..core.messages import SIG_SIZE, AGG_DESCRIPTOR_SIZE
from ..obs import short_id
from .common import Batch, BaselineParty, GENESIS_DIGEST, Vote, vote_message


@dataclass(frozen=True)
class QC:
    """Quorum certificate: an aggregate over a quorum of generic votes."""

    view: int
    height: int
    node_digest: bytes
    aggregate: object = field(compare=False)

    def wire_size(self) -> int:
        return 8 + 8 + DIGEST_SIZE + SIG_SIZE + AGG_DESCRIPTOR_SIZE


#: Sentinel QC for the genesis node (view 0).
GENESIS_QC = QC(view=0, height=0, node_digest=GENESIS_DIGEST, aggregate=None)


@dataclass(frozen=True)
class HSNode:
    """A node in the HotStuff chain: a batch justified by a parent QC."""

    view: int
    height: int
    batch: Batch
    parent_digest: bytes
    justify: QC = field(compare=False)

    @property
    def digest(self) -> bytes:
        return tagged_hash(
            "hotstuff/node",
            self.view.to_bytes(8, "big"),
            self.height.to_bytes(8, "big"),
            self.batch.digest,
            self.parent_digest,
        )

    kind = "hotstuff-proposal"

    def wire_size(self) -> int:
        return 16 + DIGEST_SIZE + self.batch.wire_size() + self.justify.wire_size()


@dataclass(frozen=True)
class NewView:
    """Pacemaker message: 'I give up on my view; here is my highest QC'.

    It also carries the sender's *last vote* (as LibraBFT's timeout
    messages do).  Without this, a crashed leader swallows the votes of the
    preceding view forever and — with an adversarially aligned round-robin
    — the three-consecutive-view commit rule can starve even though a
    quorum of replicas voted.
    """

    view: int  # the view the sender is entering
    voter: int
    high_qc: QC = field(compare=False)
    last_vote: Vote | None = field(compare=False, default=None)

    kind = "hotstuff-newview"

    def wire_size(self) -> int:
        size = 8 + 4 + self.high_qc.wire_size()
        if self.last_vote is not None:
            size += self.last_vote.wire_size()
        return size


class HotStuffParty(BaselineParty):
    """One chained-HotStuff replica."""

    protocol_name = "HotStuff"

    def __init__(self, *, base_timeout: float = 4.0, max_heights: int | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cur_view = 1
        self.base_timeout = base_timeout
        self.max_heights = max_heights
        self.high_qc = GENESIS_QC
        self.locked_qc = GENESIS_QC
        self._nodes: dict[bytes, HSNode] = {}
        self._votes: dict[tuple[int, bytes], dict[int, object]] = {}
        self._new_views: dict[int, dict[int, QC]] = {}
        self._voted_views: set[int] = set()
        self._proposed_views: set[int] = set()
        self._timeout_factor = 1.0
        self._last_progress = 0.0
        self._orphans: dict[bytes, list[HSNode]] = {}
        self._last_vote: Vote | None = None
        self._formed_qcs: set[tuple[int, bytes]] = set()

    # ------------------------------------------------------------------ identity

    def leader_of(self, view: int) -> int:
        return ((view - 1) % self.n) + 1

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self._last_progress = self.sim.now
        if self.leader_of(self.cur_view) == self.index:
            self._propose(self.cur_view)
        self._arm_timeout()

    def _arm_timeout(self) -> None:
        self.sim.schedule(self.base_timeout / 2, self._check_timeout)

    def _check_timeout(self) -> None:
        if self._done():
            return
        if self.sim.now - self._last_progress >= self.base_timeout * self._timeout_factor:
            self._timeout_factor = min(self._timeout_factor * 2, 64.0)
            self._advance_view(self.cur_view + 1, by_timeout=True)
            self._last_progress = self.sim.now
        self._arm_timeout()

    def _advance_view(self, view: int, by_timeout: bool = False) -> None:
        if view <= self.cur_view and not by_timeout:
            return
        self.cur_view = max(self.cur_view, view)
        leader = self.leader_of(self.cur_view)
        if by_timeout:
            self.metrics.count("hotstuff-timeouts")
            if self.tracer.enabled:
                self._trace("hotstuff.timeout", view=self.cur_view)
            message = NewView(
                view=self.cur_view,
                voter=self.index,
                high_qc=self.high_qc,
                last_vote=self._last_vote,
            )
            if leader == self.index:
                self._on_new_view(message)
            else:
                self._send(leader, message)

    # ------------------------------------------------------------------ proposing

    def _node_chain(self, digest: bytes) -> list[HSNode]:
        chain: list[HSNode] = []
        while digest != GENESIS_DIGEST:
            node = self._nodes.get(digest)
            if node is None:
                break
            chain.append(node)
            digest = node.parent_digest
        chain.reverse()
        return chain

    def _propose(self, view: int) -> None:
        if self._done() or view in self._proposed_views:
            return
        self._proposed_views.add(view)
        parent_digest = self.high_qc.node_digest
        parent = self._nodes.get(parent_digest)
        height = (parent.height if parent else 0) + 1
        chain = [n.batch for n in self._node_chain(parent_digest)]
        payload = self.build_payload(height, chain)
        batch = Batch(
            height=height,
            proposer=self.index,
            parent_digest=parent.batch.digest if parent else GENESIS_DIGEST,
            payload=payload,
        )
        node = HSNode(
            view=view,
            height=height,
            batch=batch,
            parent_digest=parent_digest,
            justify=self.high_qc,
        )
        self.metrics.proposed_at.setdefault(batch.digest, self.sim.now)
        self.metrics.count("hotstuff-proposals")
        if self.tracer.enabled:
            self._trace(
                "hotstuff.propose", round=height,
                view=view, batch=short_id(batch.digest),
            )
        self._broadcast(node, round=height)

    # ------------------------------------------------------------------ messages

    def on_receive(self, message: object) -> None:
        if isinstance(message, HSNode):
            self._on_proposal(message)
        elif isinstance(message, Vote) and message.protocol == "hotstuff":
            self.enqueue_vote(message)
        elif isinstance(message, NewView):
            self._on_new_view(message)

    def _qc_is_valid(self, qc: QC) -> bool:
        if qc.view == 0:
            return qc.node_digest == GENESIS_DIGEST
        signed = vote_message("hotstuff", "generic", qc.view, qc.height, qc.node_digest)
        return self.keys.verify_notary(signed, qc.aggregate)

    def _on_proposal(self, node: HSNode) -> None:
        if node.batch.proposer != self.leader_of(node.view):
            return
        if not self._qc_is_valid(node.justify):
            return
        if node.justify.node_digest != node.parent_digest:
            return
        if node.parent_digest != GENESIS_DIGEST and node.parent_digest not in self._nodes:
            self._orphans.setdefault(node.parent_digest, []).append(node)
            return
        digest = node.digest
        if digest in self._nodes:
            return
        self._nodes[digest] = node
        self._update_high_qc(node.justify)
        self._apply_chain_rules(node)
        # Safety rule: extend the locked node, or see a newer justify.
        safe = (
            self._extends(node, self.locked_qc.node_digest)
            or node.justify.view > self.locked_qc.view
        )
        if safe and node.view >= self.cur_view and node.view not in self._voted_views:
            self._voted_views.add(node.view)
            vote = self.make_vote("hotstuff", "generic", node.view, node.height, digest)
            self._last_vote = vote
            next_leader = self.leader_of(node.view + 1)
            if next_leader == self.index:
                self.enqueue_vote(vote)
            else:
                self._send(next_leader, vote, round=node.height)
            self.cur_view = node.view + 1
            self._last_progress = self.sim.now
            self._timeout_factor = 1.0
        # Adopt orphans now that their parent exists.
        for orphan in self._orphans.pop(digest, []):
            self._on_proposal(orphan)

    def _extends(self, node: HSNode, ancestor_digest: bytes) -> bool:
        if ancestor_digest == GENESIS_DIGEST:
            return True
        cursor = node.parent_digest
        while cursor != GENESIS_DIGEST:
            if cursor == ancestor_digest:
                return True
            parent = self._nodes.get(cursor)
            if parent is None:
                return False
            cursor = parent.parent_digest
        return False

    def _apply_chain_rules(self, node: HSNode) -> None:
        """Two-chain lock, three-chain commit (consecutive views)."""
        b1 = self._nodes.get(node.justify.node_digest)
        if b1 is None:
            return
        b2 = self._nodes.get(b1.justify.node_digest)
        if b2 is not None and b1.justify.view > self.locked_qc.view:
            self.locked_qc = b1.justify  # lock on b2
        if b2 is None:
            return
        b3 = self._nodes.get(b2.justify.node_digest)
        if b3 is None:
            return
        if b1.view == b2.view + 1 == b3.view + 2:
            self._commit_through(b3)

    def _commit_through(self, node: HSNode) -> None:
        chain = self._node_chain(node.digest)
        for entry in chain:
            if entry.height > self.k_max:
                self.commit_batch(entry.batch)
        self._last_progress = self.sim.now

    def _accept_vote(self, vote: Vote) -> None:
        self._ingest_vote(vote)
        if self.leader_of(vote.view + 1) != self.index:
            return
        if (vote.view, vote.digest) in self._formed_qcs:
            self.cur_view = max(self.cur_view, vote.view + 1)
            self._propose(vote.view + 1)

    def _ingest_vote(self, vote: Vote) -> None:
        """Store a vote and form the QC once a quorum exists.

        QC formation is permissionless (it is just aggregation), so a later
        leader can assemble a QC from votes relayed in NewView messages
        even when the original next-leader crashed.
        """
        key = (vote.view, vote.digest)
        shares = self._votes.setdefault(key, {})
        shares[vote.voter] = vote.share
        if len(shares) < self.quorum or key in self._formed_qcs:
            return
        signed = vote_message("hotstuff", "generic", vote.view, vote.height, vote.digest)
        aggregate = self.keys.combine_notary(signed, list(shares.values()))
        qc = QC(view=vote.view, height=vote.height, node_digest=vote.digest, aggregate=aggregate)
        self._formed_qcs.add(key)
        self._update_high_qc(qc)

    def _update_high_qc(self, qc: QC) -> None:
        if qc.view > self.high_qc.view:
            self.high_qc = qc

    def _on_new_view(self, message: NewView) -> None:
        if self.leader_of(message.view) != self.index:
            return
        if message.last_vote is not None and self.vote_is_valid(message.last_vote):
            self._ingest_vote(message.last_vote)
        self._update_high_qc(message.high_qc)
        table = self._new_views.setdefault(message.view, {})
        table[message.voter] = message.high_qc
        if len(table) >= self.quorum:
            self.cur_view = max(self.cur_view, message.view)
            self._propose(message.view)
