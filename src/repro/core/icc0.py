"""Protocol ICC0 — Figures 1 and 2 of the paper, line by line.

An :class:`ICC0Party` runs two concurrent subprotocols:

* the **Tree-Building subprotocol** (Figure 1): per round, wait for the
  beacon, then repeatedly fire whichever of clauses (a)/(b)/(c) is enabled
  until the round is *done* (a notarized block for the round exists);
* the **Finalization subprotocol** (Figure 2): watch all rounds for
  finalized blocks (or combinable finalization-share sets) and commit the
  chain up to them.

The paper's blocking ``wait for`` loops are realised as an event-driven
state machine: :meth:`_progress` re-evaluates all enabled clauses whenever
(i) a message enters the pool or (ii) a scheduled timer (a Δprop/Δntry
boundary) fires.  Every clause below carries a comment naming the clause of
Figure 1 / Figure 2 it implements.

Dissemination of blocks is funnelled through ``_disseminate_block`` so that
ICC1 (gossip sub-layer) and ICC2 (erasure-coded reliable broadcast) can
override just that aspect — the consensus logic is shared.
"""

from __future__ import annotations

import copy
from typing import Callable

from ..crypto.keyring import Keyring
from ..obs import short_id
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.simulator import Simulation
from . import messages as msg
from .beacon import RankAssignment, permutation_from_beacon, trace_rank_assignment
from .messages import (
    Authenticator,
    BeaconShare,
    Block,
    EMPTY_PAYLOAD,
    Finalization,
    FinalizationShare,
    Notarization,
    NotarizationShare,
    Payload,
    ROOT_HASH,
)
from .params import ProtocolParams
from .pool import MessagePool

#: Builds a payload for a proposal: f(party, round, parent_chain) -> Payload.
PayloadSource = Callable[["ICC0Party", int, list[Block]], Payload]


def empty_payload_source(party: "ICC0Party", round: int, chain: list[Block]) -> Payload:
    """Default getPayload: empty blocks (the paper's 'without load' scenario)."""
    return EMPTY_PAYLOAD


class SafetyViolation(AssertionError):
    """Raised when a party observes two incompatible committed chains.

    This never fires when at most t < n/3 parties are corrupt (the paper's
    Safety lemma); tests use it to detect protocol bugs, and
    beyond-threshold experiments use it to demonstrate the bound is tight.
    """


class ICC0Party:
    """One party P_α running Protocol ICC0."""

    protocol_name = "ICC0"

    def __init__(
        self,
        index: int,
        keyring: Keyring,
        params: ProtocolParams,
        sim: Simulation,
        network: Network,
        payload_source: PayloadSource = empty_payload_source,
    ) -> None:
        self.index = index
        self.keys = keyring
        self.params = params
        # Delay functions are per-party state: the adaptive-Δbnd variant
        # maintains a *local* estimate, so each party gets its own copy.
        self.delays = copy.copy(params.delays)
        self.sim = sim
        self.network = network
        self.metrics: Metrics = network.metrics
        #: Cached trace sink — install a Tracer on the Simulation *before*
        #: constructing parties (build_cluster does; see repro.obs).
        self.tracer = sim.tracer
        self.payload_source = payload_source
        self.pool = MessagePool(keyring)
        self.pool.bind_tracing(self.tracer, sim, index, self.protocol_name)

        # Tree-Building state (Figure 1).
        self.round = 0  # current round k; 0 = not yet started
        self.waiting_beacon = True
        self.round_start = 0.0  # t0
        self.proposed = False
        self.notar_shared: dict[bytes, int] = {}  # N: block hash -> rank
        self.disqualified: set[int] = set()  # D
        self.ranks: RankAssignment | None = None
        self.my_rank = -1
        self._echoed: set[bytes] = set()
        self._wakes_scheduled: set[float] = set()
        self._beacon_computed = 0  # highest k with known R_k
        self._beacon_shared = 0  # highest k whose share we've broadcast
        self._stopped = False

        # Finalization state (Figure 2).
        self.k_max = 0
        self.output_log: list[Block] = []  # committed blocks, in order
        self._committed_tip = ROOT_HASH
        #: Called with each newly committed block, in commit order (used by
        #: the replicated-state-machine layer and by workload dedup).
        self.commit_listeners: list[Callable[[Block], None]] = []

    # ------------------------------------------------------------------ wiring

    def start(self) -> None:
        """Initialise: broadcast a share of the round-1 random beacon."""
        self._share_beacon(1)
        self.round = 1
        self.waiting_beacon = True
        self._progress()

    def on_receive(self, message: object) -> None:
        """Network delivery: add to the pool, then re-evaluate the protocol."""
        if self.pool.add(message):
            self._progress()

    def _wake(self) -> None:
        self._progress()

    def _trace(self, kind: str, round: int | None = None, **payload) -> None:
        """Emit one trace event; callers guard with ``self.tracer.enabled``."""
        self.tracer.emit(
            time=self.sim.now,
            party=self.index,
            protocol=self.protocol_name,
            round=self.round if round is None else round,
            kind=kind,
            payload=payload,
        )

    # -------------------------------------------------------------- dissemination

    def _broadcast(self, message: object) -> None:
        self.network.broadcast(self.index, message, round=self.round)

    def _disseminate_block(
        self,
        block: Block,
        auth: Authenticator | None,
        parent_notarization: Notarization | None,
    ) -> None:
        """Send a block plus its supporting artifacts to everyone.

        ICC0 simply broadcasts all three ("broadcast B, B's authenticator,
        and the notarization for B's parent").  ICC1/ICC2 override this.
        """
        self._broadcast(block)
        if auth is not None:
            self._broadcast(auth)
        if parent_notarization is not None:
            self._broadcast(parent_notarization)

    # ------------------------------------------------------------------- beacon

    def _share_beacon(self, round: int) -> None:
        """Broadcast our threshold share of the round-``round`` beacon."""
        if self._beacon_shared >= round:
            return
        previous = self.pool.beacon_value(round - 1)
        if previous is None:  # pragma: no cover - callers guarantee this
            raise RuntimeError("cannot share a beacon without the previous value")
        share = self.keys.sign_beacon_share(msg.beacon_message(round, previous))
        self._beacon_shared = round
        beacon_share = BeaconShare(round=round, signer=self.index, share=share)
        self.pool.add(beacon_share)
        self._broadcast(beacon_share)

    def _advance_beacons(self) -> None:
        """Combine t+1 shares into R_k for every round we can (pipelined)."""
        while True:
            k = self._beacon_computed + 1
            if self.pool.beacon_share_count(k) < self.params.beacon_quorum:
                return
            previous = self.pool.beacon_value(k - 1)
            shares = [s.share for s in self.pool.beacon_shares_for(k)]
            combined = self.keys.combine_beacon(msg.beacon_message(k, previous), shares)
            value = self.keys.beacon_value(combined)
            self.pool.set_beacon_value(k, value)
            self._beacon_computed = k
            self.metrics.count("beacons-computed")
            if self.tracer.enabled:
                self._trace("icc.beacon.computed", round=k)

    # ------------------------------------------------------------ the main loop

    def _progress(self) -> None:
        """Re-evaluate every enabled clause until quiescent."""
        if self._stopped:
            self._run_finalization_watcher()
            return
        for _ in range(10_000):  # defensive bound; each iteration must make progress
            self._advance_beacons()
            if self._stopped:  # max_rounds reached while looping
                self._run_finalization_watcher()
                return
            changed = False
            if self.waiting_beacon:
                # "wait for t+1 shares of the round-k random beacon"
                if self.pool.beacon_value(self.round) is not None:
                    self._enter_round()
                    changed = True
            else:
                changed |= self._clause_a_finish_round()
                if not self.waiting_beacon and not self._stopped:
                    changed |= self._clause_b_propose()
                    changed |= self._clause_c_echo_and_share()
            changed |= self._run_finalization_watcher()
            if not changed:
                return
        raise RuntimeError("ICC0 _progress failed to quiesce (protocol bug)")

    def _enter_round(self) -> None:
        """Round preliminaries: permutation, beacon pipelining, timers."""
        k = self.round
        if self.params.max_rounds is not None and k > self.params.max_rounds:
            self._stopped = True
            return
        value = self.pool.beacon_value(k)
        self.ranks = permutation_from_beacon(k, value, self.params.n)
        self.my_rank = self.ranks.rank_of(self.index)
        # Pipelining: "broadcast a share of the random beacon for round k+1".
        self._share_beacon(k + 1)
        self.waiting_beacon = False
        self.round_start = self.sim.now  # t0 <- clock()
        self.proposed = False
        self.notar_shared = {}
        self.disqualified = set()
        self._echoed = set()
        self._wakes_scheduled = set()
        self.metrics.on_round_entry(self.index, k, self.sim.now)
        if self.tracer.enabled:
            self._trace("icc.round.enter", round=k, rank=self.my_rank)
            trace_rank_assignment(
                self.tracer, time=self.sim.now, party=self.index,
                protocol=self.protocol_name, assignment=self.ranks,
            )
        # Timer for our own proposal delay; Δntry wakes are scheduled lazily
        # when candidate blocks actually appear (see _schedule_wake).
        self._schedule_wake(self.round_start + self.delays.prop(self.my_rank))

    def _schedule_wake(self, at: float) -> None:
        if at <= self.sim.now or at in self._wakes_scheduled:
            return
        self._wakes_scheduled.add(at)
        self.sim.schedule_at(at, self._wake)

    # -- clause (a): finish the round -----------------------------------------

    def _clause_a_finish_round(self) -> bool:
        """Figure 1 (a): a notarized round-k block, or a combinable share set."""
        k = self.round
        quorum = self.params.notarization_quorum
        notarization: Notarization | None = None
        block: Block | None = None

        combined_here = False
        already = self.pool.notarized_blocks(k)
        if already:
            block = min(already, key=lambda b: b.hash)
            notarization = self.pool.notarization_of(block.hash)
        else:
            candidate = self.pool.combinable_notarization(k, quorum)
            if candidate is not None:
                # "combine the notarization shares into a notarization"
                signed = msg.notarization_message(k, candidate.proposer, candidate.hash)
                shares = [s.share for s in self.pool.notar_shares(candidate.hash)]
                aggregate = self.keys.combine_notary(signed, shares)
                notarization = Notarization(
                    round=k,
                    proposer=candidate.proposer,
                    block_hash=candidate.hash,
                    aggregate=aggregate,
                )
                self.pool.add(notarization)
                block = candidate
                combined_here = True
                self.metrics.count("notarizations-combined")
        if block is None or notarization is None:
            return False
        if self.tracer.enabled:
            self._trace(
                "icc.round.done", round=k, block=short_id(block.hash),
                combined=combined_here, supported=len(self.notar_shared),
            )

        # "broadcast the notarization for B"
        self._broadcast(notarization)
        # "if N ⊆ {B} then broadcast a finalization share for B"
        if set(self.notar_shared) <= {block.hash}:
            self._send_finalization_share(block)

        # Feed the adaptive-Δbnd variant (Section 1: the protocol "can be
        # modified to adaptively adjust to an unknown communication-delay
        # bound").  The local congestion signal: supporting more than one
        # block this round means Δntry(1) elapsed before the best proposal
        # arrived — the delay estimate is too small.  A clean round (N has
        # at most one block) lets the estimate decay.
        feedback = getattr(self.delays, "on_round_result", None)
        if feedback is not None:
            feedback(len(self.notar_shared) <= 1)

        # done <- true: move on to round k+1.
        self.round = k + 1
        self.waiting_beacon = True
        self.metrics.count("rounds-finished")
        return True

    def _send_finalization_share(self, block: Block) -> None:
        """Broadcast our S_final share on ``block`` (overridable seam)."""
        signed = msg.finalization_message(block.round, block.proposer, block.hash)
        share = self.keys.sign_final_share(signed)
        fshare = FinalizationShare(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signer=self.index,
            share=share,
        )
        self.pool.add(fshare)
        self._broadcast(fshare)
        self.metrics.count("finalization-shares-sent")
        if self.tracer.enabled:
            self._trace(
                "icc.share.finalization", round=block.round, block=short_id(block.hash)
            )

    # -- clause (b): propose a block ------------------------------------------

    def _clause_b_propose(self) -> bool:
        """Figure 1 (b): propose once clock() >= t0 + Δprop(r_me)."""
        k = self.round
        if self.proposed:
            return False
        if self.sim.now < self.round_start + self.delays.prop(self.my_rank):
            return False
        parents = self.pool.notarized_blocks(k - 1)
        if not parents:  # pragma: no cover - previous round guarantees one
            return False
        # "choose a notarized round-(k-1) block Bp" — any one; we take the
        # smallest hash for determinism.
        parent = min(parents, key=lambda b: b.hash)
        # The available ancestry (chain_suffix tolerates pruned prefixes;
        # dedup against pruned rounds is the mempool's job, since those
        # commands are already committed).
        chain = self.pool.chain_suffix(parent.hash)
        payload = self._make_payload(k, chain)
        block = Block(round=k, proposer=self.index, parent_hash=parent.hash, payload=payload)
        signed = msg.authenticator_message(k, self.index, block.hash)
        auth = Authenticator(
            round=k, proposer=self.index, block_hash=block.hash,
            signature=self.keys.sign_auth(signed),
        )
        self.pool.add(block)
        self.pool.add(auth)
        parent_notz = self.pool.notarization_of(parent.hash) if k > 1 else None
        self._disseminate_block(block, auth, parent_notz)
        self.metrics.proposed_at.setdefault(block.hash, self.sim.now)
        self.metrics.count("blocks-proposed")
        if self.my_rank == 0:
            self.metrics.count("leader-proposals")
        if self.tracer.enabled:
            self._trace(
                "icc.block.proposed", round=k, block=short_id(block.hash),
                parent=short_id(parent.hash), payload_bytes=payload.wire_size(),
                rank=self.my_rank,
            )
        self.proposed = True
        return True

    def _make_payload(self, round: int, chain: list[Block]) -> Payload:
        """getPayload(Bp) — overridable seam; default asks the payload source."""
        return self.payload_source(self, round, chain)

    # -- clause (c): echo / notarization-share / disqualify --------------------

    def _block_rank(self, block: Block) -> int:
        return self.ranks.rank_of(block.proposer)

    def _clause_c_echo_and_share(self) -> bool:
        """Figure 1 (c): support the best (lowest-rank, non-disqualified)
        valid block once its Δntry has elapsed."""
        k = self.round
        valid = self.pool.valid_blocks(k)
        if not valid:
            return False
        ranked = sorted(
            ((self._block_rank(b), b) for b in valid),
            key=lambda rb: (rb[0], rb[1].hash),
        )
        candidates = [(r, b) for r, b in ranked if r not in self.disqualified]
        if not candidates:
            return False
        min_rank = candidates[0][0]
        changed = False
        for rank, block in candidates:
            if rank != min_rank:
                break  # a better (lower-rank, non-disqualified) block exists
            if block.hash in self.notar_shared:
                continue  # B ∈ N
            ntry_at = self.round_start + self.delays.ntry(rank)
            if self.sim.now < ntry_at:
                self._schedule_wake(ntry_at)
                continue
            self._support_block(rank, block)
            changed = True
            if rank in self.disqualified:
                break  # D changed; recompute candidates on the next pass
        return changed

    def _support_block(self, rank: int, block: Block) -> None:
        """The body of clause (c) for one firing block."""
        k = self.round
        # "if r != r_me then broadcast B, B's authenticator, and the
        # notarization for B's parent"  (the echo)
        if rank != self.my_rank and block.hash not in self._echoed:
            self._echoed.add(block.hash)
            auth = self.pool.authenticator_of(block.hash)
            parent_notz = (
                self.pool.notarization_of(block.parent_hash) if k > 1 else None
            )
            self._disseminate_block(block, auth, parent_notz)
            self.metrics.count("blocks-echoed")
            if self.tracer.enabled:
                self._trace(
                    "icc.block.echoed", round=k, block=short_id(block.hash), rank=rank
                )
        # "if some block in N has rank r then D <- D ∪ {r}
        #  else N <- N ∪ {B}, broadcast a notarization share for B"
        if rank in self.notar_shared.values():
            self.disqualified.add(rank)
            self.metrics.count("ranks-disqualified")
            if self.tracer.enabled:
                self._trace("icc.rank.disqualified", round=k, rank=rank)
        else:
            self.notar_shared[block.hash] = rank
            self._send_notarization_share(block)

    def _send_notarization_share(self, block: Block) -> None:
        """Broadcast our S_notary share on ``block`` (overridable seam)."""
        signed = msg.notarization_message(block.round, block.proposer, block.hash)
        share = self.keys.sign_notary_share(signed)
        nshare = NotarizationShare(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signer=self.index,
            share=share,
        )
        self.pool.add(nshare)
        self._broadcast(nshare)
        self.metrics.count("notarization-shares-sent")
        if self.tracer.enabled:
            # not_before: the instant clause (c) held this share to (delay
            # functions are per party, so no analysis can rebuild it).
            not_before = self.round_start + self.delays.ntry(self._block_rank(block))
            self._trace(
                "icc.share.notarization", round=block.round,
                block=short_id(block.hash), not_before=not_before,
            )

    # -- Figure 2: the Finalization subprotocol ---------------------------------

    def _run_finalization_watcher(self) -> bool:
        """One pass of Figure 2; returns True if anything committed."""
        quorum = self.params.finalization_quorum
        progressed = False
        while True:
            target: Block | None = None
            finalization: Finalization | None = None
            combined_here = False
            for k in self.pool.rounds_with_final_activity():
                if k <= self.k_max:  # Figure 2: "k > k_max"
                    continue
                done = self.pool.finalized_blocks(k)
                if done:
                    target = min(done, key=lambda b: b.hash)
                    finalization = self.pool.finalization_of(target.hash)
                    break
                candidate = self.pool.combinable_finalization(k, quorum)
                if candidate is not None:
                    # "combine the finalization shares into a finalization"
                    signed = msg.finalization_message(k, candidate.proposer, candidate.hash)
                    shares = [s.share for s in self.pool.final_shares(candidate.hash)]
                    aggregate = self.keys.combine_final(signed, shares)
                    finalization = Finalization(
                        round=k,
                        proposer=candidate.proposer,
                        block_hash=candidate.hash,
                        aggregate=aggregate,
                    )
                    self.pool.add(finalization)
                    target = candidate
                    combined_here = True
                    self.metrics.count("finalizations-combined")
                    break
            if target is None or finalization is None:
                return progressed
            if self.tracer.enabled:
                self._trace(
                    "icc.finalization", round=target.round,
                    block=short_id(target.hash), combined=combined_here,
                )
            # "broadcast the finalization for B"
            self._broadcast(finalization)
            self._commit_chain(target)
            progressed = True

    def _commit_chain(self, block: Block) -> None:
        """Output the payloads of the last k - k_max blocks ending at B.

        Walks back only to the previously committed tip (not the root), so
        ancestors below the tip may have been garbage-collected.
        """
        k = block.round
        segment: list[Block] = []
        cursor_hash = block.hash
        while cursor_hash != self._committed_tip:
            cursor = self.pool.blocks.get(cursor_hash)
            if cursor is None:
                raise SafetyViolation(
                    f"party {self.index}: finalized chain does not extend the "
                    f"committed prefix at round {self.k_max}"
                )
            segment.append(cursor)
            cursor_hash = cursor.parent_hash
        segment.reverse()
        # Safety invariant: exactly one block per round k_max+1 .. k.
        if [b.round for b in segment] != list(range(self.k_max + 1, k + 1)):
            raise SafetyViolation(
                f"party {self.index}: committed chain forked at round {self.k_max}"
            )
        for committed in segment:
            self.output_log.append(committed)
            for listener in self.commit_listeners:
                listener(committed)
            if self.tracer.enabled:
                self._trace(
                    "icc.block.committed", round=committed.round,
                    block=short_id(committed.hash), proposer=committed.proposer,
                    payload_bytes=committed.payload.wire_size(),
                )
            self.metrics.on_commit(
                time=self.sim.now,
                observer=self.index,
                round=committed.round,
                proposer=committed.proposer,
                payload_bytes=committed.payload.wire_size(),
                proposed_at=self.metrics.proposed_at.get(committed.hash, -1.0),
            )
        self._committed_tip = block.hash
        self.k_max = k
        self.pool.set_committed_floor(k)
        # Garbage collection (Section 3.1 notes real implementations prune;
        # laggards farther back than gc_depth need state transfer, which is
        # out of the protocol's scope).
        if self.params.gc_depth is not None:
            self.pool.prune(self.k_max - self.params.gc_depth)

    # ------------------------------------------------------------------- queries

    @property
    def committed_payloads(self) -> list[Payload]:
        return [b.payload for b in self.output_log]

    @property
    def committed_hashes(self) -> list[bytes]:
        return [b.hash for b in self.output_log]

    def output_commands(self) -> list[bytes]:
        """The atomic-broadcast output: all committed commands, in order."""
        return [c for b in self.output_log for c in b.payload.commands]
