"""Catch-up (state sync) for lagging parties.

The paper's PBFT critique (Section 1.1) highlights that "the details of
how these lagging parties catch up" matter: naive catch-up lets an
attacker multiply traffic.  The Internet Computer pairs consensus with a
state-sync protocol; this module implements the consensus-side equivalent
so that garbage collection (``ProtocolParams.gc_depth``) and long
partitions compose: a re-joining party cannot re-fetch pruned artifacts
one by one, so it *jumps* to a certified recent state.

Protocol:

* a party that observes protocol messages for rounds far ahead of its own
  broadcasts a (tiny, rate-limited) :class:`SyncRequest` carrying its
  committed round — the rate limit is exactly the defence against the
  traffic-multiplication attack above: one in-flight request per target
  round, with a cooldown;
* an up-to-date peer answers point-to-point with a :class:`SyncResponse`:
  the **beacon signature chain** from the requester's round (threshold
  signatures, ~48 bytes per round — verifiable sequentially since each
  R_k is signed relative to R_{k-1}), plus **round certificates** (block,
  authenticator, notarization) for its recent unpruned window, plus the
  **finalization** of its committed tip;
* the requester verifies everything against its keys: the beacon chain
  first, then the oldest certified block is installed as a *trusted
  anchor* (its notarization proves n-t parties vouched for it; ancestry
  below it was pruned network-wide), descendants validate normally, and
  the finalization lets it commit the tip — recording an explicit
  ``state_transfer_gaps`` entry for the rounds whose payloads it skipped
  (an SMR layer fetches the corresponding state snapshot; that transfer
  is application data, not consensus).

After the jump the party re-enters the ordinary protocol at the tip's
round and participates normally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import DIGEST_SIZE
from .icc0 import ICC0Party
from .messages import (
    Authenticator,
    Block,
    Finalization,
    Notarization,
    SIG_SIZE,
)


@dataclass(frozen=True)
class SyncRequest:
    """'I am at committed round ``committed_round``; help me catch up.'"""

    requester: int
    committed_round: int

    kind = "sync-request"

    def wire_size(self) -> int:
        return 4 + 8


@dataclass(frozen=True)
class BeaconLink:
    """One link of the beacon chain: the combined signature for a round."""

    round: int
    signature: object = field(compare=False)

    def wire_size(self) -> int:
        return 8 + SIG_SIZE


@dataclass(frozen=True)
class RoundCertificate:
    """A notarized block with its supporting artifacts."""

    block: Block
    authenticator: Authenticator = field(compare=False)
    notarization: Notarization = field(compare=False)

    def wire_size(self) -> int:
        return (
            self.block.wire_size()
            + self.authenticator.wire_size()
            + self.notarization.wire_size()
        )


@dataclass(frozen=True)
class SyncResponse:
    """Everything a laggard needs to jump to the responder's tip."""

    responder: int
    from_round: int  # the requester's committed round this extends
    beacon_chain: tuple[BeaconLink, ...]
    certificates: tuple[RoundCertificate, ...]  # ascending rounds
    finalization: Finalization = field(compare=False)

    kind = "sync-response"

    def wire_size(self) -> int:
        return (
            4
            + 8
            + sum(l.wire_size() for l in self.beacon_chain)
            + sum(c.wire_size() for c in self.certificates)
            + self.finalization.wire_size()
            + DIGEST_SIZE
        )


class CatchupMixin:
    """Catch-up behaviour, composable with any ICC party class.

    ``corrupt_class``-style composition works here too:
    ``type("X", (CatchupMixin, ICC1Party), {})`` yields a gossip party
    with state sync.  :class:`CatchupParty` is the ICC0 composition.
    """

    def __init__(
        self,
        *,
        lag_threshold: int = 5,
        request_cooldown: float = 2.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.lag_threshold = lag_threshold
        self.request_cooldown = request_cooldown
        self.state_transfer_gaps: list[tuple[int, int]] = []
        self._beacon_signatures: dict[int, object] = {}
        self._highest_round_seen = 0
        self._last_request_at = -1e9
        self._last_request_round = -1

    # -- retain beacon signatures so we can serve sync responses -------------

    def _combine_beacon(self, k: int) -> object:
        # Keep the combined signature (not the shares) for the sync
        # responder role.
        signature = self._beacon_signatures[k] = super()._combine_beacon(k)
        return signature

    # -- lag detection ----------------------------------------------------------

    def on_receive(self, message: object) -> None:
        if isinstance(message, SyncRequest):
            self._serve_sync(message)
            return
        if isinstance(message, SyncResponse):
            self._apply_sync(message)
            return
        self._note_round(message)
        super().on_receive(message)

    def _on_gossip_artifact(self, artifact: object) -> None:
        """ICC1 composition: artifacts arrive unwrapped via the gossip
        layer, so lag detection hooks here as well."""
        self._note_round(artifact)
        super()._on_gossip_artifact(artifact)

    def _note_round(self, message: object) -> None:
        observed = getattr(message, "round", None)
        if isinstance(observed, int):
            self._highest_round_seen = max(self._highest_round_seen, observed)
            if observed > self.round + self.lag_threshold:
                self._maybe_request_sync()

    def _maybe_request_sync(self) -> None:
        now = self.sim.now
        if now - self._last_request_at < self.request_cooldown:
            return
        if self._highest_round_seen <= self._last_request_round:
            return
        self._last_request_at = now
        self._last_request_round = self._highest_round_seen
        self.metrics.count("sync-requests")
        # Sync messages travel outside the gossip/RBC substrate (they are
        # addressed traffic, not consensus artifacts).
        self.network.broadcast(
            self.index, SyncRequest(requester=self.index, committed_round=self.k_max)
        )

    # -- responder side -----------------------------------------------------------

    def _serve_sync(self, request: SyncRequest) -> None:
        if request.requester == self.index:
            return
        if self.k_max <= request.committed_round:
            return  # nothing to offer
        beacon_chain = []
        for k in range(request.committed_round + 1, self._beacon_computed + 1):
            signature = self._beacon_signatures.get(k)
            if signature is None:
                return  # pruned beyond our ability to prove; another peer may serve
            beacon_chain.append(BeaconLink(round=k, signature=signature))
        certificates = []
        tip: Block | None = None
        for block in self.output_log:
            if block.round <= request.committed_round:
                continue
            auth = self.pool.authenticator_of(block.hash)
            notarization = self.pool.notarization_of(block.hash)
            if auth is None or notarization is None:
                certificates = []  # pruned: restart the window later
                continue
            certificates.append(
                RoundCertificate(block=block, authenticator=auth, notarization=notarization)
            )
            tip = block
        if tip is None or not certificates:
            return
        finalization = self.pool.finalization_of(tip.hash)
        if finalization is None:
            # Serve up to our last finalization-certified block instead.
            while certificates and self.pool.finalization_of(certificates[-1].block.hash) is None:
                certificates.pop()
            if not certificates:
                return
            tip = certificates[-1].block
            finalization = self.pool.finalization_of(tip.hash)
        self.metrics.count("sync-responses")
        self.network.send(
            self.index,
            request.requester,
            SyncResponse(
                responder=self.index,
                from_round=request.committed_round,
                beacon_chain=tuple(beacon_chain),
                certificates=tuple(certificates),
                finalization=finalization,
            ),
        )

    # -- requester side -------------------------------------------------------------

    def _apply_sync(self, response: SyncResponse) -> None:
        tip = response.certificates[-1].block if response.certificates else None
        if tip is None or tip.round <= self.k_max:
            return
        # 1. Verify and adopt the beacon chain sequentially.
        for link in response.beacon_chain:
            if link.round <= self._beacon_computed:
                continue  # R_k already known (or pruned with its round)
            previous = self.pool.beacon_value(link.round - 1)
            if previous is None:
                return  # chain does not connect to what we know; discard
            signed = self.pool.beacon_statement(link.round, previous)
            if not self.keys.verify_beacon(signed, link.signature):
                self.metrics.count("sync-bad-beacon")
                return
            self.pool.set_beacon_value(link.round, self.keys.beacon_value(link.signature))
            self._beacon_computed = max(self._beacon_computed, link.round)
            self._beacon_signatures[link.round] = link.signature
        # 2. Install the certified segment: the oldest block anchors on its
        #    notarization alone; descendants validate normally.
        anchored = False
        for certificate in response.certificates:
            block = certificate.block
            if self.pool.is_notarized(block.hash):
                anchored = True
                continue
            if not anchored:
                if not self.pool.install_anchor(
                    block, certificate.authenticator, certificate.notarization
                ):
                    self.metrics.count("sync-bad-anchor")
                    return
                anchored = True
            else:
                self.pool.add(block)
                self.pool.add(certificate.authenticator)
                self.pool.add(certificate.notarization)
        # 3. Jump-commit the finalized tip.
        signed = self.pool.finalization_statement(tip.round, tip.proposer, tip.hash)
        if response.finalization.block_hash != tip.hash or not self.keys.verify_final(
            signed, response.finalization.aggregate
        ):
            self.metrics.count("sync-bad-finalization")
            return
        self.pool.add(response.finalization)
        if response.certificates[0].block.round > self.k_max + 1:
            # Rounds between our tip and the anchor were pruned network-wide;
            # their payloads travel via application-level state transfer.
            self.state_transfer_gaps.append(
                (self.k_max + 1, response.certificates[0].block.round - 1)
            )
            self._jump_to(response.certificates[0].block)
        self.metrics.count("sync-applied")
        # 4. Resume the ordinary protocol at the new frontier.
        self._progress()
        if self.round <= tip.round:
            self.round = tip.round + 1
            self.waiting_beacon = True
            self._progress()

    def _jump_to(self, anchor: Block) -> None:
        """Adopt ``anchor`` as the new committed tip without its ancestry."""
        self.k_max = anchor.round - 1
        self._committed_tip = anchor.parent_hash
        self.pool.set_committed_floor(self.k_max)


class CatchupParty(CatchupMixin, ICC0Party):
    """ICC0 party with the catch-up subprotocol enabled."""

    protocol_name = "ICC0+catchup"