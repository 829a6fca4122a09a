"""Protocol ICC2 — block dissemination via erasure-coded reliable broadcast.

Same consensus skeleton as ICC0/ICC1; the difference (Section 1.1) is that
"instead of relying on a peer-to-peer gossip sub-layer to efficiently
disseminate large blocks, it instead makes use of a subprotocol based on
erasure codes to do so".

* A proposer *disperses* its serialized block through
  :class:`repro.rbc.RbcEndpoint` instead of broadcasting the body.
* Small artifacts (authenticators, shares, notarizations, finalizations,
  beacon shares) are broadcast as in ICC0 — they are λ-sized and never the
  bottleneck.
* The echo step of clause (c) re-disperses a block only if the party never
  saw it travel through an RBC instance (defends against a corrupt
  proposer bypassing the RBC and handing the block to a subset directly);
  otherwise the RBC's own totality (fill phase) already guarantees
  delivery to everyone.

Cost model (paper, Section 1): per-party bits per round O(S) once
S = Ω(n·λ·log n); reciprocal throughput 3δ, latency 4δ — one δ more than
ICC0/ICC1, paid for removing the leader bottleneck without a gossip layer.
"""

from __future__ import annotations

from ..obs import short_id
from ..rbc.protocol import RbcEndpoint, RbcMessage
from .icc0 import ICC0Party
from .messages import Authenticator, Block, Notarization
from .serialize import DeserializeError, deserialize_block, serialize_block


class ICC2Party(ICC0Party):
    """ICC0 logic with reliable-broadcast block dissemination."""

    protocol_name = "ICC2"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rbc = RbcEndpoint(
            index=self.index,
            n=self.params.n,
            t=self.params.t,
            network=self.network,
            deliver=self._on_rbc_deliver,
        )
        self._rbc_handled: set[bytes] = set()  # block hashes seen through RBC

    # -- substrate overrides -------------------------------------------------

    def _disseminate_block(
        self,
        block: Block,
        auth: Authenticator | None,
        parent_notarization: Notarization | None,
    ) -> None:
        if block.hash not in self._rbc_handled:
            self._rbc_handled.add(block.hash)
            data = serialize_block(block)
            if self.tracer.enabled:
                self._trace(
                    "rbc.disperse", round=block.round,
                    block=short_id(block.hash), bytes=len(data),
                )
            self.rbc.disperse(data)
        if auth is not None:
            self._broadcast(auth)
        if parent_notarization is not None:
            self._broadcast(parent_notarization)

    def on_receive(self, message: object) -> None:
        if isinstance(message, RbcMessage):
            self.rbc.on_message(message)
            return
        super().on_receive(message)

    def _on_rbc_deliver(self, dealer: int, root: bytes, data: bytes) -> None:
        """A reliable-broadcast instance completed: recover the block."""
        try:
            block = deserialize_block(data)
        except DeserializeError:
            self.metrics.count("rbc-undecodable-blocks")
            if self.tracer.enabled:
                self._trace("rbc.undecodable", round=None, dealer=dealer)
            return
        if self.tracer.enabled:
            self._trace(
                "rbc.deliver", round=block.round, dealer=dealer, bytes=len(data)
            )
        self._rbc_handled.add(block.hash)
        self._admit(block)
