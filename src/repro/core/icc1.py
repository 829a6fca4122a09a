"""Protocol ICC1 — ICC0 integrated with the peer-to-peer gossip sub-layer.

The consensus logic is *identical* to ICC0 (the paper: ICC1 "is only
slightly more involved than ICC0", and "the logic of the protocol can be
easily understood independent of this sub-layer").  What changes is the
communication substrate:

* every "broadcast" becomes a gossip *publish* — small artifacts are pushed
  along the overlay, blocks are advertised by hash and pulled at most once
  per peer;
* nothing echoes: a party never passes an artifact or its advert to a
  neighbour it knows holds it (the one it came from, or one that advertised
  it), so at degree d it sends each artifact to at most d − 1 neighbours;
* block *echo* in clause (c) is cheap: a party that already holds the block
  sends nothing more, so no duplicate block bodies cross any link — this is
  how ICC1 "coordinates well with the peer-to-peer gossip sub-layer"
  (Section 1).

The observable effect (experiment E7): the leader's per-round egress for a
block of size S drops from (n-1)·S to degree·S, removing the bottleneck
that all leader-based protocols must address.
"""

from __future__ import annotations

from ..gossip.protocol import GossipNode
from .icc0 import ICC0Party
from .messages import Authenticator, Block, Notarization


class ICC1Party(ICC0Party):
    """ICC0 logic over a gossip sub-layer."""

    protocol_name = "ICC1"

    def __init__(self, *, overlay: dict[int, list[int]], **kwargs) -> None:
        super().__init__(**kwargs)
        self.gossip = GossipNode(
            self.index, self.network, overlay[self.index], self._on_gossip_artifact
        )

    # -- substrate overrides -------------------------------------------------

    def _broadcast(self, message: object) -> None:
        """All ICC1 communication rides the gossip sub-layer."""
        self.gossip.publish(message)

    def _disseminate_block(
        self,
        block: Block,
        auth: Authenticator | None,
        parent_notarization: Notarization | None,
    ) -> None:
        self.gossip.publish(block)
        if auth is not None:
            self.gossip.publish(auth)
        if parent_notarization is not None:
            self.gossip.publish(parent_notarization)

    def on_receive(self, message: object) -> None:
        """Network ingress: gossip wire messages go to the gossip node."""
        if self.gossip.on_network(message):
            return
        super().on_receive(message)

    def _on_gossip_artifact(self, artifact: object) -> None:
        """An artifact fully received via gossip enters the pool."""
        if self._admit(artifact) and self.tracer.enabled:
            self._trace(
                "icc.artifact.gossip",
                round=getattr(artifact, "round", None),
                artifact=type(artifact).__name__,
            )
