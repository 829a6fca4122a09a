"""The peer-to-peer gossip sub-layer (advertise / request / deliver).

This is the dissemination mechanism Protocol ICC1 integrates with
(Section 1: "Protocol ICC1 is designed to be integrated with a peer-to-peer
gossip sub-layer, which reduces the bottleneck created at the leader for
disseminating large blocks").  It follows the Internet Computer's design:

* **small artifacts** (signature shares, notarizations, beacon shares) are
  *pushed*: flooded to overlay neighbours, with a seen-set stopping loops;
* **large artifacts** (blocks) are *advertised by hash*: a node sends an
  advert to its neighbours; a neighbour missing the artifact requests the
  body from one advertiser, re-requesting from another advertiser on
  timeout (so a corrupt advertiser cannot suppress delivery).

Every body, pushed or requested, must hash to the artifact id it travels
under; one that does not is dropped unforwarded, so a mislabelled copy
cannot take the real artifact's place in the seen-set.

**No echoes.**  Every wire message names its ``sender``, and a node never
sends an artifact or its advert to a neighbour it knows holds it: the one
that pushed or delivered it, and every neighbour that advertised it first.
So at degree d a party passes each artifact it receives to at most d − 1
neighbours, not d.  A message whose ``sender`` is not a neighbour is
dropped and counted (``gossip-foreign-sender``), so a peer cannot aim a
reply at a stranger.

The overlay graph comes from :mod:`repro.gossip.overlay`.  The gossip layer
reduces the *leader's* egress for a block of size S from (n-1)·S to d·S;
total network traffic stays O(n·S) but the bottleneck [35] moves away from
the proposer — exactly the effect experiment E7 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..crypto.hashing import DIGEST_SIZE, tagged_hash
from ..obs import short_id
from ..sim.network import Network, wire_size as artifact_wire_size
from ..core import messages as msg


#: The id of each artifact kind, by exact type: one dict lookup per call.
_IDS: dict[type, Callable[[object], bytes]] = {
    msg.Block: lambda a: tagged_hash("gossip/id/block", a.hash),
    msg.Authenticator: lambda a: tagged_hash("gossip/id/auth", a.block_hash),
    msg.Notarization: lambda a: tagged_hash("gossip/id/notarization", a.block_hash),
    msg.Finalization: lambda a: tagged_hash("gossip/id/finalization", a.block_hash),
    msg.NotarizationShare: lambda a: tagged_hash(
        "gossip/id/notar-share", a.block_hash, a.signer.to_bytes(4, "big")
    ),
    msg.FinalizationShare: lambda a: tagged_hash(
        "gossip/id/final-share", a.block_hash, a.signer.to_bytes(4, "big")
    ),
    msg.BeaconShare: lambda a: tagged_hash(
        "gossip/id/beacon-share", a.round.to_bytes(8, "big"), a.signer.to_bytes(4, "big")
    ),
}


def artifact_id(artifact: object) -> bytes:
    """Content-derived identity used for gossip dedup.

    Semantically-equivalent artifacts (e.g. two notarizations of the same
    block combined from different share subsets) share an id, so the gossip
    layer never transports redundant aggregates.  Dispatch is on the exact
    type (:data:`_IDS`), as the pool's is.
    """
    identify = _IDS.get(type(artifact))
    if identify is None:
        raise TypeError(f"no gossip identity for {type(artifact).__name__}")
    return identify(artifact)


# -- gossip wire messages: each names the party that sent it ----------------


@dataclass(frozen=True)
class Advert:
    """'I have artifact <id> of <size> bytes' — sent to neighbours."""

    artifact_id: bytes
    size: int
    sender: int

    kind = "gossip-advert"

    def wire_size(self) -> int:
        return DIGEST_SIZE + 8 + 4


@dataclass(frozen=True)
class ArtifactRequest:
    """'Please send me artifact <id>' — sent to one advertiser."""

    artifact_id: bytes
    sender: int

    kind = "gossip-request"

    def wire_size(self) -> int:
        return DIGEST_SIZE + 4


@dataclass(frozen=True)
class ArtifactDelivery:
    """The artifact body, in response to a request.  ``wire_size`` leaves
    out the sender, which a real link knows from its connection."""

    artifact_id: bytes
    artifact: object = field(compare=False)
    sender: int

    @property
    def kind(self) -> str:
        inner = getattr(self.artifact, "kind", type(self.artifact).__name__)
        return f"gossip-body:{inner}"

    def wire_size(self) -> int:
        return DIGEST_SIZE + artifact_wire_size(self.artifact)


@dataclass(frozen=True)
class Push(ArtifactDelivery):
    """A small artifact flooded directly (no advert round-trip)."""

    @property
    def kind(self) -> str:
        inner = getattr(self.artifact, "kind", type(self.artifact).__name__)
        return f"gossip-push:{inner}"


GOSSIP_MESSAGE_TYPES = (Advert, ArtifactRequest, ArtifactDelivery, Push)

PUSH_THRESHOLD = 1024  # artifacts of at most this many bytes are pushed
REQUEST_TIMEOUT = 1.0  # ask the next advertiser after this long
MAX_REQUEST_CYCLES = 25  # give up after this many sweeps (a fresh advert re-arms)


class GossipNode:
    """One party's endpoint of the gossip sub-layer."""

    def __init__(
        self, index: int, network: Network, neighbors: list[int],
        deliver: Callable[[object], None],
    ) -> None:
        self.index = index
        self.network = network
        self.sim = network.sim
        self.tracer = network.sim.tracer
        self.neighbors = list(neighbors)
        self._neighbor_set = frozenset(neighbors)
        self.deliver = deliver
        self._have: dict[bytes, object] = {}
        self._advertisers: dict[bytes, list[int]] = {}
        self._requested: dict[bytes, set[int]] = {}
        self._retry_cycles: dict[bytes, int] = {}

    # -- local origin -----------------------------------------------------------

    def publish(self, artifact: object) -> None:
        """Inject a locally-created artifact into the gossip network."""
        aid = artifact_id(artifact)
        if aid in self._have:
            return
        holders = self._hold(aid, artifact)
        if self.tracer.enabled:
            size = artifact_wire_size(artifact)
            self.tracer.emit(
                time=self.sim.now, party=self.index, protocol="gossip",
                round=getattr(artifact, "round", None), kind="gossip.publish",
                payload={
                    "id": short_id(aid),
                    "kind": getattr(artifact, "kind", type(artifact).__name__),
                    "bytes": size,
                    "push": size <= PUSH_THRESHOLD,
                },
            )
        self._propagate(aid, artifact, holders)

    def _hold(self, aid: bytes, artifact: object) -> list[int]:
        """Keep a newly obtained artifact, drop its pending-request state,
        and return the neighbours that advertised it (they hold it)."""
        self._have[aid] = artifact
        self._requested.pop(aid, None)
        self._retry_cycles.pop(aid, None)
        return self._advertisers.pop(aid, [])

    def _propagate(self, aid: bytes, artifact: object, holders: list[int]) -> None:
        """Pass an artifact on to every neighbour not in ``holders``."""
        targets = [p for p in self.neighbors if p not in holders]
        if not targets:
            return
        size = artifact_wire_size(artifact)
        if size <= PUSH_THRESHOLD:
            message = Push(aid, artifact, self.index)
        else:
            message = Advert(aid, size, self.index)
        self.network.multicast(self.index, targets, message)

    # -- network ingress ----------------------------------------------------------

    def on_network(self, message: object) -> bool:
        """Handle a gossip wire message; returns False if not one.  One
        whose sender is not a neighbour is dropped and counted."""
        handler = _HANDLERS.get(type(message))
        if handler is None:
            return False
        if message.sender in self._neighbor_set:
            handler(self, message)
        else:
            self.network.metrics.count("gossip-foreign-sender")
        return True

    def _on_carrier(self, message: ArtifactDelivery) -> None:
        """A pushed or delivered body: the first copy whose id checks out is
        delivered and passed on to every neighbour but the sender and the
        advertisers."""
        aid, artifact = message.artifact_id, message.artifact
        if aid in self._have:
            return
        if artifact_id(artifact) != aid:
            return  # a body that is not what it claims; a request's retries continue
        pushed = type(message) is Push
        holders = self._hold(aid, artifact)
        holders.append(message.sender)
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.sim.now, party=self.index, protocol="gossip",
                round=getattr(artifact, "round", None), kind="gossip.deliver",
                payload={
                    "id": short_id(aid),
                    "kind": getattr(artifact, "kind", type(artifact).__name__),
                    "bytes": artifact_wire_size(artifact),
                    "via": "push" if pushed else "request",
                },
            )
        self.deliver(artifact)
        self._propagate(aid, artifact, holders)

    def _on_advert(self, advert: Advert) -> None:
        aid = advert.artifact_id
        if aid in self._have:
            return
        advertisers = self._advertisers.setdefault(aid, [])
        if advert.sender not in advertisers:
            advertisers.append(advert.sender)
        if aid not in self._requested:
            self._request_from_next(aid)

    def _request_from_next(self, aid: bytes) -> None:
        if aid in self._have:
            return
        asked = self._requested.setdefault(aid, set())
        candidates = [p for p in self._advertisers.get(aid, []) if p not in asked]
        if not candidates:
            # Every known advertiser was tried; allow a fresh cycle so an
            # eventually-responsive peer is retried (eventual delivery).
            cycles = self._retry_cycles.get(aid, 0) + 1
            self._retry_cycles[aid] = cycles
            if cycles > MAX_REQUEST_CYCLES:
                # Stop burning events; a fresh advert re-arms the request.
                self._requested.pop(aid, None)
                if self.tracer.enabled:
                    self.tracer.emit(
                        time=self.sim.now, party=self.index, protocol="gossip",
                        round=None, kind="gossip.giveup",
                        payload={"id": short_id(aid), "cycles": cycles},
                    )
                return
            asked.clear()
            candidates = list(self._advertisers.get(aid, []))
            if not candidates:
                return
        target = candidates[0]
        asked.add(target)
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.sim.now, party=self.index, protocol="gossip",
                round=None, kind="gossip.request",
                payload={"id": short_id(aid), "target": target,
                         "cycle": self._retry_cycles.get(aid, 0)},
            )
        self.network.send(self.index, target, ArtifactRequest(aid, self.index))
        self.sim.schedule(REQUEST_TIMEOUT, lambda: self._request_from_next(aid))

    def _on_request(self, request: ArtifactRequest) -> None:
        artifact = self._have.get(request.artifact_id)
        if artifact is None:
            return  # we don't have it (yet); requester will retry elsewhere
        self.network.send(
            self.index, request.sender,
            ArtifactDelivery(request.artifact_id, artifact, self.index),
        )


_HANDLERS = {
    Push: GossipNode._on_carrier,
    ArtifactDelivery: GossipNode._on_carrier,
    Advert: GossipNode._on_advert,
    ArtifactRequest: GossipNode._on_request,
}
