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


def artifact_id(artifact: object) -> bytes:
    """Content-derived identity used for gossip dedup.

    Semantically-equivalent artifacts (e.g. two notarizations of the same
    block combined from different share subsets) share an id, so the gossip
    layer never transports redundant aggregates.
    """
    if isinstance(artifact, msg.Block):
        return tagged_hash("gossip/id/block", artifact.hash)
    if isinstance(artifact, msg.Authenticator):
        return tagged_hash("gossip/id/auth", artifact.block_hash)
    if isinstance(artifact, msg.Notarization):
        return tagged_hash("gossip/id/notarization", artifact.block_hash)
    if isinstance(artifact, msg.Finalization):
        return tagged_hash("gossip/id/finalization", artifact.block_hash)
    if isinstance(artifact, msg.NotarizationShare):
        return tagged_hash(
            "gossip/id/notar-share", artifact.block_hash, artifact.signer.to_bytes(4, "big")
        )
    if isinstance(artifact, msg.FinalizationShare):
        return tagged_hash(
            "gossip/id/final-share", artifact.block_hash, artifact.signer.to_bytes(4, "big")
        )
    if isinstance(artifact, msg.BeaconShare):
        return tagged_hash(
            "gossip/id/beacon-share",
            artifact.round.to_bytes(8, "big"),
            artifact.signer.to_bytes(4, "big"),
        )
    raise TypeError(f"no gossip identity for {type(artifact).__name__}")


# -- gossip wire messages -----------------------------------------------------


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
    requester: int

    kind = "gossip-request"

    def wire_size(self) -> int:
        return DIGEST_SIZE + 4


@dataclass(frozen=True)
class ArtifactDelivery:
    """The artifact body, in response to a request."""

    artifact_id: bytes
    artifact: object = field(compare=False)

    @property
    def kind(self) -> str:
        inner = getattr(self.artifact, "kind", type(self.artifact).__name__)
        return f"gossip-body:{inner}"

    def wire_size(self) -> int:
        return DIGEST_SIZE + artifact_wire_size(self.artifact)


@dataclass(frozen=True)
class Push:
    """A small artifact flooded directly (no advert round-trip)."""

    artifact_id: bytes
    artifact: object = field(compare=False)

    @property
    def kind(self) -> str:
        inner = getattr(self.artifact, "kind", type(self.artifact).__name__)
        return f"gossip-push:{inner}"

    def wire_size(self) -> int:
        return DIGEST_SIZE + artifact_wire_size(self.artifact)


GOSSIP_MESSAGE_TYPES = (Advert, ArtifactRequest, ArtifactDelivery, Push)


@dataclass(frozen=True)
class GossipParams:
    """Tuning knobs for the gossip sub-layer."""

    degree: int = 4
    push_threshold: int = 1024  # artifacts <= this many bytes are pushed
    request_timeout: float = 1.0  # retry a request after this long
    max_request_cycles: int = 25  # give up after this many full retry sweeps
                                  # (re-armed by any fresh advert)


class GossipNode:
    """One party's endpoint of the gossip sub-layer."""

    def __init__(
        self,
        index: int,
        network: Network,
        neighbors: list[int],
        params: GossipParams,
        deliver: Callable[[object], None],
    ) -> None:
        self.index = index
        self.network = network
        self.sim = network.sim
        self.tracer = network.sim.tracer
        self.neighbors = list(neighbors)
        self.params = params
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
        self._have[aid] = artifact
        if self.tracer.enabled:
            size = artifact_wire_size(artifact)
            self.tracer.emit(
                time=self.sim.now, party=self.index, protocol="gossip",
                round=getattr(artifact, "round", None), kind="gossip.publish",
                payload={
                    "id": short_id(aid),
                    "kind": getattr(artifact, "kind", type(artifact).__name__),
                    "bytes": size,
                    "push": size <= self.params.push_threshold,
                },
            )
        self._propagate(aid, artifact, exclude=None)

    def _propagate(self, aid: bytes, artifact: object, exclude: int | None) -> None:
        targets = [p for p in self.neighbors if p != exclude]
        if not targets:
            return
        size = artifact_wire_size(artifact)
        if size <= self.params.push_threshold:
            message = Push(artifact_id=aid, artifact=artifact)
        else:
            message = Advert(artifact_id=aid, size=size, sender=self.index)
        self.network.multicast(self.index, targets, message)

    # -- network ingress ----------------------------------------------------------

    def on_network(self, message: object) -> bool:
        """Handle a gossip wire message; returns False if not one."""
        if isinstance(message, Push):
            self._on_push(message)
        elif isinstance(message, Advert):
            self._on_advert(message)
        elif isinstance(message, ArtifactRequest):
            self._on_request(message)
        elif isinstance(message, ArtifactDelivery):
            self._on_delivery(message)
        else:
            return False
        return True

    def _on_push(self, message: Push) -> None:
        if message.artifact_id in self._have:
            return
        self._have[message.artifact_id] = message.artifact
        if self.tracer.enabled:
            self._trace_deliver(message.artifact_id, message.artifact, via="push")
        self.deliver(message.artifact)
        self._propagate(message.artifact_id, message.artifact, exclude=None)

    def _trace_deliver(self, aid: bytes, artifact: object, via: str) -> None:
        self.tracer.emit(
            time=self.sim.now, party=self.index, protocol="gossip",
            round=getattr(artifact, "round", None), kind="gossip.deliver",
            payload={
                "id": short_id(aid),
                "kind": getattr(artifact, "kind", type(artifact).__name__),
                "bytes": artifact_wire_size(artifact),
                "via": via,
            },
        )

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
            if cycles > self.params.max_request_cycles:
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
        self.network.send(
            self.index, target, ArtifactRequest(artifact_id=aid, requester=self.index)
        )
        self.sim.schedule(self.params.request_timeout, lambda: self._request_from_next(aid))

    def _on_request(self, request: ArtifactRequest) -> None:
        artifact = self._have.get(request.artifact_id)
        if artifact is None:
            return  # we don't have it (yet); requester will retry elsewhere
        self.network.send(
            self.index,
            request.requester,
            ArtifactDelivery(artifact_id=request.artifact_id, artifact=artifact),
        )

    def _on_delivery(self, delivery: ArtifactDelivery) -> None:
        aid = delivery.artifact_id
        if aid in self._have:
            return
        if artifact_id(delivery.artifact) != aid:
            return  # malformed or malicious body; ignore, retries continue
        self._have[aid] = delivery.artifact
        self._requested.pop(aid, None)
        if self.tracer.enabled:
            self._trace_deliver(aid, delivery.artifact, via="request")
        self.deliver(delivery.artifact)
        self._propagate(aid, delivery.artifact, exclude=None)
