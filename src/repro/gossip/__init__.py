"""Peer-to-peer gossip sub-layer (the IC's dissemination fabric, used by ICC1)."""

from .overlay import build_overlay, overlay_diameter
from .protocol import (
    Advert,
    ArtifactDelivery,
    ArtifactRequest,
    GOSSIP_MESSAGE_TYPES,
    GossipNode,
    Push,
    artifact_id,
)

__all__ = [
    "build_overlay",
    "overlay_diameter",
    "Advert",
    "ArtifactDelivery",
    "ArtifactRequest",
    "GOSSIP_MESSAGE_TYPES",
    "GossipNode",
    "Push",
    "artifact_id",
]
