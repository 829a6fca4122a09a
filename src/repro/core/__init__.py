"""The paper's primary contribution: the ICC protocol family.

* :mod:`repro.core.icc0` — Protocol ICC0 (Figures 1–2), the reference.
* :mod:`repro.core.icc1` — ICC0 integrated with the gossip sub-layer.
* :mod:`repro.core.icc2` — block dissemination via erasure-coded reliable
  broadcast.
"""

from .beacon import RankAssignment, permutation_from_beacon
from .cluster import (
    Cluster,
    ClusterConfig,
    build_cluster,
)
from .icc0 import ICC0Party, SafetyViolation, empty_payload_source, fixed_size_source
from .messages import (
    Authenticator,
    BeaconShare,
    Block,
    EMPTY_PAYLOAD,
    Finalization,
    FinalizationShare,
    GENESIS_BEACON,
    Notarization,
    NotarizationShare,
    Payload,
    ROOT_BLOCK,
    ROOT_HASH,
)
from .params import ProtocolParams, StandardDelays, max_faults
from .pool import MessagePool

__all__ = [
    "RankAssignment",
    "permutation_from_beacon",
    "Cluster",
    "ClusterConfig",
    "build_cluster",
    "ICC0Party",
    "SafetyViolation",
    "empty_payload_source",
    "fixed_size_source",
    "Authenticator",
    "BeaconShare",
    "Block",
    "EMPTY_PAYLOAD",
    "Finalization",
    "FinalizationShare",
    "GENESIS_BEACON",
    "Notarization",
    "NotarizationShare",
    "Payload",
    "ROOT_BLOCK",
    "ROOT_HASH",
    "ProtocolParams",
    "StandardDelays",
    "max_faults",
    "MessagePool",
]
