"""State machine replication on top of atomic broadcast (Section 1)."""

from .machine import KVStateMachine
from .replica import Checkpoint, Replica, attach_replicas, check_replica_agreement

__all__ = [
    "KVStateMachine",
    "Checkpoint",
    "Replica",
    "attach_replicas",
    "check_replica_agreement",
]
