"""State machine replication on top of atomic broadcast (Section 1)."""

from .client import ClientFrontend, CommandHandle, strip_client_envelope
from .machine import (
    CommandError,
    CounterStateMachine,
    KVStateMachine,
    TokenLedgerMachine,
)
from .replica import Checkpoint, Replica, attach_replicas, check_replica_agreement

__all__ = [
    "ClientFrontend",
    "CommandHandle",
    "strip_client_envelope",
    "CommandError",
    "CounterStateMachine",
    "KVStateMachine",
    "TokenLedgerMachine",
    "Checkpoint",
    "Replica",
    "attach_replicas",
    "check_replica_agreement",
]
