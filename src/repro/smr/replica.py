"""Replica and checkpointing: glue between consensus and a state machine.

A :class:`Replica` subscribes to a party's commit stream and applies every
committed command to its state machine, taking a checkpoint digest every
``checkpoint_interval`` commands (the paper notes real deployments add
"some kind of checkpointing and garbage collection mechanism, similar to
that in PBFT"; the digests here are what such a mechanism would exchange).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.icc0 import ICC0Party
from ..core.messages import Block
from ..workloads.batching import strip_request_envelope
from .machine import KVStateMachine


@dataclass(frozen=True)
class Checkpoint:
    """State digest after a known number of applied commands."""

    command_count: int
    round: int
    digest: bytes


class Replica:
    """Applies a party's committed commands to a deterministic machine; a
    load request (:mod:`repro.workloads.batching`) is applied as its body."""

    def __init__(
        self,
        party: ICC0Party,
        machine=None,
        checkpoint_interval: int = 100,
    ) -> None:
        self.party = party
        self.machine = machine if machine is not None else KVStateMachine()
        self.checkpoint_interval = checkpoint_interval
        self.checkpoints: list[Checkpoint] = []
        self._commands_seen = 0
        party.commit_listeners.append(self._on_commit)

    def _on_commit(self, block: Block) -> None:
        for command in block.payload.commands:
            self.machine.apply(strip_request_envelope(command))
            self._commands_seen += 1
            if self._commands_seen % self.checkpoint_interval == 0:
                self.checkpoints.append(
                    Checkpoint(
                        command_count=self._commands_seen,
                        round=block.round,
                        digest=self.machine.digest(),
                    )
                )

    @property
    def commands_applied(self) -> int:
        return self._commands_seen

    def digest(self) -> bytes:
        return self.machine.digest()


def attach_replicas(cluster, machine_factory=KVStateMachine, **kwargs) -> list[Replica]:
    """One replica per party; returns them in party-index order."""
    return [
        Replica(party, machine=machine_factory(), **kwargs)
        for party in cluster.parties
    ]


def check_replica_agreement(replicas: list[Replica]) -> None:
    """Assert all replicas agree on every common checkpoint prefix.

    This is the end-to-end statement of safety: identical command
    sequences drive identical state evolution.
    """
    by_count: dict[int, set[bytes]] = {}
    for replica in replicas:
        for checkpoint in replica.checkpoints:
            by_count.setdefault(checkpoint.command_count, set()).add(checkpoint.digest)
    for count, digests in sorted(by_count.items()):
        if len(digests) != 1:
            raise AssertionError(
                f"replicas diverged at checkpoint {count}: {len(digests)} distinct states"
            )
