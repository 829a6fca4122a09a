"""Deterministic state machines driven by atomic broadcast.

State machine replication (the paper's motivating application, Section 1):
every replica applies the same committed command sequence to a
deterministic machine and therefore reaches the same state.  The machine
here is a key-value store (the classic example); it exposes a state digest
for cross-replica comparison and checkpointing.
"""

from __future__ import annotations

from ..crypto.hashing import tagged_hash


class KVStateMachine:
    """A replicated key-value store.

    Command wire format (ASCII, '\\x1f'-separated):
    ``put <key> <value>``, ``del <key>``, ``noop``.
    Unknown or malformed commands are ignored deterministically (counted),
    because a Byzantine proposer may inject garbage commands and all
    replicas must handle them identically.
    """

    SEP = b"\x1f"

    def __init__(self) -> None:
        self.state: dict[bytes, bytes] = {}
        self.applied = 0
        self.rejected = 0

    @classmethod
    def put(cls, key: bytes, value: bytes) -> bytes:
        return cls.SEP.join((b"put", key, value))

    @classmethod
    def delete(cls, key: bytes) -> bytes:
        return cls.SEP.join((b"del", key))

    @classmethod
    def noop(cls) -> bytes:
        return b"noop"

    def apply(self, command: bytes) -> None:
        parts = command.split(self.SEP)
        op = parts[0]
        if op == b"put" and len(parts) == 3:
            self.state[parts[1]] = parts[2]
            self.applied += 1
        elif op == b"del" and len(parts) == 2:
            self.state.pop(parts[1], None)
            self.applied += 1
        elif op == b"noop" and len(parts) == 1:
            self.applied += 1
        else:
            self.rejected += 1

    def get(self, key: bytes) -> bytes | None:
        return self.state.get(key)

    def digest(self) -> bytes:
        """Order-independent state digest for replica comparison."""
        items = sorted(self.state.items())
        return tagged_hash(
            "ICC/smr/kv-digest",
            self.applied.to_bytes(8, "big"),
            self.rejected.to_bytes(8, "big"),
            *(k + self.SEP + v for k, v in items),
        )
