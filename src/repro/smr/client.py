"""Client frontend: submit commands, await commits, measure latency.

Completes the state-machine-replication story (Section 1): clients hand
commands to the replicated service and consider them *executed* once a
replica they watch has committed them.  The frontend measures the
end-to-end latency — submit → appears in every watched replica's committed
prefix — which is the figure an application actually experiences (commit
latency 3δ plus queueing for the next block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.icc0 import ICC0Party
from ..core.messages import Block, Payload
from ..workloads.generators import MempoolWorkload, WorkloadSpec


#: Client commands travel as ``cli:<8-byte seq>\x00<body>`` so commits can
#: be matched back to handles; state machines want the bare body.
_CLIENT_PREFIX = b"cli:"
_CLIENT_ENVELOPE_LEN = 13  # 12-byte key + 1 separator byte


def strip_client_envelope(command: bytes) -> bytes:
    """Return the application body of a client-submitted command.

    Handles every envelope format replicas may see: the frontend's
    ``cli:`` envelope, the load pipeline's signed-request wire format
    (:mod:`repro.workloads.batching`), and xnet stream wire
    (:mod:`repro.smr.xnet` — cross-subnet commands arrive wrapped in
    their certified stream message).  Envelopes nest (a ``cli:`` command
    may carry stream wire), so stripping recurses until a bare body
    remains.  Commands in no known format pass through unchanged, so
    state machines can consume mixed streams.
    """
    if command.startswith(_CLIENT_PREFIX) and len(command) >= _CLIENT_ENVELOPE_LEN:
        return strip_client_envelope(command[_CLIENT_ENVELOPE_LEN:])
    if command.startswith(b"ld"):
        from ..workloads.batching import strip_request_envelope

        return strip_request_envelope(command)
    if command.startswith(b"xstr\x1f"):
        from .xnet import strip_stream_envelope

        return strip_client_envelope(strip_stream_envelope(command))
    return command


@dataclass
class CommandHandle:
    """Tracks one submitted command through to commitment."""

    key: bytes
    command: bytes
    submitted_at: float
    committed_at: float | None = None
    committed_round: int | None = None

    @property
    def done(self) -> bool:
        return self.committed_at is not None

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


class ClientFrontend:
    """Submits commands into party mempools and watches an observer replica.

    Usage (the payload source must be wired at cluster-build time)::

        client = ClientFrontend()
        config = ClusterConfig(..., payload_source=client.payload_source)
        cluster = build_cluster(config)
        client.bind(cluster, observer=1)
        handle = client.submit(b"put k v")        # now, or
        client.submit_at(5.0, b"put k v2")        # at a future instant
    """

    def __init__(self, max_block_commands: int = 10_000) -> None:
        self._workload = MempoolWorkload(
            WorkloadSpec(rate_per_second=0.0, payload_bytes=0,
                         max_block_commands=max_block_commands)
        )
        self._cluster = None
        self._observer: ICC0Party | None = None
        self._sequence = 0
        self.handles: dict[bytes, CommandHandle] = {}

    # -- wiring ------------------------------------------------------------------

    @property
    def payload_source(self):
        return self._workload.payload_source

    def bind(self, cluster, observer: int = 1) -> None:
        self._cluster = cluster
        self._observer = cluster.party(observer)
        self._observer.commit_listeners.append(self._on_commit)
        # Rate 0: no arrivals are scheduled; this creates the per-party
        # mempools submit() fills and prunes them on commit.
        self._workload.install(cluster, duration=0.0)

    # -- submission ---------------------------------------------------------------

    def submit(self, body: bytes) -> CommandHandle:
        """Submit now (at the current simulation time)."""
        if self._cluster is None:
            raise RuntimeError("bind() the client to a cluster first")
        self._sequence += 1
        key = _CLIENT_PREFIX + self._sequence.to_bytes(8, "big")
        command = key + b"\x00" + body
        handle = CommandHandle(
            key=key, command=command, submitted_at=self._cluster.sim.now
        )
        self.handles[key] = handle
        for pending in self._workload._pending.values():
            pending[command[:12]] = command
        return handle

    def submit_at(self, time: float, body: bytes) -> None:
        """Schedule a submission at an absolute simulation time."""
        if self._cluster is None:
            raise RuntimeError("bind() the client to a cluster first")
        self._cluster.sim.schedule_at(time, lambda: self.submit(body))

    def submit_stream(self, rate: float, duration: float, body_bytes: int = 32) -> None:
        """A steady stream of rate req/s for ``duration`` seconds."""
        if rate <= 0:
            return
        interval = 1.0 / rate
        time = self._cluster.sim.now + interval
        end = self._cluster.sim.now + duration
        count = 0
        while time < end:
            self.submit_at(time, b"x" * body_bytes)
            time += interval
            count += 1

    # -- completion ---------------------------------------------------------------

    def _on_commit(self, block: Block) -> None:
        for command in block.payload.commands:
            key = command[:12]
            handle = self.handles.get(key)
            if handle is not None and handle.committed_at is None:
                handle.committed_at = self._cluster.sim.now
                handle.committed_round = block.round

    # -- reporting ----------------------------------------------------------------

    @property
    def completed(self) -> list[CommandHandle]:
        return [h for h in self.handles.values() if h.done]

    @property
    def outstanding(self) -> list[CommandHandle]:
        return [h for h in self.handles.values() if not h.done]

    def latencies(self) -> list[float]:
        return [h.latency for h in self.completed]

    def mean_latency(self) -> float:
        values = self.latencies()
        return sum(values) / len(values) if values else float("nan")
