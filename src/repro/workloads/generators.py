"""Workload generation: client request streams feeding party mempools.

Models the load scenarios of Section 5 (Table 1):

* *without load* — blocks carry only management information, modelled as a
  small constant per-block overhead;
* *with load* — clients issue R state-changing requests per second, each
  carrying P bytes of user payload (the paper uses R=100, P=1 KB).

Requests reach every party (the IC's ingress layer gossips client messages
to the whole subnet); a proposer packs all pending, not-yet-included
commands into its block, deduplicating against the chain it extends — the
"important feature for state machine replication" noted in Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ..core.icc0 import ICC0Party
from ..core.messages import Block, Payload


@dataclass(frozen=True)
class WorkloadSpec:
    """Request stream parameters."""

    rate_per_second: float  # request arrival rate
    payload_bytes: int  # user payload per request
    poisson: bool = False  # Poisson arrivals (default: evenly spaced)
    max_block_commands: int = 10_000  # proposer cap per block
    management_bytes: int = 256  # per-block management overhead (scenario 1)


class MempoolWorkload:
    """A request stream plus per-party mempools and a PayloadSource.

    Usage::

        workload = MempoolWorkload(spec, seed=1)
        config = ClusterConfig(..., payload_source=workload.payload_source)
        cluster = build_cluster(config)
        workload.install(cluster, duration=300.0)
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self._pending: dict[int, dict[bytes, bytes]] = {}
        self.submitted = 0
        self._metrics = None
        self._ingress_copies = 0.0

    # -- request injection ------------------------------------------------------

    def install(
        self, cluster, duration: float, start: float = 0.0, ingress_degree: int = 0
    ) -> None:
        """Schedule request arrivals over ``[start, start+duration)``.

        ``ingress_degree`` > 0 additionally *accounts* for the ingress
        dissemination traffic: each request must reach every party, and in
        an epidemic push over a d-regular overlay each request crosses each
        overlay edge about once, i.e. d/2 transmissions per node.  (The
        paper's Table 1 traffic includes this "messages exchanged with the
        clients" component.)  Delivery into mempools is immediate either
        way — ingress latency is far below round time.

        Each party drops a command from its mempool when it commits it, so
        pending stays bounded by what is in flight.
        """
        sim = cluster.sim
        # Dedicated seeded stream, NOT forked from sim.rng: forking draws
        # 64 bits from the simulation RNG, which would shift every delay
        # sample that follows — enabling load must not perturb otherwise
        # bit-identical consensus runs.  Same isolation pattern as the
        # fault-decision RNG in repro.faults.inject.
        rng = Random(f"workload/{self.seed}")
        self._metrics = cluster.metrics
        self._ingress_copies = ingress_degree / 2.0
        for party in cluster.parties:
            pending = self._pending.setdefault(party.index, {})

            def prune(block: Block, pending=pending) -> None:
                for command in block.payload.commands:
                    pending.pop(command[:12], None)

            party.commit_listeners.append(prune)
        rate = self.spec.rate_per_second
        if rate <= 0:
            return
        time = start
        seq = 0
        while time < start + duration:
            if self.spec.poisson:
                time += rng.expovariate(rate)
            else:
                time += 1.0 / rate
            if time >= start + duration:
                break
            command = self._make_command(seq, rng)
            seq += 1
            sim.schedule_at(time, lambda c=command: self._arrive(c))

    def _make_command(self, seq: int, rng) -> bytes:
        header = b"req:" + seq.to_bytes(8, "big")
        padding = max(0, self.spec.payload_bytes - len(header))
        return header + bytes(rng.getrandbits(8) for _ in range(min(padding, 16))) + b"\x00" * max(0, padding - 16)

    def _arrive(self, command: bytes) -> None:
        """A client request reaches every party's mempool."""
        self.submitted += 1
        key = command[:12]
        copies = int(round(self._ingress_copies))
        for index, pending in self._pending.items():
            pending[key] = command
            if self._metrics is not None and copies > 0:
                for _ in range(copies):
                    self._metrics.on_send(index, len(command), "ingress")

    # -- payload construction ---------------------------------------------------------

    def payload_source(self, party: ICC0Party, round: int, chain: list[Block]) -> Payload:
        """getPayload: pack pending commands not already in the chain.

        Only the uncommitted suffix of ``chain`` is read — its blocks of a
        round above ``party.k_max``.  Everything at or below is the party's
        committed prefix (a finalized round has one notarized block, and
        every later notarized block extends it), and ``install`` took those
        commands out of this party's ``pending`` when it committed them.
        """
        pending = self._pending.setdefault(party.index, {})
        included: set[bytes] = set()
        for block in reversed(chain):
            if block.round <= party.k_max:
                break
            included.update(c[:12] for c in block.payload.commands)
        commands = []
        for key, command in pending.items():
            if key in included:
                continue
            commands.append(command)
            if len(commands) >= self.spec.max_block_commands:
                break
        return Payload(
            commands=tuple(commands), filler_bytes=self.spec.management_bytes
        )


def management_only_source(management_bytes: int = 256):
    """PayloadSource for the 'without load' scenario: management info only."""

    def source(party: ICC0Party, round: int, chain: list[Block]) -> Payload:
        return Payload(commands=(), filler_bytes=management_bytes)

    return source


def fixed_size_source(block_bytes: int):
    """PayloadSource producing constant-size blocks (dissemination benches)."""

    def source(party: ICC0Party, round: int, chain: list[Block]) -> Payload:
        return Payload(commands=(), filler_bytes=block_bytes)

    return source
