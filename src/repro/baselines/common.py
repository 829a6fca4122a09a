"""Shared machinery for the baseline protocols (PBFT, HotStuff, Tendermint).

The paper's Related Work section compares ICC against these three
leader-based protocols on latency, reciprocal throughput, responsiveness
and robustness.  To make those comparisons measurable rather than
rhetorical, all three baselines are implemented on the *same* simulation
substrate as ICC: same network, same delay models, same metrics, same
payload sources, same wire-size conventions.

Each baseline commits *batches* (the PBFT term; HotStuff/Tendermint call
them blocks) produced by the shared ``PayloadSource`` interface, and
reports commits through the same :class:`~repro.sim.metrics.Metrics`
channel, so `blocks_per_second`, commit latency and per-node traffic are
directly comparable across all five protocols.

A baseline is built like any other party: ``build_cluster(ClusterConfig(
party_class=PBFTParty, extra_party_kwargs=...))``.  Of the
:class:`~repro.core.params.ProtocolParams` it is handed it reads ``n`` and
``t``; its timeouts are constructor keywords of the protocol class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..crypto.hashing import DIGEST_SIZE, tagged_hash
from ..crypto.keyring import Keyring
from ..obs import short_id
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.simulator import Simulation
from ..core.messages import Payload, SIG_SIZE
from ..core.params import ProtocolParams


@dataclass(frozen=True)
class Batch:
    """A batch of commands at a height (the unit baselines agree on)."""

    height: int
    proposer: int
    parent_digest: bytes
    payload: Payload

    kind = "batch"

    @cached_property
    def digest(self) -> bytes:
        return tagged_hash(
            "baseline/batch",
            self.height.to_bytes(8, "big"),
            self.proposer.to_bytes(4, "big"),
            self.parent_digest,
            self.payload.digest,
        )

    def wire_size(self) -> int:
        return 13 + DIGEST_SIZE + self.payload.wire_size()


GENESIS_DIGEST = tagged_hash("baseline/genesis")


@dataclass(frozen=True)
class Vote:
    """A signed vote on a batch digest in some phase of some protocol."""

    protocol: str  # "pbft" | "hotstuff" | "tendermint"
    phase: str  # e.g. "prepare", "commit", "prevote", ...
    view: int
    height: int
    digest: bytes
    voter: int
    share: object = field(compare=False)

    @property
    def kind(self) -> str:
        return f"{self.protocol}-{self.phase}"

    def wire_size(self) -> int:
        return 1 + 8 + 8 + DIGEST_SIZE + 4 + SIG_SIZE


def vote_message(protocol: str, phase: str, view: int, height: int, digest: bytes) -> bytes:
    return tagged_hash(
        f"baseline/{protocol}/{phase}",
        view.to_bytes(8, "big"),
        height.to_bytes(8, "big"),
        digest,
    )


class BaselineParty:
    """Base class: identity, quorum arithmetic, vote plumbing, commit log."""

    protocol_name = "baseline"

    def __init__(
        self,
        index: int,
        keyring: Keyring,
        params: ProtocolParams,
        sim: Simulation,
        network: Network,
        payload_source=None,
    ) -> None:
        self.index = index
        self.keys = keyring
        self.sim = sim
        self.network = network
        self.metrics: Metrics = network.metrics
        #: Trace sink (repro.obs); install a Tracer on the Simulation
        #: before building parties.
        self.tracer = sim.tracer
        self.n = params.n
        self.t = params.t
        self.payload_source = payload_source
        self.output_log: list[Batch] = []
        self.committed_digests: set[bytes] = set()

    @property
    def quorum(self) -> int:
        """2f+1-style quorum: n - t."""
        return self.n - self.t

    @property
    def k_max(self) -> int:
        """Height of the last committed batch (name-compatible with ICC)."""
        return len(self.output_log)

    @property
    def committed_hashes(self) -> list[bytes]:
        return [b.digest for b in self.output_log]

    # -- voting helpers -------------------------------------------------------

    def make_vote(self, protocol: str, phase: str, view: int, height: int, digest: bytes) -> Vote:
        signed = vote_message(protocol, phase, view, height, digest)
        return Vote(
            protocol=protocol,
            phase=phase,
            view=view,
            height=height,
            digest=digest,
            voter=self.index,
            share=self.keys.sign_notary_share(signed),
        )

    def vote_is_valid(self, vote: Vote) -> bool:
        signed = vote_message(vote.protocol, vote.phase, vote.view, vote.height, vote.digest)
        return (
            self.keys.share_index(vote.share) == vote.voter
            and self.keys.verify_notary_share(signed, vote.share)
        )

    def enqueue_vote(self, vote: Vote) -> None:
        """Admit a vote: protocol subclasses implement :meth:`_accept_vote`,
        which receives each vote that passed verification."""
        if self.vote_is_valid(vote):
            self._accept_vote(vote)

    def _accept_vote(self, vote: Vote) -> None:
        raise NotImplementedError  # pragma: no cover - protocol-specific

    # -- tracing ---------------------------------------------------------------

    def _trace(self, kind: str, round: int | None = None, **payload) -> None:
        """Emit one trace event; callers guard with ``self.tracer.enabled``."""
        self.tracer.emit(
            time=self.sim.now,
            party=self.index,
            protocol=self.protocol_name,
            round=round,
            kind=kind,
            payload=payload,
        )

    # -- commit plumbing ---------------------------------------------------------

    def commit_batch(self, batch: Batch) -> None:
        if batch.digest in self.committed_digests:
            return
        self.committed_digests.add(batch.digest)
        self.output_log.append(batch)
        if self.tracer.enabled:
            self._trace(
                "baseline.commit", round=batch.height,
                batch=short_id(batch.digest), proposer=batch.proposer,
            )
        self.metrics.on_commit(
            time=self.sim.now,
            observer=self.index,
            round=batch.height,
            proposer=batch.proposer,
            payload_bytes=batch.payload.wire_size(),
            proposed_at=self.metrics.proposed_at.get(batch.digest, -1.0),
        )

    def build_payload(self, height: int, chain: list) -> Payload:
        if self.payload_source is None:
            return Payload()
        return self.payload_source(self, height, chain)

    # -- network -------------------------------------------------------------------

    def _broadcast(self, message: object, round: int | None = None) -> None:
        self.network.broadcast(self.index, message, round=round)

    def _send(self, receiver: int, message: object, round: int | None = None) -> None:
        self.network.send(self.index, receiver, message, round=round)
