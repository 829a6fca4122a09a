"""Cross-subnet messaging: certified streams between replicated state machines.

The paper's opening framing (Section 1): "the Internet Computer is a
dynamic collection of intercommunicating replicated state machines:
commands for atomic broadcast on one replicated state machine are either
derived from messages received [from] other replicated state machines, or
from external clients."

This module supplies that second command source.  An :class:`XNet` couples
several independently-running subnets (each its own consensus instance)
inside one simulation:

* commands committed on subnet A whose body is an *xnet envelope*
  addressed to subnet B are extracted from A's committed prefix — the
  committed prefix **is** the certified stream (the IC certifies
  cross-subnet streams against the source subnet's state);
* each extracted body is sealed into a versioned :class:`StreamMessage`
  carrying a per-``(source, destination)`` sequence number and a
  certificate binding ``(source, destination, seq, body)`` to the
  topology's certification key (:class:`StreamCertifier` — a keyed hash
  standing in for the IC's threshold signature on the stream state);
* at destination **ingress** the certificate, wire version and strict
  sequence order are checked; failures are dropped and counted
  (``XNet.rejected`` / ``shard.xnet.reject``), successes submitted
  into B's mempools still wrapped in their stream wire; and
* every registered subnet's message pools get a composed
  ``payload_verifier`` (the same hook the load pipeline uses), so a block
  proposing stream-carried commands with bad certificates is rejected
  wholesale — a Byzantine proposer cannot smuggle forged cross-subnet
  traffic past honest parties.

Per-source FIFO holds by construction: A commits in a total order, the
transfer preserves it, and the ingress sequence check enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.cluster import Cluster
from ..core.messages import Block
from ..crypto.hashing import tagged_hash
from ..sim.simulator import Simulation
from .client import ClientFrontend

__all__ = [
    "XNET_STREAM_VERSION",
    "EnvelopeError",
    "StreamCertifier",
    "StreamMessage",
    "Subnet",
    "XNet",
    "is_envelope",
    "is_stream",
    "make_envelope",
    "parse_envelope",
    "strip_stream_envelope",
]

#: Wire version of the inter-subnet stream format; ingress drops others.
XNET_STREAM_VERSION = 1

_ENVELOPE_TAG = b"xnet\x1f"
_STREAM_TAG = b"xstr\x1f"
_SEP = b"\x1f"
_SEQ_LEN = 8
_CERT_LEN = 32


class EnvelopeError(ValueError):
    """An xnet envelope or stream message failed to round-trip.

    Raised by :func:`parse_envelope` / :meth:`StreamMessage.from_wire` on
    bytes that are not (or are a corrupted form of) the respective wire
    format — explicit failure instead of a silent ``None``.
    """


def make_envelope(destination: str, body: bytes) -> bytes:
    """Wrap ``body`` as a cross-subnet message for ``destination``."""
    if _SEP in destination.encode():
        raise ValueError("destination may not contain the separator byte")
    return _ENVELOPE_TAG + destination.encode() + _SEP + body


def is_envelope(command: bytes) -> bool:
    """True when ``command`` claims to be an xnet envelope (tag check only)."""
    return command.startswith(_ENVELOPE_TAG)


def parse_envelope(command: bytes) -> tuple[str, bytes]:
    """Return (destination, body) of an xnet envelope.

    Raises :class:`EnvelopeError` when ``command`` does not carry the
    envelope tag or is a malformed envelope (tag without separator).
    Use :func:`is_envelope` to filter mixed command streams first.
    """
    if not command.startswith(_ENVELOPE_TAG):
        raise EnvelopeError("not an xnet envelope (missing tag)")
    rest = command[len(_ENVELOPE_TAG):]
    destination, sep, body = rest.partition(_SEP)
    if not sep:
        raise EnvelopeError("malformed xnet envelope (no destination separator)")
    return destination.decode(errors="replace"), body


# ---------------------------------------------------------------- stream wire


@dataclass(frozen=True)
class StreamMessage:
    """One versioned, certified inter-subnet stream message."""

    version: int
    source: str
    destination: str
    seq: int
    cert: bytes
    body: bytes

    def wire(self) -> bytes:
        """Serialize: tag ∥ version ∥ src ∥ sep ∥ dst ∥ sep ∥ seq ∥ cert ∥ body."""
        return (
            _STREAM_TAG
            + bytes([self.version])
            + self.source.encode()
            + _SEP
            + self.destination.encode()
            + _SEP
            + self.seq.to_bytes(_SEQ_LEN, "big")
            + self.cert
            + self.body
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "StreamMessage":
        """Parse stream wire bytes; raises :class:`EnvelopeError` when malformed."""
        if not data.startswith(_STREAM_TAG):
            raise EnvelopeError("not an xnet stream message (missing tag)")
        rest = data[len(_STREAM_TAG):]
        if len(rest) < 1:
            raise EnvelopeError("truncated stream message (no version byte)")
        version, rest = rest[0], rest[1:]
        source, sep, rest = rest.partition(_SEP)
        if not sep:
            raise EnvelopeError("malformed stream message (no source separator)")
        destination, sep, rest = rest.partition(_SEP)
        if not sep:
            raise EnvelopeError("malformed stream message (no destination separator)")
        if len(rest) < _SEQ_LEN + _CERT_LEN:
            raise EnvelopeError("truncated stream message (seq/cert missing)")
        seq = int.from_bytes(rest[:_SEQ_LEN], "big")
        cert = rest[_SEQ_LEN:_SEQ_LEN + _CERT_LEN]
        body = rest[_SEQ_LEN + _CERT_LEN:]
        return cls(
            version=version,
            source=source.decode(errors="replace"),
            destination=destination.decode(errors="replace"),
            seq=seq,
            cert=cert,
            body=body,
        )


def is_stream(command: bytes) -> bool:
    """True when ``command`` claims to be stream wire bytes (tag check only)."""
    return command.startswith(_STREAM_TAG)


def strip_stream_envelope(command: bytes) -> bytes:
    """Return the application body of stream wire bytes (state machines
    want the bare command; certification was checked at ingress and at
    block admission)."""
    return StreamMessage.from_wire(command).body


class StreamCertifier:
    """Certifies stream messages against a shared topology secret.

    On the real Internet Computer the source subnet threshold-signs its
    outbound stream state and the destination verifies that certificate.
    Here — consistent with this repo's ``fast`` crypto idiom — the
    certificate is a keyed hash over ``(source, destination, seq, body)``;
    anyone without the topology secret cannot forge it, which is exactly
    the property the rejection tests pin.
    """

    def __init__(self, secret: bytes) -> None:
        self.secret = secret

    def certify(self, source: str, destination: str, seq: int, body: bytes) -> bytes:
        return tagged_hash(
            "ICC/xnet/stream-cert",
            self.secret,
            source.encode(),
            destination.encode(),
            seq.to_bytes(_SEQ_LEN, "big"),
            body,
        )

    def verify(self, message: StreamMessage) -> bool:
        expected = self.certify(
            message.source, message.destination, message.seq, message.body
        )
        return message.cert == expected


# ------------------------------------------------------------------- topology


@dataclass
class Subnet:
    """One registered subnet: its cluster plus an ingress surface.

    Ingress is either a :class:`~repro.smr.client.ClientFrontend` (stream
    wire goes into the mempool as an ordinary command, re-certified at
    block admission) or a ``submit`` callback receiving the validated
    :class:`StreamMessage` (the sharded gateway path).  ``in_seq`` tracks
    the next expected sequence number per source stream.
    """

    name: str
    cluster: Cluster
    client: ClientFrontend | None = None
    submit: Callable[[StreamMessage], None] | None = None
    received: list[tuple[str, bytes]] = field(default_factory=list)
    in_seq: dict[str, int] = field(default_factory=dict)


class XNet:
    """Routes committed xnet envelopes between registered subnets as
    versioned, sequence-numbered, certified stream messages."""

    def __init__(
        self,
        sim: Simulation,
        transfer_delay: float = 0.2,
        *,
        certifier: StreamCertifier | None = None,
    ) -> None:
        self.sim = sim
        self.transfer_delay = transfer_delay
        self.certifier = certifier if certifier is not None else StreamCertifier(b"xnet-topology")
        self.subnets: dict[str, Subnet] = {}
        self.transfers = 0
        self.undeliverable = 0
        self.rejected = 0
        self._next_seq: dict[tuple[str, str], int] = {}
        self._verified_blocks: dict[bytes, bool] = {}

    def register(
        self,
        name: str,
        cluster: Cluster,
        client: ClientFrontend | None = None,
        *,
        submit: Callable[[StreamMessage], None] | None = None,
    ) -> Subnet:
        """Register a subnet and start watching its committed prefix."""
        if name in self.subnets:
            raise ValueError(f"subnet {name!r} already registered")
        if _SEP in name.encode():
            raise ValueError("subnet name may not contain the separator byte")
        if cluster.sim is not self.sim:
            raise ValueError("all coupled subnets must share one simulation")
        if client is None and submit is None:
            raise ValueError("register() needs a client frontend or a submit hook")
        subnet = Subnet(name=name, cluster=cluster, client=client, submit=submit)
        self.subnets[name] = subnet
        observer = cluster.honest_parties[0]

        def on_commit(block: Block, source=name) -> None:
            from .client import strip_client_envelope

            for command in block.payload.commands:
                stripped = strip_client_envelope(command)
                if not is_envelope(stripped):
                    continue
                try:
                    destination, body = parse_envelope(stripped)
                except EnvelopeError:
                    self._reject(source, "", -1, "malformed")
                    continue
                self._transfer(source, destination, body)

        observer.commit_listeners.append(on_commit)
        # Certification at block admission, reusing the pool's
        # payload_verifier hook: honest parties refuse any proposed block
        # whose stream-carried commands fail the certificate check.
        for party in cluster.parties:
            party.pool.payload_verifier = self._compose_verifier(
                party.pool.payload_verifier
            )
        return subnet

    # -- egress: committed envelope -> certified stream message --------------

    def _transfer(self, source: str, destination: str, body: bytes) -> None:
        if destination not in self.subnets:
            self.undeliverable += 1
            return
        key = (source, destination)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        message = StreamMessage(
            version=XNET_STREAM_VERSION,
            source=source,
            destination=destination,
            seq=seq,
            cert=self.certifier.certify(source, destination, seq, body),
            body=body,
        )
        self.transfers += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                time=self.sim.now, party=0, protocol="xnet", round=None,
                kind="shard.xnet.transfer",
                payload={"source": source, "destination": destination,
                         "seq": seq, "bytes": len(body)},
            )
        self.sim.schedule(self.transfer_delay, lambda: self.ingress(message))

    # -- ingress: certification + sequencing at the destination --------------

    def ingress(self, message: StreamMessage) -> bool:
        """Admit one stream message at its destination.

        Returns True when the message passed every check and was submitted;
        False when it was dropped (and counted/traced with a reason).
        """
        target = self.subnets.get(message.destination)
        if target is None:
            self.undeliverable += 1
            return False
        if message.version != XNET_STREAM_VERSION:
            return self._reject(message.source, message.destination,
                                message.seq, "version")
        if not self.certifier.verify(message):
            return self._reject(message.source, message.destination,
                                message.seq, "cert")
        expected = target.in_seq.get(message.source, 0)
        if message.seq != expected:
            return self._reject(message.source, message.destination,
                                message.seq, "seq")
        target.in_seq[message.source] = expected + 1
        target.received.append((message.source, message.body))
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                time=self.sim.now, party=0, protocol="xnet", round=None,
                kind="shard.xnet.deliver",
                payload={"source": message.source,
                         "destination": message.destination,
                         "seq": message.seq, "bytes": len(message.body)},
            )
        if target.submit is not None:
            target.submit(message)
        else:
            assert target.client is not None
            target.client.submit(message.wire())
        return True

    def _reject(self, source: str, destination: str, seq: int, reason: str) -> bool:
        self.rejected += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                time=self.sim.now, party=0, protocol="xnet", round=None,
                kind="shard.xnet.reject",
                payload={"source": source, "destination": destination,
                         "seq": seq, "reason": reason},
            )
        return False

    # -- block-admission certification (payload_verifier reuse) --------------

    def _compose_verifier(self, prev: Callable[[Block], bool] | None) -> Callable[[Block], bool]:
        def verify(block: Block) -> bool:
            if prev is not None and not prev(block):
                return False
            return self.verify_block(block)

        return verify

    def verify_block(self, block: Block) -> bool:
        """True iff every stream-carried command in ``block`` certifies.

        Blocks without stream wire pass untouched; verdicts are memoized
        per block hash (blocks are verified once per party per proposal).
        Sequence order is *not* checked here — it is stateful and belongs
        to ingress; the certificate is the forgery barrier.
        """
        cached = self._verified_blocks.get(block.hash)
        if cached is not None:
            return cached
        verdict = True
        for command in block.payload.commands:
            inner = _outer_body(command)
            if not is_stream(inner):
                continue
            try:
                message = StreamMessage.from_wire(inner)
            except EnvelopeError:
                self._reject("", "", -1, "malformed")
                verdict = False
                break
            if message.version != XNET_STREAM_VERSION or not self.certifier.verify(message):
                self._reject(message.source, message.destination,
                             message.seq, "block-cert")
                verdict = False
                break
        self._verified_blocks[block.hash] = verdict
        return verdict


def _outer_body(command: bytes) -> bytes:
    """Strip exactly one client-envelope layer (cli:/ld) so block-level
    certification can see carried stream wire; unlike
    ``strip_client_envelope`` this never unwraps the stream itself."""
    if command.startswith(b"cli:") and len(command) >= 13:
        return command[13:]
    if command.startswith(b"ld"):
        from ..workloads.batching import strip_request_envelope

        return strip_request_envelope(command)
    return command
