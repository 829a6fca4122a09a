"""The asyncio/TCP network: the live counterpart of :class:`repro.sim.network.Network`.

One :class:`TcpNetwork` serves one party.  It implements the exact
transmission surface the protocol objects use — ``attach`` /
``broadcast`` / ``send`` / ``multicast``, plus the same
:class:`repro.sim.metrics.Metrics` traffic accounting and the same
``net.*`` trace events — so an :class:`~repro.core.icc0.ICC0Party`
(or ICC1/ICC2) cannot tell it is talking to sockets.

Topology: every pair of parties is connected by **two TCP connections,
one per direction** — each side owns its outbound connection and accepts
the inbound one.  That keeps connection ownership trivial (no tie-break
protocol for simultaneous dials) at the cost of one extra socket per
pair, which is irrelevant at consensus committee sizes.

Both ends of a connection are :class:`asyncio.Protocol` callbacks; the
only task is one dialer per outbound link.  Outbound: a message is encoded
once (:mod:`repro.net.codec`) however many links it goes to; each link
frames it under its own sequence number and marks itself dirty, and once
per loop turn every dirty link writes its unwritten frames in one
``transport.write``.  A frame stays buffered until a cumulative ACK covers
it — a write the kernel took proves nothing about delivery — and every
(re)connection retransmits the unACKed tail.  Redials back off
(exponential, jittered, capped); only a connection whose HELLO the peer
ACKed resets the backoff.  The receiver deduplicates by sequence number,
so each link delivers in order and exactly once over an at-least-once wire.
No frame carries a clock reading: a party reads only its own clock.

Inbound: the acceptor requires a HELLO naming a configured peer of the
same cluster before any message frame and ACKs once per chunk.  A
duplicate connection from a peer supersedes the previous one (newest
wins); the per-peer delivery mark survives the swap unless the HELLO names
a new *incarnation* of the peer (its process restarted and numbers its
frames from 1 again).  Malformed, oversized or undecodable frames, in
either direction, close the connection and count in ``frames_rejected``.
Flow control: a link above the kernel buffer's high-water mark writes
nothing until it drains, and an acceptor whose ACKs are not being read
stops reading, so no peer can make us buffer without bound.

Fault injection, crashes and partitions are **simulator-only** concepts
(they manipulate virtual delivery the transport does not control); the
corresponding methods raise :class:`SimulatorOnlyFeature` — see
``docs/FAULTS.md``.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from itertools import islice
from typing import Iterable

from ..sim.metrics import Metrics
from ..sim.network import Receiver, account_transmission, message_kind
from . import codec
from .clock import WallClock
from .framing import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    ack_frame,
    decode_payload,
    hello_frame,
    message_frame,
    stat_reply_frame,
)

#: Reconnect backoff defaults (seconds): first retry after ``BACKOFF_BASE``,
#: doubling (with jitter in [0.5x, 1x]) up to ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


class SimulatorOnlyFeature(RuntimeError):
    """A simulator-only control (faults/crash/partition) was used on the
    live transport.  See docs/FAULTS.md — fault scenarios drive *virtual*
    delivery; over real sockets use OS-level tooling (kill the process,
    drop packets with tc/iptables) instead."""


class _OutboundConnection(asyncio.Protocol):
    """One dialled connection of a :class:`_PeerLink`: HELLO out, ACKs in.

    ``accepted`` turns true with the first ACK (the peer took our HELLO);
    ``closed`` resolves when the connection ends, which is what the
    link's dialer waits for.
    """

    def __init__(self, link: "_PeerLink") -> None:
        self.link = link
        self.transport: asyncio.Transport | None = None
        self.decoder = FrameDecoder(link.net.max_frame)
        self.paused = False
        self.accepted = False
        self.closed: asyncio.Future = link.net.clock.loop.create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        link = self.link
        net = link.net
        link.conn = self
        link.connects += 1
        net._on_peer_connect(link.peer, "out", reconnect=link.connects > 1)
        transport.write(hello_frame(
            net.index, net.cluster_id, net.max_frame, incarnation=net.incarnation,
        ))
        link._wire_seq = link.acked  # rewind: retransmit the unACKed tail
        net._mark_dirty(link)

    def data_received(self, data: bytes) -> None:
        link = self.link
        try:
            for body in self.decoder.feed(data):
                kind, seq = decode_payload(body)
                if kind != "ack":
                    raise FrameError(f"expected ACK on the outbound connection, got {kind}")
                self.accepted = True
                link.on_ack(seq)  # type: ignore[arg-type]
        except FrameError as exc:
            link.net._reject_frame(link.peer, exc)
            self.transport.close()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.link.net._mark_dirty(self.link)

    def connection_lost(self, exc: Exception | None) -> None:
        self.link.conn = None
        self.link.net._on_peer_disconnect(self.link.peer, "out")
        if not self.closed.done():  # cancelled if stop() cancelled the dialer
            self.closed.set_result(None)


class _PeerLink:
    """Outbound side of one peer: unACKed frame buffer + reconnecting dialer.

    Frames carry per-link sequence numbers and stay in ``unacked`` until
    the peer's cumulative ACK covers them; every (re)connection rewinds
    the write cursor to the last ACK, retransmitting the tail.
    """

    def __init__(self, net: "TcpNetwork", peer: int, host: str, port: int) -> None:
        self.net = net
        self.peer = peer
        self.host = host
        self.port = port
        self.unacked: deque[tuple[int, bytes]] = deque()
        self.next_seq = 1
        self.acked = 0
        self._wire_seq = 0  # highest seq written on the current connection
        self.conn: _OutboundConnection | None = None
        self.task: asyncio.Task | None = None
        self.connects = 0  # successful dials (>= 2 means it reconnected)

    @property
    def connected(self) -> bool:
        return self.conn is not None

    @property
    def queued(self) -> int:
        """Frames awaiting acknowledgement (for tests/metrics)."""
        return len(self.unacked)

    def enqueue(self, message: object, body: bytes) -> None:
        """Queue ``message``, already encoded as ``body``, for this peer."""
        seq = self.next_seq
        self.next_seq += 1
        frame = message_frame(seq, body, self.net.max_frame)
        self.unacked.append((seq, frame))
        tracer = self.net.tracer
        if tracer.enabled:
            # One half of the causal wire span; the receiver's
            # net.wire.recv with the same (src=us, dst=peer, seq) key
            # closes it.  (Retransmits reuse the frame, so the span
            # measures first-send to first-delivery.)
            tracer.emit(
                time=self.net.clock.now, party=self.net.index, protocol="net",
                round=None, kind="net.wire.send",
                payload={"dst": self.peer, "seq": seq, "bytes": len(frame),
                         "kind": message_kind(message)},
            )
        self.net._mark_dirty(self)

    def flush(self) -> None:
        """Write every frame beyond the cursor in one ``transport.write``.

        ``unacked`` holds consecutive sequence numbers ending at
        ``next_seq - 1``, so the unwritten frames are its last ``pending``
        entries — nothing is scanned.  A paused or closing connection
        writes nothing; ``resume_writing`` or the next connect flushes.
        """
        conn = self.conn
        if conn is None or conn.paused or conn.transport.is_closing():
            return
        last = self.next_seq - 1
        pending = last - max(self._wire_seq, self.acked)
        if not pending:
            return
        frames = [frame for _, frame in islice(reversed(self.unacked), pending)]
        frames.reverse()
        self._wire_seq = last
        conn.transport.write(b"".join(frames))

    def on_ack(self, seq: int) -> None:
        if seq > self.acked:
            # Never beyond what was sent: frames not yet framed would be
            # dropped from ``unacked`` the moment they were enqueued.
            self.acked = min(seq, self.next_seq - 1)
        while self.unacked and self.unacked[0][0] <= self.acked:
            self.unacked.popleft()

    async def run(self) -> None:
        """Dial, wait for the connection to end, dial again.

        Only a connection the peer accepted (it ACKed our HELLO) resets the
        backoff and is redialled at once; a refused dial and a connection
        that ends before any ACK — wrong cluster id, a non-ACK frame — both
        wait out a growing backoff.
        """
        net = self.net
        backoff = net.backoff_base
        while not net._closing:
            try:
                _, conn = await net.clock.loop.create_connection(
                    lambda: _OutboundConnection(self), self.host, self.port
                )
            except OSError:
                pass
            else:
                await conn.closed
                if conn.accepted:
                    backoff = net.backoff_base
                    continue
            await asyncio.sleep(backoff * (0.5 + 0.5 * net.clock.rng.random()))
            backoff = min(backoff * 2.0, net.backoff_cap)


class _InboundConnection(asyncio.Protocol):
    """One accepted connection: STAT replies, then HELLO, MSGs in, ACKs out."""

    def __init__(self, net: "TcpNetwork") -> None:
        self.net = net
        self.transport: asyncio.Transport | None = None
        self.peer: int | None = None
        self.decoder = FrameDecoder(net.max_frame)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.net._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        # A superseded connection needs no check here: closing its
        # transport stopped its reads.
        net = self.net
        peer = self.peer
        ack = False
        try:
            for body in self.decoder.feed(data):
                kind, payload = decode_payload(body)
                if kind == "msg" and peer is not None:
                    seq, message = payload  # type: ignore[misc]
                    ack = True
                    if seq > net._delivered_seq[peer]:
                        net._delivered_seq[peer] = seq
                        tracer = net.tracer
                        if tracer.enabled:
                            tracer.emit(
                                time=net.clock.now, party=net.index, protocol="net",
                                round=None, kind="net.wire.recv",
                                payload={"src": peer, "seq": seq, "bytes": len(body) + 4,
                                         "kind": message_kind(message)},
                            )
                        net._hand_over(message)
                elif kind == "stat":
                    # Monitoring probe (repro top): answer with a snapshot;
                    # no HELLO required, and the connection stays a plain
                    # query channel.
                    self.transport.write(
                        stat_reply_frame(net._stat_payload(), net.max_frame)
                    )
                elif peer is None:
                    peer = self.peer = net._handshake(kind, payload)
                    # ACK at once: the dialer's word that we accepted, on
                    # which its backoff resets.
                    ack = True
                else:
                    raise FrameError(
                        f"unexpected {kind.upper()} frame on an open inbound connection"
                    )
        except FrameError as exc:
            net._reject_frame(peer, exc)
            self.transport.close()
            return
        if ack:
            # One cumulative ACK per chunk releases the sender's retransmit
            # buffer (ACKed even when every frame was a duplicate — the peer
            # may have missed the earlier ACK).
            self.transport.write(ack_frame(net._delivered_seq[peer]))

    def pause_writing(self) -> None:
        # Our ACKs are not being read: read no more MSGs until they are,
        # so the peer's own write buffer fills and it stops sending.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        self.net._inbound.discard(self)
        if self.peer is not None:
            self.net._on_peer_disconnect(self.peer, "in")


class TcpNetwork:
    """Length-prefix-framed TCP fabric with the simulator Network's surface.

    ``peers`` maps every party index (including our own) to ``(host,
    port)``; we listen on our own entry and dial the others.  ``metrics``
    defaults to a fresh :class:`~repro.sim.metrics.Metrics` with the same
    byte/message conventions as the simulator (broadcast counts ``n``
    messages but only ``n - 1`` wire copies).
    """

    def __init__(
        self,
        clock: WallClock,
        index: int,
        peers: dict[int, tuple[str, int]],
        *,
        cluster_id: str = "icc-live",
        metrics: Metrics | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
    ) -> None:
        if index not in peers:
            raise ValueError(f"own index {index} missing from the peer table")
        self.clock = clock
        #: Alias matching the simulator Network's ``sim`` attribute —
        #: gossip/RBC endpoints resolve their scheduler through
        #: ``network.sim``, and WallClock satisfies the same surface.
        self.sim = clock
        self.index = index
        self.n = len(peers)
        self.peers = dict(peers)
        self.cluster_id = cluster_id
        self.metrics = metrics if metrics is not None else Metrics(n=self.n)
        self.max_frame = max_frame
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._party: Receiver | None = None
        self._links: dict[int, _PeerLink] = {}
        #: Links with frames to write, flushed together once per loop turn.
        self._dirty: dict[_PeerLink, None] = {}
        self._server: asyncio.AbstractServer | None = None
        #: Every open inbound connection; ``conn.peer`` is set once its HELLO
        #: is accepted and cleared when a newer connection supersedes it.
        self._inbound: set[_InboundConnection] = set()
        self._closing = False
        self._delivered = 0
        #: Highest MSG sequence delivered per peer.  Lives on the network
        #: (not the connection) so it survives reconnects and duplicate
        #: connections — it is what makes retransmission exactly-once.
        self._delivered_seq: dict[int, int] = {}
        #: Names this run of the party in every HELLO.  Drawn from the OS,
        #: not the seeded clock RNG: a restarted process must differ.
        self.incarnation = int.from_bytes(os.urandom(8), "big")
        #: The incarnation each peer last introduced itself with; a HELLO
        #: naming another restarts that peer's ``_delivered_seq`` at 0,
        #: because the restarted peer numbers its frames from 1 again.
        self._peer_incarnation: dict[int, int] = {}
        #: Always-on counters: the STAT endpoint and ``LiveParty.result()``
        #: report them.
        self.frames_rejected = 0
        self.connects_total = 0
        self.reconnects_total = 0
        self.dup_connections_total = 0
        #: When set, STAT frames are answered with this callable's dict
        #: (``LiveParty`` installs its snapshot builder here); otherwise a
        #: minimal transport-level snapshot is returned.
        self.stats_provider = None

    # -- observability (same resolution rule as the simulator Network) ------

    @property
    def tracer(self):
        return self.clock.tracer

    @property
    def rng(self):
        return self.clock.rng

    # -- lifecycle -----------------------------------------------------------

    def attach(self, party: Receiver) -> None:
        """Attach the single local party (its index must be ours)."""
        if party.index != self.index:
            raise ValueError(
                f"party index {party.index} does not match transport index {self.index}"
            )
        if self._party is not None:
            raise ValueError(f"party {self.index} already attached")
        self._party = party

    async def start(self) -> None:
        """Bind the listening socket and start one dialer per peer."""
        if self._server is not None:
            raise RuntimeError("transport already started")
        loop = self.clock.loop
        host, port = self.peers[self.index]
        self._server = await loop.create_server(
            lambda: _InboundConnection(self), host, port
        )
        for peer, (peer_host, peer_port) in sorted(self.peers.items()):
            if peer == self.index:
                continue
            link = _PeerLink(self, peer, peer_host, peer_port)
            self._links[peer] = link
            link.task = loop.create_task(
                link.run(), name=f"icc-net-out-{self.index}->{peer}"
            )

    @property
    def bound_port(self) -> int:
        """The port the listener actually bound (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("transport is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Tear everything down: listener, connections, dialer tasks."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._inbound):
            conn.transport.close()
        for link in self._links.values():
            if link.conn is not None:
                link.conn.transport.close()
            link.task.cancel()
        await asyncio.gather(
            *(link.task for link in self._links.values()), return_exceptions=True
        )
        if self._server is not None:
            await self._server.wait_closed()

    # -- transmission (the surface the protocol objects call) ----------------

    def broadcast(self, sender: int, message: object, round: int | None = None) -> None:
        """Same-message-to-everyone, self-delivery included (Section 3.1)."""
        self._require_local(sender)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.broadcast", self.n, "copies", self.n,
        )
        for link in self._links.values():
            link.enqueue(message, body)
        self._loopback(message)

    def send(self, sender: int, receiver: int, message: object, round: int | None = None) -> None:
        """Point-to-point send (gossip, ICC2 fragments)."""
        self._require_local(sender)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.send", 1, "receiver", receiver,
        )
        if receiver == sender:
            self._loopback(message)
            return
        link = self._links.get(receiver)
        if link is None:
            raise ValueError(f"unknown receiver {receiver}")
        link.enqueue(message, body)

    def multicast(self, sender: int, receivers: Iterable[int], message: object,
                  round: int | None = None) -> None:
        """Same message to a subset (the gossip overlay's fan-out)."""
        self._require_local(sender)
        receivers = list(receivers)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.multicast", len(receivers), "receivers", len(receivers),
        )
        for receiver in receivers:
            if receiver == sender:
                self._loopback(message)
                continue
            link = self._links.get(receiver)
            if link is None:
                raise ValueError(f"unknown receiver {receiver}")
            link.enqueue(message, body)

    def _require_local(self, sender: int) -> None:
        if sender != self.index:
            raise ValueError(
                f"transport for party {self.index} cannot send as party {sender}"
            )

    def _mark_dirty(self, link: _PeerLink) -> None:
        """Have ``link`` flush at the end of this loop turn: whatever the
        handlers running now enqueue goes out in one write per link."""
        dirty = self._dirty
        if not dirty:
            self.clock.loop.call_soon(self._flush)
        dirty[link] = None

    def _flush(self) -> None:
        dirty, self._dirty = self._dirty, {}
        for link in dirty:
            link.flush()

    def _loopback(self, message: object) -> None:
        """Self-delivery: scheduled, never reentrant (mirrors the simulator,
        where a party's own messages arrive as a separate zero-delay event)."""
        self.clock.loop.call_soon(self._hand_over, message)

    def _hand_over(self, message: object) -> None:
        if self._closing:
            return
        if self._party is not None:
            self._delivered += 1
            self._party.on_receive(message)

    @property
    def delivered_count(self) -> int:
        return self._delivered

    def link_backlog(self) -> int:
        """Frames sent or queued on any outbound link and not yet acknowledged."""
        return sum(link.queued for link in self._links.values())

    def links_paused(self) -> int:
        """Outbound links whose kernel write buffer is above the high-water
        mark: the peer is not reading what we send."""
        links = self._links.values()
        return sum(link.conn is not None and link.conn.paused for link in links)

    # -- inbound -------------------------------------------------------------

    def _handshake(self, kind: str, payload: object) -> int:
        """Validate the first frame of an inbound connection."""
        if kind != "hello":
            raise FrameError("first frame was not HELLO")
        index, cluster_id, incarnation = payload  # type: ignore[misc]
        if cluster_id != self.cluster_id:
            raise FrameError(
                f"HELLO from cluster {cluster_id!r} (expected {self.cluster_id!r})"
            )
        if index == self.index or index not in self.peers:
            raise FrameError(f"HELLO from unknown party index {index}")
        previous = next((conn for conn in self._inbound if conn.peer == index), None)
        if previous is not None:
            # Duplicate connection: the peer reconnected (or a stale socket
            # lingered).  Newest wins; the old one is closed and, no longer
            # naming a peer, reports no disconnect.
            previous.peer = None
            previous.transport.close()
            self.dup_connections_total += 1
        if self._peer_incarnation.get(index) != incarnation:
            self._peer_incarnation[index] = incarnation
            self._delivered_seq[index] = 0
        self._on_peer_connect(index, "in", reconnect=previous is not None)
        return index

    def _reject_frame(self, peer_index: int | None, exc: FrameError) -> None:
        self.frames_rejected += 1
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.frame.rejected",
                payload={"peer": peer_index, "reason": str(exc)},
            )

    # -- STAT endpoint ---------------------------------------------------------

    def _stat_payload(self) -> dict:
        """The STAT answer: the installed provider's snapshot, or a
        transport-level fallback when no party is wired in."""
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.stat.request", payload={},
            )
        if self.stats_provider is not None:
            return dict(self.stats_provider())
        return {
            "index": self.index,
            "cluster_id": self.cluster_id,
            "delivered": self._delivered,
            "connects": self.connects_total,
            "reconnects": self.reconnects_total,
        }

    # -- connection observability --------------------------------------------

    def _on_peer_connect(self, peer: int, direction: str, reconnect: bool) -> None:
        self.connects_total += 1
        if reconnect:
            self.reconnects_total += 1
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.peer.connect",
                payload={"peer": peer, "direction": direction, "reconnect": reconnect},
            )

    def _on_peer_disconnect(self, peer: int, direction: str) -> None:
        if self._closing:
            return
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.peer.disconnect",
                payload={"peer": peer, "direction": direction},
            )

    # -- simulator-only controls ----------------------------------------------

    def install_faults(self, interceptor: object) -> None:
        """Fault scenarios manipulate *virtual* delivery; the live transport
        cannot honour them.  See docs/FAULTS.md ("Simulator-only")."""
        raise SimulatorOnlyFeature(
            "fault injection is simulator-only: TcpNetwork cannot intercept "
            "real socket delivery — run the scenario against "
            "repro.sim.network.Network, or use OS-level tooling for live "
            "fault drills"
        )

    def clear_faults(self) -> None:
        raise SimulatorOnlyFeature(
            "fault injection is simulator-only: nothing to clear on TcpNetwork"
        )

    def is_crashed(self, index: int) -> bool:
        """Nothing can be crashed through this object (:meth:`crash`
        raises), so the answer the invariant checker asks for is no."""
        return False

    def crash(self, index: int) -> None:
        raise SimulatorOnlyFeature(
            "crash() is simulator-only: to crash a live party, stop its "
            "process (the transport's reconnect/backoff handles the rest)"
        )

    def revive(self, index: int) -> None:
        raise SimulatorOnlyFeature(
            "revive() is simulator-only: restart the party process instead"
        )

    def add_partition(self, group: set[int], heal_time: float) -> None:
        raise SimulatorOnlyFeature(
            "partitions are simulator-only: use OS-level packet filtering "
            "for live partition drills"
        )
