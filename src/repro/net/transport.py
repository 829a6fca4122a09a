"""The asyncio/TCP network: the live counterpart of :class:`repro.sim.network.Network`.

One :class:`TcpNetwork` serves one party.  It implements the exact
transmission surface the protocol objects use — ``attach`` /
``broadcast`` / ``send`` / ``multicast``, plus the same
:class:`repro.sim.metrics.Metrics` traffic accounting and the same
``net.*`` meter counters — so an :class:`~repro.core.icc0.ICC0Party`
(or ICC1/ICC2) cannot tell it is talking to sockets.

Topology: every pair of parties is connected by **two TCP connections,
one per direction** — each side owns its outbound connection and accepts
the inbound one.  That keeps connection ownership trivial (no tie-break
protocol for simultaneous dials) at the cost of one extra socket per
pair, which is irrelevant at consensus committee sizes.

Outbound path: a message is encoded once (:mod:`repro.net.codec`) however
many links it goes to; each link frames the body under its own sequence
number into a per-peer FIFO drained by a sender task that dials the peer,
sends a HELLO, then writes — everything not yet written, in one ``write``
per wakeup — while reading cumulative ACKs off the same connection.  A
frame stays buffered until an ACK covers it — a successful ``drain()``
proves nothing about delivery (the kernel buffers it; the peer may die
first) — and on reconnect (exponential backoff, jittered, capped) the whole
unACKed tail is retransmitted.  The receiver deduplicates by sequence
number, so the link gives in-order exactly-once delivery to the party even
though the wire is at-least-once.

Inbound path: the acceptor requires a HELLO naming a configured peer of
the same cluster before any message frame.  A duplicate connection from
a peer supersedes the previous one (newest wins — the peer evidently
reconnected); the per-peer delivery sequence survives the swap, so
retransmitted frames from either connection dedup correctly — unless the
HELLO names a new *incarnation* of the peer (its process restarted and
numbers its frames from 1 again), which resets it.  Malformed, oversized
or undecodable frames close the connection and count
``live.frames.rejected``.

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


class ClockSync:
    """Per-peer NTP-style sample aggregator for the timestamped ACK path.

    Every ACK carries ``(t1=echoed peer send-time, t2=peer receive-time,
    t3=peer ACK send-time)`` and arrives at local ``t4``; this records the
    instantaneous offset ``theta = ((t2-t1)+(t3-t4))/2`` (peer clock minus
    ours, seconds) and keeps the minimum-RTT sample per peer — the one
    whose offset estimate is tightest (error is bounded by ``rtt/2``).
    The collector (:mod:`repro.obs.distributed`) does the real alignment
    offline from ``live.clock.sample`` trace events; this summary feeds
    the STAT endpoint.
    """

    def __init__(self) -> None:
        self.samples: dict[int, int] = {}
        self.best: dict[int, tuple[float, float]] = {}  # peer -> (theta, rtt)

    def add(self, peer: int, theta: float, rtt: float) -> None:
        self.samples[peer] = self.samples.get(peer, 0) + 1
        current = self.best.get(peer)
        if current is None or rtt < current[1]:
            self.best[peer] = (theta, rtt)

    def summary(self) -> dict:
        """JSON-safe per-peer summary: best offset estimate + bound."""
        return {
            str(peer): {
                "theta_s": self.best[peer][0],
                "uncertainty_s": self.best[peer][1] / 2.0,
                "samples": self.samples[peer],
            }
            for peer in sorted(self.best)
        }


class _PeerLink:
    """Outbound side of one peer: unACKed frame buffer + reconnecting sender.

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
        self.wakeup = asyncio.Event()
        self.task: asyncio.Task | None = None
        self.connected = False
        self.connects = 0  # successful dials (>= 2 means it reconnected)

    def enqueue(self, message: object, body: bytes, ts_ns: int) -> None:
        """Queue ``message``, already encoded as ``body``, for this peer."""
        seq = self.next_seq
        self.next_seq += 1
        frame = message_frame(seq, body, self.net.max_frame, ts_ns=ts_ns)
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
                payload={
                    "dst": self.peer,
                    "seq": seq,
                    "kind": message_kind(message),
                    "bytes": len(frame),
                },
            )
        self.wakeup.set()

    @property
    def queued(self) -> int:
        """Frames awaiting acknowledgement (for tests/metrics)."""
        return len(self.unacked)

    def start(self) -> None:
        self.task = self.net.clock.loop.create_task(
            self._run(), name=f"icc-net-out-{self.net.index}->{self.peer}"
        )

    async def _run(self) -> None:
        backoff = self.net.backoff_base
        while not self.net._closing:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(self._jitter(backoff))
                backoff = min(backoff * 2.0, self.net.backoff_cap)
                continue
            backoff = self.net.backoff_base
            self.connected = True
            self.connects += 1
            self.net._on_peer_connect(self.peer, "out", reconnect=self.connects > 1)
            try:
                writer.write(
                    hello_frame(
                        self.net.index, self.net.cluster_id, self.net.max_frame,
                        ts_ns=self.net.now_ns(), incarnation=self.net.incarnation,
                    )
                )
                await writer.drain()
                await self._converse(reader, writer)
            except (ConnectionError, OSError):
                pass  # fall through to reconnect; unACKed frames stay buffered
            finally:
                self.connected = False
                self.net._on_peer_disconnect(self.peer, "out")
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _converse(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Run the write and ACK-read loops until either side of the
        connection fails; whichever loop notices first ends both."""
        self._wire_seq = self.acked  # rewind: retransmit the unACKed tail
        loop = self.net.clock.loop
        tasks = {
            loop.create_task(self._write_loop(writer)),
            loop.create_task(self._read_acks(reader)),
        }
        try:
            await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        """Each wakeup writes every frame beyond ``_wire_seq`` at once.

        ``unacked`` holds consecutive sequence numbers ending at
        ``next_seq - 1``, so the unwritten frames are its last ``pending``
        entries — nothing is scanned.
        """
        while not self.net._closing:
            last = self.next_seq - 1
            pending = last - max(self._wire_seq, self.acked)
            if not pending:
                self.wakeup.clear()
                await self.wakeup.wait()
                continue
            frames = [frame for _, frame in islice(reversed(self.unacked), pending)]
            frames.reverse()
            self._wire_seq = last
            writer.write(b"".join(frames))
            await writer.drain()

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder(self.net.max_frame)
        while True:
            data = await reader.read(65536)
            if not data:
                return  # EOF — peer closed; _converse reconnects
            for body in decoder.feed(data):
                kind, payload = decode_payload(body)
                if kind != "ack":
                    raise FrameError(
                        f"expected ACK on the outbound connection, got {kind}"
                    )
                seq, echo_ns, recv_ns, send_ns = payload  # type: ignore[misc]
                self._on_ack(seq)
                if echo_ns and recv_ns:
                    self.net._record_clock_sample(
                        self.peer, echo_ns, recv_ns, send_ns, self.net.now_ns()
                    )

    def _on_ack(self, seq: int) -> None:
        if seq > self.acked:
            # Never beyond what was sent: frames not yet framed would be
            # dropped from ``unacked`` the moment they were enqueued.
            self.acked = min(seq, self.next_seq - 1)
        while self.unacked and self.unacked[0][0] <= self.acked:
            self.unacked.popleft()

    def _jitter(self, backoff: float) -> float:
        return backoff * (0.5 + 0.5 * self.net.clock.rng.random())

    async def stop(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):
                pass


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
        self._server: asyncio.AbstractServer | None = None
        self._inbound_writers: dict[int, asyncio.StreamWriter] = {}
        self._accept_tasks: set[asyncio.Task] = set()
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
        self.frames_rejected = 0
        #: Plain connection counters (mirroring the ``live.connects`` /
        #: ``live.reconnects`` / ``live.dup_connections`` meters but always
        #: on — the STAT endpoint reports them even when no Meter is
        #: installed).
        self.connects_total = 0
        self.reconnects_total = 0
        self.dup_connections_total = 0
        #: NTP-style per-peer offset samples from timestamped ACKs.
        self.clock_sync = ClockSync()
        #: When set, STAT frames are answered with this callable's dict
        #: (``LiveParty`` installs its snapshot builder here); otherwise a
        #: minimal transport-level snapshot is returned.
        self.stats_provider = None

    # -- observability (same resolution rule as the simulator Network) ------

    @property
    def tracer(self):
        return self.clock.tracer

    @property
    def meter(self):
        return self.clock.meter

    @property
    def rng(self):
        return self.clock.rng

    def now_ns(self) -> int:
        """The local monotonic timeline in nanoseconds — the same clock
        trace events are stamped with, so wire timestamps and trace times
        are directly comparable."""
        return int(self.clock.now * 1e9)

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
        """Bind the listening socket and start the per-peer sender tasks."""
        if self._server is not None:
            raise RuntimeError("transport already started")
        host, port = self.peers[self.index]
        self._server = await asyncio.start_server(self._accept, host, port)
        for peer, (peer_host, peer_port) in sorted(self.peers.items()):
            if peer == self.index:
                continue
            link = _PeerLink(self, peer, peer_host, peer_port)
            self._links[peer] = link
            link.start()

    @property
    def bound_port(self) -> int:
        """The port the listener actually bound (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("transport is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Tear everything down: listener, acceptor tasks, sender tasks."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._accept_tasks):
            task.cancel()
        for link in self._links.values():
            link.wakeup.set()  # unblock queue waits so tasks observe _closing
            await link.stop()
        for writer in list(self._inbound_writers.values()):
            writer.close()
        if self._accept_tasks:
            await asyncio.gather(*self._accept_tasks, return_exceptions=True)
        self._accept_tasks.clear()

    # -- transmission (the surface the protocol objects call) ----------------

    def broadcast(self, sender: int, message: object, round: int | None = None) -> None:
        """Same-message-to-everyone, self-delivery included (Section 3.1)."""
        self._require_local(sender)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.broadcast", self.n, self.n - 1, "copies", self.n,
        )
        ts_ns = self.now_ns()
        for link in self._links.values():
            link.enqueue(message, body, ts_ns)
        self._loopback(message)

    def send(self, sender: int, receiver: int, message: object, round: int | None = None) -> None:
        """Point-to-point send (gossip, ICC2 fragments)."""
        self._require_local(sender)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.send", 1, 1, "receiver", receiver,
        )
        if receiver == sender:
            self._loopback(message)
            return
        link = self._links.get(receiver)
        if link is None:
            raise ValueError(f"unknown receiver {receiver}")
        link.enqueue(message, body, self.now_ns())

    def multicast(self, sender: int, receivers: Iterable[int], message: object,
                  round: int | None = None) -> None:
        """Same message to a subset (the gossip overlay's fan-out)."""
        self._require_local(sender)
        receivers = list(receivers)
        body = codec.encode(message)
        account_transmission(
            self, self.clock.now, sender, message, round,
            "net.multicast", len(receivers), len(receivers), "receivers", len(receivers),
        )
        ts_ns = self.now_ns()
        for receiver in receivers:
            if receiver == sender:
                self._loopback(message)
                continue
            link = self._links.get(receiver)
            if link is None:
                raise ValueError(f"unknown receiver {receiver}")
            link.enqueue(message, body, ts_ns)

    def _require_local(self, sender: int) -> None:
        if sender != self.index:
            raise ValueError(
                f"transport for party {self.index} cannot send as party {sender}"
            )

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

    # -- inbound -------------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._accept_tasks.add(task)
            task.add_done_callback(self._accept_tasks.discard)
        peer_index: int | None = None
        decoder = FrameDecoder(self.max_frame)
        # Newest peer send-time seen on this connection and its local
        # arrival time: echoed back in every ACK so the peer gets a full
        # four-timestamp clock sample per ACK.
        ping_echo_ns = 0
        ping_recv_ns = 0
        try:
            while not self._closing:
                try:
                    data = await reader.read(65536)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break  # EOF
                if peer_index is not None and self._inbound_writers.get(peer_index) is not writer:
                    break  # superseded: whatever is still buffered here is resent there
                arrival_ns = self.now_ns()
                try:
                    bodies = decoder.feed(data)
                    ack_due = False
                    for body in bodies:
                        kind, payload = decode_payload(body)
                        if kind == "stat":
                            # Monitoring probe (repro top): answer with a
                            # snapshot; no HELLO required, and the
                            # connection stays a plain query channel.
                            try:
                                writer.write(
                                    stat_reply_frame(
                                        self._stat_payload(), self.max_frame
                                    )
                                )
                                await writer.drain()
                            except (ConnectionError, OSError):
                                break
                        elif peer_index is None:
                            peer_index = self._handshake(kind, payload, writer)
                            ping_echo_ns = payload[2]  # type: ignore[index]
                            ping_recv_ns = arrival_ns
                            # ACK immediately: carries no new cumulative
                            # progress but gives the dialler a clock
                            # sample on every (re)connect.
                            ack_due = True
                        elif kind == "msg":
                            seq, send_ns, message = payload  # type: ignore[misc]
                            ping_echo_ns = send_ns
                            ping_recv_ns = arrival_ns
                            if seq > self._delivered_seq.get(peer_index, 0):
                                self._delivered_seq[peer_index] = seq
                                tracer = self.tracer
                                if tracer.enabled:
                                    tracer.emit(
                                        time=self.clock.now, party=self.index,
                                        protocol="net", round=None,
                                        kind="net.wire.recv",
                                        payload={
                                            "src": peer_index,
                                            "seq": seq,
                                            "kind": message_kind(message),
                                            "bytes": len(body) + 4,
                                        },
                                    )
                                self._hand_over(message)
                            ack_due = True
                        else:
                            raise FrameError(
                                f"unexpected {kind.upper()} frame on an open "
                                "inbound connection"
                            )
                except FrameError as exc:
                    self._reject_frame(peer_index, exc)
                    break
                if ack_due and peer_index is not None:
                    # One cumulative ACK per read chunk releases the
                    # sender's retransmit buffer (ACKed even when every
                    # frame was a duplicate — the peer may have missed
                    # the earlier ACK).
                    try:
                        writer.write(
                            ack_frame(
                                self._delivered_seq.get(peer_index, 0),
                                echo_ns=ping_echo_ns,
                                recv_ns=ping_recv_ns,
                                send_ns=self.now_ns(),
                            )
                        )
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
        except asyncio.CancelledError:
            pass
        finally:
            if peer_index is not None and self._inbound_writers.get(peer_index) is writer:
                del self._inbound_writers[peer_index]
                self._on_peer_disconnect(peer_index, "in")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _handshake(self, kind: str, payload: object, writer: asyncio.StreamWriter) -> int:
        """Validate the first frame of an inbound connection."""
        if kind != "hello":
            raise FrameError("first frame was not HELLO")
        index, cluster_id, _ts_ns, incarnation = payload  # type: ignore[misc]
        if cluster_id != self.cluster_id:
            raise FrameError(
                f"HELLO from cluster {cluster_id!r} (expected {self.cluster_id!r})"
            )
        if index == self.index or index not in self.peers:
            raise FrameError(f"HELLO from unknown party index {index}")
        previous = self._inbound_writers.get(index)
        if previous is not None:
            # Duplicate connection: the peer reconnected (or a stale socket
            # lingered).  Newest wins; closing the old transport makes its
            # read loop see EOF and exit.
            previous.close()
            self.dup_connections_total += 1
            if self.meter.enabled:
                self.meter.count("live.dup_connections")
        self._inbound_writers[index] = writer
        if self._peer_incarnation.get(index) != incarnation:
            self._peer_incarnation[index] = incarnation
            self._delivered_seq[index] = 0
        self._on_peer_connect(index, "in", reconnect=previous is not None)
        return index

    def _reject_frame(self, peer_index: int | None, exc: FrameError) -> None:
        self.frames_rejected += 1
        if self.meter.enabled:
            self.meter.count("live.frames.rejected")
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.frame.rejected",
                payload={"peer": peer_index, "reason": str(exc)},
            )

    # -- clock samples + STAT endpoint ----------------------------------------

    def _record_clock_sample(
        self, peer: int, t1_ns: int, t2_ns: int, t3_ns: int, t4_ns: int
    ) -> None:
        """Record one NTP four-timestamp sample for ``peer``.

        ``t1`` our send-time (echoed), ``t2`` peer receive-time, ``t3``
        peer ACK send-time, ``t4`` our ACK receive-time; ``theta`` is the
        peer clock minus ours, ``rtt`` the round trip net of the peer's
        hold time.  Retransmitted frames echo stale send-times and show
        up as huge RTTs — downstream minimum filters discard them.
        """
        rtt = ((t4_ns - t1_ns) - (t3_ns - t2_ns)) * 1e-9
        if rtt < 0:
            return  # stale echo ordering artefact; not a usable sample
        theta = ((t2_ns - t1_ns) + (t3_ns - t4_ns)) * 0.5e-9
        self.clock_sync.add(peer, theta, rtt)
        if self.meter.enabled:
            self.meter.count("live.clock.samples")
        if self.tracer.enabled:
            self.tracer.emit(
                time=self.clock.now, party=self.index, protocol="net", round=None,
                kind="live.clock.sample",
                payload={"peer": peer, "theta": theta, "rtt": rtt},
            )

    def _stat_payload(self) -> dict:
        """The STAT answer: the installed provider's snapshot, or a
        transport-level fallback when no party is wired in."""
        if self.meter.enabled:
            self.meter.count("live.stat.requests")
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
            "clock_sync": self.clock_sync.summary(),
        }

    # -- connection observability --------------------------------------------

    def _on_peer_connect(self, peer: int, direction: str, reconnect: bool) -> None:
        self.connects_total += 1
        if reconnect:
            self.reconnects_total += 1
        if self.meter.enabled:
            self.meter.count("live.connects")
            if reconnect:
                self.meter.count("live.reconnects")
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
