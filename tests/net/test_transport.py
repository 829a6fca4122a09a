"""TcpNetwork edge cases: real sockets, but millisecond-scale backoffs.

Every test runs a scenario coroutine under ``asyncio.run``; transports
are built with ``backoff_base=0.01`` so reconnect paths resolve in tens
of milliseconds, not the production 50 ms-to-2 s ladder — except in
``TestRedialBackoff``, which measures that ladder.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.net import codec
from repro.net.clock import WallClock
from repro.net.config import free_local_ports
from repro.net.framing import (
    FrameDecoder,
    ack_frame,
    decode_payload,
    hello_frame,
    message_frame,
)
from repro.net.transport import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    SimulatorOnlyFeature,
    TcpNetwork,
    _OutboundConnection,
)
from .wire import body, msg


class StubReceiver:
    def __init__(self, index: int) -> None:
        self.index = index
        self.received: list = []

    def on_receive(self, message) -> None:
        self.received.append(message)


async def until(predicate, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached within timeout")
        await asyncio.sleep(0.005)


async def make_net(
    index: int, peers: dict, *, cluster_id: str = "t",
    backoff: tuple[float, float] = (0.01, 0.05),
) -> tuple[TcpNetwork, StubReceiver]:
    clock = WallClock(loop=asyncio.get_running_loop(), seed=index)
    net = TcpNetwork(
        clock, index, peers, cluster_id=cluster_id,
        backoff_base=backoff[0], backoff_cap=backoff[1],
    )
    receiver = StubReceiver(index)
    await net.start()
    net.attach(receiver)
    return net, receiver


def peer_map(n: int) -> dict:
    ports = free_local_ports(n)
    return {i + 1: ("127.0.0.1", ports[i]) for i in range(n)}


def run(coro):
    return asyncio.run(coro)


class TestDelivery:
    def test_broadcast_reaches_all_including_self(self):
        async def scenario():
            peers = peer_map(3)
            nets = [await make_net(i, peers) for i in (1, 2, 3)]
            try:
                nets[0][0].broadcast(1, msg(1))
                await until(
                    lambda: all(len(r.received) == 1 for _, r in nets)
                )
                return [r.received[0] for _, r in nets]
            finally:
                for net, _ in nets:
                    await net.stop()

        assert run(scenario()) == [msg(1)] * 3

    def test_send_is_point_to_point(self):
        async def scenario():
            peers = peer_map(3)
            nets = [await make_net(i, peers) for i in (1, 2, 3)]
            try:
                nets[0][0].send(1, 3, msg(1))
                await until(lambda: nets[2][1].received == [msg(1)])
                await asyncio.sleep(0.02)  # grace: nothing leaks to party 2
                return [r.received for _, r in nets]
            finally:
                for net, _ in nets:
                    await net.stop()

        assert run(scenario()) == [[], [], [msg(1)]]

    def test_metrics_follow_simulator_conventions(self):
        """Broadcast counts n messages but n-1 wire copies, exactly like
        repro.sim.network.Network (docs/TRANSPORT.md comparison table)."""

        async def scenario():
            peers = peer_map(3)
            net, _ = await make_net(1, peers)
            try:
                message = msg(1)
                net.broadcast(1, message)
                from repro.sim.network import wire_size

                size = wire_size(message)
                return (
                    sum(net.metrics.msgs_sent.values()),
                    sum(net.metrics.bytes_sent.values()),
                    size,
                )
            finally:
                await net.stop()

        msgs, wire_bytes, size = run(scenario())
        assert msgs == 3  # paper convention: a broadcast counts n messages
        assert wire_bytes == size * 2  # but only n-1 copies cross the wire

    def test_sender_must_be_local_party(self):
        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                with pytest.raises(ValueError, match="cannot send as"):
                    net.broadcast(2, msg(1))
            finally:
                await net.stop()

        run(scenario())


class TestReconnect:
    def test_disconnect_mid_broadcast_queues_and_redelivers(self):
        """Messages broadcast while a peer is down sit in its outbound
        queue and arrive, in order, once the peer comes back."""

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            a.broadcast(1, msg(1))
            await until(lambda: msg(1) in rb.received)

            await b.stop()  # peer crashes mid-run
            a.broadcast(1, msg(2))
            a.broadcast(1, msg(3))
            await asyncio.sleep(0.03)  # a few failed redial cycles

            b2, rb2 = await make_net(2, peers)  # peer restarts, same port
            try:
                await until(lambda: rb2.received == [msg(2), msg(3)])
                return a.metrics.msgs_sent, rb2.received
            finally:
                await a.stop()
                await b2.stop()

        _, redelivered = run(scenario())
        assert redelivered == [msg(2), msg(3)]

    def test_reconnect_counted(self):
        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            a.broadcast(1, msg(1))
            await until(lambda: rb.received == [msg(1)])
            await b.stop()
            await asyncio.sleep(0.03)
            b2, rb2 = await make_net(2, peers)
            a.broadcast(1, msg(2))
            try:
                await until(lambda: rb2.received == [msg(2)])
                return a.reconnects_total
            finally:
                await a.stop()
                await b2.stop()

        assert run(scenario()) >= 1


class TestRestart:
    def test_restarted_party_is_heard_again(self):
        """A restarted process numbers its frames from 1 again.  Its HELLO
        names a new incarnation, so the peer's delivered mark (3 here) must
        not swallow the new frames nor ACK them away unseen."""

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            try:
                for i in (1, 2, 3):
                    a.broadcast(1, msg(i))
                await until(lambda: len(rb.received) == 3)
                await a.stop()

                a2, _ = await make_net(1, peers)  # same index, same port
                try:
                    assert a2.incarnation != a.incarnation
                    a2.broadcast(1, msg(4))
                    await until(lambda: len(rb.received) >= 4)
                    await until(lambda: a2._links[2].queued == 0)
                    await asyncio.sleep(0.02)  # grace: no late duplicates
                    return rb.received
                finally:
                    await a2.stop()
            finally:
                await b.stop()

        assert run(scenario()) == [msg(1), msg(2), msg(3), msg(4)]


class SpyTransport:
    """An outbound transport stand-in that records each ``write`` and can
    kill the connection right after the first one."""

    def __init__(self, transport, writes: list, kill_first: bool) -> None:
        self._transport = transport
        self._writes = writes
        self._kill_first = kill_first

    def write(self, data: bytes) -> None:
        self._writes.append(data)
        self._transport.write(data)
        if self._kill_first and len(self._writes) == 1:
            self._transport.abort()

    def __getattr__(self, name):
        return getattr(self._transport, name)


def spy_on_writes(monkeypatch, writes: list, kill_first: bool = False) -> None:
    """Record what outbound connections write after their HELLO."""
    original = _OutboundConnection.connection_made

    def spied(self, transport):
        original(self, transport)
        self.transport = SpyTransport(transport, writes, kill_first)

    monkeypatch.setattr(_OutboundConnection, "connection_made", spied)


def seqs_in(data: bytes) -> list[int]:
    """The sequence number of every MSG or ACK frame in ``data``."""
    decoded = [decode_payload(f) for f in FrameDecoder().feed(data)]
    return [payload if kind == "ack" else payload[0] for kind, payload in decoded]


class TestSendPath:
    def test_broadcast_encodes_once(self, monkeypatch):
        """One ``codec.encode`` per broadcast / multicast / send; the n − 1
        frames differ only in their header."""
        calls = []
        real_encode = codec.encode

        def counting(message):
            calls.append(message)
            return real_encode(message)

        monkeypatch.setattr(codec, "encode", counting)

        async def scenario():
            peers = peer_map(4)
            net, _ = await make_net(1, peers)  # peers down: frames just queue
            try:
                net.broadcast(1, msg(1))
                after_broadcast = len(calls)
                frames = [link.unacked[-1][1] for link in net._links.values()]
                net.multicast(1, [2, 3], msg(2))
                after_multicast = len(calls)
                net.send(1, 4, msg(3))
                return after_broadcast, after_multicast, len(calls), frames
            finally:
                await net.stop()

        after_broadcast, after_multicast, after_send, frames = run(scenario())
        assert (after_broadcast, after_multicast, after_send) == (1, 2, 3)
        assert len(frames) == 3
        header = 4 + 1 + 8
        assert {frame[header:] for frame in frames} == {real_encode(msg(1))}
        assert {len(frame) for frame in frames} == {header + len(body(1))}

    def test_unencodable_message_raises_at_the_sender(self):
        async def scenario():
            peers = peer_map(2)
            net, receiver = await make_net(1, peers)
            try:
                with pytest.raises(TypeError, match="wire codec"):
                    net.broadcast(1, {"not": "a protocol message"})
                await asyncio.sleep(0.01)
                return net._links[2].queued, receiver.received
            finally:
                await net.stop()

        assert run(scenario()) == (0, [])

    def test_parked_writer_backlog_is_one_write(self, monkeypatch):
        writes: list[bytes] = []
        spy_on_writes(monkeypatch, writes)

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            try:
                link = a._links[2]
                await until(lambda: link.connected)
                await asyncio.sleep(0.02)  # connected and idle
                for i in range(1, 6):
                    a.broadcast(1, msg(i))
                await until(lambda: len(rb.received) == 5)
                await until(lambda: link.queued == 0)
                return rb.received
            finally:
                await a.stop()
                await b.stop()

        assert run(scenario()) == [msg(i) for i in range(1, 6)]
        assert [seqs_in(data) for data in writes] == [[1, 2, 3, 4, 5]]

    def test_connection_killed_after_the_write_resends_the_tail(self, monkeypatch):
        """The one write reaches the kernel, then the connection dies before
        any ACK: on reconnect the whole un-ACKed tail goes out again (one
        write), and the receiver still delivers each message exactly once."""
        writes: list[bytes] = []
        spy_on_writes(monkeypatch, writes, kill_first=True)

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            try:
                link = a._links[2]
                await until(lambda: link.connected)
                await asyncio.sleep(0.02)
                for i in range(1, 6):
                    a.broadcast(1, msg(i))
                await until(lambda: link.connects >= 2 and link.queued == 0)
                await asyncio.sleep(0.02)  # grace: no late duplicates
                return rb.received
            finally:
                await a.stop()
                await b.stop()

        assert run(scenario()) == [msg(i) for i in range(1, 6)]
        assert [seqs_in(data) for data in writes] == [[1, 2, 3, 4, 5]] * 2


class TestFlowControl:
    def test_paused_link_writes_nothing_until_resumed(self, monkeypatch):
        """Above the high-water mark a link writes nothing; what queued
        meanwhile goes out in one write when the kernel buffer drains."""
        writes: list[bytes] = []
        spy_on_writes(monkeypatch, writes)

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            try:
                link = a._links[2]
                await until(lambda: link.connected)
                await asyncio.sleep(0.02)
                link.conn.pause_writing()
                for i in range(1, 6):
                    a.broadcast(1, msg(i))
                await asyncio.sleep(0.02)
                while_paused = (list(writes), a.links_paused())
                link.conn.resume_writing()
                await until(lambda: len(rb.received) == 5)
                return while_paused, a.links_paused(), rb.received
            finally:
                await a.stop()
                await b.stop()

        while_paused, after, received = run(scenario())
        assert while_paused == ([], 1)
        assert after == 0
        assert received == [msg(i) for i in range(1, 6)]
        assert [seqs_in(data) for data in writes] == [[1, 2, 3, 4, 5]]

    def test_inbound_stops_reading_while_its_acks_are_not_read(self):
        """The acceptor's own writes (ACKs) paused means the sender is not
        reading them: stop reading its MSGs until it does."""

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            try:
                await until(lambda: any(conn.peer == 1 for conn in b._inbound))
                conn = next(conn for conn in b._inbound if conn.peer == 1)
                conn.pause_writing()
                reading_while_paused = conn.transport.is_reading()
                a.broadcast(1, msg(1))
                await asyncio.sleep(0.05)
                held = list(rb.received)
                conn.resume_writing()
                reading_after = conn.transport.is_reading()
                await until(lambda: rb.received == [msg(1)])
                return reading_while_paused, held, reading_after
            finally:
                await a.stop()
                await b.stop()

        assert run(scenario()) == (False, [], True)


class TestRedialBackoff:
    """Production backoff (50 ms doubling to 2 s): the parent redialled a
    peer that accepted the TCP connection and then hung up at once, about
    1,700 times per second."""

    production = (BACKOFF_BASE, BACKOFF_CAP)

    def test_mismatched_clusters_back_off(self):
        """Each side hangs up on the other's HELLO.  No ACK means no
        connection was accepted, so each one counts as a failed dial."""

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers, cluster_id="left", backoff=self.production)
            b, _ = await make_net(2, peers, cluster_id="right", backoff=self.production)
            try:
                await asyncio.sleep(1.0)
                return (
                    a._links[2].connects, b._links[1].connects,
                    a.frames_rejected, b.frames_rejected,
                )
            finally:
                await a.stop()
                await b.stop()

        dials_a, dials_b, rejected_a, rejected_b = run(scenario())
        assert 1 <= dials_a <= 20
        assert 1 <= dials_b <= 20
        assert rejected_a >= 1 and rejected_b >= 1

    def test_non_ack_frame_on_the_outbound_connection_is_rejected(self):
        """A peer that answers the HELLO with a MSG: every connection is
        one rejected frame, counted like an inbound one, then a backoff."""

        async def scenario():
            peers = peer_map(2)
            connections = []

            async def impostor(reader, writer):
                connections.append(writer)
                writer.write(message_frame(1, body(1)))  # a MSG where an ACK belongs
                await writer.drain()
                await reader.read()  # until the dialler hangs up
                writer.close()

            host, port = peers[2]
            server = await asyncio.start_server(impostor, host, port)
            a, _ = await make_net(1, peers, backoff=self.production)
            try:
                await until(lambda: a.frames_rejected >= 3)
                return len(connections), a._links[2].connects, a.frames_rejected
            finally:
                await a.stop()
                server.close()
                await server.wait_closed()

        assert run(scenario()) == (3, 3, 3)


class TestInbound:
    async def _raw_connect(self, net: TcpNetwork, index: int = 1,
                           cluster_id: str = "t", incarnation: int = 0):
        host, port = net.peers[net.index]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(hello_frame(index, cluster_id, incarnation=incarnation))
        await writer.drain()
        return reader, writer

    def test_duplicate_connection_newest_wins(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                r1, w1 = await self._raw_connect(b)
                w1.write(message_frame(1, body(1)))
                await w1.drain()
                await until(lambda: rb.received == [msg(1)])

                _r2, w2 = await self._raw_connect(b)  # duplicate from party 1
                w2.write(message_frame(2, body(2)))
                await w2.drain()
                await until(lambda: rb.received == [msg(1), msg(2)])
                # The superseded connection is closed server-side: it got
                # its ACK for seq 1, then EOF.
                tail = await asyncio.wait_for(r1.read(), 2.0)
                w2.close()
                return b.dup_connections_total, tail
            finally:
                await b.stop()

        dups, tail = run(scenario())
        assert dups == 1
        # EOF, possibly after ACKs: every frame still on the superseded
        # connection must be an ACK for seq 1.
        for framed in FrameDecoder().feed(tail):
            assert decode_payload(framed) == ("ack", 1)

    def test_retransmitted_duplicates_deduped(self):
        """The receiver delivers each link sequence number once — a
        retransmitted tail after a lost-ACK reconnect is absorbed."""

        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                _r, w = await self._raw_connect(b)
                w.write(message_frame(1, body(1)))
                w.write(message_frame(2, body(2)))
                # Sender never saw the ACK: it retransmits 1..3.
                w.write(message_frame(1, body(1)))
                w.write(message_frame(2, body(2)))
                w.write(message_frame(3, body(3)))
                await w.drain()
                await until(lambda: len(rb.received) == 3)
                await asyncio.sleep(0.02)  # grace: no late duplicates
                w.close()
                return rb.received
            finally:
                await b.stop()

        assert run(scenario()) == [msg(1), msg(2), msg(3)]

    def test_incarnation_decides_whether_the_mark_survives(self):
        """A reconnect of the same incarnation keeps the delivered mark
        (retransmissions dedup); a HELLO naming a new incarnation means the
        peer restarted and numbers from 1 again, so the mark resets."""

        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                _r, w1 = await self._raw_connect(b, incarnation=5)
                w1.write(message_frame(1, body(1)))
                await w1.drain()
                await until(lambda: rb.received == [msg(1)])

                _r, w2 = await self._raw_connect(b, incarnation=5)
                w2.write(message_frame(1, body(1)) + message_frame(2, body(2)))
                await w2.drain()
                await until(lambda: rb.received == [msg(1), msg(2)])

                r3, w3 = await self._raw_connect(b, incarnation=6)
                handshake_ack = await asyncio.wait_for(r3.read(4096), 2.0)
                w3.write(message_frame(1, body(3)))
                await w3.drain()
                await until(lambda: rb.received == [msg(1), msg(2), msg(3)])
                for w in (w1, w2, w3):
                    w.close()
                return seqs_in(handshake_ack)
            finally:
                await b.stop()

        # The handshake ACK already carries the reset mark, not the old 2.
        assert run(scenario()) == [0]

    def test_undecodable_message_closes_connection(self):
        """A MSG whose body is not in the codec table is rejected exactly
        as an undecodable pickle was: connection closed, one count."""

        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                reader, writer = await self._raw_connect(b)
                writer.write(message_frame(1, body(1)) + message_frame(2, b"\xffjunk"))
                await writer.drain()
                await asyncio.wait_for(reader.read(), 2.0)
                return rb.received, b.frames_rejected
            finally:
                await b.stop()

        received, rejected = run(scenario())
        assert received == [msg(1)]
        assert rejected == 1

    def test_oversized_frame_closes_connection(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                reader, writer = await self._raw_connect(b)
                writer.write((b.max_frame + 1).to_bytes(4, "big"))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                await until(lambda: b.frames_rejected >= 1)
                return eof, b.frames_rejected
            finally:
                await b.stop()

        eof, rejected = run(scenario())
        assert eof == b""
        assert rejected == 1

    def test_wrong_cluster_id_rejected(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                reader, writer = await self._raw_connect(
                    b, cluster_id="other-cluster"
                )
                writer.write(message_frame(1, body(1)))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                return eof, b.frames_rejected, rb.received
            finally:
                await b.stop()

        eof, rejected, received = run(scenario())
        assert eof == b""
        assert rejected == 1
        assert received == []

    def test_version_1_hello_rejected(self):
        """A peer still framing timestamps (codec version 1) is refused at
        its HELLO and counted, before any MSG of its layout is misread."""

        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                host, port = peers[2]
                reader, writer = await asyncio.open_connection(host, port)
                hello_v1 = struct.pack(">BBIQQ", 0x01, 1, 1, 0, 123_456) + b"t"
                writer.write(len(hello_v1).to_bytes(4, "big") + hello_v1)
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                return eof, b.frames_rejected, rb.received
            finally:
                await b.stop()

        assert codec.VERSION == 2
        assert run(scenario()) == (b"", 1, [])

    def test_message_before_hello_rejected(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                host, port = peers[2]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(message_frame(1, body(1)))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                return eof, rb.received
            finally:
                await b.stop()

        eof, received = run(scenario())
        assert eof == b""
        assert received == []


class TestSimulatorOnly:
    def test_fault_controls_raise_clearly(self):
        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                with pytest.raises(SimulatorOnlyFeature, match="simulator-only"):
                    net.install_faults(object())
                with pytest.raises(SimulatorOnlyFeature):
                    net.crash(2)
                with pytest.raises(SimulatorOnlyFeature):
                    net.revive(2)
                with pytest.raises(SimulatorOnlyFeature):
                    net.add_partition({1}, 5.0)
                with pytest.raises(SimulatorOnlyFeature):
                    net.clear_faults()
            finally:
                await net.stop()

        run(scenario())

    def test_fault_injector_attach_fails(self):
        """The docs/FAULTS.md contract: attaching a simulator fault
        scenario to the live transport errors instead of silently doing
        nothing."""
        from repro.faults.inject import FaultInjector
        from repro.faults.scenario import LinkFault, Scenario

        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                drill = Scenario(
                    name="live-drill", seed=1,
                    events=(LinkFault(start=0.0, end=1.0, drop_prob=0.5),),
                )
                with pytest.raises(SimulatorOnlyFeature):
                    FaultInjector(drill, net).install()
            finally:
                await net.stop()

        run(scenario())
