"""Each distinct MSG body is decoded once per party.

:class:`~repro.net.framing.DecodeMemo` answers a body it holds with the
message it decoded before.  These tests hold it to a fresh
``codec.decode`` over every table row, to its two bounds, to one memo per
party, and to the rule that a body differing in any byte is never served
from it.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.merkle import MerkleProof
from repro.net import codec
from repro.net.clock import WallClock
from repro.net.codec import FrameError
from repro.net.framing import DecodeMemo, decode_payload, hello_frame, message_frame
from repro.net.transport import TcpNetwork
from repro.rbc.protocol import Fragment, RbcMessage

from .test_codec import CORPUS, H, messages, same
from .test_transport import make_net, peer_map, run, until
from .wire import body, msg


class TestSameAsAFreshDecode:
    @given(st.lists(messages, min_size=1, max_size=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_repeats(self, distinct, data):
        """Every table row (signature rows nested), repeated in any order,
        through a memo small enough to evict."""
        bodies = [codec.encode(m) for m in distinct]
        order = data.draw(st.lists(st.sampled_from(bodies), max_size=40))
        memo = DecodeMemo(max_entries=4)
        for raw in bodies + order:
            decoded = memo.decode(raw)
            assert same(decoded, codec.decode(raw))
            assert codec.encode(decoded) == raw

    @pytest.mark.parametrize("message", CORPUS, ids=lambda m: type(m).__name__)
    def test_a_held_body_is_answered_from_the_memo(self, message):
        raw = codec.encode(message)
        memo = DecodeMemo(max_entries=8)
        first = memo.decode(b"\x02" + b"\x00" * 8 + raw, 9)  # a MSG body's offset
        assert memo.decode(raw) is first
        assert same(first, message)

    def test_decode_payload_goes_through_the_memo(self):
        memo = DecodeMemo(max_entries=8)
        a = decode_payload(message_frame(1, body(1))[4:], memo.decode)
        b = decode_payload(message_frame(7, body(1))[4:], memo.decode)
        assert a[0] == b[0] == "msg" and (a[1][0], b[1][0]) == (1, 7)
        assert a[1][1] is b[1][1] == msg(1)


class TestBounds:
    def test_entries_and_bytes_stay_bounded(self):
        memo = DecodeMemo(max_entries=8)
        assert memo.max_bytes == 8 * 1024
        sizes = [10, 700, 3000, 5000, 9000, 40, 2000, 6000, 100, 8192, 1]
        for round_, size in enumerate(sizes * 3):
            raw = codec.encode(RbcMessage(
                1, H, round_, "echo", Fragment(0, b"x" * size, MerkleProof(0, ())),
            ))
            memo.decode(raw)
            assert len(memo._messages) <= memo.max_entries
            assert memo._bytes <= memo.max_bytes
            assert memo._bytes == sum(map(len, memo._messages))
        # A body above the byte bound is decoded and not kept.
        assert all(len(raw) <= memo.max_bytes for raw in memo._messages)

    def test_oldest_goes_first(self):
        memo = DecodeMemo(max_entries=3)
        held = [memo.decode(body(i)) for i in range(4)]
        assert list(memo._messages) == [body(1), body(2), body(3)]
        assert memo.decode(body(3)) is held[3]
        assert memo.decode(body(0)) is not held[0]


class TestFlippedBytes:
    @pytest.mark.parametrize("message", CORPUS, ids=lambda m: type(m).__name__)
    def test_a_flipped_byte_is_decoded_fresh_or_rejected(self, message):
        raw = codec.encode(message)
        for at in range(len(raw)):
            for bit in (0x01, 0x80):
                memo = DecodeMemo(max_entries=8)
                held = memo.decode(raw)
                flipped = bytearray(raw)
                flipped[at] ^= bit
                flipped = bytes(flipped)
                try:
                    fresh = codec.decode(flipped)
                except FrameError:
                    with pytest.raises(FrameError):
                        memo.decode(flipped)
                    assert list(memo._messages) == [raw]
                else:
                    decoded = memo.decode(flipped)
                    assert decoded is not held and same(decoded, fresh)
                assert memo.decode(raw) is held


class TestOneMemoPerParty:
    def test_two_parties_two_memos(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            peers = {1: ("127.0.0.1", 0), 2: ("127.0.0.1", 0)}
            a = TcpNetwork(WallClock(loop=loop, seed=1), 1, peers)
            b = TcpNetwork(WallClock(loop=loop, seed=2), 2, peers)
            return a._decoded, b._decoded

        a, b = run(scenario())
        assert a is not b
        assert a.max_entries == b.max_entries == 16 * 2

    def test_an_echoed_body_is_decoded_once(self, monkeypatch):
        """The same message from two peers: two hand-overs of one object, one
        ``codec.decode``."""
        calls = []
        decode = codec.decode

        def counted(raw, offset=0):
            calls.append(raw)
            return decode(raw, offset)

        monkeypatch.setattr(codec, "decode", counted)

        async def scenario():
            peers = peer_map(3)
            net, receiver = await make_net(3, peers)
            writers = []
            try:
                for peer in (1, 2):
                    host, port = peers[3]
                    _r, w = await asyncio.open_connection(host, port)
                    w.write(hello_frame(peer, "t") + message_frame(1, body(5)))
                    await w.drain()
                    writers.append(w)
                await until(lambda: len(receiver.received) == 2)
                for w in writers:
                    w.close()
                return receiver.received
            finally:
                await net.stop()

        first, second = run(scenario())
        assert first is second == msg(5)
        assert calls == [body(5)]
