"""Framing layer: partial delivery, oversized rejection, payload decoding."""

from __future__ import annotations

import pytest

from repro.core.messages import ROOT_HASH, Block, Payload
from repro.net import codec
from repro.net.framing import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    OversizedFrame,
    ack_frame,
    decode_payload,
    encode_frame,
    hello_frame,
    message_frame,
    stat_frame,
    stat_reply_frame,
)

from .wire import body, msg


class TestEncode:
    def test_round_trip_message(self):
        frame = message_frame(9, body(7))
        decoder = FrameDecoder()
        (framed,) = decoder.feed(frame)
        kind, payload = decode_payload(framed)
        assert kind == "msg"
        assert payload == (9, msg(7))
        assert payload[1].share == msg(7).share

    def test_message_frame_is_header_plus_the_given_body(self):
        """The caller encodes; framing adds length, type and seq and
        nothing else — which is what lets a broadcast encode once."""
        frame = message_frame(9, body(7))
        assert frame.endswith(body(7))
        assert len(frame) == 4 + 1 + 8 + len(body(7))
        assert message_frame(10, body(7))[13:] == frame[13:]

    def test_round_trip_hello(self):
        frame = hello_frame(7, "cluster-x")
        (framed,) = FrameDecoder().feed(frame)
        assert decode_payload(framed) == ("hello", (7, "cluster-x", 0))
        assert len(frame) == 4 + 1 + 1 + 4 + 8 + len("cluster-x")

    def test_round_trip_hello_incarnation(self):
        frame = hello_frame(7, "cluster-x", incarnation=2**64 - 1)
        (framed,) = FrameDecoder().feed(frame)
        assert decode_payload(framed) == ("hello", (7, "cluster-x", 2**64 - 1))

    def test_round_trip_ack(self):
        """An ACK is its type and the cumulative sequence number: 9 bytes."""
        frame = ack_frame(41)
        assert len(frame) == 4 + 9
        (framed,) = FrameDecoder().feed(frame)
        assert decode_payload(framed) == ("ack", 41)

    def test_round_trip_stat(self):
        (framed,) = FrameDecoder().feed(stat_frame())
        assert decode_payload(framed) == ("stat", None)

    def test_round_trip_stat_reply(self):
        snapshot = {"index": 3, "height": 17, "links_paused": 0, "request_p50_s": None}
        (framed,) = FrameDecoder().feed(stat_reply_frame(snapshot))
        assert decode_payload(framed) == ("stat_reply", snapshot)

    def test_empty_body_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(b"")

    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(OversizedFrame):
            encode_frame(b"x" * 101, max_frame=100)

    def test_non_positive_hello_index_rejected(self):
        with pytest.raises(FrameError):
            hello_frame(0, "c")

    def test_non_positive_msg_seq_rejected(self):
        with pytest.raises(FrameError, match="start at 1"):
            message_frame(0, body(1))

    def test_negative_ack_rejected(self):
        with pytest.raises(FrameError):
            ack_frame(-1)

    def test_oversized_message_rejected_at_encode(self):
        with pytest.raises(OversizedFrame):
            message_frame(1, body(1), max_frame=9 + len(body(1)) - 1)
        message_frame(1, body(1), max_frame=9 + len(body(1)))


class TestDecodePayload:
    def test_unknown_type_byte(self):
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_payload(b"\x7fjunk")

    def test_truncated_hello(self):
        with pytest.raises(FrameError, match="truncated HELLO"):
            decode_payload(b"\x01\x00\x00")

    def test_truncated_msg(self):
        with pytest.raises(FrameError, match="truncated MSG"):
            decode_payload(b"\x02\x00\x00\x00\x00")

    def test_wrong_codec_version_in_hello(self):
        frame = bytearray(hello_frame(7, "cluster-x"))
        assert frame[5] == codec.VERSION
        frame[5] ^= 0xFF
        with pytest.raises(FrameError, match="codec version"):
            decode_payload(bytes(frame[4:]))

    def test_undecodable_message(self):
        header = b"\x02" + (1).to_bytes(8, "big")
        for payload in (b"not-a-message", body(1)[:-1], body(1) + b"\x00"):
            with pytest.raises(FrameError, match="undecodable MSG"):
                decode_payload(header + payload)

    def test_pickle_is_not_a_message(self):
        """What the transport used to carry is now just an unknown tag."""
        import pickle

        header = b"\x02" + (1).to_bytes(8, "big")
        with pytest.raises(FrameError, match="undecodable MSG"):
            decode_payload(header + pickle.dumps(msg(1)))

    def test_malformed_ack(self):
        with pytest.raises(FrameError, match="malformed ACK"):
            decode_payload(b"\x03\x00\x01")

    def test_malformed_stat(self):
        with pytest.raises(FrameError, match="malformed STAT"):
            decode_payload(b"\x04extra")

    def test_undecodable_stat_reply(self):
        with pytest.raises(FrameError, match="undecodable STAT_REPLY"):
            decode_payload(b"\x05not json")

    def test_stat_reply_must_be_object(self):
        with pytest.raises(FrameError, match="not a JSON object"):
            decode_payload(b"\x05[1, 2]")

    def test_empty_body(self):
        with pytest.raises(FrameError):
            decode_payload(b"")


class TestFrameDecoder:
    def test_byte_by_byte_partial_delivery(self):
        """TCP gives no boundaries: one byte at a time must still parse."""
        frame = message_frame(1, body(42))
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(frame)):
            bodies += decoder.feed(frame[i : i + 1])
        assert len(bodies) == 1
        assert decode_payload(bodies[0]) == ("msg", (1, msg(42)))
        assert decoder.pending_bytes == 0

    def test_glued_frames_split(self):
        frames = message_frame(1, body(1)) + message_frame(2, body(2)) + message_frame(3, body(3))
        bodies = FrameDecoder().feed(frames)
        assert [decode_payload(b)[1] for b in bodies] == [
            (1, msg(1)), (2, msg(2)), (3, msg(3)),
        ]

    def test_frame_split_across_feeds(self):
        f1, f2 = message_frame(1, body(1)), message_frame(2, body(2))
        stream = f1 + f2
        decoder = FrameDecoder()
        cut = len(f1) - 3  # first frame still incomplete after chunk 1
        bodies = decoder.feed(stream[:cut])
        assert bodies == []
        assert decoder.pending_bytes == cut
        bodies = decoder.feed(stream[cut:])
        assert [decode_payload(b)[1] for b in bodies] == [
            (1, msg(1)), (2, msg(2)),
        ]
        assert decoder.pending_bytes == 0

    def test_whole_frames_then_a_partial_one_in_one_chunk(self):
        """The usual chunk now that a wakeup is one write: several whole
        frames and the head of the next; only the head is buffered."""
        frames = [message_frame(i, body(i)) for i in (1, 2, 3, 4)]
        stream = b"".join(frames)
        cut = len(stream) - 10
        decoder = FrameDecoder()
        first = decoder.feed(stream[:cut])
        assert [decode_payload(b)[1][0] for b in first] == [1, 2, 3]
        assert decoder.pending_bytes == len(frames[3]) - 10
        second = decoder.feed(stream[cut:] + frames[0])
        assert [decode_payload(b)[1][0] for b in second] == [4, 1]
        assert decoder.pending_bytes == 0

    def test_oversized_rejected_before_body_arrives(self):
        """The cap triggers on the declared length — no buffering of the
        (potentially hostile) body happens first."""
        decoder = FrameDecoder(max_frame=1024)
        declared = (1024 + 1).to_bytes(4, "big")
        with pytest.raises(OversizedFrame):
            decoder.feed(declared)  # length prefix alone trips it

    def test_zero_length_frame_rejected(self):
        with pytest.raises(FrameError, match="zero-length"):
            FrameDecoder().feed(b"\x00\x00\x00\x00")

    def test_default_cap_accepts_large_block(self):
        block = Block(  # a "few megabytes" block
            round=1, proposer=1, parent_hash=ROOT_HASH,
            payload=Payload(commands=(b"p" * (4 * 1024 * 1024),)),
        )
        frame = message_frame(1, codec.encode(block))
        assert len(frame) < DEFAULT_MAX_FRAME
        (framed,) = FrameDecoder().feed(frame)
        assert decode_payload(framed)[1] == (1, block)
