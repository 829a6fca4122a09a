"""Wire framing for the TCP transport: length-prefixed, typed frames.

The stream protocol is deliberately minimal (``docs/TRANSPORT.md`` has the
layout table and the rationale):

.. code-block:: text

    frame := length (4 bytes, big-endian, = len(body)) || body
    body  := type (1 byte) || payload

    type 0x01  HELLO       payload = codec version (1 byte)
                                     || sender index (4 bytes, big-endian)
                                     || sender incarnation (8 bytes)
                                     || cluster id (UTF-8, rest of frame)
    type 0x02  MSG         payload = link sequence number (8 bytes, big-endian)
                                     || one protocol message (repro.net.codec)
    type 0x03  ACK         payload = cumulative sequence number (8 bytes)
    type 0x04  STAT        payload = empty (the 1-byte type is the body)
    type 0x05  STAT_REPLY  payload = one JSON object (UTF-8)

A connection opens with exactly one HELLO (so the acceptor knows which
party is talking, that it belongs to the same cluster and speaks the same
codec version, and which *incarnation* of that party it is — a restarted
process draws a new one, which is how the acceptor knows the peer's link
sequence numbers begin again at 1), then carries MSG frames until it
closes; the acceptor answers with ACK frames on the same (full-duplex)
connection.  Anything else — unknown type byte, a body longer than
``max_frame``, a zero-length body, a payload that fails to decode — is a
:class:`FrameError`; the transport closes the connection and counts
it in ``TcpNetwork.frames_rejected``.

No frame carries a time: a party only ever reads its own clock, and
traces from one host line up from their headers' clock epochs
(:mod:`repro.obs.distributed`).  A STAT frame may be sent *instead
of* a HELLO by a monitoring client (``python -m repro top``); the
acceptor answers with one STAT_REPLY carrying a JSON snapshot of the
process's counters and state.

MSG sequence numbers are per *directed peer link* (they survive
reconnects) and make delivery reliable without trusting TCP's write
buffer: a write the kernel accepted just before the peer died proves
nothing, so the sender retains every frame until the receiver's
cumulative ACK covers it and retransmits the tail on reconnect.  The
receiver deduplicates by sequence number, so each protocol message is
handed to the party exactly once per link.

A MSG frame's message is the bytes :func:`repro.net.codec.encode` made of
it, and the caller passes them in already encoded: a broadcast is encoded
once and framed once per link.  :func:`decode_payload` hands them to
:func:`repro.net.codec.decode`, which returns an instance of one of the
codec table's types — fields only, canonical, every count checked, nothing
executed — or raises :class:`FrameError`.  What the codec leaves open
(whether an index is within 1..n, a signature verifies, a hash names a known
block) is decided where it always was: every protocol message a frame
delivers goes through the message pool's full cryptographic verification
exactly as in the simulator.  Oversized-frame rejection bounds what one
peer can make us buffer.
"""

from __future__ import annotations

import json
import struct

from . import codec
from .codec import FrameError

#: Frame body length cap (bytes).  The paper's "a block's payload may
#: typically be a few megabytes" sets the scale; 16 MiB leaves headroom
#: for a large block while bounding what one peer can make us buffer.
DEFAULT_MAX_FRAME = 16 * 1024 * 1024

_TYPE_HELLO = 0x01
_TYPE_MSG = 0x02
_TYPE_ACK = 0x03
_TYPE_STAT = 0x04
_TYPE_STAT_REPLY = 0x05

_LENGTH = struct.Struct(">I")
_HELLO = struct.Struct(">BBIQ")  # type, codec version, index, incarnation
_SEQ = struct.Struct(">BQ")  # type, sequence number: a MSG's header, an ACK's body


class OversizedFrame(FrameError):
    """A frame whose declared body length exceeds the cap."""


def _check_size(size: int, max_frame: int) -> None:
    if size > max_frame:
        raise OversizedFrame(
            f"frame body of {size} bytes exceeds the {max_frame}-byte cap"
        )


def encode_frame(body: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Wrap a body in the length prefix (refusing oversized bodies)."""
    if not body:
        raise FrameError("refusing to encode an empty frame body")
    _check_size(len(body), max_frame)
    return _LENGTH.pack(len(body)) + body


def hello_frame(
    index: int,
    cluster_id: str,
    max_frame: int = DEFAULT_MAX_FRAME,
    *,
    incarnation: int = 0,
) -> bytes:
    """The handshake frame a connector sends first (``incarnation`` names
    this run of the sending process)."""
    if index < 1:
        raise FrameError(f"party index {index} is not positive")
    body = _HELLO.pack(
        _TYPE_HELLO, codec.VERSION, index, incarnation
    ) + cluster_id.encode("utf-8")
    return encode_frame(body, max_frame)


def message_frame(seq: int, body: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Frame one already-encoded protocol message (``codec.encode``) as a
    MSG with link sequence ``seq``."""
    if seq < 1:
        raise FrameError(f"MSG sequence numbers start at 1, got {seq}")
    size = _SEQ.size + len(body)
    _check_size(size, max_frame)
    return b"".join((_LENGTH.pack(size), _SEQ.pack(_TYPE_MSG, seq), body))


def ack_frame(seq: int, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Cumulative acknowledgement: every MSG up to ``seq`` was delivered."""
    if seq < 0:
        raise FrameError(f"ACK sequence must be >= 0, got {seq}")
    return encode_frame(_SEQ.pack(_TYPE_ACK, seq), max_frame)


def stat_frame(max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """A metrics-snapshot request (sent instead of HELLO by monitors)."""
    return encode_frame(bytes([_TYPE_STAT]), max_frame)


def stat_reply_frame(snapshot: dict, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """The JSON answer to a STAT frame."""
    body = bytes([_TYPE_STAT_REPLY]) + json.dumps(
        snapshot, sort_keys=True
    ).encode("utf-8")
    return encode_frame(body, max_frame)


def decode_payload(body: bytes) -> tuple[str, object]:
    """Decode one frame body into ``("hello", (index, cluster_id,
    incarnation))``, ``("msg", (seq, message))``, ``("ack", seq)``,
    ``("stat", None)`` or ``("stat_reply", snapshot)``; raises
    :class:`FrameError` on malformed input."""
    if not body:
        raise FrameError("empty frame body")
    frame_type = body[0]
    if frame_type == _TYPE_MSG:
        if len(body) <= _SEQ.size:
            raise FrameError("truncated MSG frame")
        _, seq = _SEQ.unpack_from(body)
        try:
            return "msg", (seq, codec.decode(body, _SEQ.size))
        except FrameError as exc:
            raise FrameError(f"undecodable MSG payload: {exc}") from None
    if frame_type == _TYPE_ACK:
        if len(body) != _SEQ.size:
            raise FrameError("malformed ACK frame")
        return "ack", _SEQ.unpack(body)[1]
    if frame_type == _TYPE_HELLO:
        if len(body) < _HELLO.size:
            raise FrameError("truncated HELLO frame")
        _, version, index, incarnation = _HELLO.unpack_from(body)
        if version != codec.VERSION:
            raise FrameError(
                f"HELLO speaks codec version {version}, this party {codec.VERSION}"
            )
        try:
            cluster_id = body[_HELLO.size :].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"HELLO cluster id is not UTF-8: {exc}") from exc
        if index < 1:
            raise FrameError(f"HELLO carries invalid party index {index}")
        return "hello", (index, cluster_id, incarnation)
    if frame_type == _TYPE_STAT:
        if len(body) != 1:
            raise FrameError("malformed STAT frame")
        return "stat", None
    if frame_type == _TYPE_STAT_REPLY:
        try:
            snapshot = json.loads(body[1:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"undecodable STAT_REPLY payload: {exc}") from exc
        if not isinstance(snapshot, dict):
            raise FrameError("STAT_REPLY payload is not a JSON object")
        return "stat_reply", snapshot
    raise FrameError(f"unknown frame type 0x{frame_type:02x}")


class FrameDecoder:
    """Incremental frame parser: feed arbitrary byte chunks, get bodies out.

    TCP gives no message boundaries — a frame may arrive byte-by-byte or
    glued to its neighbours.  The decoder buffers partial input and yields
    each complete body exactly once, raising :class:`OversizedFrame` as
    soon as a length prefix exceeds the cap (before buffering the body,
    so a hostile peer cannot make us allocate it).
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every frame body completed by it.

        A chunk usually carries several whole frames and finds the buffer
        empty: those are cut straight out of ``data``, and only what is left
        after the last whole frame is buffered — once per call.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        bodies: list[bytes] = []
        pos, end = 0, len(data)
        while end - pos >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(data, pos)
            if length == 0:
                raise FrameError("zero-length frame")
            if length > self.max_frame:
                raise OversizedFrame(
                    f"peer declared a {length}-byte frame "
                    f"(cap {self.max_frame})"
                )
            start = pos + _LENGTH.size
            if end - start < length:
                break
            bodies.append(bytes(data[start : start + length]))
            pos = start + length
        if data is buffer:
            del buffer[:pos]
        else:
            buffer += data[pos:]
        return bodies

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame (for tests/metrics)."""
        return len(self._buffer)
