"""Canonical byte serialization of blocks.

ICC2's reliable broadcast transports *bytes*, so blocks must round-trip
through a canonical encoding.  The header-and-commands part is the same
bytes the live transport's codec (:mod:`repro.net.codec`) puts on the wire
for a block; :func:`serialize_block` frames them with a magic and appends
``filler_bytes`` — the benchmark stand-in for bulk payload — as zero bytes,
so erasure coding operates on the true payload size.
"""

from __future__ import annotations

import struct

from ..crypto.hashing import DIGEST_SIZE
from .messages import Block, Payload

_MAGIC = b"ICB1"
#: round, proposer, parent hash, filler size, command count.
_FIELDS = struct.Struct(f">QI{DIGEST_SIZE}sQI")
_LENGTH = struct.Struct(">I")


class DeserializeError(ValueError):
    """Raised for malformed block encodings (e.g. from corrupt dealers)."""


def encode_block_fields(block: Block) -> bytes:
    """Header fields and length-prefixed commands (no magic, no filler)."""
    if len(block.parent_hash) != DIGEST_SIZE:
        raise ValueError(f"parent hash is not {DIGEST_SIZE} bytes")
    payload = block.payload
    parts = [
        _FIELDS.pack(
            block.round, block.proposer, block.parent_hash,
            payload.filler_bytes, len(payload.commands),
        )
    ]
    for command in payload.commands:
        parts.append(_LENGTH.pack(len(command)))
        parts.append(command)
    return b"".join(parts)


def decode_block_fields(data: bytes, offset: int = 0) -> tuple[Block, int]:
    """Inverse of :func:`encode_block_fields` starting at ``offset``:
    the block and the offset just past it.  The command count is checked
    against the bytes that remain before anything is allocated."""
    try:
        round, proposer, parent_hash, filler, count = _FIELDS.unpack_from(data, offset)
    except struct.error:
        raise DeserializeError("truncated block header") from None
    offset += _FIELDS.size
    end = len(data)
    if count * _LENGTH.size > end - offset:
        raise DeserializeError("command count exceeds the bytes that remain")
    commands = []
    for _ in range(count):
        if end - offset < _LENGTH.size:
            raise DeserializeError("truncated command")
        (length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        if length > end - offset:
            raise DeserializeError("truncated command")
        commands.append(data[offset : offset + length])
        offset += length
    block = Block(
        round=round,
        proposer=proposer,
        parent_hash=parent_hash,
        payload=Payload(commands=tuple(commands), filler_bytes=filler),
    )
    return block, offset


def serialize_block(block: Block) -> bytes:
    """Canonical encoding: magic, header fields, commands, filler zeros."""
    return b"".join(
        (_MAGIC, encode_block_fields(block), b"\x00" * block.payload.filler_bytes)
    )


def deserialize_block(data: bytes) -> Block:
    """Inverse of :func:`serialize_block`; raises :class:`DeserializeError`."""
    data = bytes(data)
    if data[: len(_MAGIC)] != _MAGIC:
        raise DeserializeError("bad magic")
    block, offset = decode_block_fields(data, len(_MAGIC))
    if len(data) - offset != block.payload.filler_bytes:
        raise DeserializeError("filler length mismatch")
    return block
