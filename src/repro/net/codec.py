"""The wire codec: one closed, versioned table of everything a live party sends.

``encode(message) -> bytes`` and ``decode(body) -> message`` cover exactly
what a ``LiveConfig.protocol`` can hand a
:class:`~repro.net.transport.TcpNetwork`: the seven core kinds of
:mod:`repro.core.messages`, gossip's four wire messages (whose nested
artifact is a core kind), :class:`~repro.rbc.protocol.RbcMessage`, and the
seven signature objects the ``signature`` / ``share`` / ``aggregate`` fields
hold.  ``_TABLE`` below is the whole vocabulary; ``docs/TRANSPORT.md`` has
the byte layout of every row (``tools/check_docs.py`` keeps the two in step).

Conventions: integers are big-endian — round 8 bytes, party index 4, counts
2 unless stated; digests are exactly 32 bytes; byte strings carry a 4-byte
length; group elements and scalars carry a 2-byte length and are minimal
big-endian (no leading zero byte, zero is the empty string), so the codec
needs no :class:`~repro.crypto.group.Group`.  Every object starts with its
one-byte tag; objects nested at a fixed position (the Schnorr signature of a
multisig share, the DLEQ proof of a beacon share) carry none.

What ``decode`` guarantees: the result is an instance of a table type whose
every field has the declared Python type, party indices are non-zero, every
count was checked against the bytes that remain before anything was
allocated, no byte is left over, and the encoding is canonical —
``encode(decode(b)) == b`` for every ``b`` that decodes.  Anything else
raises :class:`FrameError`.  Only fields travel: a cached ``Block.hash`` is
not one, so a receiver always computes it from what it received.  What the
codec does *not* decide: whether an index is ≤ n, a signature verifies, a
hash names a block the receiver holds, or the kind of signature object fits
the field it sits in — those stay with ``MessagePool.add`` and the keyrings.

``encode`` of a type outside the table raises :class:`TypeError`, of a field
the layout cannot hold (a 33-byte digest, a negative integer, an unknown
scheme) :class:`ValueError`, both at the sender.  There is no fallback.
"""

from __future__ import annotations

import struct
from operator import attrgetter

from ..core.messages import (
    Authenticator,
    BeaconShare,
    Block,
    Finalization,
    FinalizationShare,
    Notarization,
    NotarizationShare,
)
from ..core.serialize import DeserializeError, decode_block_fields, encode_block_fields
from ..crypto.dleq import DleqProof
from ..crypto.hashing import DIGEST_SIZE
from ..crypto.keyring import FAST_SCHEMES, FastAggregate, FastShare
from ..crypto.multisig import MultisigShare, Multisignature
from ..crypto.schnorr import SchnorrSignature
from ..crypto.threshold import SignatureShare, ThresholdSignature
from ..erasure.merkle import MerkleProof
from ..gossip.protocol import Advert, ArtifactDelivery, ArtifactRequest, Push
from ..rbc.protocol import Fragment, RbcMessage

#: Carried in HELLO; peers with different tables or frame layouts must not
#: talk.  2: HELLO, MSG and ACK carry no timestamps.  3: an ACK names the
#: incarnation it acknowledges (it may travel on the reverse link).  4: a
#: gossip ``Push`` or ``ArtifactDelivery`` names its sender.
VERSION = 4


class FrameError(ValueError):
    """A malformed frame or message body (connection-fatal)."""


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
#: What an integer, a multisig share and a beacon share occupy at least.
_MIN_INT = _U16.size
_MIN_MULTISIG_SHARE = _U32.size + 2 * _MIN_INT
_MIN_BEACON_SHARE = _U32.size + 3 * _MIN_INT

_SCHEMES = FAST_SCHEMES  # FastShare.scheme, coded 1..4
_PHASES = ("send", "echo", "fill")  # RbcMessage.phase, coded 1..3


def _digest(value: bytes) -> bytes:
    if len(value) != DIGEST_SIZE:
        raise ValueError(f"a {len(value)}-byte value where a {DIGEST_SIZE}-byte digest belongs")
    return value


def _index(value: int) -> int:
    if not value:
        raise FrameError("party index 0")
    return value


def _coded(names: tuple[str, ...], code: int) -> str:
    if not 1 <= code <= len(names):
        raise FrameError(f"unknown code {code} (expected one of {names})")
    return names[code - 1]


def _check_count(count: int, each: int, buf: bytes, pos: int) -> None:
    if count * each > len(buf) - pos:
        raise FrameError(f"count {count} exceeds the bytes that remain")


def _get_sequence(get, count: int, least: int, buf: bytes, pos: int) -> tuple[tuple, int]:
    """``count`` objects read by ``get``, each at least ``least`` bytes."""
    _check_count(count, least, buf, pos)
    items = []
    for _ in range(count):
        item, pos = get(buf, pos)
        items.append(item)
    return tuple(items), pos


def _tagged(cls: type, put_body, get_body):
    """A table row for an object that is its tag and then a body which also
    occurs untagged, nested in another row."""

    def put(tag: int, obj) -> bytes:
        return _TAG.pack(tag) + put_body(obj)

    def get(buf: bytes, pos: int):
        return get_body(buf, pos + _TAG.size)

    return cls, put, get


def _put_int(value: int) -> bytes:
    size = (value.bit_length() + 7) >> 3
    return _U16.pack(size) + value.to_bytes(size, "big")


def _get_int(buf: bytes, pos: int) -> tuple[int, int]:
    (size,) = _U16.unpack_from(buf, pos)
    pos += _U16.size
    end = pos + size
    if end > len(buf):
        raise FrameError("truncated integer")
    if size and not buf[pos]:
        raise FrameError("integer is not minimally encoded")
    return int.from_bytes(buf[pos:end], "big"), end


# -- signature objects ----------------------------------------------------------

_FAST_SHARE = struct.Struct(f">BBI{DIGEST_SIZE}s")  # tag, scheme, index, digest
_FAST_AGGREGATE = struct.Struct(f">BB{DIGEST_SIZE}sH")  # tag, scheme, digest, count
_TAG = struct.Struct(">B")
_TAG_COUNT = struct.Struct(">BH")


def _put_fast_share(tag: int, share: FastShare) -> bytes:
    return _FAST_SHARE.pack(
        tag, _SCHEMES.index(share.scheme) + 1, share.index, _digest(share.digest)
    )


def _get_fast_share(buf: bytes, pos: int) -> tuple[FastShare, int]:
    _, scheme, index, digest = _FAST_SHARE.unpack_from(buf, pos)
    return FastShare(_coded(_SCHEMES, scheme), _index(index), digest), pos + _FAST_SHARE.size


def _put_fast_aggregate(tag: int, agg: FastAggregate) -> bytes:
    signatories = agg.signatories
    return _FAST_AGGREGATE.pack(
        tag, _SCHEMES.index(agg.scheme) + 1, _digest(agg.digest), len(signatories)
    ) + struct.pack(f">{len(signatories)}I", *signatories)


def _get_fast_aggregate(buf: bytes, pos: int) -> tuple[FastAggregate, int]:
    _, scheme, digest, count = _FAST_AGGREGATE.unpack_from(buf, pos)
    pos += _FAST_AGGREGATE.size
    _check_count(count, _U32.size, buf, pos)
    signatories = struct.unpack_from(f">{count}I", buf, pos)
    if 0 in signatories:
        raise FrameError("party index 0")
    return (
        FastAggregate(_coded(_SCHEMES, scheme), digest, signatories),
        pos + count * _U32.size,
    )


def _put_pair(sig: SchnorrSignature | DleqProof) -> bytes:
    return _put_int(sig.challenge) + _put_int(sig.response)


def _get_pair(cls: type, buf: bytes, pos: int):
    challenge, pos = _get_int(buf, pos)
    response, pos = _get_int(buf, pos)
    return cls(challenge, response), pos


def _get_schnorr(buf: bytes, pos: int) -> tuple[SchnorrSignature, int]:
    return _get_pair(SchnorrSignature, buf, pos)


def _put_multisig_share(share: MultisigShare) -> bytes:
    return _U32.pack(share.index) + _put_pair(share.signature)


def _get_multisig_share(buf: bytes, pos: int) -> tuple[MultisigShare, int]:
    (index,) = _U32.unpack_from(buf, pos)
    signature, pos = _get_schnorr(buf, pos + _U32.size)
    return MultisigShare(_index(index), signature), pos


def _put_multisignature(tag: int, agg: Multisignature) -> bytes:
    return _TAG_COUNT.pack(tag, len(agg.shares)) + b"".join(
        map(_put_multisig_share, agg.shares)
    )


def _get_multisignature(buf: bytes, pos: int) -> tuple[Multisignature, int]:
    _, count = _TAG_COUNT.unpack_from(buf, pos)
    shares, pos = _get_sequence(
        _get_multisig_share, count, _MIN_MULTISIG_SHARE, buf, pos + _TAG_COUNT.size
    )
    return Multisignature(shares), pos


def _put_beacon_share(share: SignatureShare) -> bytes:
    return _U32.pack(share.index) + _put_int(share.value) + _put_pair(share.proof)


def _get_beacon_share(buf: bytes, pos: int) -> tuple[SignatureShare, int]:
    (index,) = _U32.unpack_from(buf, pos)
    value, pos = _get_int(buf, pos + _U32.size)
    proof, pos = _get_pair(DleqProof, buf, pos)
    return SignatureShare(_index(index), value, proof), pos


def _put_threshold_signature(tag: int, sig: ThresholdSignature) -> bytes:
    return (
        _TAG.pack(tag)
        + _put_int(sig.value)
        + _U16.pack(len(sig.shares))
        + b"".join(map(_put_beacon_share, sig.shares))
    )


def _get_threshold_signature(buf: bytes, pos: int) -> tuple[ThresholdSignature, int]:
    value, pos = _get_int(buf, pos + _TAG.size)
    (count,) = _U16.unpack_from(buf, pos)
    shares, pos = _get_sequence(
        _get_beacon_share, count, _MIN_BEACON_SHARE, buf, pos + _U16.size
    )
    return ThresholdSignature(value, shares), pos


def _put_signature(sig: object) -> bytes:
    entry = _SIGNATURE_ENCODERS.get(type(sig))
    if entry is None:
        raise TypeError(f"{type(sig).__name__} is not a signature object of the wire codec")
    return entry[1](entry[0], sig)


def _get_signature(buf: bytes, pos: int) -> tuple[object, int]:
    get = _SIGNATURE_DECODERS.get(buf[pos])
    if get is None:
        raise FrameError(f"unknown signature tag 0x{buf[pos]:02x}")
    return get(buf, pos)


# -- the seven core kinds -------------------------------------------------------

_BLOCK_ID = struct.Struct(f">BQI{DIGEST_SIZE}s")  # tag, round, proposer, block hash
_SIGNED_BLOCK_ID = struct.Struct(f">BQI{DIGEST_SIZE}sI")  # ... and signer
_ROUND_SIGNER = struct.Struct(">BQI")  # tag, round, signer


def _get_block(buf: bytes, pos: int) -> tuple[Block, int]:
    try:
        block, pos = decode_block_fields(buf, pos)
    except DeserializeError as exc:
        raise FrameError(str(exc)) from None
    _index(block.proposer)
    return block, pos


def _certificate(cls: type, field: str):
    """Authenticator, Notarization, Finalization: a block id and one
    signature object."""
    signature_of = attrgetter(field)

    def put(tag: int, m) -> bytes:
        return _BLOCK_ID.pack(
            tag, m.round, m.proposer, _digest(m.block_hash)
        ) + _put_signature(signature_of(m))

    def get(buf: bytes, pos: int):
        _, round, proposer, block_hash = _BLOCK_ID.unpack_from(buf, pos)
        sig, pos = _get_signature(buf, pos + _BLOCK_ID.size)
        return cls(round, _index(proposer), block_hash, sig), pos

    return cls, put, get


def _block_share(cls: type):
    """NotarizationShare, FinalizationShare: a block id, the signer and
    its share."""

    def put(tag: int, m) -> bytes:
        return _SIGNED_BLOCK_ID.pack(
            tag, m.round, m.proposer, _digest(m.block_hash), m.signer
        ) + _put_signature(m.share)

    def get(buf: bytes, pos: int):
        _, round, proposer, block_hash, signer = _SIGNED_BLOCK_ID.unpack_from(buf, pos)
        share, pos = _get_signature(buf, pos + _SIGNED_BLOCK_ID.size)
        return cls(round, _index(proposer), block_hash, _index(signer), share), pos

    return cls, put, get


def _put_beacon_message(tag: int, m: BeaconShare) -> bytes:
    return _ROUND_SIGNER.pack(tag, m.round, m.signer) + _put_signature(m.share)


def _get_beacon_message(buf: bytes, pos: int) -> tuple[BeaconShare, int]:
    _, round, signer = _ROUND_SIGNER.unpack_from(buf, pos)
    share, pos = _get_signature(buf, pos + _ROUND_SIGNER.size)
    return BeaconShare(round, _index(signer), share), pos


# -- gossip (ICC1) and reliable broadcast (ICC2) --------------------------------

_ADVERT = struct.Struct(f">B{DIGEST_SIZE}sQI")  # tag, artifact id, size, sender
_REQUEST = struct.Struct(f">B{DIGEST_SIZE}sI")  # tag, artifact id, sender
_CARRIER = struct.Struct(f">B{DIGEST_SIZE}sI")  # tag, artifact id, sender; a core kind follows
#: tag, dealer, root, data length, phase, shard index, leaf index, sibling count
_RBC = struct.Struct(f">BI{DIGEST_SIZE}sQBIIH")


def _put_advert(tag: int, m: Advert) -> bytes:
    return _ADVERT.pack(tag, _digest(m.artifact_id), m.size, m.sender)


def _get_advert(buf: bytes, pos: int) -> tuple[Advert, int]:
    _, artifact_id, size, sender = _ADVERT.unpack_from(buf, pos)
    return Advert(artifact_id, size, _index(sender)), pos + _ADVERT.size


def _put_request(tag: int, m: ArtifactRequest) -> bytes:
    return _REQUEST.pack(tag, _digest(m.artifact_id), m.sender)


def _get_request(buf: bytes, pos: int) -> tuple[ArtifactRequest, int]:
    _, artifact_id, sender = _REQUEST.unpack_from(buf, pos)
    return ArtifactRequest(artifact_id, _index(sender)), pos + _REQUEST.size


def _carrier(cls: type):
    """ArtifactDelivery, Push: an artifact id, the sender and the artifact,
    which must be one of the seven core kinds (gossip does not nest)."""

    def put(tag: int, m) -> bytes:
        entry = _MESSAGE_ENCODERS.get(type(m.artifact))
        if entry is None or entry[0] > _LAST_CORE_TAG:
            raise TypeError(f"gossip cannot carry a {type(m.artifact).__name__}")
        return _CARRIER.pack(tag, _digest(m.artifact_id), m.sender) + entry[1](
            entry[0], m.artifact
        )

    def get(buf: bytes, pos: int):
        _, artifact_id, sender = _CARRIER.unpack_from(buf, pos)
        pos += _CARRIER.size
        if not 1 <= buf[pos] <= _LAST_CORE_TAG:
            raise FrameError(f"gossip cannot carry tag 0x{buf[pos]:02x}")
        artifact, pos = _MESSAGE_DECODERS[buf[pos]](buf, pos)
        return cls(artifact_id, artifact, _index(sender)), pos

    return cls, put, get


def _put_rbc(tag: int, m: RbcMessage) -> bytes:
    fragment = m.fragment
    siblings = fragment.proof.siblings
    return b"".join((
        _RBC.pack(
            tag, m.dealer, _digest(m.root), m.data_length, _PHASES.index(m.phase) + 1,
            fragment.index, fragment.proof.leaf_index, len(siblings),
        ),
        *map(_digest, siblings),
        _U32.pack(len(fragment.data)),
        fragment.data,
    ))


def _get_rbc(buf: bytes, pos: int) -> tuple[RbcMessage, int]:
    _, dealer, root, data_length, phase, index, leaf_index, count = _RBC.unpack_from(buf, pos)
    pos += _RBC.size
    _check_count(count, DIGEST_SIZE, buf, pos)
    data_at = pos + count * DIGEST_SIZE
    siblings = tuple(buf[at : at + DIGEST_SIZE] for at in range(pos, data_at, DIGEST_SIZE))
    (size,) = _U32.unpack_from(buf, data_at)
    pos = data_at + _U32.size
    if size > len(buf) - pos:
        raise FrameError("truncated fragment")
    fragment = Fragment(index, buf[pos : pos + size], MerkleProof(leaf_index, siblings))
    message = RbcMessage(_index(dealer), root, data_length, _coded(_PHASES, phase), fragment)
    return message, pos + size


# -- the table ------------------------------------------------------------------

_LAST_CORE_TAG = 0x07
_FIRST_SIGNATURE_TAG = 0x41

#: tag -> (type, put(tag, object) -> bytes, get(buf, pos of tag) -> (object, end)).
_TABLE = {
    # core kinds (the only ones gossip may carry)
    0x01: _tagged(Block, encode_block_fields, _get_block),
    0x02: _certificate(Authenticator, "signature"),
    0x03: _block_share(NotarizationShare),
    0x04: _certificate(Notarization, "aggregate"),
    0x05: _block_share(FinalizationShare),
    0x06: _certificate(Finalization, "aggregate"),
    0x07: (BeaconShare, _put_beacon_message, _get_beacon_message),
    # gossip wire messages
    0x10: (Advert, _put_advert, _get_advert),
    0x11: (ArtifactRequest, _put_request, _get_request),
    0x12: _carrier(ArtifactDelivery),
    0x13: _carrier(Push),
    # reliable broadcast
    0x20: (RbcMessage, _put_rbc, _get_rbc),
    # signature objects (only ever inside a message)
    0x41: (FastShare, _put_fast_share, _get_fast_share),
    0x42: (FastAggregate, _put_fast_aggregate, _get_fast_aggregate),
    0x43: _tagged(SchnorrSignature, _put_pair, _get_schnorr),
    0x44: _tagged(MultisigShare, _put_multisig_share, _get_multisig_share),
    0x45: (Multisignature, _put_multisignature, _get_multisignature),
    0x46: _tagged(SignatureShare, _put_beacon_share, _get_beacon_share),
    0x47: (ThresholdSignature, _put_threshold_signature, _get_threshold_signature),
}

_MESSAGE_ENCODERS = {
    cls: (tag, put) for tag, (cls, put, _) in _TABLE.items() if tag < _FIRST_SIGNATURE_TAG
}
_MESSAGE_DECODERS = {
    tag: get for tag, (_, _, get) in _TABLE.items() if tag < _FIRST_SIGNATURE_TAG
}
_SIGNATURE_ENCODERS = {
    cls: (tag, put) for tag, (cls, put, _) in _TABLE.items() if tag >= _FIRST_SIGNATURE_TAG
}
_SIGNATURE_DECODERS = {
    tag: get for tag, (_, _, get) in _TABLE.items() if tag >= _FIRST_SIGNATURE_TAG
}

#: The message types ``encode`` accepts and ``decode`` returns.
MESSAGE_TYPES = tuple(_MESSAGE_ENCODERS)


def encode(message: object) -> bytes:
    """The canonical bytes of one protocol message."""
    entry = _MESSAGE_ENCODERS.get(type(message))
    if entry is None:
        raise TypeError(f"{type(message).__name__} is not a message of the wire codec")
    try:
        return entry[1](entry[0], message)
    except (struct.error, OverflowError) as exc:
        raise ValueError(f"unencodable {type(message).__name__}: {exc}") from exc


def decode(body: bytes, offset: int = 0) -> object:
    """The message ``body[offset:]`` encodes, or :class:`FrameError`."""
    try:
        get = _MESSAGE_DECODERS.get(body[offset])
        if get is None:
            raise FrameError(f"unknown message tag 0x{body[offset]:02x}")
        message, end = get(body, offset)
    except (struct.error, IndexError):
        raise FrameError("truncated message") from None
    if end != len(body):
        raise FrameError(f"{len(body) - end} trailing bytes after the message")
    return message
