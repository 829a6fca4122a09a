"""The wire codec: round trip, canonical form, hostile bytes, what pickle hid."""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net
from repro.core.messages import (
    ROOT_HASH,
    Authenticator,
    BeaconShare,
    Block,
    Finalization,
    FinalizationShare,
    Notarization,
    NotarizationShare,
    Payload,
    authenticator_message,
    beacon_message,
    notarization_message,
)
from repro.core.serialize import serialize_block
from repro.crypto.dleq import DleqProof
from repro.crypto.keyring import FastAggregate, FastShare, generate_keyrings
from repro.crypto.multisig import MultisigShare, Multisignature
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.threshold import SignatureShare, ThresholdSignature
from repro.erasure.merkle import MerkleProof
from repro.gossip.protocol import Advert, ArtifactDelivery, ArtifactRequest, Push
from repro.net.codec import MESSAGE_TYPES, FrameError, decode, encode
from repro.rbc.protocol import Fragment, RbcMessage

H = b"\xab" * 32


def same(a: object, b: object) -> bool:
    """Equal type and equal fields all the way down — unlike ``==``, which
    skips the ``compare=False`` signature fields."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


# -- real signature objects, one of each, from a test-profile keyring ------------


def real_signature_objects() -> list:
    rings = generate_keyrings(4, 1, seed=3, backend="real", group_profile="test")
    auth = authenticator_message(1, 1, H)
    notary = notarization_message(1, 1, H)
    beacon = beacon_message(1, H)
    notary_shares = [ring.sign_notary_share(notary) for ring in rings[:3]]
    beacon_shares = [ring.sign_beacon_share(beacon) for ring in rings[:2]]
    return [
        rings[0].sign_auth(auth),
        notary_shares[0],
        rings[0].combine_notary(notary, notary_shares),
        beacon_shares[0],
        rings[0].combine_beacon(beacon, beacon_shares),
    ]


REAL = real_signature_objects()

# -- strategies ------------------------------------------------------------------

digests = st.binary(min_size=32, max_size=32)
indices = st.integers(min_value=1, max_value=2**32 - 1)
rounds = st.integers(min_value=0, max_value=2**64 - 1)
numbers = st.one_of(st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=2**520))
schemes = st.sampled_from(["auth", "notary", "final", "beacon"])

schnorrs = st.builds(SchnorrSignature, numbers, numbers)
multisig_shares = st.builds(MultisigShare, indices, schnorrs)
beacon_shares = st.builds(SignatureShare, indices, numbers, st.builds(DleqProof, numbers, numbers))
signatures = st.one_of(
    st.builds(FastShare, schemes, indices, digests),
    st.builds(FastAggregate, schemes, digests, st.lists(indices, max_size=5).map(tuple)),
    schnorrs,
    multisig_shares,
    st.builds(Multisignature, st.lists(multisig_shares, max_size=4).map(tuple)),
    beacon_shares,
    st.builds(ThresholdSignature, numbers, st.lists(beacon_shares, max_size=3).map(tuple)),
    st.sampled_from(REAL),
)

blocks = st.builds(
    Block, rounds, indices, digests,
    st.builds(
        Payload,
        st.lists(st.binary(max_size=40), max_size=5).map(tuple),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
)
core_kinds = st.one_of(
    blocks,
    st.builds(Authenticator, rounds, indices, digests, signatures),
    st.builds(NotarizationShare, rounds, indices, digests, indices, signatures),
    st.builds(Notarization, rounds, indices, digests, signatures),
    st.builds(FinalizationShare, rounds, indices, digests, indices, signatures),
    st.builds(Finalization, rounds, indices, digests, signatures),
    st.builds(BeaconShare, rounds, indices, signatures),
)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
fragments = st.builds(
    Fragment, u32, st.binary(max_size=64),
    st.builds(MerkleProof, u32, st.lists(digests, max_size=5).map(tuple)),
)
messages = st.one_of(
    core_kinds,
    st.builds(Advert, digests, rounds, indices),
    st.builds(ArtifactRequest, digests, indices),
    st.builds(ArtifactDelivery, digests, core_kinds),
    st.builds(Push, digests, core_kinds),
    st.builds(RbcMessage, indices, digests, rounds, st.sampled_from(["send", "echo", "fill"]), fragments),
)

# -- a fixed corpus: every table row at least once --------------------------------

FAST_SHARE = FastShare("notary", 3, H)
FAST_AGG = FastAggregate("final", H, (1, 2, 4))
BLOCK = Block(7, 2, ROOT_HASH, Payload((b"put x 1", b"", b"\x00\xff"), 5))
CORPUS = [
    BLOCK,
    Authenticator(7, 2, H, REAL[0]),
    NotarizationShare(7, 2, H, 3, FAST_SHARE),
    NotarizationShare(7, 2, H, 1, REAL[1]),
    Notarization(7, 2, H, FastAggregate("notary", H, (1, 2, 3))),
    Notarization(7, 2, H, REAL[2]),
    FinalizationShare(7, 2, H, 3, FastShare("final", 3, H)),
    Finalization(7, 2, H, FAST_AGG),
    BeaconShare(8, 1, FastShare("beacon", 1, H)),
    BeaconShare(8, 1, REAL[3]),
    # Type confusion is the keyring's to reject, not the codec's:
    BeaconShare(8, 1, REAL[4]),
    Advert(H, 4096, 2),
    ArtifactRequest(H, 3),
    ArtifactDelivery(H, BLOCK),
    Push(H, NotarizationShare(7, 2, H, 3, FAST_SHARE)),
    RbcMessage(2, H, 1234, "echo", Fragment(1, b"shard-bytes", MerkleProof(1, (H, ROOT_HASH)))),
]


def decodes_or_frame_error(data: bytes):
    """The whole contract of ``decode`` on untrusted bytes."""
    try:
        message = decode(data)
    except FrameError:
        return None
    assert type(message) in MESSAGE_TYPES
    assert encode(message) == data  # canonical: one encoding per message
    return message


class TestRoundTrip:
    def test_corpus_covers_the_table(self):
        from repro.net.codec import _TABLE

        seen = set()

        def visit(obj):
            seen.add(type(obj))
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    visit(getattr(obj, f.name))
            elif isinstance(obj, tuple):
                for item in obj:
                    visit(item)

        for message in CORPUS:
            visit(message)
        assert {cls for cls, _, _ in _TABLE.values()} <= seen

    @pytest.mark.parametrize("message", CORPUS, ids=lambda m: type(m).__name__)
    def test_corpus(self, message):
        data = encode(message)
        assert same(decode(data), message)
        assert encode(decode(data)) == data

    @given(messages)
    @settings(max_examples=300, deadline=None)
    def test_generated(self, message):
        data = encode(message)
        restored = decode(data)
        assert same(restored, message)
        assert encode(restored) == data

    def test_offset(self):
        data = encode(CORPUS[2])
        assert same(decode(b"\x02" + b"\x00" * 16 + data, 17), CORPUS[2])

    def test_sizes_of_the_hot_shapes(self):
        """What `live_n4_sat` sends 96 of per height (pickle: 271 / 275 / 422)."""
        assert len(encode(CORPUS[2])) == 87  # notarization share, fast backend
        assert len(encode(CORPUS[4])) == 93  # notarization, 3 signatories
        assert len(encode(Block(7, 2, ROOT_HASH, Payload((b"c" * 64, b"d" * 64))))) == 193


class TestHostileBytes:
    @given(st.binary(max_size=300))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes(self, data):
        decodes_or_frame_error(data)

    @given(st.sampled_from(CORPUS).map(encode), st.data())
    @settings(max_examples=300, deadline=None)
    def test_spliced_and_mutated(self, data, draw):
        """Valid encodings with a random run of bytes replaced or inserted."""
        at = draw.draw(st.integers(min_value=0, max_value=len(data)))
        cut = draw.draw(st.integers(min_value=0, max_value=8))
        patch = draw.draw(st.binary(max_size=8))
        decodes_or_frame_error(data[:at] + patch + data[at + cut :])

    @pytest.mark.parametrize("message", CORPUS, ids=lambda m: type(m).__name__)
    def test_every_prefix(self, message):
        data = encode(message)
        for cut in range(len(data)):
            with pytest.raises(FrameError):
                decode(data[:cut])
        with pytest.raises(FrameError, match="trailing"):
            decode(data + b"\x00")

    @pytest.mark.parametrize("message", CORPUS, ids=lambda m: type(m).__name__)
    def test_every_single_byte_mutation(self, message):
        data = bytearray(encode(message))
        for at in range(len(data)):
            original = data[at]
            for value in range(256):
                if value != original:
                    data[at] = value
                    decodes_or_frame_error(bytes(data))
            data[at] = original

    def test_unknown_tags(self):
        for tag in (0x00, 0x08, 0x14, 0x21, 0x41, 0x80, 0xFF):
            with pytest.raises(FrameError, match="unknown message tag"):
                decode(bytes([tag]) + b"\x00" * 64)
        data = bytearray(encode(CORPUS[2]))
        data[49] = 0x03  # a message tag where a signature tag belongs
        with pytest.raises(FrameError, match="unknown signature tag"):
            decode(bytes(data))

    def test_index_zero(self):
        for message, at in (
            (CORPUS[2], 9),  # proposer
            (CORPUS[2], 45),  # signer
            (CORPUS[2], 51),  # FastShare.index
            (CORPUS[8], 9),  # BeaconShare.signer
            (CORPUS[7], 81),  # first FastAggregate signatory
            (CORPUS[0], 9),  # Block.proposer: the root block is never sent
            (CORPUS[11], 41),  # Advert.sender
        ):
            data = bytearray(encode(message))
            data[at : at + 4] = b"\x00" * 4
            with pytest.raises(FrameError, match="index 0"):
                decode(bytes(data))

    def test_unknown_scheme_and_phase(self):
        data = bytearray(encode(CORPUS[2]))
        for code in (0, 5, 255):
            data[50] = code  # FastShare.scheme
            with pytest.raises(FrameError, match="unknown code"):
                decode(bytes(data))
        data = bytearray(encode(CORPUS[-1]))
        for code in (0, 4):
            data[45] = code  # RbcMessage.phase
            with pytest.raises(FrameError, match="unknown code"):
                decode(bytes(data))
        with pytest.raises(ValueError):
            encode(BeaconShare(1, 1, FastShare("bogus", 1, H)))
        with pytest.raises(ValueError):
            encode(dataclasses.replace(CORPUS[-1], phase="gossip"))

    def test_nested_gossip_rejected(self):
        inner = encode(Push(H, BLOCK))
        with pytest.raises(FrameError, match="gossip cannot carry"):
            decode(b"\x13" + H + inner)
        with pytest.raises(FrameError, match="gossip cannot carry"):
            decode(b"\x12" + H + encode(CORPUS[-1]))
        with pytest.raises(TypeError, match="gossip cannot carry"):
            encode(Push(H, Push(H, BLOCK)))
        with pytest.raises(TypeError, match="gossip cannot carry"):
            encode(ArtifactDelivery(H, CORPUS[-1]))

    def test_non_minimal_integer_rejected(self):
        data = encode(Authenticator(7, 2, H, SchnorrSignature(5, 6)))
        assert data[-6:] == b"\x00\x01\x05\x00\x01\x06"
        padded = data[:-6] + b"\x00\x02\x00\x05\x00\x01\x06"
        with pytest.raises(FrameError, match="minimally"):
            decode(padded)
        zero = encode(Authenticator(7, 2, H, SchnorrSignature(0, 6)))
        assert zero[-5:] == b"\x00\x00\x00\x01\x06"  # zero is the empty string

    def test_oversized_counts_allocate_nothing(self):
        """Each count is compared with the bytes that remain before any
        list, tuple or format of that size exists."""
        block = bytearray(encode(BLOCK))
        block[53:57] = b"\xff\xff\xff\xff"  # command count
        length = bytearray(encode(BLOCK))
        length[57:61] = b"\xff\xff\xff\xff"  # first command's length
        aggregate = bytearray(encode(CORPUS[7]))
        aggregate[79:81] = b"\xff\xff"  # signatory count
        multisig = bytearray(encode(CORPUS[5]))
        multisig[46:48] = b"\xff\xff"  # share count
        rbc = bytearray(encode(CORPUS[-1]))
        rbc[54:56] = b"\xff\xff"  # sibling count
        shard = bytearray(encode(CORPUS[-1]))
        shard[120:124] = b"\xff\xff\xff\xff"  # fragment length
        threshold = encode(BeaconShare(8, 1, ThresholdSignature(5, ())))
        assert threshold[-2:] == b"\x00\x00"
        threshold = threshold[:-2] + b"\xff\xff"
        hostile = [block, length, aggregate, multisig, rbc, shard, threshold]
        tracemalloc.start()
        try:
            for data in hostile:
                with pytest.raises(FrameError):
                    decode(bytes(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestOnlyFieldsTravel:
    def test_forged_block_hash_does_not_cross_the_wire(self):
        """With pickle the ``cached_property`` rode along in ``__dict__``
        and a receiver's ``block.hash`` was whatever the sender cached."""
        honest = Block(7, 2, ROOT_HASH, Payload((b"pay alice",)))
        forged = Block(7, 2, ROOT_HASH, Payload((b"pay alice",)))
        forged.__dict__["hash"] = b"\xee" * 32
        forged.payload.__dict__["digest"] = b"\xdd" * 32
        assert forged.hash == b"\xee" * 32
        assert encode(forged) == encode(honest)
        received = decode(encode(forged))
        assert "hash" not in received.__dict__
        assert received.hash == honest.hash != b"\xee" * 32
        assert received.payload.digest == honest.payload.digest

    def test_only_table_types_encode(self):
        for value in (object(), "m1", b"bytes", ("block", 42), {"k": 1}, None, FAST_SHARE):
            with pytest.raises(TypeError, match="wire codec"):
                encode(value)

    def test_unknown_signature_object_is_a_sender_error(self):
        with pytest.raises(TypeError, match="signature object"):
            encode(BeaconShare(1, 1, share=b"raw"))

    def test_fields_the_layout_cannot_hold(self):
        for message in (
            Authenticator(7, 2, b"short", FAST_SHARE),
            Authenticator(7, 2, H + b"x", FAST_SHARE),
            Authenticator(2**64, 2, H, FAST_SHARE),
            Authenticator(7, -1, H, FAST_SHARE),
            Authenticator(7, 2, H, SchnorrSignature(-1, 2)),
            Authenticator(7, 2, H, FastShare("auth", 1, b"short")),
            Block(7, 2, b"short", Payload()),
        ):
            with pytest.raises(ValueError):
                encode(message)

    def test_no_pickle_under_repro(self):
        package = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                if any(name.split(".")[0] in ("pickle", "cPickle", "marshal", "shelve", "dill") for name in names):
                    offenders.append(str(path.relative_to(package)))
        assert offenders == []

    def test_transport_is_callbacks_not_streams(self):
        """The transport runs on ``asyncio.Protocol`` callbacks; a stream
        API creeping back would bring a task per connection with it."""
        path = pathlib.Path(repro.net.__file__).parent / "transport.py"
        banned = {"open_connection", "start_server", "StreamReader", "StreamWriter"}
        used = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert used & banned == set()


class TestSerializeBlockUnchanged:
    """ICC2's Merkle roots are over these bytes: the shared encoder must
    produce exactly what the parent's hand-rolled one did."""

    @staticmethod
    def parent_serialize_block(block: Block) -> bytes:
        parts = [
            b"ICB1",
            block.round.to_bytes(8, "big"),
            block.proposer.to_bytes(4, "big"),
            block.parent_hash,
            block.payload.filler_bytes.to_bytes(8, "big"),
            len(block.payload.commands).to_bytes(4, "big"),
        ]
        for command in block.payload.commands:
            parts.append(len(command).to_bytes(4, "big"))
            parts.append(command)
        parts.append(b"\x00" * block.payload.filler_bytes)
        return b"".join(parts)

    @pytest.mark.parametrize(
        "commands, filler",
        [((), 0), ((b"put x 1", b"", b"\x00\xff" * 10), 0), ((), 5000), ((b"abcd",), 17)],
    )
    def test_blocks_tests_core_builds(self, commands, filler):
        block = Block(3, 2, ROOT_HASH, Payload(tuple(commands), filler))
        assert serialize_block(block) == self.parent_serialize_block(block)

    @given(
        st.lists(st.binary(max_size=64), max_size=8),
        st.integers(min_value=0, max_value=2048),
        st.integers(min_value=1, max_value=1_000_000),
        st.integers(min_value=1, max_value=100),
        digests,
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, commands, filler, round, proposer, parent):
        block = Block(round, proposer, parent, Payload(tuple(commands), filler))
        assert serialize_block(block) == self.parent_serialize_block(block)

    def test_wire_block_is_the_same_bytes_without_magic_and_filler(self):
        data = serialize_block(BLOCK)
        assert encode(BLOCK) == b"\x01" + data[4 : len(data) - BLOCK.payload.filler_bytes]
