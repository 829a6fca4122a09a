"""`tagged_hash` against the BIP-340 construction written out in full.

The implementation starts each call from a per-tag cached SHA-256 state;
this pins that the bytes are those of the uncached construction, on a first
call (cache miss) and on a repeat (cache hit).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.hashing import tagged_hash


def written_out(tag: str, *parts: bytes) -> bytes:
    tag_digest = hashlib.sha256(tag.encode("ascii")).digest()
    data = tag_digest + tag_digest
    for part in parts:
        data += len(part).to_bytes(8, "big") + part
    return hashlib.sha256(data).digest()


@pytest.mark.parametrize(
    "tag, parts",
    [
        ("ICC/beacon/genesis", ()),
        ("test/hashing/never-used-elsewhere", ()),
        ("ICC/block", (b"\x00" * 8, b"\x00\x00\x00\x01", b"\x11" * 32, b"\x22" * 32)),
        ("ICC/fast/share", (b"master", b"notary", b"\x00\x00\x00\x03", b"")),
        ("test/hashing/long-part", (b"x" * 100_000, b"", b"y")),
    ],
)
def test_matches_written_out_construction(tag, parts):
    expected = written_out(tag, *parts)
    assert tagged_hash(tag, *parts) == expected
    assert tagged_hash(tag, *parts) == expected  # from the cached state


def test_cached_state_is_not_consumed():
    """A call must not advance the state the next call copies."""
    tag = "test/hashing/isolation"
    first = tagged_hash(tag, b"a")
    tagged_hash(tag, b"b", b"c")
    assert tagged_hash(tag, b"a") == first == written_out(tag, b"a")
