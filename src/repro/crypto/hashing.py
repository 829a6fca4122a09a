"""Collision-resistant hashing (Section 2.1 of the paper).

The ICC protocols use a collision-resistant hash function ``H`` for chaining
blocks (each block carries ``H(parent)``) and inside every signature scheme.
We use SHA-256 with explicit domain separation: every use site supplies a
short ASCII *tag* so that hashes computed for one purpose can never collide
with hashes computed for another (e.g. a block hash can never be reused as a
beacon input).
"""

from __future__ import annotations

import hashlib

#: Size of a hash output in bytes (used by the wire-size model as well).
DIGEST_SIZE = 32


#: tag -> a SHA-256 state that has absorbed ``sha256(tag) || sha256(tag)``.
#: Tags are a small fixed set of literals, so each is hashed once per process
#: and every call starts from a copy.
_TAG_PREFIXES: dict[str, "hashlib._Hash"] = {}


def tagged_hash(tag: str, *parts: bytes) -> bytes:
    """Domain-separated hash of ``parts``.

    The encoding is unambiguous: each part is prefixed with its 8-byte
    big-endian length, and the tag itself is hashed first (the BIP-340
    construction), so distinct ``(tag, parts)`` tuples can only collide if
    SHA-256 itself is broken.
    """
    prefix = _TAG_PREFIXES.get(tag)
    if prefix is None:
        tag_digest = hashlib.sha256(tag.encode("ascii")).digest()
        prefix = _TAG_PREFIXES[tag] = hashlib.sha256(tag_digest + tag_digest)
    h = prefix.copy()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_to_int(tag: str, *parts: bytes) -> int:
    """Hash ``parts`` into a non-negative integer < 2**256."""
    return int.from_bytes(tagged_hash(tag, *parts), "big")


def int_to_bytes(value: int) -> bytes:
    """Minimal-length big-endian encoding of a non-negative integer."""
    if value < 0:
        raise ValueError("only non-negative integers can be encoded")
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")
