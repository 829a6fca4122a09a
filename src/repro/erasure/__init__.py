"""Erasure-coding substrate: GF(256), Reed–Solomon, Merkle commitments.

The package re-exports only the Merkle names: ``gf256`` and
``reed_solomon`` import numpy, which loads only when ICC2's reliable
broadcast (or a direct ``repro.erasure.reed_solomon`` import) needs it.
"""

from .merkle import MerkleProof, MerkleTree, verify_inclusion

__all__ = [
    "MerkleProof",
    "MerkleTree",
    "verify_inclusion",
]
