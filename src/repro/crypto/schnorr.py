"""Schnorr digital signatures — the paper's ``S_auth`` scheme (Section 2.2).

Used by every party to authenticate the blocks it proposes (the block
*authenticator* of Section 3.4).  EUF-CMA secure under the discrete-log
assumption in the random-oracle model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import Group


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature in challenge form: (c, s) with c = H(pk, g**k, m)
    and s = k + c·sk.

    The nonce commitment R = g**k is not carried: the verifier recomputes
    it as g**s · pk**(-c) from two bases it holds comb tables for and
    accepts iff it hashes back to ``c``, so nothing a peer chose is ever
    exponentiated (see :class:`repro.crypto.api.SchnorrVerifier`).
    """

    challenge: int  # c, a scalar
    response: int  # s, a scalar

    def to_bytes(self, group: Group) -> bytes:
        width = group.scalar_width
        return self.challenge.to_bytes(width, "big") + self.response.to_bytes(width, "big")


@dataclass(frozen=True)
class SchnorrKeyPair:
    """Secret/public key pair for one party."""

    secret: int
    public: int


def keygen(group: Group, rng) -> SchnorrKeyPair:
    """Generate a fresh key pair using the supplied RNG."""
    secret = group.random_scalar(rng)
    return SchnorrKeyPair(secret=secret, public=group.power_g(secret))


def _challenge(group: Group, public: int, commitment: int, message: bytes) -> int:
    return group.hash_to_scalar(
        "ICC/schnorr/challenge",
        group.element_to_bytes(public),
        group.element_to_bytes(commitment),
        message,
    )


def sign(group: Group, secret: int, message: bytes, rng) -> SchnorrSignature:
    """Sign ``message`` with the secret key.

    The nonce is drawn from ``rng``; for deterministic simulations callers
    pass a seeded RNG, which also makes test failures reproducible.
    """
    nonce = group.scalar_field.random_nonzero(rng)
    commitment = group.power_g(nonce)
    public = group.power_g(secret)
    c = _challenge(group, public, commitment, message)
    response = (nonce + c * secret) % group.q
    return SchnorrSignature(challenge=c, response=response)


def signature_from_bytes(group: Group, data: bytes) -> SchnorrSignature:
    """Decode :meth:`SchnorrSignature.to_bytes` output from untrusted input.

    Raises :class:`ValueError` unless ``data`` is exactly two scalars of
    ``group.scalar_width`` bytes, each below q.
    """
    width = group.scalar_width
    if len(data) != 2 * width:
        raise ValueError(f"Schnorr signature encoding must be {2 * width} bytes")
    challenge = int.from_bytes(data[:width], "big")
    response = int.from_bytes(data[width:], "big")
    if challenge >= group.q or response >= group.q:
        raise ValueError("Schnorr challenge or response out of scalar range")
    return SchnorrSignature(challenge=challenge, response=response)
