"""Schnorr digital signatures — the paper's ``S_auth`` scheme (Section 2.2).

Used by every party to authenticate the blocks it proposes (the block
*authenticator* of Section 3.4).  EUF-CMA secure under the discrete-log
assumption in the random-oracle model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .group import Group

if TYPE_CHECKING:
    from .fastpath import FastPath


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature in challenge form: (c, s) with c = H(pk, g**k, m)
    and s = k + c·sk.

    The nonce commitment R = g**k is not carried: the verifier recomputes
    it as g**s · pk**(-c) from two bases it holds comb tables for and
    accepts iff it hashes back to ``c``, so nothing a peer chose is ever
    exponentiated (see :func:`verify`).
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


def sign(ctx: FastPath, secret: int, public: int, message: bytes, nonce: int) -> SchnorrSignature:
    """Sign ``message`` with ``secret`` (whose public key is ``public``).

    The caller draws the nonce: a party from its seeded RNG, so simulations
    are reproducible; a load client derives it from the key and message.
    The commitment g**k is read off ``g``'s comb table.
    """
    group = ctx.group
    c = _challenge(group, public, ctx.power_g(nonce), message)
    return SchnorrSignature(challenge=c, response=(nonce + c * secret) % group.q)


def verify(ctx: FastPath, public: int, message: bytes, sig: SchnorrSignature) -> bool:
    """Recompute R = g**s · pk**(-c) from the comb tables of ``g`` and the
    public key and accept iff it hashes back to c: no exponentiation
    outside the tables."""
    group = ctx.group
    c, s = sig.challenge, sig.response
    if not (0 <= c < group.q and 0 <= s < group.q) or not ctx.is_member(public):
        return False
    commitment = group.mul(ctx.power_g(s), ctx.power_base(public, -c))
    return _challenge(group, public, commitment, message) == c


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
