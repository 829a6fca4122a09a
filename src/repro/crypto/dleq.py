"""Chaum–Pedersen DLEQ proofs (discrete-log equality).

A DLEQ proof convinces a verifier that two group elements share the same
discrete logarithm: given (g, A, h, B), the prover shows knowledge of x with
A = g**x and B = h**x, without revealing x.  Made non-interactive via
Fiat–Shamir.

These proofs are the verification mechanism for the threshold *unique
signatures* of :mod:`repro.crypto.threshold`: a signature share H2(m)**sk_i is
accompanied by a DLEQ proof against the share public key g**sk_i.  This is
the pairing-free substitute for BLS share verification (DESIGN.md §2).

Proofs are carried in *challenge form* (c, s): the verifier recomputes the
nonce commitments t1 = g1**s · A**(-c) and t2 = g2**s · B**(-c) and accepts
iff they hash back to c.  The commitments themselves never travel, so they
need no subgroup-membership proof — which, as (t1, t2, s), cost two of the
three exponentiations-by-q a share check paid (docs/PERFORMANCE.md).  Of
everything a peer chooses, only B is ever exponentiated, and B's own
membership check **must** stay: B is the share value σ_i that is multiplied
into the beacon value.  Were it skipped, a prover could send B = σ_i·ω with
ω of small order d outside the subgroup and commit to t2 = g2**k · ω**j;
the recomputed t2 picks up ω**(q-c), which equals ω**j whenever
c ≡ q - j (mod d), so each grind of the nonce passes with probability 1/d
and two valid-looking shares of one party would carry different values —
the uniqueness the beacon rests on (paper §2.3) would be gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .group import Group


class DleqStatement(NamedTuple):
    """The statement (g1, A, g2, B): log_g1(A) == log_g2(B)."""

    g1: int
    a: int
    g2: int
    b: int


@dataclass(frozen=True)
class DleqProof:
    """Non-interactive proof that log_g1(A) == log_g2(B).

    ``challenge`` is the Fiat–Shamir challenge c = H(g1, A, g2, B, t1, t2)
    over the prover's nonce commitments t1 = g1**k, t2 = g2**k;
    ``response`` is s = k + c·x.
    """

    challenge: int  # c, a scalar
    response: int  # s, a scalar

    def to_bytes(self, group: Group) -> bytes:
        width = group.scalar_width
        return self.challenge.to_bytes(width, "big") + self.response.to_bytes(width, "big")


def _challenge(group: Group, g1: int, a: int, g2: int, b: int, t1: int, t2: int) -> int:
    return group.hash_to_scalar(
        "ICC/dleq/challenge",
        *(group.element_to_bytes(x) for x in (g1, a, g2, b, t1, t2)),
    )


def prove(group: Group, secret: int, g1: int, g2: int, rng) -> DleqProof:
    """Prove that g1**secret and g2**secret share exponent ``secret``."""
    a = group.power(g1, secret)
    b = group.power(g2, secret)
    nonce = group.scalar_field.random_nonzero(rng)
    t1 = group.power(g1, nonce)
    t2 = group.power(g2, nonce)
    c = _challenge(group, g1, a, g2, b, t1, t2)
    s = (nonce + c * secret) % group.q
    return DleqProof(challenge=c, response=s)
