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

The check discharges that membership from its own work: it needs B**(q-c)
for t2, reads it off one squaring chain of B, and on B's first sight reads
B**q == 1 off the same chain (``FastPath.member_power``); only a B that
passes enters the membership cache.  With B = σ_i·ω, B**q = ω**q ≠ 1 for
any ω of order d > 1 dividing the cofactor, whatever the nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .group import Group

if TYPE_CHECKING:
    from .fastpath import FastPath


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


def check(ctx: FastPath, statement: DleqStatement, proof: DleqProof, g2_chain: list[int]) -> bool:
    """Whether ``proof`` proves ``statement``, given g2's squaring chain.

    g1**s and A**(-c) come from comb tables, g2**s is read off
    ``g2_chain`` (a beacon share's check brings H2(m)'s from the context),
    and B**(q-c) and, on B's first sight, its membership proof B**q are two
    reads of one chain of B (:meth:`FastPath.member_power`).
    """
    group = ctx.group
    c, s = proof.challenge, proof.response
    if not (0 <= c < group.q and 0 <= s < group.q):
        return False
    g1, a, g2, b = statement
    if not all(map(ctx.is_member, (g1, a, g2))):
        return False
    b_c = ctx.member_power(b, group.q - c)  # B**(-c), as B**q == 1
    if b_c is None:
        return False
    p = group.p
    t1 = group.mul(
        ctx.power_g(s) if g1 == group.g else group.power(g1, s), ctx.power_base(a, -c)
    )
    t2 = ctx.backend.chain_powers(g2_chain, (s,), p)[0] * b_c % p
    return _challenge(group, g1, a, g2, b, t1, t2) == c
