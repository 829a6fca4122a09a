"""(t, h, n)-threshold unique signatures — the paper's approach (iii).

A trusted dealer Shamir-shares a master secret key; each party can produce a
*signature share* on a message, and any ``h`` valid shares combine (via
Lagrange interpolation in the exponent, one full-width power per
combination) into the master signature H2(m)**master_sk.  The combined
value is **unique** — independent of which h shares were used — which is
exactly what the random beacon requires (Section 2.3).

Share validity is proven with Chaum–Pedersen DLEQ proofs against the share
public keys, replacing the pairing check of BLS (DESIGN.md §2).  A combined
signature carries the contributing shares so that third parties can verify
it without pairings; the wire-size model elsewhere accounts for it as a
constant-size BLS signature, matching the production system.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from . import dleq, shamir
from .backend import active_backend
from .group import Group

if TYPE_CHECKING:
    from .fastpath import FastPath


@dataclass(frozen=True)
class ThresholdPublicKey:
    """All public material for one scheme instance.

    ``threshold`` is h: the number of shares needed to combine.  ``n`` is
    the number of parties; share public keys are indexed 1..n (position i-1
    in the tuple).
    """

    group: Group
    threshold: int
    n: int
    master_public: int
    share_publics: tuple[int, ...]

    def share_public(self, index: int) -> int:
        """Public key for party ``index`` (1-based)."""
        return self.share_publics[index - 1]


@dataclass(frozen=True)
class ThresholdKeyShare:
    """One party's secret share (plus its index)."""

    index: int
    secret: int


@dataclass(frozen=True)
class SignatureShare:
    """A share H2(m)**sk_i with a DLEQ proof against g**sk_i."""

    index: int
    value: int
    proof: dleq.DleqProof


@dataclass(frozen=True)
class ThresholdSignature:
    """Combined signature: the unique value plus the shares that formed it.

    ``value`` is H2(m)**master_sk — identical no matter which h valid shares
    were combined.  ``shares`` lets a verifier check the signature without a
    pairing; equality of the recombination with ``value`` is the check.
    """

    value: int
    shares: tuple[SignatureShare, ...] = dc_field(default=())


def keygen(
    group: Group, threshold: int, n: int, rng
) -> tuple[ThresholdPublicKey, list[ThresholdKeyShare]]:
    """Trusted-dealer key generation.

    The paper notes approach (iii) requires "a trusted party or a secure
    distributed key generation protocol"; we implement the trusted dealer
    (the DKG is out of scope of the consensus protocol itself).
    """
    master_secret = group.random_scalar(rng)
    shares = shamir.deal(group.scalar_field, master_secret, threshold, n, rng)
    public = ThresholdPublicKey(
        group=group,
        threshold=threshold,
        n=n,
        master_public=group.power_g(master_secret),
        share_publics=tuple(group.power_g(s.value) for s in shares),
    )
    key_shares = [ThresholdKeyShare(index=s.index, secret=s.value) for s in shares]
    return public, key_shares


def sign_share(
    ctx: FastPath, pk: ThresholdPublicKey, key: ThresholdKeyShare, message: bytes, nonce: int
) -> SignatureShare:
    """Party ``key.index``'s share σ_i = H2(m)**sk_i with its DLEQ proof,
    under the caller's ``nonce``.

    σ_i and the commitment t2 = H2(m)**k are two reads of H2(m)'s squaring
    chain, which every check of a share of this message reads again; t1 =
    g**k comes from ``g``'s comb.
    """
    group = ctx.group
    h2 = ctx.message_point(message)
    value, t2 = ctx.backend.chain_powers(ctx.message_chain(message), (key.secret, nonce), group.p)
    t1 = ctx.power_g(nonce)
    c = dleq._challenge(group, group.g, pk.share_public(key.index), h2, value, t1, t2)
    proof = dleq.DleqProof(challenge=c, response=(nonce + c * key.secret) % group.q)
    return SignatureShare(index=key.index, value=value, proof=proof)


def verify_share(
    ctx: FastPath, pk: ThresholdPublicKey, message: bytes, share: SignatureShare
) -> bool:
    """The share's DLEQ proof against the share public key its index names."""
    if not 1 <= share.index <= pk.n:
        return False
    statement = dleq.DleqStatement(
        ctx.group.g, pk.share_public(share.index), ctx.message_point(message), share.value
    )
    return dleq.check(ctx, statement, share.proof, ctx.message_chain(message))


def verify(ctx: FastPath, pk: ThresholdPublicKey, message: bytes, sig: ThresholdSignature) -> bool:
    """A combined signature: the first h distinct shares it carries are
    valid and recombine to the claimed value."""
    chosen = _dedupe_by_index(list(sig.shares))[: pk.threshold]
    if len(chosen) < pk.threshold:
        return False
    if not all(verify_share(ctx, pk, message, share) for share in chosen):
        return False
    return combine(pk, message, chosen).value == sig.value


def combine(pk: ThresholdPublicKey, message: bytes, shares: list[SignatureShare]) -> ThresholdSignature:
    """Combine ``threshold`` valid shares into the master signature.

    Shares must be pre-verified (``verify_share``); invalid shares make the
    combination fail verification rather than raise here, matching how the
    protocol treats them (it only combines shares it has already validated).

    With λ_i = a_i / D in small integers (:func:`shamir.lagrange_at_zero`)
    the value is (Π σ_i^{a_i})^{D⁻¹ mod q}: h powers by exponents of a few
    bits, one inverse for the σ_i whose a_i is negative, and one full-width
    power where the per-share loop Π σ_i^{λ_i mod q} made h.  The two agree
    because a verified σ_i lies in the order-q subgroup.
    """
    chosen = _dedupe_by_index(shares)[: pk.threshold]
    if len(chosen) < pk.threshold:
        raise ValueError(
            f"need {pk.threshold} distinct shares to combine, got {len(chosen)}"
        )
    group = pk.group
    p = group.p
    backend = active_backend()
    exponents, denominator = shamir.lagrange_at_zero([s.index for s in chosen])
    positive = negative = 1
    for a, share in zip(exponents, chosen):
        if a > 0:
            positive = positive * backend.powmod(share.value, a, p) % p
        else:
            negative = negative * backend.powmod(share.value, -a, p) % p
    value = positive * backend.invmod(negative, p) % p
    value = backend.powmod(value, pow(denominator, -1, group.q), p)
    return ThresholdSignature(value=value, shares=tuple(chosen))


def signature_value_bytes(pk: ThresholdPublicKey, sig: ThresholdSignature) -> bytes:
    """Canonical byte encoding of the unique value (beacon input)."""
    return pk.group.element_to_bytes(sig.value)


def _dedupe_by_index(shares: list[SignatureShare]) -> list[SignatureShare]:
    seen: set[int] = set()
    out: list[SignatureShare] = []
    for share in shares:
        if share.index not in seen:
            seen.add(share.index)
            out.append(share)
    return out
