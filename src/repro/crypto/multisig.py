"""Multi-signatures — the paper's approach (ii), used for S_notary and S_final.

The paper instantiates notarizations and finalizations with BLS
multi-signatures (h = n - t): each party's signature share is an ordinary
signature, and shares aggregate into one object that *identifies the
signatories*.  We realise the same interface with Schnorr signatures: a
share is a Schnorr signature, and the aggregate is the set of shares plus
the signatory descriptor.  The wire-size model (repro.core.messages) charges
the aggregate as a constant-size BLS multi-signature plus an n-bit bitmap,
matching the production system's traffic.

No trusted setup is required (a property the paper highlights for
approaches (i)/(ii)): each party simply has an independent key pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import schnorr
from .group import Group

if TYPE_CHECKING:
    from .fastpath import FastPath


@dataclass(frozen=True)
class MultisigPublicKey:
    """Public keys of all n parties plus the aggregation threshold h."""

    group: Group
    threshold: int  # h: number of distinct signatories needed
    n: int
    publics: tuple[int, ...]

    def public(self, index: int) -> int:
        """Public key of party ``index`` (1-based)."""
        return self.publics[index - 1]


@dataclass(frozen=True)
class MultisigKeyShare:
    index: int
    secret: int


@dataclass(frozen=True)
class MultisigShare:
    """One party's signature share on a message."""

    index: int
    signature: schnorr.SchnorrSignature


@dataclass(frozen=True)
class Multisignature:
    """Aggregate of >= h shares; ``signatories`` is the descriptor.

    It is valid iff it names at least h distinct signatories and every share
    it carries passes :func:`verify_share`;
    :class:`~repro.crypto.keyring.RealKeyring` checks it share by share.
    """

    shares: tuple[MultisigShare, ...]

    @property
    def signatories(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.shares)


def keygen(group: Group, threshold: int, n: int, rng) -> tuple[MultisigPublicKey, list[MultisigKeyShare]]:
    """Independent per-party key generation (no trusted dealer needed)."""
    pairs = [schnorr.keygen(group, rng) for _ in range(n)]
    pk = MultisigPublicKey(
        group=group,
        threshold=threshold,
        n=n,
        publics=tuple(p.public for p in pairs),
    )
    keys = [MultisigKeyShare(index=i + 1, secret=p.secret) for i, p in enumerate(pairs)]
    return pk, keys


def sign_share(
    ctx: FastPath, pk: MultisigPublicKey, key: MultisigKeyShare, message: bytes, nonce: int
) -> MultisigShare:
    """Party ``key.index``'s share: a Schnorr signature under its own key."""
    signature = schnorr.sign(ctx, key.secret, pk.public(key.index), message, nonce)
    return MultisigShare(index=key.index, signature=signature)


def verify_share(
    ctx: FastPath, pk: MultisigPublicKey, message: bytes, share: MultisigShare
) -> bool:
    """The share's signature, under the key of the party its index names."""
    if not 1 <= share.index <= pk.n:
        return False
    return schnorr.verify(ctx, pk.public(share.index), message, share.signature)


def combine(pk: MultisigPublicKey, message: bytes, shares: list[MultisigShare]) -> Multisignature:
    """Aggregate h distinct valid shares into a multi-signature."""
    seen: set[int] = set()
    chosen: list[MultisigShare] = []
    for share in shares:
        if share.index not in seen:
            seen.add(share.index)
            chosen.append(share)
        if len(chosen) == pk.threshold:
            break
    if len(chosen) < pk.threshold:
        raise ValueError(f"need {pk.threshold} distinct shares, got {len(chosen)}")
    return Multisignature(shares=tuple(chosen))
