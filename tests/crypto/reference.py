"""Reference signers: each scheme's textbook signing, with no fast path.

Every exponentiation is a plain ``Group.power``/``power_g`` and every nonce
is drawn from the caller's RNG, so these are the oracle the production
signers (``schnorr.sign``, ``multisig.sign_share``, ``threshold.sign_share``
over a :class:`~repro.crypto.fastpath.FastPath`) are compared against bit
for bit: the same RNG draws, in the same order, over the same transcripts.
``multisig_verify`` states the aggregate rule the keyring applies share by
share through its verdict cache.
"""

from __future__ import annotations

from repro.crypto import dleq, multisig, schnorr, threshold
from repro.crypto.group import Group
from repro.crypto.unique import message_point


def schnorr_sign(group: Group, secret: int, message: bytes, rng) -> schnorr.SchnorrSignature:
    nonce = group.scalar_field.random_nonzero(rng)
    commitment = group.power_g(nonce)
    public = group.power_g(secret)
    c = schnorr._challenge(group, public, commitment, message)
    return schnorr.SchnorrSignature(challenge=c, response=(nonce + c * secret) % group.q)


def multisig_sign_share(pk, key, message: bytes, rng) -> multisig.MultisigShare:
    return multisig.MultisigShare(
        index=key.index, signature=schnorr_sign(pk.group, key.secret, message, rng)
    )


def dleq_prove(group: Group, secret: int, g1: int, g2: int, rng) -> dleq.DleqProof:
    """Prove that g1**secret and g2**secret share exponent ``secret``."""
    a = group.power(g1, secret)
    b = group.power(g2, secret)
    nonce = group.scalar_field.random_nonzero(rng)
    t1 = group.power(g1, nonce)
    t2 = group.power(g2, nonce)
    c = dleq._challenge(group, g1, a, g2, b, t1, t2)
    return dleq.DleqProof(challenge=c, response=(nonce + c * secret) % group.q)


def threshold_sign_share(pk, key, message: bytes, rng) -> threshold.SignatureShare:
    group = pk.group
    h2 = message_point(group, message)
    value = group.power(h2, key.secret)
    proof = dleq_prove(group, key.secret, group.g, h2, rng)
    return threshold.SignatureShare(index=key.index, value=value, proof=proof)


def multisig_verify(ctx, pk, message: bytes, agg: multisig.Multisignature) -> bool:
    """h distinct signatories, and every carried share valid."""
    if len(set(agg.signatories)) < pk.threshold:
        return False
    return all(multisig.verify_share(ctx, pk, message, share) for share in agg.shares)
