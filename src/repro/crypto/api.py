"""Unified signer/verifier API over every signature scheme in the package.

Every scheme has the same two-method verifier surface, and this module is
the only verification surface (the scheme modules keep keygen/sign/combine
and their wire formats):

    verify(pk, message, sig) -> bool
    verify_batch(items)      -> list[bool]      # items: (pk, message, sig)

``verify_batch`` is the loop over ``verify``: signatures travel in
challenge form (c, s), whose check is two table look-ups and a hash, and a
loop of those outran the random-linear-combination batch verifier that used
to sit here at every batch size (docs/PERFORMANCE.md).  All verifiers of a
suite are backed by one :class:`repro.crypto.fastpath.FastPath` context
(fixed-base tables, membership/H2 caches), so call sites never see the
fast/slow split; the per-item oracles in ``tests/crypto/test_fastpath.py``
remain the reference semantics.

The ``pk`` slot is whatever identifies the signer for that scheme: a bare
group element for Schnorr, a :class:`~repro.crypto.dleq.DleqStatement` for
raw DLEQ proofs (message is ignored — the statement is the message), and
the scheme public key (``ThresholdPublicKey`` / ``MultisigPublicKey``) for
shares and aggregates.

Obtain verifiers through :func:`verifiers_for` (one process-wide suite per
group) or, for a cluster that should take its tables with it when it goes,
:meth:`VerifierSuite.over` a :class:`~repro.crypto.fastpath.FastPath` of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from . import dleq, fastpath, multisig, schnorr, threshold
from .backend import CryptoBackend, active_backend
from .dleq import DleqStatement
from .group import Group


# ---------------------------------------------------------------------------
# Batch reporting
# ---------------------------------------------------------------------------


@dataclass
class BatchStats:
    """Counters for one batch of verdicts."""

    count: int = 0
    invalid: int = 0


@dataclass
class BatchResult:
    """Per-item verdicts plus their counts."""

    results: list[bool]
    stats: BatchStats

    @classmethod
    def of(cls, results: list[bool]) -> "BatchResult":
        return cls(results, BatchStats(count=len(results), invalid=results.count(False)))

    def all_valid(self) -> bool:
        return all(self.results)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


@runtime_checkable
class Signer(Protocol):
    """Uniform signing surface: one object per (scheme, key)."""

    def sign(self, message: bytes, rng) -> object: ...


@runtime_checkable
class Verifier(Protocol):
    """Uniform verification surface shared by every scheme."""

    def verify(self, pk, message: bytes, sig) -> bool: ...

    def verify_batch(self, items: Sequence[tuple]) -> list[bool]: ...


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


class _Verifier:
    """Shared plumbing: the fast-path context, and the batch as a loop."""

    def __init__(self, group: Group, ctx: fastpath.FastPath) -> None:
        self.group = group
        self.ctx = ctx

    def verify_batch(self, items: Sequence[tuple]) -> list[bool]:
        return [self.verify(*item) for item in items]


class SchnorrVerifier(_Verifier):
    """``pk`` is the signer's public key (a group element).

    Recomputes R = g**s · pk**(-c) from the two comb tables and accepts iff
    it hashes back to c: no exponentiation outside the tables.
    """

    def verify(self, pk: int, message: bytes, sig: schnorr.SchnorrSignature) -> bool:
        group, ctx = self.group, self.ctx
        c, s = sig.challenge, sig.response
        if not (0 <= c < group.q and 0 <= s < group.q) or not ctx.is_member(pk):
            return False
        commitment = group.mul(ctx.power_g(s), ctx.power_base(pk, -c))
        return schnorr._challenge(group, pk, commitment, message) == c


class DleqVerifier(_Verifier):
    """``pk`` is the :class:`DleqStatement`; ``message`` is ignored.

    Of the four statement elements only B (a share value) is new to the
    membership cache, and its proof is the one exponentiation of an element
    a peer chose; :mod:`repro.crypto.dleq` says why it cannot go.
    """

    def verify(self, pk: DleqStatement, message: bytes, sig: dleq.DleqProof) -> bool:
        group, ctx = self.group, self.ctx
        c, s = sig.challenge, sig.response
        if not (0 <= c < group.q and 0 <= s < group.q):
            return False
        g1, a, g2, b = pk
        if not all(map(ctx.is_member, (g1, a, g2, b))):
            return False
        t1 = group.mul(
            ctx.power_g(s) if g1 == group.g else group.power(g1, s), ctx.power_base(a, -c)
        )
        # B is a checked subgroup member, so the negated exponent reduces mod q.
        t2 = fastpath.simultaneous_power(group.p, g2, s, b, (-c) % group.q)
        return dleq._challenge(group, g1, a, g2, b, t1, t2) == c


class ThresholdShareVerifier(_Verifier):
    """``pk`` is the :class:`~repro.crypto.threshold.ThresholdPublicKey`."""

    def __init__(self, group: Group, ctx: fastpath.FastPath, dleq_verifier: DleqVerifier) -> None:
        super().__init__(group, ctx)
        self._dleq = dleq_verifier

    def verify(self, pk, message: bytes, share: threshold.SignatureShare) -> bool:
        if not 1 <= share.index <= pk.n:
            return False
        statement = DleqStatement(
            self.group.g, pk.share_public(share.index), self.ctx.message_point(message), share.value
        )
        return self._dleq.verify(statement, b"", share.proof)


class ThresholdSignatureVerifier(_Verifier):
    """Combined threshold signatures: the carried shares are valid and
    recombine to the claimed value."""

    def __init__(
        self, group: Group, ctx: fastpath.FastPath, share_verifier: ThresholdShareVerifier
    ) -> None:
        super().__init__(group, ctx)
        self._shares = share_verifier

    def verify(self, pk, message: bytes, sig: threshold.ThresholdSignature) -> bool:
        chosen = threshold._dedupe_by_index(list(sig.shares))[: pk.threshold]
        if len(chosen) < pk.threshold:
            return False
        if not all(self._shares.verify(pk, message, share) for share in chosen):
            return False
        return threshold.combine(pk, message, chosen).value == sig.value


class MultisigShareVerifier(_Verifier):
    """``pk`` is the :class:`~repro.crypto.multisig.MultisigPublicKey`."""

    def __init__(
        self, group: Group, ctx: fastpath.FastPath, schnorr_verifier: SchnorrVerifier
    ) -> None:
        super().__init__(group, ctx)
        self._schnorr = schnorr_verifier

    def verify(self, pk, message: bytes, share: multisig.MultisigShare) -> bool:
        if not 1 <= share.index <= pk.n:
            return False
        return self._schnorr.verify(pk.public(share.index), message, share.signature)


class MultisigVerifier(_Verifier):
    """Aggregates: h distinct signatories and every carried share valid."""

    def __init__(
        self, group: Group, ctx: fastpath.FastPath, share_verifier: MultisigShareVerifier
    ) -> None:
        super().__init__(group, ctx)
        self._shares = share_verifier

    def verify(self, pk, message: bytes, sig: multisig.Multisignature) -> bool:
        if len(set(sig.signatories)) < pk.threshold:
            return False
        return all(self._shares.verify(pk, message, share) for share in sig.shares)


# ---------------------------------------------------------------------------
# Signers
# ---------------------------------------------------------------------------
#
# Signers produce bit-identical outputs to the module-level sign functions
# (same RNG draws, same hash transcripts); they just reuse the fixed-base
# tables and precompute the public key instead of re-deriving it per call.


class SchnorrSigner:
    def __init__(self, group: Group, secret: int, ctx: fastpath.FastPath | None = None) -> None:
        self.group = group
        self.ctx = ctx or fastpath.for_group(group)
        self._secret = secret
        self.public = self.ctx.power_g(secret)

    def sign(self, message: bytes, rng) -> schnorr.SchnorrSignature:
        group = self.group
        nonce = group.scalar_field.random_nonzero(rng)
        commitment = self.ctx.power_g(nonce)
        c = schnorr._challenge(group, self.public, commitment, message)
        return schnorr.SchnorrSignature(
            challenge=c, response=(nonce + c * self._secret) % group.q
        )


class MultisigShareSigner:
    def __init__(self, pk: multisig.MultisigPublicKey, key: multisig.MultisigKeyShare,
                 ctx: fastpath.FastPath | None = None) -> None:
        self.index = key.index
        self._signer = SchnorrSigner(pk.group, key.secret, ctx)

    def sign(self, message: bytes, rng) -> multisig.MultisigShare:
        return multisig.MultisigShare(index=self.index, signature=self._signer.sign(message, rng))


class ThresholdShareSigner:
    """Signs S_beacon shares: σ_i = H2(m)**sk_i with its DLEQ proof."""

    def __init__(self, pk: threshold.ThresholdPublicKey, key: threshold.ThresholdKeyShare,
                 ctx: fastpath.FastPath | None = None) -> None:
        self.group = pk.group
        self.ctx = ctx or fastpath.for_group(pk.group)
        self.index = key.index
        self._secret = key.secret
        self.public = self.ctx.power_g(key.secret)

    def sign(self, message: bytes, rng) -> threshold.SignatureShare:
        group, ctx = self.group, self.ctx
        h2 = ctx.message_point(message)
        value = group.power(h2, self._secret)
        nonce = group.scalar_field.random_nonzero(rng)
        t1 = ctx.power_g(nonce)
        t2 = group.power(h2, nonce)
        c = dleq._challenge(group, group.g, self.public, h2, value, t1, t2)
        s = (nonce + c * self._secret) % group.q
        proof = dleq.DleqProof(challenge=c, response=s)
        return threshold.SignatureShare(index=self.index, value=value, proof=proof)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifierSuite:
    """All verifiers for one group, sharing one fastpath context."""

    group: Group
    ctx: fastpath.FastPath
    schnorr: SchnorrVerifier
    dleq: DleqVerifier
    threshold_share: ThresholdShareVerifier
    threshold: ThresholdSignatureVerifier
    multisig_share: MultisigShareVerifier
    multisig: MultisigVerifier

    @classmethod
    def over(cls, ctx: fastpath.FastPath) -> "VerifierSuite":
        """The six verifiers wired over ``ctx``; whoever holds the suite
        owns the context's tables and caches (a cluster's keyrings through
        :func:`repro.crypto.keyring.generate_keyrings`, or the process
        through :func:`verifiers_for`)."""
        group = ctx.group
        schnorr_v = SchnorrVerifier(group, ctx)
        dleq_v = DleqVerifier(group, ctx)
        share_v = ThresholdShareVerifier(group, ctx, dleq_v)
        ms_share_v = MultisigShareVerifier(group, ctx, schnorr_v)
        return cls(
            group=group,
            ctx=ctx,
            schnorr=schnorr_v,
            dleq=dleq_v,
            threshold_share=share_v,
            threshold=ThresholdSignatureVerifier(group, ctx, share_v),
            multisig_share=ms_share_v,
            multisig=MultisigVerifier(group, ctx, ms_share_v),
        )


_SUITES: dict[tuple[int, int, int, CryptoBackend], VerifierSuite] = {}


def verifiers_for(group: Group) -> VerifierSuite:
    """The process-wide :class:`VerifierSuite` for ``group``, for callers
    with no cluster to own one (client authentication, tests).  It lives
    as long as the process does.

    Keyed per (group, active backend instance): under
    :func:`repro.crypto.backend.use_backend` a substituted backend gets a
    suite of its own over :func:`repro.crypto.fastpath.for_group`'s context
    for it, so it sees every exponentiation the suite makes.
    """
    backend = active_backend()
    key = (group.p, group.q, group.g, backend)
    suite = _SUITES.get(key)
    if suite is None:
        suite = _SUITES[key] = VerifierSuite.over(fastpath.for_group(group, backend))
    return suite
