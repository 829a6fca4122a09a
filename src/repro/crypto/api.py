"""Unified signer/verifier API over every signature scheme in the package.

Before this module, each scheme exposed its own free-function signature —
``schnorr.verify(group, public, msg, sig)`` vs ``threshold.verify(pk, msg,
sig)`` vs keyring methods — and callers had no batch entry point at all.
(Those free functions are gone now; this module is the only verification
surface.)  This module gives every scheme the same two-method verifier
surface:

    verify(pk, message, sig) -> bool
    verify_batch(items)      -> list[bool]      # items: (pk, message, sig)

plus ``verify_batch_report`` returning a :class:`BatchResult` with the
counters the ``crypto.batch_verify`` trace event wants.  All verifiers of a
suite are backed by one :class:`repro.crypto.fastpath.FastPath` context
(fixed-base tables, membership/H2 caches, RLC batching), so
call sites never see the fast/slow split; the per-item oracles in
:mod:`repro.crypto.fastpath` remain the reference semantics.

The ``pk`` slot is whatever identifies the signer for that scheme: a bare
group element for Schnorr, a :class:`~repro.crypto.dleq.DleqStatement` for
raw DLEQ proofs (message is ignored — the statement is the message), and
the scheme public key (``ThresholdPublicKey`` / ``MultisigPublicKey``) for
shares and aggregates.

Obtain verifiers through :func:`verifiers_for` (one process-wide suite per
group) or, for a cluster that should take its tables with it when it goes,
:meth:`VerifierSuite.over` a :class:`~repro.crypto.fastpath.FastPath` of its
own.  The scheme modules keep keygen/sign/combine and their wire formats;
verification lives here, where batching can amortize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from . import dleq, fastpath, multisig, schnorr, shamir, threshold, unique
from .backend import active_backend
from .dleq import DleqStatement
from .group import Group


# ---------------------------------------------------------------------------
# Batch reporting
# ---------------------------------------------------------------------------


@dataclass
class BatchStats:
    """Counters for one batch call, feeding ``crypto.batch_verify`` events.

    ``cache_hits``/``cache_misses`` are filled in by the keyring layer
    (its verification-result cache sits above the verifiers).
    """

    count: int = 0
    invalid: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bisections: int = 0


@dataclass
class BatchResult:
    """Per-item verdicts plus the stats for the batch that produced them."""

    results: list[bool]
    stats: BatchStats

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


class _BatchVerifier:
    """Shared plumbing: batch reports measured off the fastpath context."""

    def __init__(self, group: Group, ctx: fastpath.FastPath) -> None:
        self.group = group
        self.ctx = ctx

    def _verify_batch(self, items: list[tuple]) -> list[bool]:  # pragma: no cover
        raise NotImplementedError

    def verify_batch(self, items: Sequence[tuple]) -> list[bool]:
        return self._verify_batch(list(items))

    def verify_batch_report(self, items: Sequence[tuple]) -> BatchResult:
        items = list(items)
        before = self.ctx.stats.bisections
        results = self._verify_batch(items)
        stats = BatchStats(
            count=len(items),
            invalid=results.count(False),
            bisections=self.ctx.stats.bisections - before,
        )
        return BatchResult(results=results, stats=stats)


class SchnorrVerifier(_BatchVerifier):
    """``pk`` is the signer's public key (a group element)."""

    def verify(self, pk: int, message: bytes, sig: schnorr.SchnorrSignature) -> bool:
        group, ctx = self.group, self.ctx
        if not 0 <= sig.response < group.q:
            return False
        if not ctx.is_member(pk) or not ctx.is_member(sig.commitment):
            return False
        c = schnorr._challenge(group, pk, sig.commitment, message)
        return ctx.power_g(sig.response) == group.mul(sig.commitment, ctx.power_base(pk, c))

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        return fastpath.batch_verify_schnorr(self.ctx, items)


class DleqVerifier(_BatchVerifier):
    """``pk`` is the :class:`DleqStatement`; ``message`` is ignored."""

    def verify(self, pk: DleqStatement, message: bytes, sig: dleq.DleqProof) -> bool:
        group, ctx = self.group, self.ctx
        if not 0 <= sig.response < group.q:
            return False
        g1, a, g2, b = pk
        t1, t2 = sig.commitment1, sig.commitment2
        if not all(map(ctx.is_member, (g1, a, g2, b, t1, t2))):
            return False
        c = dleq._challenge(group, g1, a, g2, b, t1, t2)
        s = sig.response
        lhs1 = ctx.power_g(s) if g1 == group.g else group.power(g1, s)
        if lhs1 != group.mul(t1, ctx.power_base(a, c)):
            return False
        # Second equation g2**s == t2·B**c via Shamir's trick, rearranged to
        # g2**s · B**(-c) == t2 (B is a checked subgroup member, so the
        # negated exponent reduces mod q).
        return fastpath.simultaneous_power(group.p, g2, s, b, (-c) % group.q, ctx.backend) == t2

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        return fastpath.batch_verify_dleq(self.ctx, [(pk, sig) for pk, _, sig in items])


class UniqueVerifier(_BatchVerifier):
    """``pk`` is the signer's public key; H2(message) comes from the memo."""

    def __init__(self, group: Group, ctx: fastpath.FastPath, dleq_verifier: DleqVerifier) -> None:
        super().__init__(group, ctx)
        self._dleq = dleq_verifier

    def _statement(self, pk: int, message: bytes, sig: unique.UniqueSignature) -> DleqStatement:
        return DleqStatement(self.group.g, pk, self.ctx.message_point(message), sig.value)

    def verify(self, pk: int, message: bytes, sig: unique.UniqueSignature) -> bool:
        return self._dleq.verify(self._statement(pk, message, sig), b"", sig.proof)

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        ditems = [(self._statement(pk, m, sig), sig.proof) for pk, m, sig in items]
        return fastpath.batch_verify_dleq(self.ctx, ditems)


class ThresholdShareVerifier(_BatchVerifier):
    """``pk`` is the :class:`~repro.crypto.threshold.ThresholdPublicKey`."""

    def __init__(self, group: Group, ctx: fastpath.FastPath, dleq_verifier: DleqVerifier) -> None:
        super().__init__(group, ctx)
        self._dleq = dleq_verifier

    def _statement(self, pk, message: bytes, share) -> DleqStatement:
        return DleqStatement(
            self.group.g, pk.share_public(share.index), self.ctx.message_point(message), share.value
        )

    def verify(self, pk, message: bytes, share: threshold.SignatureShare) -> bool:
        if not 1 <= share.index <= pk.n:
            return False
        return self._dleq.verify(self._statement(pk, message, share), b"", share.proof)

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        results = [False] * len(items)
        live: list[int] = []
        ditems: list[tuple] = []
        for i, (pk, message, share) in enumerate(items):
            if not 1 <= share.index <= pk.n:
                continue
            ditems.append((self._statement(pk, message, share), share.proof))
            live.append(i)
        if ditems:
            for i, ok in zip(live, fastpath.batch_verify_dleq(self.ctx, ditems)):
                results[i] = ok
        return results


class ThresholdSignatureVerifier(_BatchVerifier):
    """Combined threshold signatures: batch-verifies the carried shares."""

    def __init__(
        self, group: Group, ctx: fastpath.FastPath, share_verifier: ThresholdShareVerifier
    ) -> None:
        super().__init__(group, ctx)
        self._shares = share_verifier

    def verify(self, pk, message: bytes, sig: threshold.ThresholdSignature) -> bool:
        return self._verify_batch([(pk, message, sig)])[0]

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        results = [False] * len(items)
        plan: list[tuple[int, object, list, int]] = []
        share_items: list[tuple] = []
        for i, (pk, message, sig) in enumerate(items):
            chosen = threshold._dedupe_by_index(list(sig.shares))
            if len(chosen) < pk.threshold:
                continue
            chosen = chosen[: pk.threshold]
            plan.append((i, pk, chosen, len(share_items)))
            share_items.extend((pk, message, s) for s in chosen)
        share_ok = self._shares._verify_batch(share_items) if share_items else []
        for i, pk, chosen, start in plan:
            if not all(share_ok[start : start + len(chosen)]):
                continue
            group = pk.group
            lams = shamir.lagrange_at_zero(group.scalar_field, [s.index for s in chosen])
            value = 1
            for lam, share in zip(lams, chosen):
                value = group.mul(value, group.power(share.value, lam))
            results[i] = value == items[i][2].value
        return results


class MultisigShareVerifier(_BatchVerifier):
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

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        results = [False] * len(items)
        live: list[int] = []
        sitems: list[tuple] = []
        for i, (pk, message, share) in enumerate(items):
            if not 1 <= share.index <= pk.n:
                continue
            sitems.append((pk.public(share.index), message, share.signature))
            live.append(i)
        if sitems:
            for i, ok in zip(live, fastpath.batch_verify_schnorr(self.ctx, sitems)):
                results[i] = ok
        return results


class MultisigVerifier(_BatchVerifier):
    """Aggregates: h distinct signatories and every carried share valid."""

    def __init__(
        self, group: Group, ctx: fastpath.FastPath, share_verifier: MultisigShareVerifier
    ) -> None:
        super().__init__(group, ctx)
        self._shares = share_verifier

    def verify(self, pk, message: bytes, sig: multisig.Multisignature) -> bool:
        return self._verify_batch([(pk, message, sig)])[0]

    def _verify_batch(self, items: list[tuple]) -> list[bool]:
        results = [False] * len(items)
        plan: list[tuple[int, int, int]] = []
        share_items: list[tuple] = []
        for i, (pk, message, sig) in enumerate(items):
            if len(set(sig.signatories)) < pk.threshold:
                continue
            plan.append((i, len(share_items), len(sig.shares)))
            share_items.extend((pk, message, s) for s in sig.shares)
        share_ok = self._shares._verify_batch(share_items) if share_items else []
        for i, start, count in plan:
            results[i] = all(share_ok[start : start + count])
        return results


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
            commitment=commitment, response=(nonce + c * self._secret) % group.q
        )


class MultisigShareSigner:
    def __init__(self, pk: multisig.MultisigPublicKey, key: multisig.MultisigKeyShare,
                 ctx: fastpath.FastPath | None = None) -> None:
        self.index = key.index
        self._signer = SchnorrSigner(pk.group, key.secret, ctx)

    def sign(self, message: bytes, rng) -> multisig.MultisigShare:
        return multisig.MultisigShare(index=self.index, signature=self._signer.sign(message, rng))


class _DleqSigner:
    """Shared core for the two H2-based schemes (unique / threshold share)."""

    def __init__(self, group: Group, secret: int, ctx: fastpath.FastPath | None = None) -> None:
        self.group = group
        self.ctx = ctx or fastpath.for_group(group)
        self._secret = secret
        self.public = self.ctx.power_g(secret)

    def _sign_value(self, message: bytes, rng) -> tuple[int, dleq.DleqProof]:
        group, ctx = self.group, self.ctx
        h2 = ctx.message_point(message)
        value = group.power(h2, self._secret)
        nonce = group.scalar_field.random_nonzero(rng)
        t1 = ctx.power_g(nonce)
        t2 = group.power(h2, nonce)
        c = dleq._challenge(group, group.g, self.public, h2, value, t1, t2)
        s = (nonce + c * self._secret) % group.q
        return value, dleq.DleqProof(commitment1=t1, commitment2=t2, response=s)


class UniqueSigner(_DleqSigner):
    def sign(self, message: bytes, rng) -> unique.UniqueSignature:
        value, proof = self._sign_value(message, rng)
        return unique.UniqueSignature(value=value, proof=proof)


class ThresholdShareSigner(_DleqSigner):
    def __init__(self, pk: threshold.ThresholdPublicKey, key: threshold.ThresholdKeyShare,
                 ctx: fastpath.FastPath | None = None) -> None:
        super().__init__(pk.group, key.secret, ctx)
        self.index = key.index

    def sign(self, message: bytes, rng) -> threshold.SignatureShare:
        value, proof = self._sign_value(message, rng)
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
    unique: UniqueVerifier
    threshold_share: ThresholdShareVerifier
    threshold: ThresholdSignatureVerifier
    multisig_share: MultisigShareVerifier
    multisig: MultisigVerifier

    @classmethod
    def over(cls, ctx: fastpath.FastPath) -> "VerifierSuite":
        """The seven verifiers wired over ``ctx``; whoever holds the suite
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
            unique=UniqueVerifier(group, ctx, dleq_v),
            threshold_share=share_v,
            threshold=ThresholdSignatureVerifier(group, ctx, share_v),
            multisig_share=ms_share_v,
            multisig=MultisigVerifier(group, ctx, ms_share_v),
        )


_SUITES: dict[tuple[int, int, int, str], VerifierSuite] = {}


def verifiers_for(group: Group) -> VerifierSuite:
    """The process-wide :class:`VerifierSuite` for ``group``, for callers
    with no cluster to own one (client authentication, key ceremonies,
    tests).  It lives as long as the process does.

    Keyed per (group, active crypto backend): under
    :func:`repro.crypto.backend.use_backend` each backend gets its own
    suite whose fastpath context was built by that backend, so per-backend
    benchmarks never share precomputations.
    """
    backend = active_backend()
    key = (group.p, group.q, group.g, backend.name)
    suite = _SUITES.get(key)
    if suite is None:
        suite = _SUITES[key] = VerifierSuite.over(fastpath.for_group(group, backend))
    return suite
