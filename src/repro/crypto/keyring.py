"""Per-party key material bundles for the ICC protocols.

Section 3.2 of the paper lists the components each party is provisioned
with:

* ``S_auth``   — an ordinary signature scheme (block authenticators),
* ``S_notary`` — a (t, n-t, n)-threshold scheme (notarizations),
* ``S_final``  — a (t, n-t, n)-threshold scheme (finalizations),
* ``S_beacon`` — a (t, t+1, n)-threshold scheme with *unique* signatures
  (the random beacon).

This module bundles all four into a single :class:`Keyring` object per
party, behind a small interface the protocol layer talks to.  Two backends
implement the interface:

* :class:`RealKeyring` — the actual discrete-log constructions from this
  package (Schnorr, Schnorr-multisig, threshold-unique signatures).
* :class:`FastKeyring` — a hash-based *simulation* backend for large-scale
  experiments.  It preserves every property the protocol logic observes
  (share/aggregate interfaces, thresholds, uniqueness and unpredictability
  of the beacon value to the *simulated* adversary) but is not
  cryptographically unforgeable.  The paper's analysis assumes secure
  signatures as a black box; the simulated adversaries in
  :mod:`repro.adversary` mount protocol-level attacks only, never forgeries,
  so the backends are interchangeable for every experiment.  Crypto
  correctness itself is validated against the real backend in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Protocol, Sequence

from . import dleq, multisig, schnorr, threshold
from .fastpath import FastPath, _BoundedCache
from .group import GROUP_PROFILES, Group, group_for_profile
from .hashing import tagged_hash, tagged_state

_MISS = object()


class Keyring(Protocol):
    """What the protocol layer needs from a party's key material."""

    index: int
    n: int
    t: int

    # S_auth ---------------------------------------------------------------
    def sign_auth(self, message: bytes) -> object: ...
    def verify_auth(self, signer: int, message: bytes, sig: object) -> bool: ...

    # S_notary / S_final ----------------------------------------------------
    def sign_notary_share(self, message: bytes) -> object: ...
    def verify_notary_share(self, message: bytes, share: object) -> bool: ...
    def combine_notary(self, message: bytes, shares: Sequence[object]) -> object: ...
    def verify_notary(self, message: bytes, agg: object) -> bool: ...

    def sign_final_share(self, message: bytes) -> object: ...
    def verify_final_share(self, message: bytes, share: object) -> bool: ...
    def combine_final(self, message: bytes, shares: Sequence[object]) -> object: ...
    def verify_final(self, message: bytes, agg: object) -> bool: ...

    # S_beacon ---------------------------------------------------------------
    def sign_beacon_share(self, message: bytes) -> object: ...
    def verify_beacon_share(self, message: bytes, share: object) -> bool: ...
    def combine_beacon(self, message: bytes, shares: Sequence[object]) -> object: ...
    def verify_beacon(self, message: bytes, sig: object) -> bool: ...
    def beacon_value(self, sig: object) -> bytes: ...

    def share_index(self, share: object) -> int: ...


# ---------------------------------------------------------------------------
# Real (discrete-log) backend
# ---------------------------------------------------------------------------


@dataclass
class _SharedPublic:
    """Public material common to all parties (one per simulation), and the
    :class:`~repro.crypto.fastpath.FastPath` they sign and verify over: its
    public-key tables, membership cache and H2 memo belong to this cluster
    and are freed with it."""

    group: Group
    auth_publics: tuple[int, ...]
    notary_pk: multisig.MultisigPublicKey
    final_pk: multisig.MultisigPublicKey
    beacon_pk: threshold.ThresholdPublicKey
    ctx: FastPath


# Signature objects arrive from peers.  The wire codec fixes the type of every
# field but not which of its seven signature objects sits in a given message,
# and an in-process Byzantine behaviour hands over whatever it likes, so their
# shape is checked before anything reads a field or hashes them into the
# verdict cache.


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _is_schnorr(sig) -> bool:
    return isinstance(sig, schnorr.SchnorrSignature) and _ints(sig.challenge, sig.response)


def _is_multisig_share(share) -> bool:
    return (
        isinstance(share, multisig.MultisigShare)
        and _ints(share.index)
        and _is_schnorr(share.signature)
    )


def _is_multisig(agg) -> bool:
    return (
        isinstance(agg, multisig.Multisignature)
        and isinstance(agg.shares, tuple)
        and all(map(_is_multisig_share, agg.shares))
    )


def _is_beacon_share(share) -> bool:
    if not isinstance(share, threshold.SignatureShare):
        return False
    proof = share.proof
    return (
        _ints(share.index, share.value)
        and isinstance(proof, dleq.DleqProof)
        and _ints(proof.challenge, proof.response)
    )


def _is_beacon_signature(sig) -> bool:
    return (
        isinstance(sig, threshold.ThresholdSignature)
        and _ints(sig.value)
        and isinstance(sig.shares, tuple)
        and all(map(_is_beacon_share, sig.shares))
    )


class RealKeyring:
    """Discrete-log instantiation of the :class:`Keyring` interface.

    Each scheme signs and verifies through its module's functions
    (:mod:`~repro.crypto.schnorr`, :mod:`~repro.crypto.multisig`,
    :mod:`~repro.crypto.threshold`), over the context the cluster's keyrings
    share (``shared.ctx``); the nonces come from this party's ``rng``.

    Verdicts are memoized in a bounded LRU keyed by ``(kind, signer,
    message, sig)`` — protocol messages are fixed-width digests, signatures
    are frozen dataclasses and therefore hashable, and verification is
    deterministic, so both verdicts are cacheable.  The same LRU is how a
    party does each piece of work once:

    * every ``sign_*`` records its output as valid under the key ``verify_*``
      will look up, so a party's own share or authenticator coming back
      through its pool (Section 3.1: a broadcast reaches the sender too)
      costs a lookup.  Only this party's secret key can have produced that
      object; a forgery that claims this party's index is a *different*
      object, misses, and is checked like any other.
    * ``verify_notary``/``verify_final`` hold no verdict per aggregate: an
      aggregate is valid iff it names ≥ h distinct signatories and every
      share it carries is valid, and the shares go through the LRU one by
      one.  An aggregate this party combined from shares it verified on
      arrival costs no exponentiation, a foreign one costs only the shares
      not seen before, and nothing is accepted that was not signed here or
      verified here.
    """

    #: Bound on the per-party verification-result cache.
    RESULT_CACHE_SIZE = 8192

    def __init__(
        self,
        index: int,
        n: int,
        t: int,
        shared: _SharedPublic,
        auth_secret: int,
        notary_key: multisig.MultisigKeyShare,
        final_key: multisig.MultisigKeyShare,
        beacon_key: threshold.ThresholdKeyShare,
        rng: Random,
    ) -> None:
        self.index = index
        self.n = n
        self.t = t
        self._shared = shared
        self._auth_secret = auth_secret
        self._notary_key = notary_key
        self._final_key = final_key
        self._beacon_key = beacon_key
        self._rng = rng
        self._ctx = shared.ctx
        self._scalars = shared.group.scalar_field
        self._results = _BoundedCache(self.RESULT_CACHE_SIZE)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- result cache ------------------------------------------------------

    def _signed(self, kind: str, message: bytes, sig):
        """Record ``sig``, just made with this party's own key, as valid."""
        self._results.put((kind, self.index, message, sig), True)
        return sig

    def _cached(self, kind: str, signer: int, message: bytes, sig, check) -> bool:
        key = (kind, signer, message, sig)
        verdict = self._results.get(key, _MISS)
        if verdict is not _MISS:
            self._results.touch(key)
            self.cache_hits += 1
            return verdict
        self.cache_misses += 1
        verdict = check()
        self._results.put(key, verdict)
        return verdict

    def _nonce(self) -> int:
        return self._scalars.random_nonzero(self._rng)

    def _verify_multisig_share(self, kind: str, pk, message: bytes, share) -> bool:
        return self._cached(
            kind, share.index, message, share,
            lambda: multisig.verify_share(self._ctx, pk, message, share),
        )

    def _verify_aggregate(self, kind: str, pk, message: bytes, agg) -> bool:
        """An aggregate's verdict (:class:`~repro.crypto.multisig.Multisignature`),
        share by share through the result cache (class docstring)."""
        if not _is_multisig(agg) or len(set(agg.signatories)) < pk.threshold:
            return False
        return all(self._verify_multisig_share(kind, pk, message, s) for s in agg.shares)

    # S_auth
    def sign_auth(self, message: bytes):
        sig = schnorr.sign(
            self._ctx, self._auth_secret, self._shared.auth_publics[self.index - 1],
            message, self._nonce(),
        )
        return self._signed("auth", message, sig)

    def verify_auth(self, signer: int, message: bytes, sig) -> bool:
        if type(signer) is not int or not 1 <= signer <= self.n or not _is_schnorr(sig):
            return False
        public = self._shared.auth_publics[signer - 1]
        return self._cached(
            "auth", signer, message, sig,
            lambda: schnorr.verify(self._ctx, public, message, sig),
        )

    # S_notary
    def sign_notary_share(self, message: bytes):
        share = multisig.sign_share(
            self._ctx, self._shared.notary_pk, self._notary_key, message, self._nonce()
        )
        return self._signed("notary-share", message, share)

    def verify_notary_share(self, message: bytes, share) -> bool:
        return _is_multisig_share(share) and self._verify_multisig_share(
            "notary-share", self._shared.notary_pk, message, share
        )

    def combine_notary(self, message: bytes, shares):
        return multisig.combine(self._shared.notary_pk, message, list(shares))

    def verify_notary(self, message: bytes, agg) -> bool:
        return self._verify_aggregate("notary-share", self._shared.notary_pk, message, agg)

    # S_final
    def sign_final_share(self, message: bytes):
        share = multisig.sign_share(
            self._ctx, self._shared.final_pk, self._final_key, message, self._nonce()
        )
        return self._signed("final-share", message, share)

    def verify_final_share(self, message: bytes, share) -> bool:
        return _is_multisig_share(share) and self._verify_multisig_share(
            "final-share", self._shared.final_pk, message, share
        )

    def combine_final(self, message: bytes, shares):
        return multisig.combine(self._shared.final_pk, message, list(shares))

    def verify_final(self, message: bytes, agg) -> bool:
        return self._verify_aggregate("final-share", self._shared.final_pk, message, agg)

    # S_beacon
    def sign_beacon_share(self, message: bytes):
        share = threshold.sign_share(
            self._ctx, self._shared.beacon_pk, self._beacon_key, message, self._nonce()
        )
        return self._signed("beacon-share", message, share)

    def verify_beacon_share(self, message: bytes, share) -> bool:
        if not _is_beacon_share(share):
            return False
        return self._cached(
            "beacon-share", share.index, message, share,
            lambda: threshold.verify_share(self._ctx, self._shared.beacon_pk, message, share),
        )

    def combine_beacon(self, message: bytes, shares):
        return threshold.combine(self._shared.beacon_pk, message, list(shares))

    def verify_beacon(self, message: bytes, sig) -> bool:
        if not _is_beacon_signature(sig):
            return False
        return self._cached(
            "beacon-agg", 0, message, sig,
            lambda: threshold.verify(self._ctx, self._shared.beacon_pk, message, sig),
        )

    def beacon_value(self, sig) -> bytes:
        return tagged_hash(
            "ICC/beacon/value",
            threshold.signature_value_bytes(self._shared.beacon_pk, sig),
        )

    def share_index(self, share) -> int:
        """The index a share names, or 0 (no party) for anything else."""
        if isinstance(share, (multisig.MultisigShare, threshold.SignatureShare)):
            return share.index
        return 0


# ---------------------------------------------------------------------------
# Fast (hash-simulation) backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastShare:
    """Simulated signature share: a MAC under a scheme-wide key."""

    scheme: str
    index: int
    digest: bytes


@dataclass(frozen=True)
class FastAggregate:
    """Simulated aggregate signature with signatory descriptor."""

    scheme: str
    digest: bytes
    signatories: tuple[int, ...]


#: The four schemes of Section 3.2, as the fast backend names them.
FAST_SCHEMES = ("auth", "notary", "final", "beacon")

#: The encoded length of a share's 4-byte index (see ``tagged_hash``).
_INDEX_LENGTH = (4).to_bytes(8, "big")


class FastKeyring:
    """Hash-based simulation backend (see module docstring for caveats).

    A share's digest is ``tagged_hash("ICC/fast/share", master, scheme,
    index, message)`` and an aggregate's ``tagged_hash("ICC/fast/agg",
    master, scheme, message)``.  Each scheme's SHA-256 state for the fixed
    ``(tag, master, scheme)`` prefix is absorbed once, at construction; a
    share or aggregate copies it and feeds the rest, the same bytes and so
    the same digest.
    """

    def __init__(self, index: int, n: int, t: int, master: bytes) -> None:
        self.index = index
        self.n = n
        self.t = t
        self._share_states = {
            scheme: tagged_state("ICC/fast/share", master, scheme.encode())
            for scheme in FAST_SCHEMES
        }
        self._agg_states = {
            scheme: tagged_state("ICC/fast/agg", master, scheme.encode())
            for scheme in FAST_SCHEMES
        }

    def _digest(self, scheme: str, index: int, message: bytes) -> bytes:
        h = self._share_states[scheme].copy()
        h.update(
            _INDEX_LENGTH + index.to_bytes(4, "big") + len(message).to_bytes(8, "big") + message
        )
        return h.digest()

    def _agg_digest(self, scheme: str, message: bytes) -> bytes:
        h = self._agg_states[scheme].copy()
        h.update(len(message).to_bytes(8, "big") + message)
        return h.digest()

    def _share(self, scheme: str, index: int, message: bytes) -> FastShare:
        return FastShare(scheme=scheme, index=index, digest=self._digest(scheme, index, message))

    def _verify_share(self, scheme: str, message: bytes, share: FastShare) -> bool:
        # A share from a peer (or an in-process Byzantine behaviour) may be
        # any object, with fields of any type.  Exact class, as dataclass
        # ``==`` would demand: an instance of a subclass is refused.
        if type(share) is not FastShare or share.scheme != scheme:
            return False
        index = share.index
        if type(index) is not int or type(share.digest) is not bytes or not 1 <= index <= self.n:
            return False
        return share.digest == self._digest(scheme, index, message)

    def _combine(self, scheme: str, h: int, message: bytes, shares) -> FastAggregate:
        indices: list[int] = []
        seen: set[int] = set()
        for share in shares:
            if share.index not in seen:
                seen.add(share.index)
                indices.append(share.index)
            if len(indices) == h:
                break
        if len(indices) < h:
            raise ValueError(f"need {h} distinct shares, got {len(indices)}")
        return FastAggregate(
            scheme=scheme, digest=self._agg_digest(scheme, message), signatories=tuple(indices)
        )

    def _verify_agg(self, scheme: str, h: int, message: bytes, agg: FastAggregate) -> bool:
        if not isinstance(agg, FastAggregate) or agg.scheme != scheme:
            return False
        signatories = agg.signatories
        if type(signatories) is not tuple or not _ints(*signatories):
            return False
        # Every signatory names a party, as the real backend's per-share
        # check demands.
        if not all(1 <= i <= self.n for i in signatories):
            return False
        if type(agg.digest) is not bytes or len(set(signatories)) < h:
            return False
        return agg.digest == self._agg_digest(scheme, message)

    # S_auth: a per-signer MAC
    def sign_auth(self, message: bytes):
        return self._share("auth", self.index, message)

    def verify_auth(self, signer: int, message: bytes, sig) -> bool:
        return (
            isinstance(sig, FastShare)
            and sig.index == signer
            and self._verify_share("auth", message, sig)
        )

    # S_notary
    def sign_notary_share(self, message: bytes):
        return self._share("notary", self.index, message)

    def verify_notary_share(self, message: bytes, share) -> bool:
        return self._verify_share("notary", message, share)

    def combine_notary(self, message: bytes, shares):
        return self._combine("notary", self.n - self.t, message, shares)

    def verify_notary(self, message: bytes, agg) -> bool:
        return self._verify_agg("notary", self.n - self.t, message, agg)

    # S_final
    def sign_final_share(self, message: bytes):
        return self._share("final", self.index, message)

    def verify_final_share(self, message: bytes, share) -> bool:
        return self._verify_share("final", message, share)

    def combine_final(self, message: bytes, shares):
        return self._combine("final", self.n - self.t, message, shares)

    def verify_final(self, message: bytes, agg) -> bool:
        return self._verify_agg("final", self.n - self.t, message, agg)

    # S_beacon — the aggregate digest doubles as the unique signature value.
    def sign_beacon_share(self, message: bytes):
        return self._share("beacon", self.index, message)

    def verify_beacon_share(self, message: bytes, share) -> bool:
        return self._verify_share("beacon", message, share)

    def combine_beacon(self, message: bytes, shares):
        return self._combine("beacon", self.t + 1, message, shares)

    def verify_beacon(self, message: bytes, sig) -> bool:
        return self._verify_agg("beacon", self.t + 1, message, sig)

    def beacon_value(self, sig) -> bytes:
        return tagged_hash("ICC/fast/beacon-value", sig.digest)

    def share_index(self, share) -> int:
        return share.index if isinstance(share, FastShare) else 0


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def generate_keyrings(
    n: int,
    t: int,
    seed: int = 0,
    backend: str = "fast",
    group_profile: str = "test",
) -> list[Keyring]:
    """Provision all n parties with correlated key material.

    ``backend`` selects ``"real"`` (discrete-log crypto) or ``"fast"``
    (hash simulation).  Thresholds follow Section 3.2: S_notary and S_final
    are (t, n-t, n) schemes, S_beacon is (t, t+1, n).

    The correlated keys come from a trusted dealer (Section 3.1's "trusted
    party"): the keygen functions of :mod:`repro.crypto.threshold` and
    :mod:`repro.crypto.multisig`.  ``group_profile`` names the group of
    :func:`~repro.crypto.group.group_for_profile`; it is checked on either
    backend.

    Every real-backend call derives its key material afresh from
    ``Random(seed)`` — a few milliseconds on the ``test`` group, tens on
    ``default`` (docs/PERFORMANCE.md) — so equal arguments give
    bit-identical keys.  Each call also builds one
    :class:`~repro.crypto.fastpath.FastPath`, under the crypto backend
    active at the time, and hands it to all n keyrings: the public-key
    tables, membership cache and H2 memo are shared by the cluster's parties
    and freed with them, not kept in the process-wide registry of
    :func:`repro.crypto.fastpath.for_group`.
    """
    if n < 1:
        raise ValueError("need at least one party")
    if t < 0 or (t > 0 and 3 * t >= n):
        # The protocol tolerates t < n/3; permit t == 0 for degenerate tests.
        raise ValueError(f"require t < n/3 (got n={n}, t={t})")
    if group_profile not in GROUP_PROFILES:
        raise ValueError(f"unknown group profile {group_profile!r}")
    if backend == "fast":
        master = tagged_hash("ICC/fast/master", seed.to_bytes(8, "big"), n.to_bytes(4, "big"))
        return [FastKeyring(index=i, n=n, t=t, master=master) for i in range(1, n + 1)]
    if backend != "real":
        raise ValueError(f"unknown crypto backend {backend!r}")

    group = group_for_profile(group_profile)
    rng = Random(seed)
    auth_pairs = [schnorr.keygen(group, rng) for _ in range(n)]
    notary_pk, notary_keys = multisig.keygen(group, n - t, n, rng)
    final_pk, final_keys = multisig.keygen(group, n - t, n, rng)
    beacon_pk, beacon_keys = threshold.keygen(group, t + 1, n, rng)
    shared = _SharedPublic(
        group=group,
        auth_publics=tuple(pair.public for pair in auth_pairs),
        notary_pk=notary_pk,
        final_pk=final_pk,
        beacon_pk=beacon_pk,
        ctx=FastPath(group),
    )
    return [
        RealKeyring(
            index=i + 1,
            n=n,
            t=t,
            shared=shared,
            auth_secret=auth_pairs[i].secret,
            notary_key=notary_keys[i],
            final_key=final_keys[i],
            beacon_key=beacon_keys[i],
            rng=Random(seed * 1_000_003 + i + 1),
        )
        for i in range(n)
    ]
