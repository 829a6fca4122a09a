"""Crypto fast path: fixed-base precomputation and the caches around it.

Every notarization/finalization/beacon share costs modular exponentiations,
and share verification dominates every experiment that runs the real
discrete-log backend.  This module is the amortization layer:

* **Fixed-base precomputation**: windowed (comb) tables for the generator
  ``g`` and long-lived public keys turn a full square-and-multiply
  exponentiation into ~⌈|q|/w⌉ table-lookup multiplications.
* **Shamir's trick** (:func:`simultaneous_power`) for the one two-base
  product of a DLEQ check whose bases have no table.
* **Memoized hash-to-group** for the per-message H2 points that threshold
  share verification re-derives constantly, and a bounded
  subgroup-membership cache so long-lived elements (public keys) pay the
  p^q membership exponentiation once.

Signatures and proofs travel in challenge form (c, s), so a verifier
recomputes the nonce commitments from bases it already trusts and compares
a hash: **no element chosen by a peer is exponentiated except σ_i**, the
share value of a beacon share, whose membership must be proved because it
is multiplied into the beacon value (the argument is in
:mod:`repro.crypto.dleq`).  Everything else whose membership is asked for —
``g``, public keys, H2 points — is long-lived and answered from the cache;
this is the invariant :meth:`Group.power` documents.

The per-item functions (:func:`verify_schnorr_single`,
:func:`verify_dleq_single`) are the correctness oracle: no caches, no
tables, ``Group.is_element`` and the backend's plain ``powmod``.  The
property tests in ``tests/crypto/test_fastpath.py`` pin the verifiers of
:mod:`repro.crypto.api` to them verdict for verdict.

Call sites should not use this module directly — go through the unified
verifier API in :mod:`repro.crypto.api` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from . import dleq, schnorr
from .backend import (
    DEFAULT_WINDOW,
    CryptoBackend,
    FixedBaseTable,  # noqa: F401 - re-exported; moved to repro.crypto.backend
    active_backend,
)
from .group import Group
from .unique import message_point


# ---------------------------------------------------------------------------
# Exponentiation primitives
# ---------------------------------------------------------------------------
#
# FixedBaseTable lives in repro.crypto.backend now (it is the substrate of
# the ``window`` backend); it is re-exported above for compatibility.


def simultaneous_power(p: int, b1: int, e1: int, b2: int, e2: int) -> int:
    """b1^e1 · b2^e2 mod p via Shamir's trick (one shared squaring chain).

    The two-base product g2**s · B**(-c) of a DLEQ check, where neither
    base has a table; roughly halves the squarings of computing the two
    powers separately.
    """
    b12 = b1 * b2 % p
    acc = 1
    for bit in range(max(e1.bit_length(), e2.bit_length()) - 1, -1, -1):
        acc = acc * acc % p
        pick = ((e1 >> bit) & 1) | (((e2 >> bit) & 1) << 1)
        if pick == 3:
            acc = acc * b12 % p
        elif pick == 1:
            acc = acc * b1 % p
        elif pick == 2:
            acc = acc * b2 % p
    return acc


# ---------------------------------------------------------------------------
# Per-group fast-path context
# ---------------------------------------------------------------------------


@dataclass
class FastPathStats:
    """Hit/miss counters of the membership cache and the H2 memo."""

    member_hits: int = 0
    member_misses: int = 0
    h2_hits: int = 0
    h2_misses: int = 0


class _BoundedCache(OrderedDict):
    """Tiny LRU: bounded ``OrderedDict`` evicting the least recently used."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def touch(self, key) -> bool:
        if key in self:
            self.move_to_end(key)
            return True
        return False

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)


class FastPath:
    """Caches and precomputed tables for the verification fast path.

    One instance per *owner*, shared by every verifier and signer the owner
    wires over it, so public-key tables, membership results and H2 points
    amortize across parties, rounds and schemes for as long as the owner
    lives.  A cluster owns one (:func:`repro.crypto.keyring.generate_keyrings`
    builds it and hands it to its n keyrings), and its tables go when the
    cluster goes; :func:`for_group` keeps a process-wide one per group for
    callers with no cluster (client authentication, ceremonies, tests).

    Tables exist only for bases a caller declares long-lived — ``g`` here,
    public keys through :meth:`power_base`/:meth:`warm_bases`; everything
    else is the backend's one-shot ``powmod``.
    """

    def __init__(
        self,
        group: Group,
        *,
        backend: CryptoBackend | None = None,
        window: int = DEFAULT_WINDOW,
        table_cache: int = 512,
        member_cache: int = 65536,
        h2_cache: int = 4096,
    ) -> None:
        self.group = group
        self.backend = backend if backend is not None else active_backend()
        self.stats = FastPathStats()
        self._window = window
        q_bits = group.q.bit_length()
        self._power_g = self.backend.fixed_power(group.g, group.p, q_bits, window)
        self._tables: _BoundedCache = _BoundedCache(table_cache)
        self._members: _BoundedCache = _BoundedCache(member_cache)
        self._members.put(group.g, None)
        self._members.put(1, None)
        self._h2: _BoundedCache = _BoundedCache(h2_cache)

    # -- membership (cached Group.is_element) ------------------------------

    def is_member(self, a: int) -> bool:
        """Subgroup membership with a bounded positive-result cache."""
        if self._members.touch(a):
            self.stats.member_hits += 1
            return True
        self.stats.member_misses += 1
        group = self.group
        if 1 <= a < group.p and self.backend.powmod(a, group.q, group.p) == 1:
            self._members.put(a, None)
            return True
        return False

    # -- fixed-base exponentiation ----------------------------------------

    def power_g(self, exponent: int) -> int:
        """g**exponent via the backend's precomputed fixed-base slot."""
        return self._power_g(exponent % self.group.q)

    def power_base(self, base: int, exponent: int) -> int:
        """base**exponent via a cached per-base fixed-power callable.

        Intended for long-lived bases (public keys, per-message H2 points);
        the first call builds the backend's precomputation (a comb table
        for ``window``, a bare closure for ``pure``), later calls amortize
        it.  The caller must guarantee ``base`` is a subgroup member
        (exponent is reduced mod q).
        """
        power = self._tables.get(base)
        if power is None:
            power = self.backend.fixed_power(
                base, self.group.p, self.group.q.bit_length(), self._window
            )
            self._tables.put(base, power)
        else:
            self._tables.touch(base)
        return power(exponent % self.group.q)

    def warm_bases(self, bases) -> int:
        """Pre-build fixed-base precomputations for long-lived bases.

        Batch-auth hook for the load pipeline: client public keys are
        known before traffic starts, so building their tables up front
        moves the one-time cost out of the first verification batch (and
        out of its latency measurement).  Bases beyond the table cache's
        LRU capacity are skipped rather than evicting hot entries.
        Returns the number of precomputations built.
        """
        built = 0
        for base in bases:
            if len(self._tables) >= self._tables.maxsize:
                break
            if self._tables.touch(base):
                continue
            self._tables.put(
                base,
                self.backend.fixed_power(
                    base, self.group.p, self.group.q.bit_length(), self._window
                ),
            )
            built += 1
        return built

    # -- memoized hash-to-group -------------------------------------------

    def message_point(self, message: bytes) -> int:
        """Memoized H2(m) (see :func:`repro.crypto.unique.message_point`)."""
        point = self._h2.get(message)
        if point is not None:
            self._h2.touch(message)
            self.stats.h2_hits += 1
            return point
        self.stats.h2_misses += 1
        point = message_point(self.group, message)
        self._h2.put(message, point)
        self._members.put(point, None)  # cofactor construction => member
        return point


_CONTEXTS: dict[tuple[int, int, int, str], FastPath] = {}


def for_group(group: Group, backend: CryptoBackend | None = None) -> FastPath:
    """The process-wide :class:`FastPath` context for ``group`` under a backend.

    It is never freed, so it is for standalone callers; a cluster builds its
    own (see :class:`FastPath`).  One context per (group, backend) pair:
    switching backends with
    :func:`repro.crypto.backend.use_backend` transparently switches to a
    context whose precomputations were built by that backend, so cached
    tables never leak across strategies being benchmarked against each
    other.
    """
    if backend is None:
        backend = active_backend()
    key = (group.p, group.q, group.g, backend.name)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = FastPath(group, backend=backend)
    return ctx


# ---------------------------------------------------------------------------
# Per-item correctness oracles
# ---------------------------------------------------------------------------
#
# These are the reference semantics of the verifiers in repro.crypto.api: no
# caches, no precomputation, no shared state.  The verifiers must accept
# exactly the items these accept (pinned by tests/crypto/test_fastpath.py).


def verify_schnorr_single(
    group: Group, public: int, message: bytes, signature: schnorr.SchnorrSignature
) -> bool:
    """Exact per-item Schnorr check: H(pk, g**s · pk**(-c), m) == c."""
    c, s = signature.challenge, signature.response
    if not (0 <= c < group.q and 0 <= s < group.q):
        return False
    if not group.is_element(public):
        return False
    commitment = group.mul(group.power_g(s), group.power(public, -c))
    return schnorr._challenge(group, public, commitment, message) == c


def verify_dleq_single(
    group: Group, statement: dleq.DleqStatement, proof: dleq.DleqProof
) -> bool:
    """Exact per-item DLEQ check: H(g1, A, g2, B, g1**s·A**(-c), g2**s·B**(-c)) == c."""
    c, s = proof.challenge, proof.response
    if not (0 <= c < group.q and 0 <= s < group.q):
        return False
    g1, a, g2, b = statement
    for x in (g1, a, g2, b):
        if not group.is_element(x):
            return False
    t1 = group.mul(group.power(g1, s), group.power(a, -c))
    t2 = group.mul(group.power(g2, s), group.power(b, -c))
    return dleq._challenge(group, g1, a, g2, b, t1, t2) == c
