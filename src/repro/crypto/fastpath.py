"""Crypto fast path: fixed-base precomputation and the caches around it.

Every notarization/finalization/beacon share costs modular exponentiations,
and share verification dominates every experiment that runs the real
discrete-log backend.  This module is the amortization layer:

* **Fixed-base precomputation**: Lim–Lee combs
  (:class:`repro.crypto.backend.Comb`) for the generator ``g`` and
  long-lived public keys turn a full square-and-multiply exponentiation
  into at most one table multiplication per 8-bit column digit — for ``g``
  with no squaring (32 multiplications at |q| = 256), for a public key
  from at most four tables (at |q| = 256: 7 squarings, ≤ 32
  multiplications, an eighth of ``g``'s entries).
* **Memoized hash-to-group** for the per-message H2 points that threshold
  share verification re-derives constantly, with H2(m)'s squaring chain
  for the last few messages: the signer's σ_i and commitment and every
  DLEQ check of a share of m read their powers of H2(m) off it.  A bounded
  subgroup-membership cache lets long-lived elements (public keys) pay the
  p^q membership exponentiation once.

The one element a peer chose that is exponentiated, a beacon share's σ_i,
gets one squaring chain per check (:meth:`FastPath.member_power`): its
power by q − c and, on first sight, its membership proof σ_i^q are two
reads of it.

Signatures and proofs travel in challenge form (c, s), so a verifier
recomputes the nonce commitments from bases it already trusts and compares
a hash: **no element chosen by a peer is exponentiated except σ_i**, the
share value of a beacon share, whose membership must be proved because it
is multiplied into the beacon value (the argument is in
:mod:`repro.crypto.dleq`).  Everything else whose membership is asked for —
``g``, public keys, H2 points — is long-lived and answered from the cache;
this is the invariant :meth:`Group.power` documents.

The scheme modules sign and verify over a context (``schnorr.sign``,
``threshold.verify_share``, ``dleq.check``, ...); whoever owns the context
decides whose tables they read.  The correctness oracle is the per-item
check with no caches, no tables, ``Group.is_element`` and the backend's
plain ``powmod``; it lives in ``tests/crypto/test_fastpath.py``, whose
property tests pin the scheme functions to it verdict for verdict.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .backend import CryptoBackend, active_backend
from .group import Group
from .unique import message_point


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


#: Public-key comb tables kept at once.
_TABLES = 512
#: Elements whose subgroup membership is remembered.
_MEMBERS = 65536
#: H2(m) points kept at once.
_H2_POINTS = 4096
#: H2(m) squaring chains kept at once: a party signs and checks the shares
#: of one or two beacon messages at a time.
_H2_CHAINS = 16


class FastPath:
    """Caches and precomputed tables for the verification fast path.

    One instance per *owner*, read by every signature the owner makes or
    checks through the scheme functions, so public-key tables, membership
    results and H2 points amortize across parties, rounds and schemes for
    as long as the owner lives.  A cluster owns one
    (:func:`repro.crypto.keyring.generate_keyrings` builds it and hands it
    to its n keyrings), and its tables go when the cluster goes; :func:`for_group` keeps a process-wide one per group for
    callers with no cluster (client authentication, ceremonies, tests).

    Combs exist only for bases a caller declares long-lived — ``g`` here,
    public keys through :meth:`power_base`; H2(m) and σ_i get squaring
    chains, and everything else is the backend's one-shot ``powmod``.
    ``g``'s comb has a table per column (no squarings); a public key's has
    at most four, since up to ``_TABLES`` of them live at once, and pays
    the squarings between their columns.
    """

    def __init__(self, group: Group, *, backend: CryptoBackend | None = None) -> None:
        self.group = group
        self.backend = backend if backend is not None else active_backend()
        self.stats = FastPathStats()
        self._q_bits = group.q.bit_length()
        self._power_g = self.backend.fixed_power(group.g, group.p, self._q_bits)
        self._tables: _BoundedCache = _BoundedCache(_TABLES)
        self._members: _BoundedCache = _BoundedCache(_MEMBERS)
        self._members.put(group.g, None)
        self._members.put(1, None)
        self._h2: _BoundedCache = _BoundedCache(_H2_POINTS)
        self._h2_chains: _BoundedCache = _BoundedCache(_H2_CHAINS)

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

    def member_power(self, a: int, exponent: int) -> int | None:
        """a**exponent for an element a peer chose, or ``None`` if ``a`` is
        not a subgroup member (0 <= exponent <= q).

        One squaring chain of ``a`` gives the power and, for an ``a`` not in
        the membership cache, the proof a**q == 1 as a second read of the
        same chain; only a passing ``a`` enters the cache.
        """
        group, backend = self.group, self.backend
        p = group.p
        if self._members.touch(a):
            self.stats.member_hits += 1
            return backend.chain_powers(backend.chain(a, self._q_bits, p), (exponent,), p)[0]
        self.stats.member_misses += 1
        if not 1 <= a < p:
            return None
        power, order = backend.chain_powers(
            backend.chain(a, self._q_bits, p), (exponent, group.q), p
        )
        if order != 1:
            return None
        self._members.put(a, None)
        return power

    # -- fixed-base exponentiation ----------------------------------------

    def power_g(self, exponent: int) -> int:
        """g**exponent via the backend's precomputed fixed-base slot."""
        return self._power_g(exponent % self.group.q)

    def power_base(self, base: int, exponent: int) -> int:
        """base**exponent via a cached per-base fixed-power callable.

        Intended for long-lived bases (public keys); the first call builds
        the backend's ``fixed_power`` (a comb), later calls amortize it.  The caller must guarantee ``base`` is a subgroup member
        (exponent is reduced mod q).
        """
        power = self._tables.get(base)
        if power is None:
            power = self._key_comb(base)
            self._tables.put(base, power)
        else:
            self._tables.touch(base)
        return power(exponent % self.group.q)

    def _key_comb(self, base: int):
        # At most four tables per key, since up to ``_TABLES`` of them
        # live at once: 7 squarings per power at |q| = 256, 3 at |q| = 96.
        return self.backend.fixed_power(base, self.group.p, self._q_bits, 4)

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

    def message_chain(self, message: bytes) -> list[int]:
        """H2(m)'s squaring chain (the backend's ``chain``), kept for the
        last few messages: the signer's σ_i and commitment and every DLEQ
        check of a share of m read their powers of H2(m) off it."""
        chain = self._h2_chains.get(message)
        if chain is None:
            chain = self.backend.chain(self.message_point(message), self._q_bits, self.group.p)
            self._h2_chains.put(message, chain)
        else:
            self._h2_chains.touch(message)
        return chain


_CONTEXTS: dict[tuple[int, int, int, CryptoBackend], FastPath] = {}


def for_group(group: Group, backend: CryptoBackend | None = None) -> FastPath:
    """The process-wide :class:`FastPath` context for ``group`` under a backend.

    It is never freed, so it is for standalone callers; a cluster builds its
    own (see :class:`FastPath`).  One context per (group, backend instance):
    a backend substituted with :func:`repro.crypto.backend.use_backend` gets
    a context of its own, whose every exponentiation it sees.
    """
    if backend is None:
        backend = active_backend()
    key = (group.p, group.q, group.g, backend)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = FastPath(group, backend=backend)
    return ctx

