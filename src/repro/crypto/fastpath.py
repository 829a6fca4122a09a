"""Crypto fast path: fixed-base precomputation and the caches around it.

Every notarization/finalization/beacon share costs modular exponentiations,
and share verification dominates every experiment that runs the real
discrete-log backend.  This module is the amortization layer:

* **Fixed-base precomputation**: windowed (comb) tables for the generator
  ``g`` and long-lived public keys turn a full square-and-multiply
  exponentiation into ~⌈|q|/w⌉ table-lookup multiplications — byte-wide
  windows for ``g`` (32 at |q| = 256), 5-bit ones for public keys (52),
  whose tables are a quarter the size.
* **Memoized hash-to-group** for the per-message H2 points that threshold
  share verification re-derives constantly, and a bounded
  subgroup-membership cache so long-lived elements (public keys) pay the
  p^q membership exponentiation once.

Bases with no table are the backend's to exponentiate
(:mod:`repro.crypto.backend`): a beacon share's σ_i and its commitment
from one squaring chain (``powers``), a DLEQ check's two-base product by
Straus's walk (``simultaneous_power``).

Signatures and proofs travel in challenge form (c, s), so a verifier
recomputes the nonce commitments from bases it already trusts and compares
a hash: **no element chosen by a peer is exponentiated except σ_i**, the
share value of a beacon share, whose membership must be proved because it
is multiplied into the beacon value (the argument is in
:mod:`repro.crypto.dleq`).  Everything else whose membership is asked for —
``g``, public keys, H2 points — is long-lived and answered from the cache;
this is the invariant :meth:`Group.power` documents.

The correctness oracle is the per-item check with no caches, no tables,
``Group.is_element`` and the backend's plain ``powmod``; it lives in
``tests/crypto/test_fastpath.py``, whose property tests pin the verifiers
of :mod:`repro.crypto.api` to it verdict for verdict.

Call sites should not use this module directly — go through the unified
verifier API in :mod:`repro.crypto.api` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .backend import BYTE_WINDOW, DEFAULT_WINDOW, CryptoBackend, active_backend
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
    else is the backend's one-shot ``powmod``.  ``g``'s table is byte-wide
    (:data:`~repro.crypto.backend.BYTE_WINDOW`); a public key's keeps
    :data:`~repro.crypto.backend.DEFAULT_WINDOW`, since up to
    ``table_cache`` of them live at once.
    """

    def __init__(
        self,
        group: Group,
        *,
        backend: CryptoBackend | None = None,
        table_cache: int = 512,
        member_cache: int = 65536,
        h2_cache: int = 4096,
    ) -> None:
        self.group = group
        self.backend = backend if backend is not None else active_backend()
        self.stats = FastPathStats()
        q_bits = group.q.bit_length()
        self._power_g = self.backend.fixed_power(group.g, group.p, q_bits, BYTE_WINDOW)
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

        Intended for long-lived bases (public keys); the first call builds
        the backend's ``fixed_power`` (a comb table), later calls amortize
        it.  The caller must guarantee ``base`` is a subgroup member
        (exponent is reduced mod q).
        """
        power = self._tables.get(base)
        if power is None:
            power = self.backend.fixed_power(
                base, self.group.p, self.group.q.bit_length(), DEFAULT_WINDOW
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
                    base, self.group.p, self.group.q.bit_length(), DEFAULT_WINDOW
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

