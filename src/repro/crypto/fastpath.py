"""Crypto fast path: batch verification and fixed-base precomputation.

Every notarization/finalization/beacon share costs modular exponentiations,
and share verification dominates every experiment that runs the real
discrete-log backend.  This module is the amortization layer:

* **Random-linear-combination (RLC) batch verification** for Schnorr
  signatures and DLEQ proofs (and therefore for multisig and threshold
  signature shares, which are built from them).  n verification equations
  e_i are combined with small random coefficients r_i into a single check
  Π e_i^{r_i} == 1; a cheater passes with probability ≤ 2^-64 per
  coefficient draw.  A failing batch falls back to **bisection**: the batch
  is split in halves and re-checked recursively, isolating exactly the
  forged items at ~log₂(n) extra batch checks, so the batch path accepts
  precisely the items the per-item path accepts.
* **Fixed-base precomputation**: windowed (comb) tables for the generator
  ``g`` and long-lived public keys turn a full square-and-multiply
  exponentiation into ~⌈|q|/w⌉ table-lookup multiplications.
* **Shamir's trick** (:func:`simultaneous_power`) for the two-base products
  that appear in Schnorr/DLEQ equation checks.
* **Memoized hash-to-group** for the per-message H2 points that threshold
  share verification re-derives constantly, and a bounded
  subgroup-membership cache so long-lived elements (public keys) pay the
  p^q membership exponentiation once.

Soundness note: RLC batching is only sound over the prime-order subgroup —
an element with a component of small order outside the subgroup could slip
through a random combination with noticeable probability.  Every element is
therefore membership-checked (through the cache) before it enters a
combination; this is the same invariant :meth:`Group.power` documents, and
:meth:`Group.decode_element` enforces at deserialization.

Batch coefficients are derived by hashing the batch transcript
(Fiat–Shamir style) rather than drawn from an RNG: the simulator requires
bit-for-bit reproducible runs, and an adversary cannot anticipate the
coefficients without fixing its forgery first, which preserves the 2^-64
cheating bound.  The per-item functions (:func:`verify_schnorr_single`,
:func:`verify_dleq_single`) remain the correctness oracle: they use no
caches and no batching, and the property tests in
``tests/crypto/test_fastpath.py`` pin batch ⇔ per-item equivalence.

Call sites should not use this module directly — go through the unified
verifier API in :mod:`repro.crypto.api` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from . import dleq, schnorr
from .backend import (
    DEFAULT_WINDOW,
    CryptoBackend,
    FixedBaseTable,  # noqa: F401 - re-exported; moved to repro.crypto.backend
    active_backend,
)
from .group import Group
from .hashing import tagged_hash
from .unique import message_point

_COEFF_TAG = "ICC/fastpath/batch-coeff"
_COEFF_BITS = 64


# ---------------------------------------------------------------------------
# Exponentiation primitives
# ---------------------------------------------------------------------------
#
# FixedBaseTable lives in repro.crypto.backend now (it is the substrate of
# the ``window`` backend); it is re-exported above for compatibility.


def multi_exp_small(
    p: int, pairs: list[tuple[int, int]], backend: CryptoBackend | None = None
) -> int:
    """Π base_i^{e_i} mod p via Straus interleaving (shared squarings).

    Designed for the *small* (64-bit) RLC coefficients: the squaring chain
    is walked once for the whole product, so per-item cost is just the
    multiplications for that item's set bits (~32 for a 64-bit exponent).
    Exponents must be non-negative.  The multiplication chain runs in the
    backend's native integer type (``mpz`` for gmpy2, ``int`` otherwise).
    """
    if not pairs:
        return 1
    if backend is None:
        backend = active_backend()
    wrap = backend.wrap
    pm = wrap(p)
    acc = wrap(1)
    pairs = [(wrap(base), e) for base, e in pairs]
    max_bits = max(e.bit_length() for _, e in pairs)
    for bit in range(max_bits - 1, -1, -1):
        acc = acc * acc % pm
        for base, e in pairs:
            if (e >> bit) & 1:
                acc = acc * base % pm
    return backend.unwrap(acc)


def simultaneous_power(
    p: int, b1: int, e1: int, b2: int, e2: int, backend: CryptoBackend | None = None
) -> int:
    """b1^e1 · b2^e2 mod p via Shamir's trick (one shared squaring chain).

    The two-base product at the heart of every Schnorr/DLEQ equation check;
    roughly halves the squarings of computing the two powers separately.
    """
    if backend is None:
        backend = active_backend()
    wrap = backend.wrap
    pm = wrap(p)
    b1 = wrap(b1)
    b2 = wrap(b2)
    b12 = b1 * b2 % pm
    acc = wrap(1)
    for bit in range(max(e1.bit_length(), e2.bit_length()) - 1, -1, -1):
        acc = acc * acc % pm
        pick = ((e1 >> bit) & 1) | (((e2 >> bit) & 1) << 1)
        if pick == 3:
            acc = acc * b12 % pm
        elif pick == 1:
            acc = acc * b1 % pm
        elif pick == 2:
            acc = acc * b2 % pm
    return backend.unwrap(acc)


# ---------------------------------------------------------------------------
# Per-group fast-path context
# ---------------------------------------------------------------------------


@dataclass
class FastPathStats:
    """Counters exposed for the ``crypto.batch_verify`` trace events."""

    batches: int = 0
    items: int = 0
    invalid: int = 0
    bisections: int = 0
    member_hits: int = 0
    member_misses: int = 0
    h2_hits: int = 0
    h2_misses: int = 0

    def snapshot(self) -> tuple[int, ...]:
        return (
            self.batches, self.items, self.invalid, self.bisections,
            self.member_hits, self.member_misses, self.h2_hits, self.h2_misses,
        )


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
# These are the reference semantics for the batch path: no caches, no
# precomputation, no shared state.  batch_verify_* must accept exactly the
# items these accept (pinned by tests/crypto/test_fastpath.py).


def verify_schnorr_single(
    group: Group, public: int, message: bytes, signature: schnorr.SchnorrSignature
) -> bool:
    """Exact per-item Schnorr check: g**s == R · pk**c."""
    if not 0 <= signature.response < group.q:
        return False
    if not group.is_element(public) or not group.is_element(signature.commitment):
        return False
    c = schnorr._challenge(group, public, signature.commitment, message)
    lhs = group.power_g(signature.response)
    rhs = group.mul(signature.commitment, group.power(public, c))
    return lhs == rhs


def verify_dleq_single(
    group: Group, statement: dleq.DleqStatement, proof: dleq.DleqProof
) -> bool:
    """Exact per-item DLEQ check: g1**s == t1·A**c and g2**s == t2·B**c."""
    if not 0 <= proof.response < group.q:
        return False
    g1, a, g2, b = statement
    t1, t2 = proof.commitment1, proof.commitment2
    for x in (g1, a, g2, b, t1, t2):
        if not group.is_element(x):
            return False
    c = dleq._challenge(group, g1, a, g2, b, t1, t2)
    s = proof.response
    if group.power(g1, s) != group.mul(t1, group.power(a, c)):
        return False
    return group.power(g2, s) == group.mul(t2, group.power(b, c))


# ---------------------------------------------------------------------------
# Batch verification (RLC + bisection fallback)
# ---------------------------------------------------------------------------


def _coefficients(digest: bytes, indices: Sequence[int], depth: int) -> list[int]:
    """Nonzero 64-bit RLC coefficients for one (sub)batch.

    Derived by hashing the batch transcript digest together with the subset
    being checked and the bisection depth, so every bisection subset gets
    fresh, independent coefficients (a forged pair that cancelled once does
    not cancel again) while runs stay bit-for-bit reproducible.
    """
    subset = b"".join(i.to_bytes(4, "big") for i in indices)
    out: list[int] = []
    counter = 0
    while len(out) < 2 * len(indices):  # enough for two equations per item
        block = tagged_hash(
            _COEFF_TAG, digest, depth.to_bytes(4, "big"), counter.to_bytes(4, "big"), subset
        )
        for off in range(0, len(block) - 7, 8):
            r = int.from_bytes(block[off : off + 8], "big")
            out.append(r or 1)
        counter += 1
    return out


def _resolve(
    indices: list[int],
    depth: int,
    results: list[bool],
    combined: Callable[[list[int], int], bool],
    single: Callable[[int], bool],
    stats: FastPathStats,
) -> None:
    """Bisection driver: accept whole subsets, isolate failures exactly.

    A passing combined check accepts every index in the subset; a failing
    one splits in half (fresh coefficients on each side).  Size-1 subsets
    are decided by the exact per-item oracle, so the final ``results`` match
    the per-item path bit for bit.
    """
    if len(indices) == 1:
        results[indices[0]] = single(indices[0])
        return
    if combined(indices, depth):
        for i in indices:
            results[i] = True
        return
    stats.bisections += 1
    mid = len(indices) // 2
    _resolve(indices[:mid], depth + 1, results, combined, single, stats)
    _resolve(indices[mid:], depth + 1, results, combined, single, stats)


def batch_verify_schnorr(
    ctx: FastPath, items: Sequence[tuple[int, bytes, schnorr.SchnorrSignature]]
) -> list[bool]:
    """Batch-verify (public, message, signature) triples.

    Combines the n equations g**s_i == R_i · pk_i**c_i with random 64-bit
    coefficients r_i into one check

        g**(Σ r_i·s_i)  ==  Π R_i**r_i · Π pk_i**(r_i·c_i)

    using the generator's fixed-base table for the left side, Straus
    multi-exponentiation for the small-exponent R_i terms, and per-key
    fixed-base tables (exponents aggregated per distinct key) on the right.
    """
    group = ctx.group
    p, q = group.p, group.q
    n = len(items)
    results = [False] * n
    ctx.stats.batches += 1
    ctx.stats.items += n

    data: dict[int, tuple[int, int, int, int]] = {}  # index -> (pk, R, s, c)
    parts: list[bytes] = []
    for i, (pk, message, sig) in enumerate(items):
        if not 0 <= sig.response < q:
            continue
        if not ctx.is_member(pk) or not ctx.is_member(sig.commitment):
            continue
        c = schnorr._challenge(group, pk, sig.commitment, message)
        data[i] = (pk, sig.commitment, sig.response, c)
        parts.append(group.element_to_bytes(pk) + sig.to_bytes(group) + message)
    live = sorted(data)
    if live:
        digest = tagged_hash(_COEFF_TAG, b"schnorr", *parts)

        def combined(indices: list[int], depth: int) -> bool:
            coeffs = _coefficients(digest, indices, depth)
            s_acc = 0
            small: list[tuple[int, int]] = []
            per_key: dict[int, int] = {}
            for r, i in zip(coeffs, indices):
                pk, commitment, s, c = data[i]
                s_acc = (s_acc + r * s) % q
                small.append((commitment, r))
                per_key[pk] = (per_key.get(pk, 0) + r * c) % q
            rhs = multi_exp_small(p, small, ctx.backend)
            for pk, e in per_key.items():
                rhs = rhs * ctx.power_base(pk, e) % p
            return ctx.power_g(s_acc) == rhs

        def single(i: int) -> bool:
            pk, _, _, _ = data[i]
            return verify_schnorr_single(group, pk, items[i][1], items[i][2])

        _resolve(live, 0, results, combined, single, ctx.stats)
    ctx.stats.invalid += results.count(False)
    return results


def batch_verify_dleq(
    ctx: FastPath, items: Sequence[tuple[dleq.DleqStatement, dleq.DleqProof]]
) -> list[bool]:
    """Batch-verify (statement, proof) pairs.

    Each proof contributes two equations (one per base), each weighted by
    its own random coefficient.  Statement bases g1/A are treated as
    long-lived (g1 is almost always the generator; A is a public key) and
    exponentiated through fixed-base tables with exponents aggregated per
    distinct base; g2/B aggregate into plain ``pow`` calls (g2 — the H2
    point — is shared by every share on the same message, so it costs one
    exponentiation per message, and B is ephemeral); the commitments t1/t2
    keep their small 64-bit coefficients and go through Straus.
    """
    group = ctx.group
    p, q, g = group.p, group.q, group.g
    n = len(items)
    results = [False] * n
    ctx.stats.batches += 1
    ctx.stats.items += n

    data: dict[int, tuple[dleq.DleqStatement, dleq.DleqProof, int]] = {}
    parts: list[bytes] = []
    tabled: set[int] = set()  # bases worth a fixed-base table
    for i, (statement, proof) in enumerate(items):
        if not 0 <= proof.response < q:
            continue
        g1, a, g2, b = statement
        if not all(map(ctx.is_member, (g1, a, g2, b, proof.commitment1, proof.commitment2))):
            continue
        c = dleq._challenge(group, g1, a, g2, b, proof.commitment1, proof.commitment2)
        data[i] = (statement, proof, c)
        tabled.add(g1)
        tabled.add(a)
        parts.append(
            b"".join(group.element_to_bytes(x) for x in statement) + proof.to_bytes(group)
        )
    live = sorted(data)
    if live:
        digest = tagged_hash(_COEFF_TAG, b"dleq", *parts)

        def combined(indices: list[int], depth: int) -> bool:
            coeffs = _coefficients(digest, indices, depth)
            small: list[tuple[int, int]] = []
            lhs_exp: dict[int, int] = {}  # base -> Σ coeff·s
            rhs_exp: dict[int, int] = {}  # base -> Σ coeff·c
            for k, i in enumerate(indices):
                (g1, a, g2, b), proof, c = data[i]
                u, v = coeffs[2 * k], coeffs[2 * k + 1]
                s = proof.response
                lhs_exp[g1] = (lhs_exp.get(g1, 0) + u * s) % q
                lhs_exp[g2] = (lhs_exp.get(g2, 0) + v * s) % q
                rhs_exp[a] = (rhs_exp.get(a, 0) + u * c) % q
                rhs_exp[b] = (rhs_exp.get(b, 0) + v * c) % q
                small.append((proof.commitment1, u))
                small.append((proof.commitment2, v))

            def powered(base: int, e: int) -> int:
                if base == g:
                    return ctx.power_g(e)
                if base in tabled:
                    return ctx.power_base(base, e)
                return ctx.backend.powmod(base, e, p)

            lhs = 1
            for base, e in lhs_exp.items():
                lhs = lhs * powered(base, e) % p
            rhs = multi_exp_small(p, small, ctx.backend)
            for base, e in rhs_exp.items():
                rhs = rhs * powered(base, e) % p
            return lhs == rhs

        def single(i: int) -> bool:
            statement, proof, _ = data[i]
            return verify_dleq_single(group, statement, proof)

        _resolve(live, 0, results, combined, single, ctx.stats)
    ctx.stats.invalid += results.count(False)
    return results
