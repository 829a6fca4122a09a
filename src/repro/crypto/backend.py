"""The modular-exponentiation strategy of the discrete-log substrate.

Profiling (``sim_n7_real`` of ``bench/run.py``, docs/PERFORMANCE.md) shows
that at realistic group sizes nearly all crypto wall-clock time is modular
exponentiation.  Every group exponentiation in this package goes through
one :class:`CryptoBackend`: Python's ``pow`` for one-shot powers, a
fixed-window (comb) :class:`FixedBaseTable` for a base the caller
*declares* long-lived (the generator ``g`` and public keys, through
:class:`repro.crypto.fastpath.FastPath`), one shared squaring chain for
several powers of one base (a beacon share's σ_i and its DLEQ commitment),
and a Straus walk for the two-base product of a DLEQ check.  The backend
keeps no per-base state and never guesses which bases will come back: a
512-bit table needs ≥ 16 further uses to repay its build and an ephemeral
base (a beacon share value, a commitment) gets a handful
(docs/PERFORMANCE.md).

:func:`use_backend` scopes another instance to a ``with`` block.  That is
the seam through which tests substitute a subclass — one that counts
``powmod`` calls and their exponent widths
(``tests/crypto/test_work_once.py``), or a bare-``pow`` oracle with no
tables (``tests/crypto/test_backend.py``) that must give bit-identical
results on every group operation and whole protocol runs.

The backend surface is deliberately small:

* ``powmod(base, exp, mod)``  — one-shot exponentiation (``exp`` ≥ 0);
* ``invmod(a, mod)``          — modular inverse;
* ``fixed_power(base, mod, max_bits, window)`` — a callable ``exp -> int``
  for a base the caller promises to reuse (the fast path's table slot);
* ``powers(base, exps, mod)`` — ``[base**e mod mod for e in exps]`` from
  one squaring chain (every ``e`` ≥ 0);
* ``simultaneous_power(b1, e1, b2, e2, mod)`` — b1**e1 · b2**e2 mod mod
  (``e1``, ``e2`` ≥ 0).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

#: Fixed-base window width (bits per comb table row) for public keys.
DEFAULT_WINDOW = 5
#: The byte-wide window: its digits are the bytes of ``exponent.to_bytes``.
#: A 256-bit exponent is 32 table multiplications instead of 52, for a
#: table of 32·256 elements (≈ 0.85 MB at 512 bits), so only ``g`` gets it.
BYTE_WINDOW = 8

#: A byte's two 4-bit digits, low first: :meth:`CryptoBackend.powers` reads
#: an exponent's digits as the bytes of ``to_bytes`` mapped through this.
_NIBBLES = tuple(bytes((v & 15, v >> 4)) for v in range(256))
#: A byte's four 2-bit digits, high first: the Straus walk's windows.
_WINDOWS = tuple(bytes((v >> 6, v >> 4 & 3, v >> 2 & 3, v & 3)) for v in range(256))


class FixedBaseTable:
    """Windowed (comb) precomputation for repeated powers of one base.

    Stores base^(d·2^(w·i)) for every window index i and digit d, so
    ``power(e)`` is one table multiplication per w-bit window of ``e`` —
    no squarings at exponentiation time.  Build cost is
    ⌈max_bits/w⌉·(2^w - 1) multiplications, which pays for itself after a
    handful of exponentiations; callers cache tables per long-lived base
    (see :class:`repro.crypto.fastpath.FastPath`).  At
    :data:`BYTE_WINDOW` the digits come from one ``to_bytes`` call rather
    than a shift and a mask per window.
    """

    __slots__ = ("p", "window", "max_bits", "_mask", "_rows", "_nbytes")

    def __init__(self, p: int, base: int, max_bits: int, window: int = DEFAULT_WINDOW) -> None:
        self.p = p
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        rows: list[list[int]] = []
        b = base % p
        for _ in range((max_bits + window - 1) // window):
            row = [1] * (self._mask + 1)
            for d in range(1, self._mask + 1):
                row[d] = row[d - 1] * b % p
            rows.append(row)
            for _ in range(window):
                b = b * b % p
        self._rows = rows
        self._nbytes = len(rows) if window == BYTE_WINDOW else 0

    def power(self, exponent: int) -> int:
        """base**exponent mod p for 0 <= exponent < 2^max_bits."""
        if exponent >> self.max_bits:
            raise ValueError("exponent exceeds table range")
        acc = 1
        p = self.p
        if self._nbytes:
            for row, d in zip(self._rows, exponent.to_bytes(self._nbytes, "little")):
                if d:
                    acc = acc * row[d] % p
            return acc
        i = 0
        while exponent:
            d = exponent & self._mask
            if d:
                acc = acc * self._rows[i][d] % p
            exponent >>= self.window
            i += 1
        return acc


class CryptoBackend:
    """``pow`` for one-shot powers, comb tables for declared long-lived
    bases, shared squaring chains for several powers at once."""

    #: Stamped into benchmark reports; a substitute names itself.
    name = "window"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    @staticmethod
    def invmod(a: int, modulus: int) -> int:
        return pow(a, -1, modulus)

    def fixed_power(self, base: int, modulus: int, max_bits: int,
                    window: int = DEFAULT_WINDOW) -> Callable[[int], int]:
        """A fresh ``exp -> base**exp mod modulus`` for a long-lived base:
        the caller has promised to reuse it, so it gets a table at once."""
        return FixedBaseTable(modulus, base, max_bits, window).power

    @staticmethod
    def powers(base: int, exponents: Sequence[int], modulus: int) -> list[int]:
        """``[base**e % modulus for e in exponents]`` from one squaring chain.

        Yao's method over 4-bit digits: walking base^(16^k) up from k = 0,
        bucket d of each exponent collects the chain elements at which its
        k-th digit is d, and the power is Π_d bucket_d^d, a running product
        from d = 15 down.  Two 256-bit exponents cost ≈ 252 squarings and
        ≈ 150 multiplications, where two ``pow`` calls pay ≈ 2 × 300.
        Plain ``*``/``%``, so it is no ``powmod``.
        """
        p = modulus
        bits = max(exponents, default=0).bit_length()
        nibbles = _NIBBLES.__getitem__
        digits = [b"".join(map(nibbles, e.to_bytes((bits + 7) >> 3, "little"))) for e in exponents]
        buckets = [[0] * 16 for _ in digits]
        x = base % p
        for k in range((bits + 3) >> 2):
            if k:
                x = x * x % p
                x = x * x % p
                x = x * x % p
                x = x * x % p
            for ds, bucket in zip(digits, buckets):
                d = ds[k]
                if d:
                    b = bucket[d]
                    bucket[d] = b * x % p if b else x
        results = []
        for bucket in buckets:
            acc = run = 1
            for b in bucket[:0:-1]:
                if b:
                    run = run * b % p
                acc = acc * run % p
            results.append(acc)
        return results

    @staticmethod
    def simultaneous_power(b1: int, e1: int, b2: int, e2: int, modulus: int) -> int:
        """b1**e1 · b2**e2 % modulus by Straus's method over joint 2-bit windows.

        The two-base product g2**s · B**(-c) of a DLEQ check, where neither
        base has a table.  One shared squaring chain, and per 2-bit window of
        both exponents at most one multiplication by an entry of the table
        b1^i · b2^j (0 <= i, j < 4): at 256 bits, 256 squarings and ≈ 120
        multiplications where two separate powers take ≈ 512 and ≈ 256.
        The joint digits i + 4j are the bytes of one string, built from the
        exponents' ``to_bytes`` without a shift or mask per window.  Plain
        ``*``/``%``, so it is no ``powmod``.
        """
        p = modulus
        b1_2 = b1 * b1 % p
        b2_2 = b2 * b2 % p
        table = [
            x * y % p
            for y in (1, b2, b2_2, b2_2 * b2 % p)
            for x in (1, b1, b1_2, b1_2 * b1 % p)
        ]
        width = (max(e1.bit_length(), e2.bit_length()) + 7) >> 3
        windows = _WINDOWS.__getitem__
        w1, w2 = (
            int.from_bytes(b"".join(map(windows, e.to_bytes(width, "big"))), "big")
            for e in (e1, e2)
        )
        digits = (w1 | w2 << 2).to_bytes(4 * width, "big").lstrip(b"\0")
        acc = table[digits[0]] if digits else 1
        for d in digits[1:]:
            acc = acc * acc % p
            acc = acc * acc % p
            if d:
                acc = acc * table[d] % p
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


_ACTIVE = CryptoBackend()


def active_backend() -> CryptoBackend:
    """The backend every Group/fastpath exponentiation currently routes to."""
    return _ACTIVE


@contextmanager
def use_backend(backend: CryptoBackend):
    """Route every exponentiation to ``backend`` for a ``with`` block."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous


__all__ = [
    "DEFAULT_WINDOW",
    "BYTE_WINDOW",
    "FixedBaseTable",
    "CryptoBackend",
    "active_backend",
    "use_backend",
]
