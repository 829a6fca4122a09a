"""The modular-exponentiation strategy of the discrete-log substrate.

Profiling (``sim_n7_real`` of ``bench/run.py``, docs/PERFORMANCE.md) shows
that at realistic group sizes nearly all crypto wall-clock time is modular
exponentiation.  Every exponentiation in this package goes through one
:class:`CryptoBackend`: Python's ``pow`` for one-shot powers, and a
fixed-window (comb) :class:`FixedBaseTable` for a base the caller
*declares* long-lived (the generator ``g`` and public keys, through
:class:`repro.crypto.fastpath.FastPath`).  The backend keeps no per-base
state and never guesses which bases will come back: a 512-bit table needs
≥ 16 further uses to repay its build and an ephemeral base (a beacon share
value, a commitment) gets a handful (docs/PERFORMANCE.md).

:func:`use_backend` scopes another instance to a ``with`` block.  That is
the seam through which tests substitute a subclass — one that counts
``powmod`` calls (``tests/crypto/test_work_once.py``), or a bare-``pow``
oracle with no tables (``tests/crypto/test_backend.py``) that must give
bit-identical results on every group operation and whole protocol runs.

The backend surface is deliberately small:

* ``powmod(base, exp, mod)``  — one-shot exponentiation;
* ``invmod(a, mod)``          — modular inverse;
* ``fixed_power(base, mod, max_bits)`` — a callable ``exp -> int`` for a
  base the caller promises to reuse (the fast path's table slot).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

#: Fixed-base window width (bits per comb table row).
DEFAULT_WINDOW = 5


class FixedBaseTable:
    """Windowed (comb) precomputation for repeated powers of one base.

    Stores base^(d·2^(w·i)) for every window index i and digit d, so
    ``power(e)`` is one table multiplication per w-bit window of ``e`` —
    no squarings at exponentiation time.  Build cost is
    ⌈max_bits/w⌉·(2^w - 1) multiplications, which pays for itself after a
    handful of exponentiations; callers cache tables per long-lived base
    (see :class:`repro.crypto.fastpath.FastPath`).
    """

    __slots__ = ("p", "window", "max_bits", "_mask", "_rows")

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

    def power(self, exponent: int) -> int:
        """base**exponent mod p for 0 <= exponent < 2^max_bits."""
        if exponent >> self.max_bits:
            raise ValueError("exponent exceeds table range")
        acc = 1
        p = self.p
        i = 0
        while exponent:
            d = exponent & self._mask
            if d:
                acc = acc * self._rows[i][d] % p
            exponent >>= self.window
            i += 1
        return acc


class CryptoBackend:
    """``pow`` for one-shot powers, comb tables for declared long-lived bases."""

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
    "FixedBaseTable",
    "CryptoBackend",
    "active_backend",
    "use_backend",
]
