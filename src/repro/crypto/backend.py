"""Pluggable modular-exponentiation backends for the discrete-log substrate.

Profiling (``sim_n7_real`` of ``bench/run.py``, docs/PERFORMANCE.md) shows
that at realistic group sizes nearly all crypto wall-clock time is modular
exponentiation.  This module makes the modexp primitive a *selectable
backend* so optimizations land as alternatives that can be benchmarked
against each other on the same inputs, instead of one-way rewrites:

* ``pure``   — the reference implementation: Python's built-in ``pow``
  for every exponentiation, no precomputation, no caches.  This is the
  baseline every other backend is benchmarked against.
* ``window`` — fixed-window (comb) precomputation for long-lived bases,
  and the default backend.  ``fixed_power`` builds a
  :class:`FixedBaseTable` for a base the caller *declares* long-lived (the
  generator ``g`` and public keys, through
  :class:`repro.crypto.fastpath.FastPath`); ``powmod`` is Python's ``pow``
  exactly as in ``pure``.  The backend keeps no per-base state and never
  guesses which bases will come back: a 512-bit table needs ≥ 16 further
  uses to repay its build and an ephemeral base (a beacon share value, a
  commitment) gets a handful (docs/PERFORMANCE.md).

Every backend computes **bit-identical results** — these are alternative
evaluation strategies for the same mathematical function, and
``tests/crypto/test_backend.py`` pins equality on every group operation
and on whole batch-verification transcripts.  Selection is per run:
:func:`use_backend` scopes a backend to a ``with`` block.

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
    """Base class: the ``pure`` strategy, and the interface contract."""

    name = "pure"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    @staticmethod
    def invmod(a: int, modulus: int) -> int:
        return pow(a, -1, modulus)

    def fixed_power(self, base: int, modulus: int, max_bits: int,
                    window: int = DEFAULT_WINDOW) -> Callable[[int], int]:
        """A fresh ``exp -> base**exp mod modulus`` for a long-lived base.

        The pure backend deliberately returns a bare ``pow`` closure — no
        tables anywhere — so benchmarks against it measure the full win
        of precomputation, not just the generic-call-site share.
        """
        return lambda exponent: pow(base, exponent, modulus)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


class PureBackend(CryptoBackend):
    """Alias of the base class, registered under ``pure``."""


class WindowBackend(CryptoBackend):
    """Comb tables for the bases a caller declares long-lived.

    Differs from ``pure`` in ``fixed_power`` only: the caller has promised
    to reuse the base, so it gets a :class:`FixedBaseTable` immediately.
    One-shot exponentiations (``powmod``) are the base class's ``pow``.
    """

    name = "window"

    def fixed_power(self, base: int, modulus: int, max_bits: int,
                    window: int = DEFAULT_WINDOW) -> Callable[[int], int]:
        return FixedBaseTable(modulus, base, max_bits, window).power


# ---------------------------------------------------------------------------
# Registry and per-run selection
# ---------------------------------------------------------------------------

#: name -> factory.  Ordered: ``pure`` first so the comparison baseline is
#: always listed first in tables.
_REGISTRY: dict[str, Callable[[], CryptoBackend]] = {}
_INSTANCES: dict[str, CryptoBackend] = {}


def register_backend(name: str, factory: Callable[[], CryptoBackend]) -> None:
    """Register a backend under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


register_backend("pure", PureBackend)
register_backend("window", WindowBackend)

#: The process default; ``window`` preserves the pre-backend behaviour
#: (comb tables for long-lived bases) and is safe everywhere.
DEFAULT_BACKEND = "window"


def available_backends() -> list[str]:
    """The registered backend names (registration order)."""
    return list(_REGISTRY)


def get_backend(name: str) -> CryptoBackend:
    """The shared instance for ``name``; raises for an unknown name."""
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown crypto backend {name!r} (registered: {', '.join(_REGISTRY)})"
        )
    instance = _INSTANCES[name] = factory()
    return instance


_ACTIVE: CryptoBackend = get_backend(DEFAULT_BACKEND)


def active_backend() -> CryptoBackend:
    """The backend every Group/fastpath exponentiation currently routes to."""
    return _ACTIVE


def set_backend(backend: str | CryptoBackend) -> CryptoBackend:
    """Install ``backend`` as active; returns the previous one (for restore)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = get_backend(backend) if isinstance(backend, str) else backend
    return previous


@contextmanager
def use_backend(backend: str | CryptoBackend):
    """Scope a backend to a ``with`` block (the per-run selection hook)."""
    previous = set_backend(backend)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_BACKEND",
    "FixedBaseTable",
    "CryptoBackend",
    "PureBackend",
    "WindowBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
]
