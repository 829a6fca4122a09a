"""The modular-exponentiation strategy of the discrete-log substrate.

Profiling (``sim_n7_real`` of ``bench/run.py``, docs/PERFORMANCE.md) shows
that at realistic group sizes nearly all crypto wall-clock time is modular
exponentiation.  Every group exponentiation in this package goes through
one :class:`CryptoBackend`: Python's ``pow`` for one-shot powers, a Lim–Lee
:class:`Comb` for a base the caller *declares* long-lived (the generator
``g`` and public keys, through :class:`repro.crypto.fastpath.FastPath`),
and, for a base that gets a handful of powers, its squaring chain, with
each power read off it by Yao's method and no further squaring: H2(m)'s,
which the fast path keeps for every beacon share of m, and σ_i's, read for
its power and its membership proof in one check.  The backend keeps no
per-base state and never guesses which bases will come back: a 512-bit
public-key comb needs about five further uses to repay its build and an
ephemeral base (a beacon share value) gets two (docs/PERFORMANCE.md).

:func:`use_backend` scopes another instance to a ``with`` block.  That is
the seam through which tests substitute a subclass — one that counts
``powmod`` calls and their exponent widths
(``tests/crypto/test_work_once.py``), or a bare-``pow`` oracle with no
tables and no chains (``tests/crypto/test_backend.py``) that must give
bit-identical results on every group operation and whole protocol runs.

The backend surface is deliberately small:

* ``powmod(base, exp, mod)``  — one-shot exponentiation (``exp`` ≥ 0);
* ``invmod(a, mod)``          — modular inverse;
* ``fixed_power(base, mod, max_bits, max_tables)`` — a callable
  ``exp -> int`` for a base the caller promises to reuse (the fast path's
  table slot), from a comb of at most ``max_tables`` tables (``None``: one
  per column);
* ``chain(base, max_bits, mod)`` — base's 4-bit-spaced squarings,
  base**(16**k) for every 4-bit digit of a ``max_bits``-bit exponent;
* ``chain_powers(chain, exps, mod)`` — ``[base**e mod mod for e in exps]``
  from a stored chain, with no squaring (every ``e`` ≥ 0 and within it).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

#: A byte's two 4-bit digits, low first: :meth:`CryptoBackend.chain_powers`
#: reads an exponent's digits as the bytes of ``to_bytes`` mapped through this.
_NIBBLES = tuple(bytes((v & 15, v >> 4)) for v in range(256))
#: The masks of the three swaps, by 7, 14 and 28 bits, that transpose the
#: 8×8 bit matrix of every 64-bit word at once (Hacker's Delight,
#: ``transpose8``).
_TRANSPOSE = (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)


class Comb:
    """Lim–Lee fixed-base comb with 8 rows, for repeated powers of one base.

    Every 64-bit word m of the exponent is an 8 × 8 bit matrix: row i is
    its byte i (bits 64m + 8i … 64m + 8i + 7), column c the bit c of each
    row.  Column c's digit, the byte whose bit i is row i's bit c, comes
    for every column of every word from one transpose of the exponent
    (three masked swaps), read out with one ``to_bytes``.  Each word's
    eight columns are cut into tables of ``spacing`` (1, 2, 4 or 8)
    adjacent columns; a table holds base**(Σ_{i ∈ d} 2^(64m + 8i + first
    column)) for every digit d, and ``power(e)`` walks the columns of a
    table from the last: a square, then one multiplication per table whose
    digit is not zero.  That is spacing − 1 squarings and at most one
    multiplication per column.  At |q| = 256: ``spacing`` 8 (a public key)
    is 7 squarings and ≤ 32 multiplications from 4 tables of 256 entries,
    ``spacing`` 1 (``g``) is 32 multiplications from 32.  The geometry
    follows ``max_bits``: a row above it is never built.  A top word of at
    most 4 rows folds its tables in pairs: ``digits`` moves the rows of
    every odd table into the empty rows 4–7 of the table before it, so the
    pair is one table of 8-bit digits and the odd one's digits are zero.
    At |q| = 96 a power of ``g`` is then ≤ 12 multiplications (8 + 4, where
    8 + 8 tables of 4-bit digits made 16), and a public key's (``spacing``
    4) 3 squarings and ≤ 12 multiplications.
    """

    __slots__ = ("p", "max_bits", "spacing", "_words", "_masks", "_fold", "_tables")

    def __init__(self, p: int, base: int, max_bits: int, spacing: int) -> None:
        if spacing not in (1, 2, 4, 8):
            raise ValueError("spacing must divide 8")
        self.p = p
        self.max_bits = max_bits
        self.spacing = spacing
        self._words = words = max(1, (max_bits + 63) >> 6)
        self._masks = tuple(sum(mask << (64 * m) for m in range(words)) for mask in _TRANSPOSE)
        top = 64 * (words - 1)  # first bit of the top word
        # The bits of the top word's odd tables, when it folds (else 0).
        odd_columns = sum(1 << c for c in range(8) if c // spacing % 2)
        self._fold = fold = (
            sum(odd_columns << (top + 8 * row) for row in range(4))
            if spacing < 8 and max_bits <= top + 32 else 0
        )
        # base**(2**bit) for every bit below max_bits that starts a table's
        # row: the multiples of spacing.
        steps = [base % p]
        for _ in range((max_bits - 1) // spacing):
            x = steps[-1]
            for _ in range(spacing):
                x = x * x % p
            steps.append(x)
        tables = []
        for word in range(words):
            for column in range(0, 8, spacing):
                bits = range(64 * word + column, min(64 * word + 64, max_bits), 8)
                if fold and word == words - 1:
                    if column // spacing % 2:
                        tables.append([1])  # its rows are the table before's
                        continue
                    first = 64 * word + column
                    bits = [first + 8 * row + shift for shift in (0, spacing)
                            for row in range(4)]
                table = [1]
                for bit in bits:
                    if bit < max_bits:
                        g = steps[bit // spacing]
                        table += [t * g % p for t in table]
                    else:  # a row the exponent never sets keeps the layout
                        table += table
                tables.append(table)
        self._tables = tables

    def digits(self, exponent: int) -> bytes:
        """The column digits, byte 8m + c for column c of word m (a folded
        top word's odd tables read 0: their rows are the table before's)."""
        if exponent >> self.max_bits:
            raise ValueError("exponent exceeds table range")
        if self._fold:
            odd = exponent & self._fold
            exponent ^= odd ^ (odd << (32 - self.spacing))
        m7, m14, m28 = self._masks
        t = (exponent ^ (exponent >> 7)) & m7
        exponent ^= t ^ (t << 7)
        t = (exponent ^ (exponent >> 14)) & m14
        exponent ^= t ^ (t << 14)
        t = (exponent ^ (exponent >> 28)) & m28
        exponent ^= t ^ (t << 28)
        return exponent.to_bytes(8 * self._words, "little")

    def power(self, exponent: int) -> int:
        """base**exponent mod p for 0 <= exponent < 2^max_bits."""
        digits = self.digits(exponent)
        p, spacing, tables = self.p, self.spacing, self._tables
        acc = 1
        for offset in range(spacing - 1, -1, -1):
            for table, d in zip(tables, digits[offset::spacing]):
                if d:
                    acc = acc * table[d] % p
            if offset:
                acc = acc * acc % p
        return acc


class CryptoBackend:
    """``pow`` for one-shot powers, combs for declared long-lived bases,
    squaring chains for a base with several powers."""

    #: Stamped into benchmark reports; a substitute names itself.
    name = "window"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    @staticmethod
    def invmod(a: int, modulus: int) -> int:
        return pow(a, -1, modulus)

    def fixed_power(self, base: int, modulus: int, max_bits: int,
                    max_tables: int | None = None) -> Callable[[int], int]:
        """A fresh ``exp -> base**exp mod modulus`` for a long-lived base:
        the caller has promised to reuse it, so it gets a comb at once, with
        the fewest squarings per power whose tables number at most
        ``max_tables`` (a table per column if ``None``)."""
        spacing = 1
        if max_tables is not None:
            words = max(1, (max_bits + 63) >> 6)
            while spacing < 8 and words * 8 // spacing > max_tables:
                spacing *= 2
        return Comb(modulus, base, max_bits, spacing).power

    @staticmethod
    def chain(base: int, max_bits: int, modulus: int) -> list[int]:
        """base**(16**k) % modulus for k < ⌈max_bits/4⌉ (at least one):
        4·(length − 1) squarings, after which
        :meth:`chain_powers` reads any power of up to ``max_bits`` bits
        off the list without another."""
        p = modulus
        x = base % p
        chain = [x]
        for _ in range(((max_bits + 3) >> 2) - 1):
            x = x * x % p
            x = x * x % p
            x = x * x % p
            x = x * x % p
            chain.append(x)
        return chain

    @staticmethod
    def chain_powers(chain: Sequence[int], exponents: Sequence[int], modulus: int) -> list[int]:
        """``[base**e % modulus for e in exponents]`` from ``chain(base, …)``.

        Yao's method over 4-bit digits: bucket d collects the chain elements
        at which the exponent's digit is d, and the power is Π_d bucket_d^d,
        a running product from d = 15 down.  A 256-bit exponent costs ≈ 45
        bucket and ≤ 28 combining multiplications, no squaring.  Plain
        ``*``/``%``, so it is no ``powmod``.  An exponent wider than the
        chain, or negative, raises ``ValueError``.
        """
        p = modulus
        width = 4 * len(chain)
        nbytes = (len(chain) + 1) >> 1
        nibbles = _NIBBLES.__getitem__
        results = []
        for e in exponents:
            if e >> width:
                raise ValueError("exponent exceeds chain range")
            bucket = [0] * 16
            for x, d in zip(chain, b"".join(map(nibbles, e.to_bytes(nbytes, "little")))):
                if d:
                    b = bucket[d]
                    bucket[d] = b * x % p if b else x
            acc = run = 1
            for b in bucket[:0:-1]:
                if b:
                    run = run * b % p
                acc = acc * run % p
            results.append(acc)
        return results

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
    "Comb",
    "CryptoBackend",
    "active_backend",
    "use_backend",
]
