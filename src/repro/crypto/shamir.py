"""Shamir secret sharing over Z_q (Section 2.3, approach (iii)).

A dealer splits a secret s into n shares such that any t+1 shares
reconstruct s while t shares reveal nothing.  Party indices are 1..n (the
evaluation points); index 0 is the secret itself.

The threshold-signature scheme in :mod:`repro.crypto.threshold` shares the
signing key with this module and combines signature *shares* via the same
Lagrange coefficients, evaluated "in the exponent".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .field import PrimeField


@dataclass(frozen=True)
class Share:
    """One party's share: the evaluation f(index) of the dealer polynomial."""

    index: int  # 1-based party index (the x-coordinate)
    value: int  # f(index) in Z_q


def deal(field: PrimeField, secret: int, threshold: int, n: int, rng) -> list[Share]:
    """Split ``secret`` into ``n`` shares with reconstruction threshold ``threshold``.

    ``threshold`` is the number of shares *required* to reconstruct (i.e.
    the polynomial degree is threshold-1).  Any fewer shares are
    information-theoretically independent of the secret.
    """
    if not 1 <= threshold <= n:
        raise ValueError("need 1 <= threshold <= n")
    if n >= field.modulus:
        raise ValueError("field too small for this many shares")
    coeffs = [secret % field.modulus]
    coeffs.extend(field.random(rng) for _ in range(threshold - 1))
    return [Share(index=i, value=field.eval_poly(coeffs, i)) for i in range(1, n + 1)]


def reconstruct(field: PrimeField, shares: list[Share]) -> int:
    """Recover the secret f(0) from a list of shares.

    The caller is responsible for passing at least ``threshold`` *distinct*
    shares; with fewer shares the result is garbage (by design — Shamir
    sharing cannot detect that).
    """
    if not shares:
        raise ValueError("cannot reconstruct from zero shares")
    xs = [s.index for s in shares]
    lams = field.lagrange_coefficients_at_zero(xs)
    acc = 0
    for lam, share in zip(lams, shares):
        acc = (acc + lam * share.value) % field.modulus
    return acc


def lagrange_at_zero(indices: list[int]) -> tuple[list[int], int]:
    """The Lagrange coefficients at zero as exact integers (a_i, D).

    λ_i = Π_{j≠i} x_j / Π_{j≠i} (x_j − x_i) = a_i / D over the rationals,
    with D > 0 the least common denominator, so for distinct positive
    indices every a_i and D are small: the product of at most h − 1
    indices, not a scalar of Z_q.  Combination in the exponent raises each
    share to a_i and the product once to D⁻¹ mod q
    (:func:`repro.crypto.threshold.combine`).
    """
    if 0 in indices or len(set(indices)) != len(indices):
        raise ValueError("interpolation points must be distinct and non-zero")
    numerators, denominators = [], []
    for i, xi in enumerate(indices):
        num = den = 1
        for j, xj in enumerate(indices):
            if i != j:
                num *= xj
                den *= xj - xi
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        numerators.append(num // g)
        denominators.append(den // g)
    common = lcm(*denominators)
    return [a * (common // d) for a, d in zip(numerators, denominators)], common
