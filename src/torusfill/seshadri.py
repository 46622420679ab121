"""Number-theoretic lower bounds for ball filling numbers.

Minimal Pell solutions by the continued-fraction expansion of sqrt(N), the
exact Seshadri values and filling bounds for abelian surfaces of type (1, d),
the d = 1..30 table, and the width -> filling-fraction conversion, which takes
nth powers and never an nth root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt

from .surd import SurdScalar, rat, scalar


class SeshadriError(ValueError):
    pass


@dataclass(frozen=True)
class PellSolution:
    """Minimal positive solution of l^2 - N k^2 = 1."""

    N: int
    k0: int
    l0: int

    def __post_init__(self):
        if self.l0 * self.l0 - self.N * self.k0 * self.k0 != 1:
            raise SeshadriError(f"({self.k0}, {self.l0}) does not solve Pell for N={self.N}")


def pell_min(N: int) -> PellSolution:
    """Fundamental Pell solution via the continued fraction of sqrt(N)."""
    if N < 2:
        raise SeshadriError("N must be at least 2")
    a0 = isqrt(N)
    if a0 * a0 == N:
        raise SeshadriError(f"N={N} is a perfect square")
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - N * q * q != 1:
        m = d * a - m
        d = (N - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return PellSolution(N, k0=q, l0=p)


@dataclass(frozen=True)
class SeshadriBound:
    """Exact Seshadri value and filling lower bound for type (1, d).

    When 2d is a perfect square, epsilon = sqrt(2d) and the bound is 1 (no
    Pell pair); otherwise epsilon = 2d k0 / l0 and the bound is
    (l0^2 - 1) / l0^2 = epsilon^2 / (2d).
    """

    d: int
    epsilon: SurdScalar
    p_lower: Fraction
    pell: PellSolution | None

    def __post_init__(self):
        if self.p_lower != width_filling_convert(self.epsilon, 2, self.d).as_fraction():
            raise SeshadriError("internal identity p = eps^2 / 2d violated")


def surface_bound(d: int) -> SeshadriBound:
    if d < 1:
        raise SeshadriError("d must be a positive integer")
    n = 2 * d
    root = isqrt(n)
    if root * root == n:
        return SeshadriBound(d, rat(root), Fraction(1), None)
    pell = pell_min(n)
    eps = Fraction(n * pell.k0, pell.l0)
    return SeshadriBound(d, rat(eps), Fraction(pell.l0 ** 2 - 1, pell.l0 ** 2), pell)


def table(d_max: int) -> list[SeshadriBound]:
    if d_max < 1:
        raise SeshadriError("d_max must be at least 1")
    return [surface_bound(d) for d in range(1, d_max + 1)]


def width_filling_convert(c, n: int, vol) -> SurdScalar:
    """Ball filling fraction p = c^n / (n! * vol) from a width c."""
    c, vol = scalar(c), scalar(vol)
    if c.sign() <= 0 or vol.sign() <= 0:
        raise SeshadriError("width and volume must be positive")
    return c ** n / (factorial(n) * vol)
