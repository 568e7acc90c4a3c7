"""Exact rational arithmetic: binomials, Bernoulli numbers, Bernoulli
polynomials as coefficient lists, zeta values at non-positive integers with
the Euler factors at a tuple of primes removed, rising factorials.

Everything here is pure.  The public values are fully reduced
``fractions.Fraction`` values, so equality tests downstream are structural.
The core ``zeta_neg_ratio`` returns zeta_neg as an unreduced integer pair (a
numerator and a positive denominator): the p-adic formulas, which only
reduce it mod p^N or read a valuation, pay no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .padics import is_prime


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) = n!/(k!(n-k)!) for 0 <= k <= n, and 0 otherwise."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


class BernoulliTable:
    """Cache of B_0..B_max built from tangent numbers in integer arithmetic.

    Convention B_1 = -1/2 (generating function t/(exp(t)-1)); B_k = 0 for odd
    k >= 3.  The even values come from the tangent numbers T_1..T_K by
    Brent & Harvey's in-place integer pass (arXiv:1108.0286):
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

    The pass is not incremental, so a table that must grow is rebuilt to
    max(upto, 2 * max_index): reading B_0..B_n in order costs O(log n)
    rebuilds.  Every rebuild sieves the von Staudt-Clausen denominators D_2k
    (the product of the primes p with (p - 1) | 2k) and forms B_2k over D_2k
    from 2k T_k D_2k / (4^k (4^k - 1)): a remainder, or a numerator that
    shares a factor with D_2k, raises ArithmeticError.  A read of an odd
    k >= 3 past the table answers 0 without a rebuild.  The table only grows, and holds no
    lock: the package starts no threads.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    def values(self, upto: int) -> list[Fraction]:
        self.extend(upto)
        return self._values[: upto + 1]

    def extend(self, upto: int) -> None:
        if upto <= self.max_index:
            return
        top = max(upto, 2 * self.max_index)
        half = top // 2
        T = _tangent_numbers(half)
        dens = _staudt_clausen_denominators(half)
        vals = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (top - 1)
        for k in range(1, half + 1):
            x = 2 * k * T[k] * dens[k]  # |B_2k| D_2k 4^k (4^k - 1)
            num, rem = divmod(x >> 2 * k, (1 << 2 * k) - 1)
            b = Fraction(num if k % 2 else -num, dens[k])
            if rem or x & ((1 << 2 * k) - 1) or b.denominator != dens[k]:
                b = Fraction(2 * k * T[k], 4**k * (4**k - 1))
                raise ArithmeticError(f"B_{2 * k} = {b} fails von Staudt-Clausen")
            vals[2 * k] = b
        self._values = vals

    def get(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("Bernoulli index must be >= 0")
        if k >= len(self._values):
            if k % 2 and k > 1:
                return Fraction(0)  # no rebuild for a known zero
            self.extend(k)
        return self._values[k]


def _tangent_numbers(half: int) -> list[int]:
    """T[k] = T_k for 1 <= k <= half (T[0] is unused), in place."""
    T = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def _staudt_clausen_denominators(half: int) -> list[int]:
    """[1, D_2, D_4, ..., D_2half] by one sieve: D_2k, the denominator of B_2k
    (von Staudt-Clausen), is the product of the primes l with (l - 1) | 2k, so
    each prime l <= 2 half + 1 multiplies every D_2k with 2k a multiple of l - 1."""
    dens = [1] * (half + 1)
    for ell in range(2, 2 * half + 2):
        if is_prime(ell):
            step = (ell - 1) // 2 or 1
            for k in range(step, half + 1, step):
                dens[k] *= ell
    return dens


_TABLE = BernoulliTable()


def bernoulli(k: int) -> Fraction:
    """B_k with B_0 = 1, B_1 = -1/2, B_k = 0 for odd k >= 3."""
    return _TABLE.get(k)


def bernoulli_polynomial(k: int) -> list[Fraction]:
    """The coefficients of B_k(x) = sum_j C(k,j) B_j x^(k-j), ascending by
    degree: entry i is C(k, k-i) B_(k-i), and entry k is 1."""
    if k < 0:
        raise ValueError("index must be >= 0")
    return [comb(k, k - i) * bernoulli(k - i) for i in range(k + 1)]


def zeta_neg(m: int, primes: tuple[int, ...] = ()) -> Fraction:
    """prod_{l in primes} (1 - l^m) * zeta(-m), zeta(-m) = (-1)^m B_{m+1}/(m+1):
    zeta with the Euler factors at primes removed, so ``(p,)`` gives zeta_p(-m)
    and ``(p, q)`` gives zeta_{p,q}(-m); each factor vanishes at m = 0."""
    return Fraction(*zeta_neg_ratio(m, primes))


def zeta_neg_ratio(m: int, primes: tuple[int, ...] = ()) -> tuple[int, int]:
    """``zeta_neg(m, primes)`` as an unreduced pair (num, den), den > 0:
    ((-1)^m prod (1 - l^m) B.numerator, B.denominator (m + 1)) for B = B_(m+1)."""
    if m < 0:
        raise ValueError("zeta_neg expects m >= 0")
    b = bernoulli(m + 1)
    num = b.numerator
    for ell in primes:
        num *= 1 - ell**m
    return -num if m % 2 else num, b.denominator * (m + 1)


def rising_factorial(x: Fraction | int, k: int) -> Fraction:
    """x(x+1)...(x+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("rising_factorial requires k >= 0")
    x = Fraction(x)
    prod = Fraction(1)
    for i in range(k):
        prod *= x + i
    return prod
