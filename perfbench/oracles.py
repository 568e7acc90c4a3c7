"""Computations made apart from pqzeta, used to check its outputs.

Bernoulli numbers and zeta values come from sympy; everything else is a
direct formula written here with plain integers and Fractions.  This module
imports sympy at import time, so the benchmark imports it only after the
timed metrics are recorded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import sympy


def _fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (sympy returns +1/2 for n = 1)."""
    if n == 1:
        return Fraction(-1, 2)
    return _fraction(sympy.bernoulli(n))


@lru_cache(maxsize=None)
def zeta_neg(m: int) -> Fraction:
    """zeta(-m) for m >= 0, exact."""
    return _fraction(sympy.zeta(-m))


def bernoulli_poly_coeffs(k: int) -> list[Fraction]:
    """Ascending coefficients of the Bernoulli polynomial B_k(x)."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.bernoulli(k, x), x)
    coeffs = [Fraction(0)] * (k + 1)
    for (deg,), c in poly.terms():
        coeffs[deg] = _fraction(c)
    return coeffs


def von_staudt_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of primes p with (p-1) | n."""
    out = 1
    for d in range(1, n + 1):
        if n % d == 0 and sympy.isprime(d + 1):
            out *= d + 1
    return out


def valuation(x, p: int) -> float:
    x = Fraction(x)
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def congruent(x, y, p: int, digits: int) -> bool:
    """x = y mod p^digits, for rationals whose difference is p-integral."""
    return valuation(Fraction(x) - Fraction(y), p) >= digits


def residue(x, p: int, digits: int) -> int:
    """The representative in [0, p^digits) of a p-integral rational."""
    x = Fraction(x)
    mod = p**digits
    return x.numerator * pow(x.denominator, -1, mod) % mod


def kl_value(p: int, n: int) -> Fraction:
    return -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n


def double_value(p: int, q: int, n: int) -> Fraction:
    return (1 - Fraction(p) ** (n - 1)) * (1 - Fraction(q) ** (n - 1)) * (-bernoulli(n) / n)


def b1_bar(x: Fraction) -> Fraction:
    """The periodic first Bernoulli function {x} - 1/2."""
    return x - math.floor(x) - Fraction(1, 2)


def open_set_measure(a: int, p: int, n: int, b: int) -> Fraction:
    """mu(b + p^n Z_p) for the measure with moments (1 - a^(m+1)) zeta(-m).

    This is the regularized Bernoulli distribution E_{1,a} of Washington,
    Cyclotomic Fields, section 12.1, taken at -b:
    B1bar(-b/p^n) - a * B1bar(-(a^-1 b mod p^n)/p^n).
    """
    pn = p**n
    a_inv = pow(a, -1, pn) if pn > 1 else 0
    return b1_bar(Fraction(-b, pn)) - a * b1_bar(Fraction(-(a_inv * b % pn), pn))


def teichmuller_unit(n: int, p: int, digits: int) -> int:
    """omega(n) mod p^digits as the limit of n^(p^k): n^(p^digits) suffices."""
    mod = p**digits
    return pow(n, p**digits, mod)


def mahler_coefficient(window: list[int], k: int) -> int:
    """a_k = sum_j C(k, j) (-1)^(k-j) f(j), the explicit alternating sum."""
    return sum(math.comb(k, j) * (-1) ** (k - j) * window[j] for j in range(k + 1))


def indicator_mahler(b: int, n: int, p: int, k: int) -> int:
    """Mahler coefficient a_k of the indicator of the class b mod p^n."""
    pn = p**n
    return sum(math.comb(k, j) * (-1) ** (k - j) for j in range(k + 1) if j % pn == b % pn)


_TERM = re.compile(r"^(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$")


def parse_digits(text: str, p: int) -> tuple[Fraction, float]:
    """Parse "a0 + a1*p + a2*p^2 + ... + O(p^A)" into (value, A).

    "0" is exact zero (A infinite) and "O(p^A)" alone is zero mod p^A.
    """
    text = text.strip()
    if text == "0":
        return Fraction(0), math.inf
    body, sep, tail = text.rpartition("O(")
    m = re.fullmatch(rf"{p}\^(-?\d+)\)", tail)
    if not m or (sep == ""):
        raise ValueError(f"no O({p}^A) term in {text!r}")
    abs_prec = int(m.group(1))
    total = Fraction(0)
    body = body.strip().rstrip("+").strip()
    for term in filter(None, (t.strip() for t in body.split("+"))):
        tm = _TERM.match(term)
        if not tm or (tm.group(2) is not None and int(tm.group(2)) != p):
            raise ValueError(f"bad digit term {term!r} in {text!r}")
        digit = int(tm.group(1))
        if not 0 <= digit < p:
            raise ValueError(f"digit {digit} out of range in {text!r}")
        exp = 0 if tm.group(2) is None else (1 if tm.group(3) is None else int(tm.group(3)))
        total += digit * Fraction(p) ** exp
    return total, abs_prec


def pq_hurwitz(n: int, b: int, F: int, prime: int, digits: int) -> tuple[int, int]:
    """The two-prime Hurwitz value at n <= 0, as (valuation, unit mod prime^digits).

    -(1/m)(1/F) <b>^m (F/b)^m B_m(b/F) with m = 1 - n: the binomial
    Bernoulli sum is taken through the Bernoulli polynomial, and
    <b> = b / omega(b) with omega the Teichmuller lift.
    """
    m = 1 - n
    x = sympy.Symbol("x")
    poly_value = _fraction(sympy.bernoulli(m, x).subs(x, sympy.Rational(b, F)))
    rational = -(Fraction(F, b) ** m) * poly_value / (m * F)
    mod = prime**digits
    bracket = b * pow(teichmuller_unit(b, prime, digits), -1, mod) % mod
    v = valuation(rational, prime)
    unit = residue(rational / Fraction(prime) ** v, prime, digits) * pow(bracket, m, mod) % mod
    return v, unit


def completed_zeta(s: float) -> float:
    import mpmath

    return float(mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s))


def q_zeta(s: float, q: float) -> float:
    import mpmath

    return float(1 / mpmath.qp(mpmath.mpf(q) ** s, q))


def morita_gamma(n: int, p: int, digits: int) -> int:
    prod = 1
    for j in range(1, n):
        if j % p:
            prod *= j
    return (-prod if n % 2 else prod) % p**digits
