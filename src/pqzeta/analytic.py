"""Floating-point checks of the classical theta/zeta identities.

The completed zeta Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s) is evaluated
from the theta integral on [1, inf), one incomplete gamma value per theta
term; the symmetric form makes the s <-> 1-s invariance structural, so the
substantive checks are the cross-oracles: the Dirichlet-series value for
Re(s) >= 2, the value pi/6 at s = 2, and the trivial zero recovered near
s = -2.  Gamma(a, x) comes from its continued fraction, so the module needs
nothing beyond the standard library.
"""

from __future__ import annotations

import math

from .padics import Record, require_primes
from .rationals import bernoulli

TERM_FLOOR = 1e-17


def theta(y: float) -> float:
    """omega(y) = 1 + 2 sum_{n>=1} exp(-pi n^2 y), truncated below TERM_FLOOR."""
    if y <= 0:
        raise ValueError("theta needs y > 0")
    total = 1.0
    n = 1
    while True:
        term = 2.0 * math.exp(-math.pi * n * n * y)
        if term < TERM_FLOOR:
            break
        total += term
        n += 1
    return total


def _gamma_fraction(a: float, x: float) -> float:
    """x^(-a) e^x Gamma(a, x) by the modified Lentz continued fraction
    1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))) (Numerical Recipes, 6.2);
    the factor x^a e^(-x) is never formed, as multiplying it in costs digits."""
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    value = d
    for i in range(1, 201):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        value *= delta
        if abs(delta - 1.0) <= 2.0**-52:
            return value
    raise ArithmeticError(f"the Gamma({a}, {x}) continued fraction did not converge in 200 terms")


def completed_zeta(s: float) -> float:
    """Lambda(s) = -1/s - 1/(1-s) + sum_{n>=1} [(pi n^2)^(-s/2) Gamma(s/2, pi n^2)
    + (pi n^2)^(-(1-s)/2) Gamma((1-s)/2, pi n^2)], for s in [-14.5, 15.5].

    Each term is the theta integral over [1, inf) of one exp(-pi n^2 y)
    (Edwards, Riemann's Zeta Function, ch. 1); the sum stops at n = 6, where
    exp(-36 pi) ~ 1e-49.  Inside the range the relative error is below 2e-14;
    beyond it the error grows (to 1.3e-12 by |s - 1/2| = 20), so any other s is refused.
    """
    if not abs(s - 0.5) <= 15:
        raise ValueError(f"Lambda(s) needs s in [-14.5, 15.5], got {s}")
    if s in (0.0, 1.0):
        raise ZeroDivisionError("poles at s = 0 and s = 1")
    total = -1.0 / s - 1.0 / (1.0 - s)
    for n in range(1, 7):
        x = math.pi * n * n
        total += math.exp(-x) * (_gamma_fraction(s / 2.0, x) + _gamma_fraction((1.0 - s) / 2.0, x))
    return total


def zeta_dirichlet(s: float) -> float:
    """zeta(s) for s > 1 by the sum over n <= 60 with Euler-Maclaurin tail terms
    up to B_8."""
    if s <= 1:
        raise ValueError("the Dirichlet oracle needs s > 1")
    cutoff = 60
    total = sum(n ** -s for n in range(1, cutoff + 1))
    total += cutoff ** (1 - s) / (s - 1) - 0.5 * cutoff**-s
    for order in (2, 4, 6, 8):
        b = float(bernoulli(order))
        rise = 1.0
        for i in range(order - 1):
            rise *= s + i
        total += b / math.factorial(order) * rise * cutoff ** (-s - order + 1)
    return total


def completed_zeta_dirichlet(s: float) -> float:
    """Cross-oracle pi^(-s/2) Gamma(s/2) zeta(s), valid for s >= 2.

    log-Gamma comes from the C library's Lanczos-style implementation.
    """
    return math.exp(-0.5 * s * math.log(math.pi) + math.lgamma(s / 2.0)) * zeta_dirichlet(s)


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i in range(n + 1) if sieve[i]]


class EulerProductReport(Record):
    __slots__ = ("s", "prime_bound", "term_bound", "residual", "tail_bound")

    @property
    def ok(self) -> bool:
        return self.residual < self.tail_bound


def euler_product_check(s: float, prime_bound: int, term_bound: int) -> EulerProductReport:
    """|prod_{p <= P}(1 - p^-s)^(-1) - sum_{n <= M} n^-s| against the tail
    integral bound at min(P, M)."""
    if s <= 1:
        raise ValueError("needs s > 1")
    product = 1.0
    for p in primes_up_to(prime_bound):
        product /= 1.0 - p**-s
    dirichlet = sum(n**-s for n in range(1, term_bound + 1))
    cut = min(prime_bound, term_bound)
    bound = cut ** (1 - s) / (s - 1) + cut**-s
    return EulerProductReport(
        s=s,
        prime_bound=prime_bound,
        term_bound=term_bound,
        residual=abs(product - dirichlet),
        tail_bound=bound,
    )


def weil_finite(f, p: int, n_bound: int) -> float:
    """log(p) * sum_{0 < |n| <= n_bound} p^(-|n|/2) f(p^n)."""
    require_primes(p)
    if n_bound < 1:
        raise ValueError("n_bound must be >= 1")
    try:
        float(p) ** n_bound  # the largest power the sum evaluates f at
    except OverflowError:
        raise ValueError(f"{p}^{n_bound} overflows a float; lower n_bound") from None
    total = 0.0
    for n in range(1, n_bound + 1):
        w = p ** (-n / 2.0)
        total += w * (f(float(p) ** n) + f(float(p) ** -n))
    return math.log(p) * total
