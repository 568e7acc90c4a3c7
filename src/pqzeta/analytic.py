"""Floating-point checks of the classical theta/zeta identities.

The completed zeta Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s) is evaluated
through the rapidly convergent theta integral on [1, inf); the symmetric
form makes the s <-> 1-s invariance structural, so the substantive checks
are the cross-oracles: the Dirichlet-series value for Re(s) >= 2, the value
pi/6 at s = 2, and the trivial zero recovered near s = -2.  The
Gauss-Legendre nodes come from Newton's method on the Legendre three-term
recurrence, so the module needs nothing beyond the standard library.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


def _legendre(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by k P_k = (2k-1) x P_(k-1) - (k-1) P_(k-2)."""
    prev, cur = 1.0, x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, n * (x * cur - prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_nodes(count: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method from cos(pi (i + 3/4) / (n + 1/2)) finds the nodes in
    (0, 1), which are mirrored; w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    nodes, weights = [0.0] * count, [0.0] * count
    for i in range((count + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (count + 0.5))
        for _ in range(100):
            value, slope = _legendre(count, x)
            step = value / slope
            x -= step
            if abs(step) < 1e-15:
                break
        slope = _legendre(count, x)[1]
        nodes[i], nodes[count - 1 - i] = -x, x
        weights[i] = weights[count - 1 - i] = 2.0 / ((1.0 - x * x) * slope * slope)
    return tuple(nodes), tuple(weights)


def completed_zeta(s: float) -> float:
    """Lambda(s) = -1/s - 1/(1-s) + (1/2) * integral over [1, inf) of
    (theta(iy) - 1)(y^(s/2-1) + y^((1-s)/2-1)) dy.

    Quadrature maps u in [0, 1) to y = 1 + u/(1-u); the integrand decays like
    exp(-pi y) so 200 Gauss-Legendre nodes reach machine precision.
    """
    if s in (0.0, 1.0):
        raise ZeroDivisionError("poles at s = 0 and s = 1")
    xs, ws = _gauss_nodes(200)
    total = 0.0
    for x, w in zip(xs, ws):
        u = 0.5 * (x + 1.0)
        y = 1.0 + u / (1.0 - u)
        jac = 0.5 / (1.0 - u) ** 2
        decay = theta(y) - 1.0
        total += w * jac * decay * (y ** (s / 2.0 - 1.0) + y ** ((1.0 - s) / 2.0 - 1.0))
    return -1.0 / s - 1.0 / (1.0 - s) + 0.5 * total


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


def zeta_from_lambda(s: float) -> float:
    """zeta recovered from the continuation: Lambda(s) pi^(s/2) / Gamma(s/2).

    1/Gamma is computed by lifting the argument past the poles, so the
    trivial zeros at negative even s come out as genuine zeros.
    """
    x = s / 2.0
    prefactor = 1.0
    while x < 1.0:
        prefactor *= x
        x += 1.0
    return completed_zeta(s) * math.pi ** (s / 2.0) * prefactor / math.gamma(x)


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

    def __init__(self, s: float, prime_bound: int, term_bound: int, residual: float, tail_bound: float):
        self.s = s
        self.prime_bound = prime_bound
        self.term_bound = term_bound
        self.residual = residual
        self.tail_bound = tail_bound

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
    total = 0.0
    for n in range(1, n_bound + 1):
        w = p ** (-n / 2.0)
        total += w * (f(float(p) ** n) + f(float(p) ** -n))
    return math.log(p) * total
