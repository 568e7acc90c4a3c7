"""Bounded p-adic measures from twisted zeta generating functions.

The generator Psi_r(t) = (1 - t^(ra))^(-1) sum_b xi_r(br) t^(br) has the
property that (t d/dt)^m Psi_r at t = 1 equals (1 - a^(m+1)) r^m zeta(-m).
Every generating function here is sum_{n=1}^{P} w_n t^n / (1 - t^P) for
periodic integer weights w whose period sum vanishes, so its pole at t = 1 is
removable, and ``taylor_numerators`` is the one series division that expands
it there: its Taylor coefficients d_k = [T^k] F(1 + T) are the binomial
moments, the integrals of C(x, k) (Mahler's theorem).

Every moment is a Mahler pairing against the d_k: x^m pairs with the row
D^k(x^m)(0) = k! S(m, k) of one Stirling triangle, which gives the monomial
moments of Psi_r, of the two-prime measure and of its restriction to the
p-units (the unit indicator twists the weights), each returned one checked
against (1 - a^(m+1)) times r^m zeta(-m), zeta_q(-m) or zeta_{p,q}(-m), read
from the Bernoulli table as an integer pair and compared by cross-multiplying.
The triangle is module-level and only grows, so a sweep over m = 0..M builds
it once; it keeps the rows up to the largest order asked for, O(M^2) integers
of O(M log M) bits each, for the life of the process (``cli`` caps the
orders of ``moments``).
``xi_weights`` builds every weight list and alone checks a and r.  The
measure of b + p^n Z_p needs no pairing: one period of xi_1 gives it exactly
(``measure_on_open_set``, reduced by ``padics.reduce_absolute``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial, gcd, lcm
from operator import mul

from .mahler import characteristic_coefficients_exact
from .padics import Record, padic_valuation, reduce_absolute, require_primes
from .rationals import zeta_neg_ratio


def xi(n: int, a: int, r: int) -> int:
    """The periodic weight: 0 off multiples of r, 1 - a on multiples of ra, else 1."""
    if n % r:
        return 0
    if n % (r * a) == 0:
        return 1 - a
    return 1


def xi_weights(a: int, r: int) -> list[int]:
    """One period of the weights, [xi_r(1), ..., xi_r(ra)], for a >= 2 and
    r >= 1 (else ``ValueError``): the only check of a and r, made before
    any weight is built."""
    if a < 2 or r < 1:
        raise ValueError("need a >= 2 and r >= 1")
    return [xi(n, a, r) for n in range(1, r * a + 1)]


def taylor_numerators(weights: list[int], upto: int) -> list[int]:
    """N_k with d_k = N_k / P^(k+1) the Taylor coefficients at t = 1 of
    sum_{n=1}^{P} w_n t^n / (1 - t^P), k = 0..upto, for weights = [w_1..w_P].

    At t = 1 + T the numerator is sum_j T^j sum_n w_n C(n, j), whose constant
    term is the period sum; it must vanish (else ``ArithmeticError``), and
    then T cancels against 1 - (1 + T)^P.  That leaves S_j = -sum_n w_n
    C(n, j+1) over Q_i = C(P, i+1), with Q_0 = P, and one power-series
    division in integers gives every d_k:
    N_k = P^k S_k - sum_{i>=1} Q_i P^(i-1) N_(k-i).
    """
    period = len(weights)
    if sum(weights):
        raise ArithmeticError("non-removable singularity: the weights' period sum is not zero")
    ns = [n for n, w in enumerate(weights, start=1) if w]
    ws = [w for w in weights if w]
    top = min(upto, period - 1)
    num = [-sum(map(mul, ws, map(comb, ns, repeat(j + 1)))) for j in range(top + 1)]
    q_scaled = [comb(period, i + 1) * period ** (i - 1) for i in range(1, top + 1)]
    numerators: list[int] = []
    p_k = 1
    for k in range(upto + 1):
        # N_(k-1), N_(k-2), ... against Q_1 P^0, Q_2 P^1, ...: map stops at the shorter
        lagged = sum(map(mul, q_scaled, reversed(numerators)))
        numerators.append((p_k * num[k] if k <= top else 0) - lagged)
        p_k *= period
    return numerators


_TRIANGLE: list[list[int]] = [[1]]


def _stirling_triangle(order: int) -> list[list[int]]:
    """Rows T(m, k) = D^k(x^m)(0) = k! S(m, k), k = 0..m, for m = 0..order, from T(0, 0) = 1
    and T(m, k) = k (T(m-1, k) + T(m-1, k-1)) (Graham, Knuth and Patashnik, 6.1).

    The rows live in one module-level triangle that only grows: it keeps the
    rows up to the largest order asked for, and holds no lock (the package
    starts no threads)."""
    rows = _TRIANGLE
    while len(rows) <= order:
        last = rows[-1]
        rows.append([k * (t + s) for k, (t, s) in enumerate(zip(last + [0], [0] + last))])
    return rows[: order + 1]


def _monomial_moments(weights: list[int], order: int, first: int = 0) -> list[Fraction]:
    """(t d/dt)^m at t = 1 of the generating function of ``weights``, m = first..order:
    sum_k T(m, k) d_k, as x^m = sum_k T(m, k) C(x, k), paired in integers over P^(order+1)."""
    period = len(weights)
    scaled = [n * period ** (order - k) for k, n in enumerate(taylor_numerators(weights, order))]
    den = period ** (order + 1)
    return [Fraction(sum(map(mul, row, scaled)), den) for row in _stirling_triangle(order)[first:]]


def _checked_moments(a: int, r: int, order: int, first: int = 0) -> list[Fraction]:
    """M_m = (t d/dt)^m Psi_r at t = 1 for m = first..order, each asserted equal to
    (1 - a^(m+1)) r^m zeta(-m); a mismatch is an internal error, never a return."""
    out = _monomial_moments(xi_weights(a, r), order, first)
    for m, lhs in enumerate(out, start=first):
        num, den = zeta_neg_ratio(m)
        num *= (1 - a ** (m + 1)) * r**m
        if lhs.numerator * den != num * lhs.denominator:
            raise ArithmeticError(f"moment mismatch at (a={a}, r={r}, m={m}): {lhs} != {Fraction(num, den)}")
    return out


def psi_r_series(a: int, r: int, order: int) -> list[Fraction]:
    """Psi_r(e^z) to the given order in z: the coefficient of z^m is M_m / m!, with
    every M_m read from the weights xi_r on the period ra and checked by ``_checked_moments``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [lhs / factorial(m) for m, lhs in enumerate(_checked_moments(a, r, order))]


def moment(a: int, r: int, m: int) -> Fraction:
    """(t d/dt)^m Psi_r at t = 1 from row m of the triangle alone, asserted
    equal to (1 - a^(m+1)) r^m zeta(-m); no lower order is paired or checked."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _checked_moments(a, r, m, m)[0]


def double_moment(a: int, p: int, q: int, m: int) -> Fraction:
    """Monomial moment of the two-prime measure: (1-a^(m+1))(1-q^m) zeta(-m).

    Computed as moment(a, 1, m) - moment(a, q, m); p-integrality is asserted.
    """
    require_primes(p, q)
    if gcd(a, p * q) != 1:
        raise ValueError("a must be coprime to pq")
    value = moment(a, 1, m) - moment(a, q, m)
    num, den = zeta_neg_ratio(m, (q,))
    if value.numerator * den != (1 - a ** (m + 1)) * num * value.denominator:
        raise ArithmeticError("double moment disagrees with its closed form")
    if padic_valuation(value, p) < 0:
        raise ArithmeticError("double moment lost p-integrality")
    return value


def restricted_moment(a: int, p: int, q: int, m: int) -> Fraction:
    """Moment of x^m over the p-units: (1-a^(m+1))(1-p^m)(1-q^m) zeta(-m).

    The unit indicator twists the weights of Psi_1 and Psi_q on the period
    a r p; the twisted moments are compared against the closed form, and
    both must agree.
    """
    require_primes(p, q)
    if gcd(a, p * q) != 1:
        raise ValueError("a must be coprime to pq")

    def unit_twist(r: int) -> Fraction:
        weights = [w if n % p else 0 for n, w in enumerate(xi_weights(a, r) * p, start=1)]
        return _monomial_moments(weights, m, m)[0]

    twisted = unit_twist(1) - unit_twist(q)
    num, den = zeta_neg_ratio(m, (p, q))
    if twisted.numerator * den != (1 - a ** (m + 1)) * num * twisted.denominator:
        raise ArithmeticError(
            f"restricted moment routes disagree at (a={a}, p={p}, q={q}, m={m})"
        )
    return twisted  # equal to the closed form, so the same reduced Fraction


# -- binomial moments and open sets -------------------------------------------


def binomial_moments(a: int, p: int, n: int, r: int = 1) -> list[Fraction]:
    """d_k = (delta_k Psi_r)(1), the k-th Taylor coefficient of Psi_r at
    t = 1, for k = 0..n; for r = 1 the integral of C(x, k) against the
    measure with moments (1-a^(m+1)) zeta(-m).

    Read from ``taylor_numerators`` on the weights xi_r of period ra:
    d_k = N_k / (ra)^(k+1).  That is O(n * ra) integer operations on numbers
    of O(n log ra) bits.  Each d_k must lie in Z_p, the stability lemma of
    the delta operator, else ``ArithmeticError``.  The textbook expansion
    d_k = sum_m c_{k,m} (1-a^(m+1)) zeta(-m) and the delta operator itself
    are checked against this in the test suite, term by term.
    """
    require_primes(p)
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    weights = xi_weights(a, r)
    period = den = len(weights)
    for n_k in taylor_numerators(weights, n):
        d_k = Fraction(n_k, den)
        if padic_valuation(d_k, p) < 0:
            raise ArithmeticError("binomial moment escaped Z_p")
        out.append(d_k)
        den *= period
    return out


def open_set_closed_form(a: int, p: int, n: int, b: int) -> Fraction:
    """The conjectured closed form (1/a) * floor(ab / p^n) + ((1/a) - 1) / 2."""
    return Fraction(2 * (a * b // p**n) + 1 - a, 2 * a)


class OpenSetMeasure(Record):
    """``series_sum`` is the exact sum of the whole series sum_k a_k(b, n) d_k,
    ``conjectured`` the floor-formula value, and ``value`` keeps
    ``certified_digits`` digits."""

    __slots__ = ("a", "p", "n", "b", "series_sum", "certified_digits", "conjectured", "value")

    def matches_conjecture(self, digits: int) -> bool:
        return padic_valuation(self.series_sum - self.conjectured, self.p) >= digits


def measure_on_open_set(
    a: int, p: int, n: int, b: int, target_digits: int = 4, guard: int = 3
) -> OpenSetMeasure:
    """Measure of b + p^n Z_p, exactly, with ``value`` its reduction at
    target_digits + guard digits.

    The part of Psi_1 on the class is sum_j c_j t^(b + j p^n) with
    c_j = xi_1(b + j p^n), j >= 0 (j >= 1 for b = 0, as Psi_1 starts at
    t^1).  Since a is prime to p, c has period a in j and zero period sum,
    so its value at t = 1 is -(1/a) sum_j j c_j over one period: O(a)
    integer work.  It is the regularized Bernoulli distribution E_{1,a}
    at -b (Washington, Cyclotomic Fields, section 12.1), and equals the
    Mahler pairing sum_k a_k(b, n) d_k of ``open_set_from_moments``.
    """
    require_primes(p)
    if n < 0 or target_digits < 0:
        raise ValueError("need n >= 0 and target_digits >= 0")
    pn = p**n
    if not 0 <= b < pn:
        raise ValueError("need 0 <= b < p^n")
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    weights = xi_weights(a, 1)  # weights[i] = xi_1(i + 1), of period a
    start = 0 if b else 1
    total = sum(j * weights[(b + j * pn - 1) % a] for j in range(start, start + a))
    series_sum = Fraction(-total, a)
    certified = target_digits + guard
    return OpenSetMeasure(
        a=a,
        p=p,
        n=n,
        b=b,
        series_sum=series_sum,
        certified_digits=certified,
        conjectured=open_set_closed_form(a, p, n, b),
        value=reduce_absolute(series_sum, p, certified),
    )


def measure_open_set_table(
    a: int, p: int, n: int, target_digits: int = 4, guard: int = 3
) -> dict[int, OpenSetMeasure]:
    """``measure_on_open_set`` for every residue b mod p^n."""
    table = {0: measure_on_open_set(a, p, n, 0, target_digits, guard)}  # checks p and n before p^n
    for b in range(1, p**n):
        table[b] = measure_on_open_set(a, p, n, b, target_digits, guard)
    return table


def open_set_from_moments(moments: list[Fraction], p: int, n: int, b: int) -> Fraction:
    """Pair a characteristic function against externally supplied binomial
    moments d_k (Corollary-style: the moments determine the measure), as
    sum a_k(b) num_k (L // den_k) over L = lcm(den_k): one ``Fraction`` at the end."""
    a_k = characteristic_coefficients_exact(b, n, p, len(moments) - 1)
    den = lcm(*(d.denominator for d in moments))
    total = sum(a * d.numerator * (den // d.denominator) for a, d in zip(a_k, moments) if a)
    return Fraction(total, den)
