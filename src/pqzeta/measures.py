"""Bounded p-adic measures from twisted zeta generating functions.

The generator Psi_r(t) = (1 - t^(ra))^(-1) sum_b xi_r(br) t^(br) has the
property that (t d/dt)^m Psi_r at t = 1 equals (1 - a^(m+1)) r^m zeta(-m).
Because 1 - t^(ra) vanishes at t = 1, the monomial moments and the
locally-constant twists go through the substitution t = e^z and exact series
arithmetic in z; the singularity is removable since the xi weights sum to
zero over a period.

The binomial moments d_k = integral of C(x, k) are the Taylor coefficients
of Psi_1 at t = 1, d_k = [T^k] Psi_1(1 + T) (Mahler's theorem), where Psi_1
is already a quotient P/Q of integer polynomials with Q(1) = a a p-unit: one
integer power-series division gives all of them.  Pairing them with the
indicator coefficients of ``mahler.characteristic_rows`` gives the action of
the measure on the compact-open sets b + p^n Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .mahler import characteristic_coefficients_exact, characteristic_rows
from .padics import PadicNumber, padic_reduce_abs, padic_valuation
from .rationals import PolyRational, zeta_neg


class ExpSeries:
    """Truncated power series in z with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        self.coeffs = [Fraction(c) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"ExpSeries({self.coeffs})"

    @classmethod
    def from_exponential_sum(cls, weights: dict[int, Fraction | int], order: int) -> "ExpSeries":
        """sum_n w_n e^(nz) expanded to the given order in z."""
        out = [Fraction(0)] * (order + 1)
        for n, w in weights.items():
            if w == 0:
                continue
            w = Fraction(w)
            power = Fraction(1)
            for m in range(order + 1):
                out[m] += w * power / factorial(m)
                power *= n
        return cls(out)

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        order = min(self.order, other.order)
        return ExpSeries([self.coeffs[i] + other.coeffs[i] for i in range(order + 1)])

    def __sub__(self, other: "ExpSeries") -> "ExpSeries":
        order = min(self.order, other.order)
        return ExpSeries([self.coeffs[i] - other.coeffs[i] for i in range(order + 1)])

    def __mul__(self, other: "ExpSeries") -> "ExpSeries":
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a:
                for j in range(order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return ExpSeries(out)

    def divide(self, den: "ExpSeries", order: int) -> "ExpSeries":
        """Series division, allowing a removable singularity.

        When the denominator starts with zero coefficients the numerator must
        vanish to at least the same order (this is where the zero period-sum
        of the xi weights is consumed); both are shifted before the ordinary
        unit division.
        """
        num = list(self.coeffs)
        d = list(den.coeffs)
        shift = 0
        while shift < len(d) and d[shift] == 0:
            if num[shift] != 0:
                raise ArithmeticError("non-removable singularity in series division")
            shift += 1
        num = num[shift:]
        d = d[shift:]
        if not d or d[0] == 0:
            raise ZeroDivisionError("denominator series is zero")
        if len(num) < order + 1 or len(d) < order + 1:
            raise ValueError("insufficient series order for the requested quotient")
        out = []
        work = num[: order + 1 + len(d)]
        for m in range(order + 1):
            c = work[m] / d[0]
            out.append(c)
            for k in range(m, min(len(work), m + len(d))):
                work[k] -= c * d[k - m]
        return ExpSeries(out)


def xi(n: int, a: int, r: int) -> int:
    """The periodic weight: 0 off multiples of r, 1 - a on multiples of ra, else 1."""
    if a < 2 or r < 1:
        raise ValueError("need a >= 2 and r >= 1")
    if n % r:
        return 0
    if n % (r * a) == 0:
        return 1 - a
    return 1


def xi_sum_zero(a: int, r: int) -> Fraction:
    """sum_{b=1}^{a} xi_r(br), asserted to vanish (the removability lemma)."""
    total = sum(xi(b * r, a, r) for b in range(1, a + 1))
    if total != 0:
        raise ArithmeticError(f"xi period sum is {total}, expected 0")
    return Fraction(total)


def psi_r_series(a: int, r: int, order: int) -> ExpSeries:
    """Psi_r(e^z) to the given order in z.

    Built from the displayed quotient: numerator sum_b xi_r(br) t^(br),
    denominator 1 - t^(ra), both composed with t = e^z.  The numerator's
    constant term is the xi period sum, which vanishes, so the simple zero of
    the denominator at z = 0 is removable.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    xi_sum_zero(a, r)
    work = order + 1
    num = ExpSeries.from_exponential_sum(
        {b * r: xi(b * r, a, r) for b in range(1, a + 1)}, work
    )
    den = ExpSeries.from_exponential_sum({0: 1, r * a: -1}, work)
    return num.divide(den, order)


def moment(a: int, r: int, m: int) -> Fraction:
    """(t d/dt)^m Psi_r at t = 1, asserted equal to (1 - a^(m+1)) r^m zeta(-m).

    Both sides are computed; a mismatch is an internal error, never a return.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    series = psi_r_series(a, r, m)
    lhs = series.coeffs[m] * factorial(m)
    rhs = (1 - Fraction(a) ** (m + 1)) * Fraction(r) ** m * zeta_neg(m)
    if lhs != rhs:
        raise ArithmeticError(f"moment mismatch at (a={a}, r={r}, m={m}): {lhs} != {rhs}")
    return lhs


def double_moment(a: int, p: int, q: int, m: int) -> Fraction:
    """Monomial moment of the two-prime measure: (1-a^(m+1))(1-q^m) zeta(-m).

    Computed as moment(a, 1, m) - moment(a, q, m); p-integrality is asserted.
    """
    if gcd(a, p * q) != 1:
        raise ValueError("a must be coprime to pq")
    value = moment(a, 1, m) - moment(a, q, m)
    expected = (1 - Fraction(a) ** (m + 1)) * (1 - Fraction(q) ** m) * zeta_neg(m)
    if value != expected:
        raise ArithmeticError("double moment disagrees with its closed form")
    if padic_valuation(value, p) < 0:
        raise ArithmeticError("double moment lost p-integrality")
    return value


def _twisted_series_value(a: int, r: int, p: int, m: int, keep) -> Fraction:
    """(t d/dt)^m of [phi]Psi_r at t = 1, phi locally constant mod p of
    indicator type given by ``keep``(residue) -> bool."""
    period = a * r * p
    weights: dict[int, int] = {}
    for n in range(1, period + 1):
        if keep(n % p):
            w = xi(n, a, r)
            if w:
                weights[n] = weights.get(n, 0) + w
    num = ExpSeries.from_exponential_sum(weights, m + 1)
    den = ExpSeries.from_exponential_sum({0: 1, period: -1}, m + 1)
    return num.divide(den, m).coeffs[m] * factorial(m)


def restricted_moment(a: int, p: int, q: int, m: int) -> Fraction:
    """Moment of x^m over the p-units: (1-a^(m+1))(1-p^m)(1-q^m) zeta(-m).

    The locally-constant twist by the unit indicator is evaluated through the
    series route and compared against the closed form; both must agree.
    """
    if gcd(a, p * q) != 1:
        raise ValueError("a must be coprime to pq")
    keep_units = lambda res: res != 0
    twisted = _twisted_series_value(a, 1, p, m, keep_units) - _twisted_series_value(
        a, q, p, m, keep_units
    )
    closed = (
        (1 - Fraction(a) ** (m + 1))
        * (1 - Fraction(p) ** m)
        * (1 - Fraction(q) ** m)
        * zeta_neg(m)
    )
    if twisted != closed:
        raise ArithmeticError(
            f"restricted moment routes disagree at (a={a}, p={p}, q={q}, m={m})"
        )
    return closed


# -- the ring of p-integral rational functions --------------------------------


@dataclass
class RPrimeElement:
    """P(t) / Q(t) with p-integral coefficients and |Q(1)|_p = 1.

    ``q_power`` tracks denominators of the form Q^q_power so repeated
    differentiation stays polynomial-sized.
    """

    numerator: PolyRational
    denominator: PolyRational
    p: int
    q_power: int = 1

    def __post_init__(self):
        for c in self.numerator.coeffs + self.denominator.coeffs:
            if padic_valuation(c, self.p) < 0:
                raise ValueError("coefficients must be p-integral")
        if padic_valuation(self.denominator(1), self.p) != 0:
            raise ValueError("|Q(1)|_p must equal 1")

    def value_at_one(self) -> Fraction:
        return self.numerator(1) / self.denominator(1) ** self.q_power

    def series_at_exp(self, order: int) -> ExpSeries:
        work = order + self.q_power + 1
        num = ExpSeries.from_exponential_sum(dict(enumerate(self.numerator.coeffs)), work)
        den = ExpSeries.from_exponential_sum(dict(enumerate(self.denominator.coeffs)), work)
        acc = den
        for _ in range(self.q_power - 1):
            acc = acc * den
        return num.divide(acc, order)


def psi_r_rational(a: int, r: int, p: int) -> RPrimeElement:
    """Psi_r in lowest-order rational form: the (1 - t^r) factor is cancelled
    so the denominator 1 + t^r + ... + t^(r(a-1)) is a p-unit at 1 (needs
    gcd(a, p) = 1)."""
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    num_coeffs = [Fraction(0)] * (r * (a - 1) + 1)
    for b in range(1, a + 1):
        w = xi(b * r, a, r)
        if w:
            for mth in range(b):  # -(1 + t^r + ... + t^(r(b-1))) per weight
                if mth * r < len(num_coeffs):
                    num_coeffs[mth * r] -= w
    den_coeffs = [Fraction(0)] * (r * (a - 1) + 1)
    for mth in range(a):
        den_coeffs[mth * r] = Fraction(1)
    return RPrimeElement(PolyRational(num_coeffs), PolyRational(den_coeffs), p)


def delta_operator(element: RPrimeElement, n: int) -> RPrimeElement:
    """delta_n = (t^n / n!) d^n/dt^n, applied symbolically.

    Differentiation uses d(P/Q^k) = (P'Q - k P Q')/Q^(k+1); the final
    division by n! must leave p-integral coefficients (the stability lemma),
    which the constructor re-checks.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return element
    P = element.numerator
    Q = element.denominator
    k = element.q_power
    Qd = Q.derivative()
    for _ in range(n):
        P = P.derivative() * Q - P.scale(k) * Qd
        k += 1
    P = P.shift_up(n).scale(Fraction(1, factorial(n)))
    return RPrimeElement(P, Q, element.p, q_power=k)


# -- binomial moments and open sets -------------------------------------------


def _taylor_at_one(poly: PolyRational) -> list[int]:
    """Coefficients of poly(1 + T) for a polynomial with integer coefficients."""
    coeffs = [int(c) for c in poly.coeffs]
    return [
        sum(c * comb(i, j) for i, c in enumerate(coeffs[j:], start=j))
        for j in range(len(coeffs))
    ]


def binomial_moments(a: int, p: int, upto: int) -> list[Fraction]:
    """d_k = integral of C(x, k) against the measure with moments
    (1-a^(m+1)) zeta(-m), for k = 0..upto.

    d_k = (delta_k Psi_1)(1) is the k-th Taylor coefficient of Psi_1 = P/Q at
    t = 1.  P(1 + T) and Q(1 + T) have integer coefficients and degree a - 1,
    and Q(1 + T) starts with Q(1) = a, a p-unit, so one power-series division
    in integers gives every d_k: with d_k = N_k / a^(k+1),
    N_k = a^k P~_k - sum_{i>=1} Q~_i a^(i-1) N_(k-i).  That is O(upto * a)
    integer operations on numbers of O(upto log a) bits.  The textbook
    expansion d_k = sum_m c_{k,m} (1-a^(m+1)) zeta(-m) and the delta operator
    are checked against this in the test suite, term by term.
    """
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    base = psi_r_rational(a, 1, p)
    P = _taylor_at_one(base.numerator)
    Q = _taylor_at_one(base.denominator)  # Q[0] = Q(1) = a
    q_scaled = [Q[i] * a ** (i - 1) for i in range(1, len(Q))]
    numerators: list[int] = []
    out = []
    a_k = 1
    for k in range(upto + 1):
        acc = a_k * P[k] if k < len(P) else 0
        for i, c in enumerate(q_scaled[:k], start=1):
            acc -= c * numerators[k - i]
        numerators.append(acc)
        d_k = Fraction(acc, a_k * a)
        if padic_valuation(d_k, p) < 0:
            raise ArithmeticError("binomial moment escaped Z_p")
        out.append(d_k)
        a_k *= a
    return out


def binomial_moment_expansion(a: int, k: int) -> Fraction:
    """The same d_k via the falling-factorial expansion of C(x, k)."""
    poly = PolyRational([1])
    for i in range(k):
        poly = poly * PolyRational([-i, 1])
    acc = Fraction(0)
    for m, c in enumerate(poly.coeffs):
        if c:
            acc += c * (1 - Fraction(a) ** (m + 1)) * zeta_neg(m)
    return acc / factorial(k)


def open_set_closed_form(a: int, p: int, n: int, b: int) -> Fraction:
    """The conjectured closed form (1/a) * floor(ab / p^n) + ((1/a) - 1) / 2."""
    return Fraction(1, a) * (a * b // p**n) + (Fraction(1, a) - 1) / 2


def open_set_twist_value(a: int, p: int, n: int, b: int) -> Fraction:
    """Measure of b + p^n Z_p through the locally-constant twist of Psi_1.

    This is the generating-function route: the indicator of the class b mod
    p^n twists Psi_1 and the result is read off at t = 1.  It serves as the
    independent oracle for the Mahler-series route.
    """
    pn = p**n
    if not 0 <= b < pn:
        raise ValueError("need 0 <= b < p^n")
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    period = a * pn
    weights = {m: xi(m, a, 1) for m in range(1, period + 1) if m % pn == b % pn}
    num = ExpSeries.from_exponential_sum(weights, 1)
    den = ExpSeries.from_exponential_sum({0: 1, period: -1}, 1)
    return num.divide(den, 0).coeffs[0]


@dataclass
class OpenSetMeasure:
    a: int
    p: int
    n: int
    b: int
    series_sum: Fraction  # exact partial sum of sum_k a_k(b, n) d_k
    certified_digits: int  # the tail is certified below p^(-certified_digits)
    conjectured: Fraction  # the floor-formula value
    value: PadicNumber

    def matches_conjecture(self, digits: int) -> bool:
        return padic_valuation(self.series_sum - self.conjectured, self.p) >= digits


def measure_open_set_table(
    a: int, p: int, n: int, target_digits: int = 4, guard: int = 3
) -> dict[int, OpenSetMeasure]:
    """Open-set values for every residue b mod p^n at once.

    Truncation follows the indicator's decay certificate: with
    L = (target_digits + guard) * p^n terms the dropped tail is below
    p^-(target_digits + guard).  The pairing sum_k a_k(b) d_k runs in integers
    over the common denominator a^(L+1) of the d_k, one indicator row of
    ``characteristic_rows`` per k feeding all residues.
    """
    pn = p**n
    upto = (target_digits + guard) * pn
    d = binomial_moments(a, p, upto)
    # each d_k = N_k / a^(k+1), so every denominator divides a^(upto+1)
    den = a ** (upto + 1)
    scaled = [d_k.numerator * (den // d_k.denominator) for d_k in d]
    sums = [0] * pn
    for row, s_k in zip(characteristic_rows(p, n, upto), scaled):
        if s_k:
            for b, c in enumerate(row):
                if c:
                    sums[b] += c * s_k
    certified = target_digits + guard
    out = {}
    for b in range(pn):
        series_sum = Fraction(sums[b], den)
        out[b] = OpenSetMeasure(
            a=a,
            p=p,
            n=n,
            b=b,
            series_sum=series_sum,
            certified_digits=certified,
            conjectured=open_set_closed_form(a, p, n, b),
            value=padic_reduce_abs(series_sum, p, certified),
        )
    return out


def measure_on_open_set(
    a: int, p: int, n: int, b: int, target_digits: int = 4, guard: int = 3
) -> OpenSetMeasure:
    """Measure of b + p^n Z_p by the truncated Mahler pairing sum_k a_k(b,n) d_k.

    The entry b of ``measure_open_set_table``: one column of the indicator
    recurrence already costs every row of it.
    """
    if not 0 <= b < p**n:
        raise ValueError("need 0 <= b < p^n")
    return measure_open_set_table(a, p, n, target_digits, guard)[b]


def open_set_from_moments(moments: list[Fraction], p: int, n: int, b: int) -> Fraction:
    """Pair a characteristic function against externally supplied binomial
    moments d_k (Corollary-style: the moments determine the measure)."""
    upto = len(moments) - 1
    a_k = characteristic_coefficients_exact(b, n, p, upto)
    return sum((a_k[k] * moments[k] for k in range(upto + 1)), Fraction(0))
