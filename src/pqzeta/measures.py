"""Bounded p-adic measures from twisted zeta generating functions.

The generator Psi_r(t) = (1 - t^(ra))^(-1) sum_b xi_r(br) t^(br) has the
property that (t d/dt)^m Psi_r at t = 1 equals (1 - a^(m+1)) r^m zeta(-m).
Every generating function here is sum_{n=1}^{P} w_n t^n / (1 - t^P) for
periodic integer weights w whose period sum vanishes, so its pole at t = 1 is
removable.  A weight list is its period P and its nonzero weights as pairs
(n, w_n); the library forms only those of xi_r, a pairs on the period ra.
``taylor_numerators`` is the one series division that expands it at t = 1,
with work that scales with the pairs and the order, not the period: its
Taylor coefficients d_k = [T^k] F(1 + T) are the binomial moments, the
integrals of C(x, k) (Mahler's theorem).  No numerator depends on the order
asked for, so the division resumes: the module table ``_NUMERATORS`` keeps,
per (a, r), the numerators of xi_r up to the largest order asked for, for the
life of the process; a sweep over m = 0..M divides once, and a call that
finds its numerators there builds no weight list.

Every moment is a Mahler pairing against the d_k: x^m pairs with the row
D^k(x^m)(0) = k! S(m, k) of one Stirling triangle, folded by Horner's rule in
the period P over P^(m+1), with no power of P per term.  That gives the
monomial moments of Psi_r, each checked against (1 - a^(m+1)) r^m zeta(-m).
The two-prime measure has the weights xi_1 - xi_q, and its restriction to the
p-units xi_1 - xi_p - xi_q + xi_pq, so their moments are sums of those, each
sum checked against zeta_q(-m) or zeta_{p,q}(-m).  Every zeta value is read
from the Bernoulli table as an integer pair and compared by cross-multiplying.
The triangle is module-level and only grows, so a sweep over m = 0..M builds
it once; it keeps the rows up to the largest order asked for, O(M^2) integers
of O(M log M) bits each, for the life of the process.  ``cli`` caps the
orders of ``moments``, and so what both tables hold.
``xi_weights`` builds every weight list, and a and r have one check.  The
measure of b + p^n Z_p needs no pairing: the formula for xi_1 gives it exactly
in O(1) (``measure_on_open_set``, reduced by ``padics.reduce_absolute``).
``measure_open_set_table`` checks its arguments once for all p^n residues,
and its series sums and conjectured values each take at most a distinct
values, so it forms each value and each reduction once and its entries share
them.  Every public function here that takes a prime checks it, except the
pure formula ``open_set_closed_form``.
"""

from __future__ import annotations

from fractions import Fraction
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


def _require_a_r(a: int, r: int) -> None:
    """The one check of a and r: ``ValueError`` unless a >= 2 and r >= 1."""
    if a < 2 or r < 1:
        raise ValueError("need a >= 2 and r >= 1")


def xi_weights(a: int, r: int) -> tuple[tuple[int, int], ...]:
    """The nonzero weights of one period r a, as the a pairs (n, xi_r(n)) for
    n = r, 2r, ..., ra, for a >= 2 and r >= 1 (else ``ValueError``), checked
    before any weight is built."""
    _require_a_r(a, r)
    # a list first: tuple() of a generator is resized, and the resized tuples
    # pile up in the interpreter's tuple free list (as in ``Record._fields``)
    return tuple([(r * b, 1) for b in range(1, a)] + [(r * a, 1 - a)])


_NUMERATORS: dict[tuple[int, int], list[int]] = {}


def taylor_numerators(pairs, period: int, upto: int, numerators: list[int] | None = None) -> list[int]:
    """N_k with d_k = N_k / P^(k+1) the Taylor coefficients at t = 1 of
    sum_{n=1}^{P} w_n t^n / (1 - t^P), k = 0..upto, for the period P and the
    nonzero weights as pairs (n, w_n), 1 <= n <= P, ascending in n.

    At t = 1 + T the numerator is sum_j T^j sum_n w_n C(n, j), whose constant
    term is the period sum; it must vanish (else ``ArithmeticError``), and
    then T cancels against 1 - (1 + T)^P.  That leaves S_j = -sum_n w_n
    C(n, j+1) over Q_i = C(P, i+1), with Q_0 = P, and one power-series
    division in integers gives every d_k:
    N_k = P^k S_k - sum_{i>=1} Q_i P^(i-1) N_(k-i).  The work is
    O(upto * len(pairs)) binomials and O(upto^2) products, whatever the period.

    No N_k depends on upto, so the division resumes: given the list ``numerators``
    of the N_k formed so far, it appends those past them to N_upto and returns it.
    """
    pairs = tuple(pairs)
    if sum([w for _, w in pairs]):
        raise ArithmeticError("non-removable singularity: the weights' period sum is not zero")
    numerators = [] if numerators is None else numerators
    if len(numerators) <= upto:
        top = min(upto, period - 1)
        # Q_1 P^0 .. Q_top P^(top-1) by Q_(i+1) P^i = Q_i P^(i-1) P (P - i - 1) / (i + 2), exact:
        # one product per entry, where comb(P, i + 1) would take i of them
        q_scaled = [period * (period - 1) // 2][:top]
        for i in range(1, top):
            q_scaled.append(q_scaled[-1] * period * (period - i - 1) // (i + 2))
        for k in range(len(numerators), upto + 1):
            s_k = -sum([w * comb(n, k + 1) for n, w in pairs]) if k <= top else 0
            # N_(k-1), N_(k-2), ... against Q_1 P^0, Q_2 P^1, ...: map stops at the shorter
            lagged = sum(map(mul, q_scaled, reversed(numerators)))
            numerators.append(period**k * s_k - lagged)
    return numerators


def _xi_numerators(a: int, r: int, upto: int) -> list[int]:
    """N_0..N_upto, or more, of the weights xi_r on the period ra, from the module table
    ``_NUMERATORS`` keyed by (a, r).  Only a call that finds too few there builds the
    weights (``xi_weights``, which checks a and r) and resumes the division.  The table
    only grows, and holds no lock (the package starts no threads)."""
    numerators = _NUMERATORS.get((a, r))
    if numerators is None or len(numerators) <= upto:
        numerators = _NUMERATORS[a, r] = taylor_numerators(xi_weights(a, r), r * a, upto, numerators)
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


def _monomial_moments(numerators, period: int, order: int, first: int = 0) -> list[Fraction]:
    """(t d/dt)^m at t = 1, m = first..order, of the generating function of period P whose
    division gives N_0..N_order, or more: sum_k T(m, k) d_k, as x^m = sum_k T(m, k) C(x, k).

    With d_k = N_k / P^(k+1), row m is sum_k T(m, k) N_k P^(m-k) over P^(m+1),
    and the sum is folded by Horner's rule in P, acc <- acc P + T(m, k) N_k:
    one product by P per term, and no power of P but the denominator."""
    out, den = [], period ** (first + 1)
    for row in _stirling_triangle(order)[first:]:
        acc = 0
        for t, n in zip(row, numerators):
            acc = acc * period + t * n
        out.append(Fraction(acc, den))
        den *= period
    return out


def _checked_moments(a: int, r: int, order: int, first: int = 0) -> list[Fraction]:
    """M_m = (t d/dt)^m Psi_r at t = 1 for m = first..order, each asserted equal to
    (1 - a^(m+1)) r^m zeta(-m); a mismatch is an internal error, never a return."""
    out = _monomial_moments(_xi_numerators(a, r, order), r * a, order, first)
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

    On the period r a p, with p prime to r a, Psi_r restricted to the p-units
    has the weights xi_r - xi_(rp): xi_r(pn) = xi_(rp)(pn), and xi_(rp)
    vanishes off the multiples of p (Washington, Cyclotomic Fields, 12.2).
    So the moment is moment(a, 1, m) - moment(a, p, m) - moment(a, q, m)
    + moment(a, pq, m), four checked moments, whose sum must equal the closed form.
    """
    require_primes(p, q)
    if gcd(a, p * q) != 1:
        raise ValueError("a must be coprime to pq")
    value = moment(a, 1, m) - moment(a, p, m) - moment(a, q, m) + moment(a, p * q, m)
    num, den = zeta_neg_ratio(m, (p, q))
    if value.numerator * den != (1 - a ** (m + 1)) * num * value.denominator:
        raise ArithmeticError(f"restricted moment routes disagree at (a={a}, p={p}, q={q}, m={m})")
    return value  # equal to the closed form, so the same reduced Fraction


# -- binomial moments and open sets -------------------------------------------


def binomial_moments(a: int, p: int, n: int, r: int = 1) -> list[Fraction]:
    """d_k = (delta_k Psi_r)(1), the k-th Taylor coefficient of Psi_r at
    t = 1, for k = 0..n; for r = 1 the integral of C(x, k) against the
    measure with moments (1-a^(m+1)) zeta(-m).

    Read from ``_xi_numerators``, of the a nonzero weights xi_r of period
    ra: d_k = N_k / (ra)^(k+1).  That is O(n * (n + a)) integer operations on
    numbers of O(n log ra) bits.  Each d_k must lie in Z_p, the stability
    lemma of the delta operator, else ``ArithmeticError``.  The textbook expansion
    d_k = sum_m c_{k,m} (1-a^(m+1)) zeta(-m) and the delta operator itself
    are checked against this in the test suite, term by term.
    """
    require_primes(p)
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    period = den = r * a
    for n_k in _xi_numerators(a, r, n)[: n + 1]:
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


def _open_set_level(a: int, p: int, n: int, b: int, target_digits: int) -> int:
    """The checks of ``measure_on_open_set``, in its order, for the residue b; returns p^n."""
    require_primes(p)
    if n < 0 or target_digits < 0:
        raise ValueError("need n >= 0 and target_digits >= 0")
    pn = p**n
    if not 0 <= b < pn:
        raise ValueError("need 0 <= b < p^n")
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    _require_a_r(a, 1)
    return pn


def _open_set_entries(a: int, p: int, n: int, pn: int, certified: int, residues) -> dict[int, OpenSetMeasure]:
    """The unchecked core of ``measure_on_open_set``, for each b in residues, with pn = p^n.

    The weights c_j = xi_1(b + j p^n) over the period j = start..start + a - 1
    are 1 but at the one j0 with a | b + j0 p^n, where c_j0 = 1 - a, so
    -(1/a) sum_j j c_j = k - (a - 1)/2 with k = j0 - start, that is
    k = (-b p^(-n) - start) mod a.  So a series sum is one of a values, and so
    is a conjectured value, by j = floor(ab / p^n) in 0..a-1: each value, and
    the reduction of each series sum, is formed once for all the residues, and
    entries that share a value share the object (neither kind is mutable)."""
    inverse = pow(pn, -1, a)
    sums, conjectures, out = {}, {}, {}
    for b in residues:
        k = (-b * inverse - (0 if b else 1)) % a
        if k not in sums:
            series_sum = Fraction(2 * k + 1 - a, 2)
            sums[k] = series_sum, reduce_absolute(series_sum, p, certified)
        j = a * b // pn
        if j not in conjectures:
            conjectures[j] = open_set_closed_form(a, p, n, b)
        series_sum, value = sums[k]
        # positional, in slot order: keywords made a table nearly twice as slow
        out[b] = OpenSetMeasure(a, p, n, b, series_sum, certified, conjectures[j], value)
    return out


def measure_on_open_set(
    a: int, p: int, n: int, b: int, target_digits: int = 4, guard: int = 3
) -> OpenSetMeasure:
    """Measure of b + p^n Z_p, exactly, with ``value`` its reduction at
    target_digits + guard digits.

    The part of Psi_1 on the class is sum_j c_j t^(b + j p^n) with
    c_j = xi_1(b + j p^n), j >= 0 (j >= 1 for b = 0, as Psi_1 starts at
    t^1).  Since a is prime to p, c has period a in j and zero period sum,
    so its value at t = 1 is -(1/a) sum_j j c_j over one period, read from
    the formula for xi_1 in O(1) (``_open_set_entries``).  It is the
    regularized Bernoulli distribution E_{1,a} at -b (Washington, Cyclotomic
    Fields, section 12.1), and equals the Mahler pairing sum_k a_k(b, n) d_k
    of ``open_set_from_moments``.
    """
    pn = _open_set_level(a, p, n, b, target_digits)
    return _open_set_entries(a, p, n, pn, target_digits + guard, (b,))[b]


def measure_open_set_table(
    a: int, p: int, n: int, target_digits: int = 4, guard: int = 3
) -> dict[int, OpenSetMeasure]:
    """``measure_on_open_set`` for every residue b mod p^n, with (a, p, n) checked once
    and each of the at most a distinct values formed once."""
    pn = _open_set_level(a, p, n, 0, target_digits)
    return _open_set_entries(a, p, n, pn, target_digits + guard, range(pn))


def open_set_from_moments(moments: list[Fraction], p: int, n: int, b: int) -> Fraction:
    """Pair a characteristic function against externally supplied binomial
    moments d_k (Corollary-style: the moments determine the measure), as
    sum a_k(b) num_k (L // den_k) over L = lcm(den_k): one ``Fraction`` at the end,
    with each moment's numerator and denominator read once.  p is checked first."""
    require_primes(p)
    a_k = characteristic_coefficients_exact(b, n, p, len(moments) - 1)
    dens = [d.denominator for d in moments]
    nums = [d.numerator for d in moments]
    den = lcm(*dens)
    total = sum([a * num * (den // d) for a, num, d in zip(a_k, nums, dens) if a])
    return Fraction(total, den)
