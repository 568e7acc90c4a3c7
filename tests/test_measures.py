import random
from fractions import Fraction
from math import comb, factorial, floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from pqzeta import mahler, measures
from pqzeta.mahler import _differences, characteristic_coefficients_exact
from pqzeta.measures import (
    OpenSetMeasure,
    _monomial_moments,
    _stirling_triangle,
    binomial_moments,
    double_moment,
    measure_on_open_set,
    measure_open_set_table,
    moment,
    open_set_closed_form,
    open_set_from_moments,
    psi_r_series,
    restricted_moment,
    taylor_numerators,
    xi,
    xi_weights,
)
from pqzeta.padics import PadicNumber, padic_valuation
from pqzeta.rationals import zeta_neg

# Polynomials are lists of coefficients, ascending by degree.  Weight lists
# are dense [w_1, ..., w_P], or sparse: the period P and the nonzero (n, w_n).


def sparse(weights) -> list[tuple[int, int]]:
    """The nonzero (n, w_n) of a dense weight list, ascending in n."""
    return [(n, w) for n, w in enumerate(weights, start=1) if w]


def dense(pairs, period: int) -> list[int]:
    """The weight list [w_1, ..., w_P] of the pairs."""
    weights = [0] * period
    for n, w in pairs:
        weights[n - 1] = w
    return weights


def poly_add(f: list, g: list) -> list:
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def poly_mul(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return out


def poly_derivative(f: list) -> list:
    return [i * c for i, c in enumerate(f)][1:]


def poly_eval(f: list, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def delta_numerators(P: list, Q: list, upto: int) -> list[list]:
    """The delta operator delta_k = (t^k / k!) d^k/dt^k on P/Q, symbolically:
    entry k is the numerator of (P/Q)^(k) / k! over Q^(k+1), so that
    delta_k(P/Q) = t^k entry_k / Q^(k+1), for k = 0..upto.

    One quotient-rule chain d(P_k/Q^(k+1)) = (P_k' Q - (k+1) P_k Q')/Q^(k+2)
    serves every k; the stability lemma says each entry is p-integral when P
    is and Q(1) is a p-unit.
    """
    Qd = poly_derivative(Q)
    out = []
    for k in range(upto + 1):
        out.append([Fraction(c, factorial(k)) for c in P])
        P = poly_add(poly_mul(poly_derivative(P), Q), [-(k + 1) * c for c in poly_mul(P, Qd)])
    return out


def delta_at_one(P: list, Q: list, upto: int) -> list[Fraction]:
    """(delta_k P/Q)(1) for k = 0..upto, from one derivative chain."""
    q1 = poly_eval(Q, 1)
    return [poly_eval(N, 1) / q1 ** (k + 1) for k, N in enumerate(delta_numerators(P, Q, upto))]


def psi_r_fraction(a: int, r: int) -> tuple[list, list]:
    """Psi_r = P/Q with the factor 1 - t^r of 1 - t^(ra) cancelled: the
    denominator Q = 1 + t^r + ... + t^(r(a-1)) is a p-unit at 1 for p prime
    to a, and P = -sum_b xi_r(br)(1 + t^r + ... + t^(r(b-1)))."""
    P = [0] * (r * (a - 1) + 1)
    for b in range(1, a + 1):
        w = xi(b * r, a, r)
        for m in range(b):
            P[m * r] -= w
    Q = [0] * (r * (a - 1) + 1)
    for m in range(a):
        Q[m * r] = 1
    return P, Q


def binomial_moment_expansion(a: int, k: int) -> Fraction:
    """d_k via the falling-factorial expansion of C(x, k): the textbook
    sum_m c_{k,m} (1 - a^(m+1)) zeta(-m), the oracle for ``binomial_moments``."""
    poly = [1]
    for i in range(k):
        poly = poly_mul(poly, [-i, 1])
    acc = Fraction(0)
    for m, c in enumerate(poly):
        if c:
            acc += c * (1 - Fraction(a) ** (m + 1)) * zeta_neg(m)
    return acc / factorial(k)


def open_set_twist_value(a: int, p: int, n: int, b: int) -> Fraction:
    """Measure of b + p^n Z_p through the locally-constant twist of Psi_1.

    This is the generating-function route: the indicator of the class b mod
    p^n twists the weights of Psi_1 on the period a p^n, and the value at
    t = 1 is d_0 of the twisted weights.  It serves as the independent oracle
    for the Mahler-series route.
    """
    pn = p**n
    if not 0 <= b < pn:
        raise ValueError("need 0 <= b < p^n")
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    period = a * pn
    weights = [xi(m, a, 1) if m % pn == b else 0 for m in range(1, period + 1)]
    return Fraction(taylor_numerators(sparse(weights), period, 0)[0], period)


def regularized_bernoulli(a: int, p: int, n: int, b: int) -> Fraction:
    """E_{1,a} at -b on b + p^n Z_p: B1(-b/p^n) - a B1(-(a^-1 b mod p^n)/p^n)
    with the periodic B1(y) = {y} - 1/2 (Washington, Cyclotomic Fields,
    section 12.1), the closed form of the measure on the class."""
    pn = p**n

    def b1(y: Fraction) -> Fraction:
        return y - floor(y) - Fraction(1, 2)

    return b1(Fraction(-b, pn)) - a * b1(Fraction(-(pow(a, -1, pn) * b % pn), pn))


def test_xi_cases():
    assert xi(4, 3, 2) == 1
    assert xi(6, 3, 2) == -2
    assert xi(3, 3, 2) == 0


def test_xi_sum_zero():
    # the removability lemma: taylor_numerators raises on a nonzero period
    # sum, so the xi_r weights pass, and Psi_r(1) = (1 - a) zeta(0)
    for a, r in ((2, 1), (3, 2), (5, 1), (4, 3)):
        weights = [xi(n, a, r) for n in range(1, r * a + 1)]
        assert list(xi_weights(a, r)) == sparse(weights), (a, r)
        assert Fraction(taylor_numerators(xi_weights(a, r), r * a, 0)[0], r * a) == (1 - a) * zeta_neg(0)


def test_exp_series_removable_division():
    # t - t^2 over 1 - t^2 is t / (1 + t): 1/2 + T/4 - T^2/8 at t = 1 + T
    numerators = taylor_numerators([(1, 1), (2, -1)], 2, 2)
    assert [Fraction(n, 2 ** (k + 1)) for k, n in enumerate(numerators)] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(-1, 8)]
    with pytest.raises(ArithmeticError):
        taylor_numerators([(1, 1)], 2, 2)
    with pytest.raises(ArithmeticError):
        taylor_numerators([(1, 1), (2, 2), (3, -2)], 3, 0)


def test_psi_series_slots():
    series = psi_r_series(2, 1, 4)
    assert series[0] == Fraction(1, 2)  # (1-a) zeta(0) for a=2
    assert series[1] * factorial(1) == Fraction(1, 4)  # (1-a^2) zeta(-1)
    series = psi_r_series(2, 3, 3)
    assert series[1] * factorial(1) == Fraction(3, 4)


def test_moment_both_sides():
    assert moment(2, 1, 1) == Fraction(1, 4)
    assert moment(2, 1, 2) == 0
    assert moment(2, 3, 3) == Fraction(-27, 8)
    for a in (2, 3):
        for r in (1, 2, 5):
            for m in range(8):
                moment(a, r, m)  # asserts equality internally


def test_moment_even_slots_vanish():
    series = psi_r_series(3, 2, 10)
    for m in range(2, 10, 2):
        assert series[m] == 0


def test_double_moment():
    assert double_moment(3, 5, 7, 1) == -4
    assert double_moment(3, 5, 7, 2) == 0
    for m in range(0, 25):
        value = double_moment(2, 5, 7, m)
        assert padic_valuation(value, 5) >= 0
    with pytest.raises(ValueError):
        double_moment(5, 5, 7, 1)


def test_restricted_moment():
    assert restricted_moment(3, 5, 7, 1) == 16
    assert restricted_moment(3, 5, 7, 0) == 0
    for m in range(0, 21):
        restricted_moment(2, 5, 7, m)  # twist route vs closed form asserted


def test_restricted_moment_a_independence():
    # (1 - a^(m+1))^(-1) * restricted moment does not depend on a
    for m in (1, 3, 5, 9):
        va = restricted_moment(2, 5, 7, m) / (1 - Fraction(2) ** (m + 1))
        vb = restricted_moment(3, 5, 7, m) / (1 - Fraction(3) ** (m + 1))
        assert va == vb


def monomial_moments_by_differences(pairs, period: int, order: int) -> list[Fraction]:
    """The forward-difference route the Stirling triangle replaced: x^m pairs
    with D^k(x^m)(0), the leading diagonal of the differences of x^m on
    [0, m], for every m, in integers over P^(order+1)."""
    scaled = [
        n_k * period ** (order - k) for k, n_k in enumerate(taylor_numerators(pairs, period, order))
    ]
    den = period ** (order + 1)
    return [
        Fraction(sum(c * s for c, s in zip(_differences([x**m for x in range(m + 1)]), scaled)), den)
        for m in range(order + 1)
    ]


def unit_twisted_weights(a: int, r: int, p: int) -> list[int]:
    """The dense weights of Psi_r restricted to the p-units on the period r a p:
    xi_r(n) at the p-units n, else 0."""
    return [xi(n, a, r) if n % p else 0 for n in range(1, r * a * p + 1)]


# (a, p, q) with a prime to pq, p from 2 to 31
TWIST_GRID = [(a, p, q) for a in (2, 3, 4, 6, 10) for p, q in ((2, 3), (5, 7), (7, 11), (3, 5), (31, 2))
              if gcd(a, p * q) == 1]


def test_the_dense_unit_twist_is_xi_r_minus_xi_rp():
    """Psi_r restricted to the p-units has the weights xi_r - xi_(rp) on the period r a p
    when p is prime to r a (a is, on the grid); when p | r it has none."""
    assert TWIST_GRID
    for a, p, q in TWIST_GRID:
        for r in (1, q, 2 * q + 1):
            want = [xi(n, a, r) - xi(n, a, r * p) if r % p else 0 for n in range(1, r * a * p + 1)]
            assert unit_twisted_weights(a, r, p) == want, (a, p, r)


def test_restricted_moment_is_the_moment_of_the_dense_unit_twist():
    """The four xi_r moments equal the moments of the dense twisted weights of
    Psi_1 and Psi_q, divided in one pass and paired over P^(order+1), in value and type."""
    order = 12
    for a, p, q in TWIST_GRID:
        twist = []
        for r in (1, q):
            weights = unit_twisted_weights(a, r, p)
            twist.append(scaled_pairing(one_shot_numerators(weights, order), len(weights), order))
        for m in range(order + 1):
            got, want = restricted_moment(a, p, q, m), twist[0][m] - twist[1][m]
            assert type(got) is type(want) is Fraction and got == want, (a, p, q, m)


def test_stirling_triangle_rows_are_factorial_times_stirling():
    rows = _stirling_triangle(20)
    assert len(rows) == 21
    for m, row in enumerate(rows):
        assert row == [factorial(k) * stirling(m, k) for k in range(m + 1)], m
        assert row == _differences([x**m for x in range(m + 1)]), m


def reference_triangle(order: int) -> list[list[int]]:
    """k! S(m, k) = sum_j (-1)^(k-j) C(k, j) j^m, m = 0..order, built afresh
    by the explicit sum rather than the recurrence."""
    return [
        [sum((-1) ** (k - j) * comb(k, j) * j**m for j in range(k + 1)) for k in range(m + 1)]
        for m in range(order + 1)
    ]


def test_the_module_triangle_rows_equal_a_reference_triangle(monkeypatch):
    monkeypatch.setattr(measures, "_TRIANGLE", [[1]])
    want = reference_triangle(40)
    for order in (3, 0, 17, 40, 12):  # grows, reads below its top, grows again
        assert _stirling_triangle(order) == want[: order + 1], order
    assert measures._TRIANGLE == want


@pytest.mark.parametrize("built", [0, 7, 60], ids=["fresh", "part-built", "built-past-the-order"])
def test_moments_do_not_depend_on_the_module_triangle(built, monkeypatch):
    monkeypatch.setattr(measures, "_TRIANGLE", [[1]])
    _stirling_triangle(built)
    assert len(measures._TRIANGLE) == built + 1
    for a, r in ((2, 1), (3, 2), (5, 3)):
        series = psi_r_series(a, r, 24)
        for m in range(25):
            got, want = moment(a, r, m), (1 - a ** (m + 1)) * r**m * zeta_neg(m)
            assert type(got) is Fraction and got == want, (a, r, m)
            assert type(series[m]) is Fraction and series[m] == want / factorial(m), (a, r, m)
    for a, p, q in ((2, 5, 7), (3, 7, 11)):
        for m in range(13):
            double, restricted = double_moment(a, p, q, m), restricted_moment(a, p, q, m)
            assert type(double) is type(restricted) is Fraction
            assert double == (1 - a ** (m + 1)) * zeta_neg(m, (q,)), (a, p, q, m)
            assert restricted == (1 - a ** (m + 1)) * zeta_neg(m, (p, q)), (a, p, q, m)
    assert len(measures._TRIANGLE) == max(built, 24) + 1


def _table_calls(seed: int) -> list:
    """(function, args, closed form) for every moment route, in a shuffled order."""
    calls = []
    for a, r in ((2, 1), (3, 2), (5, 3)):
        calls += [(moment, (a, r, m), (1 - a ** (m + 1)) * r**m * zeta_neg(m)) for m in range(25)]
        calls += [(psi_r_series, (a, r, order),
                   [(1 - a ** (m + 1)) * r**m * zeta_neg(m) / factorial(m) for m in range(order + 1)])
                  for order in (0, 9, 24)]
    for a, p, q in ((2, 5, 7), (3, 7, 11)):
        calls += [(double_moment, (a, p, q, m), (1 - a ** (m + 1)) * zeta_neg(m, (q,))) for m in range(13)]
        calls += [(restricted_moment, (a, p, q, m), (1 - a ** (m + 1)) * zeta_neg(m, (p, q))) for m in range(13)]
    for a, p in ((2, 5), (3, 7)):
        calls += [(binomial_moments, (a, p, n), [binomial_moment_expansion(a, k) for k in range(n + 1)])
                  for n in (0, 7, 24)]
    random.Random(seed).shuffle(calls)
    return calls


@pytest.mark.parametrize("built", [None, 7, 60], ids=["fresh", "part-built", "built-past-the-order"])
def test_moments_do_not_depend_on_the_numerator_table(built, monkeypatch):
    monkeypatch.setattr(measures, "_NUMERATORS", {})
    if built is not None:
        # built from the dense lists under (a, r), so the keys the moment routes use must be these:
        # xi_1, xi_p, xi_q and xi_pq for each (a, p, q) of ``_table_calls``
        for a in (2, 3, 5):
            for r in (1, 2, 3, 5, 7, 11, 35, 77):
                pairs = sparse(xi(n, a, r) for n in range(1, r * a + 1))
                measures._NUMERATORS[a, r] = taylor_numerators(pairs, r * a, built)
        assert {len(numerators) for numerators in measures._NUMERATORS.values()} == {built + 1}
    if built == 60:  # past every order asked for: no call builds a weight list
        monkeypatch.setattr(measures, "xi_weights", lambda a, r: pytest.fail(f"xi_weights({a}, {r})"))
    keys = set(measures._NUMERATORS)
    for seed in (1, 2):
        for function, args, want in _table_calls(seed):
            got = function(*args)
            assert got == want, (function.__name__, args)
            for value in got if isinstance(got, list) else [got]:
                assert type(value) is Fraction, (function.__name__, args)
    if built is not None:
        assert set(measures._NUMERATORS) == keys


def one_shot_numerators(weights: list[int], upto: int) -> list[int]:
    """The division as one pass from N_0 to N_upto, with no table: the form
    that ``taylor_numerators`` resumes, kept as its oracle."""
    period = len(weights)
    ns = [n for n, w in enumerate(weights, start=1) if w]
    ws = [w for w in weights if w]
    top = min(upto, period - 1)
    num = [-sum(w * comb(n, j + 1) for n, w in zip(ns, ws)) for j in range(top + 1)]
    q_scaled = [comb(period, i + 1) * period ** (i - 1) for i in range(1, top + 1)]
    numerators: list[int] = []
    for k in range(upto + 1):
        lagged = sum(q * n for q, n in zip(q_scaled, reversed(numerators)))
        numerators.append((period**k * num[k] if k <= top else 0) - lagged)
    return numerators


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=14), st.lists(st.integers(0, 40), min_size=2, max_size=3))
def test_resumed_numerators_equal_the_one_shot_division(values, steps):
    weights = values + [-sum(values)]  # a zero period sum
    stored: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_NUMERATORS", {})
        top = -1
        for upto in sorted(steps) + [steps[0]]:  # grows, then reads below its top
            top = max(top, upto)
            got = taylor_numerators(sparse(weights), len(weights), upto, stored)
            assert got is stored and len(got) == top + 1, upto
            assert got[: upto + 1] == one_shot_numerators(weights, upto), upto
            assert all(type(n) is int for n in got), upto
        # a list of the same period whose sum is not zero is refused, and the stored list kept
        with pytest.raises(ArithmeticError, match="period sum is not zero"):
            taylor_numerators(sparse(weights[:-1] + [weights[-1] + 1]), len(weights), max(steps) + 1, stored)
        assert len(stored) == max(steps) + 1
        assert measures._NUMERATORS == {}  # the division keeps no table of its own


@st.composite
def zero_sum_pairs(draw, top: int = 10**6):
    """A period up to top and at most 6 nonzero weights of zero sum, ascending in n."""
    period = draw(st.one_of(st.integers(1, 40), st.integers(1, top)))
    ns = sorted(draw(st.lists(st.integers(1, period), max_size=6, unique=True)))
    ws = [draw(st.integers(-(10**6), 10**6).filter(bool)) for _ in ns[1:]]
    pairs = list(zip(ns[1:], ws))
    if ns and sum(ws):
        pairs.insert(0, (ns[0], -sum(ws)))
    return pairs, period


@settings(max_examples=60, deadline=None)
@given(zero_sum_pairs(), st.integers(0, 25))
@example(case=([(4995000, 1), (9990000, -1)], 9990000), upto=3)
@example(case=([], 1), upto=5)
def test_sparse_numerators_equal_the_dense_division(case, upto):
    """The division on the pairs alone equals the one-shot division of the
    densified list, however long the period; a nonzero sum is refused."""
    pairs, period = case
    assert taylor_numerators(pairs, period, upto) == one_shot_numerators(dense(pairs, period), upto)
    unbalanced = pairs[:-1] + [(pairs[-1][0], pairs[-1][1] + 1)] if pairs else [(period, 1)]
    with pytest.raises(ArithmeticError, match="period sum is not zero"):
        taylor_numerators(unbalanced, period, upto)


def scaled_pairing(numerators: list[int], period: int, order: int, first: int = 0) -> list[Fraction]:
    """The monomial moments as they were paired before the Horner fold: every
    N_k, k <= order, scaled to P^(order+1), each row summed against the scaled list."""
    scaled = [n * period ** (order - k) for k, n in enumerate(numerators)]
    den = period ** (order + 1)
    return [Fraction(sum(t * n for t, n in zip(row, scaled)), den) for row in reference_triangle(order)[first:]]


@st.composite
def horner_cases(draw):
    """Zero-sum pairs on a period up to 10^24, an order up to 40 and a first order up to it."""
    pairs, period = draw(zero_sum_pairs(10**24))
    order = draw(st.integers(0, 40))
    return pairs, period, order, draw(st.integers(0, order))


@settings(max_examples=80, deadline=None)
@given(horner_cases())
@example(case=([(3, 1), (3 * 10**24 - 9, -1)], 3 * 10**24 - 9, 40, 0))
@example(case=([], 1, 0, 0))
@example(case=([(1, 1), (2, 1), (3, -2)], 3, 40, 40))
def test_the_horner_fold_is_the_scaled_pairing(case):
    """Folding row m by Horner's rule in P over P^(m+1) gives the reduced
    Fraction of the pairing over P^(order+1), for every first order, and
    numerators past the order are not read."""
    pairs, period, order, first = case
    numerators = taylor_numerators(pairs, period, order + 2)
    got = _monomial_moments(numerators, period, order, first)
    want = scaled_pairing(numerators[: order + 1], period, order, first)
    assert len(got) == order + 1 - first
    for g, w in zip(got, want):
        assert type(g) is type(w) is Fraction and g == w, (pairs, period, order, first)


def test_a_moment_that_disagrees_with_zeta_is_an_internal_error(monkeypatch):
    """The integer cross-multiplied checks still fire: a zeta value one off
    in its numerator fails each route, and the message shows both values."""
    ratio = measures.zeta_neg_ratio

    def one_off(when):
        return lambda m, primes=(): (ratio(m, primes)[0] + when(primes), ratio(m, primes)[1])

    monkeypatch.setattr(measures, "zeta_neg_ratio", one_off(lambda primes: not primes))
    with pytest.raises(ArithmeticError, match=r"moment mismatch at \(a=2, r=1, m=1\): 1/4 != 0"):
        moment(2, 1, 1)
    monkeypatch.setattr(measures, "zeta_neg_ratio", one_off(bool))  # the Euler-factor forms only
    with pytest.raises(ArithmeticError, match="double moment disagrees with its closed form"):
        double_moment(3, 5, 7, 1)
    with pytest.raises(ArithmeticError, match="restricted moment routes disagree"):
        restricted_moment(3, 5, 7, 1)


def test_stirling_triangle_equals_the_forward_difference_route():
    """Every order of the triangle route equals the old difference route
    exactly, both all at once and one order alone, on the weights of Psi_r
    and on their p-unit twists."""
    weight_lists = [(xi_weights(a, r), r * a) for a in (2, 3, 4, 6, 7) for r in (1, 2, 3)]
    for a, p, q in ((2, 5, 7), (3, 5, 7), (2, 7, 11), (4, 3, 5), (6, 5, 7), (7, 3, 5)):
        weight_lists += [(sparse(unit_twisted_weights(a, r, p)), r * a * p) for r in (1, q)]
    for pairs, period in weight_lists:
        want = monomial_moments_by_differences(pairs, period, 30)
        numerators = taylor_numerators(pairs, period, 30)
        assert _monomial_moments(numerators, period, 30) == want, pairs
        for m in range(31):
            assert _monomial_moments(numerators[: m + 1], period, m, m) == [want[m]], (pairs, m)
            assert _monomial_moments(numerators, period, 30, m) == want[m:], (pairs, m)


def test_oracle_poly_arithmetic():
    p = [1, 2]  # 1 + 2t
    q = [0, 0, 3]  # 3t^2
    assert poly_mul(p, q) == [0, 0, 3, 6]
    assert len(poly_add(p, q)) == 3  # degree 2
    assert poly_derivative(p) == [2]
    assert poly_derivative([7]) == []


def test_oracle_poly_random_ring_identities():
    rng = random.Random(11)
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
        assert poly_eval(poly_add(a, b), x) == poly_eval(a, x) + poly_eval(b, x)


def test_delta_operator():
    values = delta_at_one(*psi_r_fraction(2, 1), 2)
    # delta_0 is the identity: Psi_1(1) = (1 - a) zeta(0)
    assert values[0] == moment(2, 1, 0)
    # delta_1 Psi at t=1 is the first moment
    assert values[1] == moment(2, 1, 1)
    assert values[2] == binomial_moment_expansion(2, 2)


def test_delta_operator_stability_grid():
    rng = random.Random(3)
    for _ in range(12):
        p = rng.choice([5, 7])
        P = [rng.randint(-4, 4) for _ in range(3)]
        Q = [1 + p * rng.randint(0, 2), rng.randint(0, 3), 1]
        if padic_valuation(poly_eval(Q, 1), p) != 0 or not any(P):
            continue
        for n, image in enumerate(delta_numerators(P, Q, 3)[1:], start=1):
            assert padic_valuation(poly_eval(Q, 1) ** (n + 1), p) == 0
            for c in image:
                assert padic_valuation(c, p) >= 0


def test_delta_series_route_matches_rational_route():
    values = delta_at_one(*psi_r_fraction(3, 2), 5)
    numerators = taylor_numerators(sparse(xi(n, 3, 2) for n in range(1, 7)), 6, 5)
    for k, n_k in enumerate(numerators):
        assert values[k] == Fraction(n_k, 6 ** (k + 1)), k


# a in {2, 3, 4, 6} against p in {5, 7, 11}, skipping the pairs with p | a
MOMENT_GRID = [(a, p) for a in (2, 3, 4, 6) for p in (5, 7, 11) if a % p]


def test_binomial_moments_match_expansion():
    expansions = {a: [binomial_moment_expansion(a, k) for k in range(41)] for a in (2, 3, 4, 6)}
    for a, p in MOMENT_GRID:
        assert binomial_moments(a, p, 40) == expansions[a], (a, p)


def test_binomial_moments_match_delta_operator():
    """The Taylor-at-1 division against the paper's delta operator at t = 1."""
    routes = {a: delta_at_one(*psi_r_fraction(a, 1), 40) for a in (2, 3, 4, 6)}
    for a, p in MOMENT_GRID:
        assert binomial_moments(a, p, 40) == routes[a], (a, p)


def test_binomial_moments_bounded():
    for a, p in ((2, 5), (3, 7), (2, 7)):
        for k, dk in enumerate(binomial_moments(a, p, 40)):
            assert padic_valuation(dk, p) >= 0, k


# a in {2, 3, 4, 6, 7} against p in {2, 3, 5, 7, 11} prime to it, n <= 2 with p^n <= 130
OPEN_SET_GRID = [
    (a, p, n) for a in (2, 3, 4, 6, 7) for p in (2, 3, 5, 7, 11) if a % p for n in (0, 1, 2) if p**n <= 130
]


def test_open_set_series_matches_twist_oracle():
    """The exact value of the whole series, b = 0 included, against the
    twisted-weight route and the regularized Bernoulli distribution."""
    for a, p, n in OPEN_SET_GRID:
        for digits in (0, 2, 4, 6):
            table = measure_open_set_table(a, p, n, target_digits=digits)
            assert sorted(table) == list(range(p**n)), (a, p, n)
            for b, entry in table.items():
                assert entry.certified_digits == digits + 3
                assert entry.series_sum == open_set_twist_value(a, p, n, b), (a, p, n, b)
                assert entry.series_sum == regularized_bernoulli(a, p, n, b), (a, p, n, b)


def test_open_set_whole_space():
    entry = measure_on_open_set(2, 5, 0, 0)
    d0 = (1 - Fraction(2)) * zeta_neg(0)
    assert d0 == Fraction(1, 2)
    assert entry.series_sum == d0


def test_open_set_additivity():
    for a, p in ((2, 5), (3, 7)):
        level1 = measure_open_set_table(a, p, 1, target_digits=4)
        whole = measure_on_open_set(a, p, 0, 0, target_digits=4)
        assert sum(entry.series_sum for entry in level1.values()) == whole.series_sum
        # and level 2 refines level 1
        level2 = measure_open_set_table(a, p, 2, target_digits=4)
        for b in range(p):
            refined = sum(level2[c].series_sum for c in range(p * p) if c % p == b)
            assert refined == level1[b].series_sum, (a, p, b)


def test_open_set_conjectured_floor_form_is_not_the_series_value():
    """The floor-form closed formula carries a question mark for a reason:
    it describes a differently normalized measure.  Already on the whole
    space it returns (1/a - 1)/2 while the zeroth moment is (a - 1)/2."""
    entry = measure_on_open_set(2, 5, 0, 0)
    assert entry.conjectured == Fraction(-1, 4)
    assert entry.series_sum == Fraction(1, 2)
    assert not entry.matches_conjecture(1)


def test_open_set_from_moments_uniqueness():
    # equal monomial moments => equal open-set values (binomial pairing)
    a, p = 2, 5
    route_one = binomial_moments(a, p, 30)
    route_two = [binomial_moment_expansion(a, k) for k in range(31)]
    for b in range(5):
        assert open_set_from_moments(route_one, p, 1, b) == open_set_from_moments(
            route_two, p, 1, b
        )


def fraction_fold_pairing(moments: list, p: int, n: int, b: int) -> Fraction:
    """The pairing as a plain Fraction fold, one normalised sum per term."""
    a_k = characteristic_coefficients_exact(b, n, p, len(moments) - 1)
    return sum((a_k[k] * moments[k] for k in range(len(moments))), Fraction(0))


def test_common_denominator_pairing_equals_the_fraction_fold():
    """The first pass folds every pairing's indicator coefficients afresh
    (the column table emptied before each call); the second pairs each case
    twice with the table kept, so the second call reads a stored column
    wherever the fold fits the table, and gives the same value and type."""
    cold = {}
    for a, p, n in ((2, 5, 1), (3, 5, 1), (2, 7, 1), (3, 7, 1), (2, 3, 2), (2, 5, 2), (4, 3, 1)):
        d = binomial_moments(a, p, 7 * p**n)
        for b in range(p**n):
            for moments in (d, d[: b + 1], d[:1], []):
                mahler._COLUMNS.clear()
                got = cold[a, p, n, b, len(moments)] = open_set_from_moments(moments, p, n, b)
                assert type(got) is Fraction, (a, p, n, b)
                assert got == fraction_fold_pairing(moments, p, n, b), (a, p, n, b, len(moments))
    for (a, p, n, b, length), got in cold.items():
        moments = binomial_moments(a, p, 7 * p**n)[:length]
        for _ in range(2):
            warm = open_set_from_moments(moments, p, n, b)
            assert type(warm) is Fraction and warm == got, (a, p, n, b, length)


@st.composite
def pairing_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 2))
    b = draw(st.integers(0, p**n - 1))
    entry = st.one_of(st.integers(-(10**12), 10**12), st.fractions(max_denominator=10**9))
    return draw(st.lists(entry, max_size=40)), p, n, b


@settings(max_examples=300, deadline=None)
@given(pairing_cases())
@example(case=([], 5, 1, 3))
@example(case=([Fraction(-3, 4)], 2, 0, 0))
@example(case=([7], 3, 1, 0))
def test_pairing_of_arbitrary_moments_equals_the_fraction_fold(case):
    """Mixed denominators, ints among Fractions, the empty and one-element
    lists: the common-denominator sum is the Fraction fold, type and all."""
    moments, p, n, b = case
    got = open_set_from_moments(moments, p, n, b)
    assert type(got) is Fraction
    assert got == fraction_fold_pairing(moments, p, n, b)


def test_open_set_table_matches_fraction_pairing():
    """The truncated Mahler pairing of open_set_from_moments against
    L = 7 p^n binomial moments agrees with the exact value at every
    certified digit: its dropped tail is below p^-(4 + 3)."""
    for a in (2, 3):
        for p in (5, 7):
            for n in (0, 1, 2):
                table = measure_open_set_table(a, p, n, target_digits=4, guard=3)
                d = binomial_moments(a, p, 7 * p**n)
                for b, entry in table.items():
                    pairing = open_set_from_moments(d, p, n, b)
                    v = padic_valuation(entry.series_sum - pairing, p)
                    assert v >= entry.certified_digits == 7, (a, p, n, b, v)


def test_open_set_zero_partial_sum_is_not_exact():
    # for a = 7, p = 2, n = 1 the exact value for b = 1 is 0; the value
    # keeps only the 4 + 3 certified digits, so it prints O(2^7), not 0
    entry = measure_open_set_table(7, 2, 1, target_digits=4)[1]
    assert entry.series_sum == 0
    assert entry.value == PadicNumber.zero_mod(2, 7)
    assert entry.value.to_digit_string() == "O(2^7)"


def test_measure_on_open_set_is_the_table_entry():
    table = measure_open_set_table(3, 5, 1)
    for b in range(5):
        assert measure_on_open_set(3, 5, 1, b) == table[b]
    with pytest.raises(ValueError):
        measure_on_open_set(3, 5, 1, 5)
    with pytest.raises(ValueError):
        measure_on_open_set(5, 5, 1, 0)


def test_a_and_r_are_checked_before_any_weight():
    assert xi_weights(3, 2) == ((2, 1), (4, 1), (6, -2))
    for call in (
        lambda: xi_weights(1, 1),
        lambda: psi_r_series(3, 0, 2),
        lambda: moment(-3, 1, 1),
        lambda: binomial_moments(3, 5, 2, r=-2),
        lambda: double_moment(-3, 5, 7, 1),
        lambda: restricted_moment(-3, 5, 7, 1),
        lambda: measure_on_open_set(-2, 5, 0, 0),
        lambda: measure_open_set_table(-2, 5, 1),
    ):
        with pytest.raises(ValueError, match=r"need a >= 2 and r >= 1"):
            call()


def test_open_set_closed_form_shape():
    assert open_set_closed_form(2, 5, 1, 0) == Fraction(-1, 4)
    assert open_set_closed_form(2, 5, 1, 3) == Fraction(1, 4)


def test_every_table_entry_is_the_single_entry_field_by_field():
    for a, p, n in OPEN_SET_GRID:
        for digits, guard in ((0, 3), (4, 3), (6, 0), (2, 9)):
            table = measure_open_set_table(a, p, n, digits, guard)
            assert list(table) == list(range(p**n)), (a, p, n)
            for b, entry in table.items():
                single = measure_on_open_set(a, p, n, b, digits, guard)
                for field in OpenSetMeasure.__slots__:
                    got, want = getattr(entry, field), getattr(single, field)
                    assert type(got) is type(want) and got == want and repr(got) == repr(want), (a, p, n, b, field)


@pytest.mark.parametrize("a, p, n", [(2, 5, 2), (3, 7, 2), (6, 7, 1), (4, 3, 3), (10, 3, 1), (2, 11, 0)])
def test_a_table_reduces_each_distinct_series_sum_once(a, p, n, monkeypatch):
    """A table of p^n entries makes at most a reductions and a conjectured
    values, and entries with one value share it; the table is unchanged."""
    want = {b: measure_on_open_set(a, p, n, b) for b in range(p**n)}
    calls = {"reduce": 0, "closed": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(measures, "reduce_absolute", counted("reduce", measures.reduce_absolute))
    monkeypatch.setattr(measures, "open_set_closed_form", counted("closed", measures.open_set_closed_form))
    table = measure_open_set_table(a, p, n)
    assert table == want
    assert calls["reduce"] <= min(a, p**n) and calls["closed"] <= min(a, p**n), calls
    sums = {e.series_sum: e.value for e in table.values()}
    for entry in table.values():
        assert entry.value is sums[entry.series_sum]


@pytest.mark.parametrize("p", [0, 1, 4, True, 2.0])
def test_the_pairing_checks_its_prime_first(p):
    with pytest.raises(ValueError, match=rf"^{p} is not a prime$"):
        open_set_from_moments([Fraction(1, 2), 3], p, 1, 0)


def _refusal(call):
    """The (type, message) that call raises, or None."""
    try:
        call()
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("a, p, n, digits", [
    (1, 5, 1, 4), (-2, 5, 1, 4), (0, 7, 2, 4), (5, 5, 1, 4), (10, 5, 0, 4), (2, 4, 1, 4), (2, 1, 1, 4),
    (2, True, 1, 4), (2, 5.0, 1, 4), (2, 5, -1, 4), (2, 5, 1, -1), (1, 4, -1, -1), (5, 5, 1, -1),
])
def test_the_table_and_a_single_entry_refuse_alike(a, p, n, digits):
    table = _refusal(lambda: measure_open_set_table(a, p, n, digits))
    assert table is not None and table[0] is ValueError, table
    assert _refusal(lambda: measure_on_open_set(a, p, n, 0, digits)) == table
