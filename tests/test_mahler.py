import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqzeta.gamma import morita_gamma_exact
from pqzeta.mahler import (
    _COLUMN_LIMIT,
    _COLUMNS,
    _WALK,
    InsufficientTailError,
    MahlerSeries,
    _log_floor,
    _pair,
    _representative,
    _walked,
    characteristic_coefficients_exact,
    characteristic_mahler,
    evaluate_mahler,
    mahler_coefficients,
    verify_decay,
)
from pqzeta.padics import (
    INFINITY,
    PadicNumber,
    PrecisionError,
    padic_of_rational,
    padic_reduce_abs,
    padic_valuation,
    reduce_absolute,
)


def alternating_sums(values: list) -> list:
    """The explicit a_n = sum_k (-1)^(n-k) C(n, k) v_k: the reference the
    library's forward-difference loop is checked against."""
    return [
        sum((-1) ** (n - k) * comb(n, k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    ]


def binomial_sums(coeffs: list) -> list:
    """v_m = sum_n C(m, n) a_n, the transform alternating_sums inverts."""
    return [sum(comb(m, n) * coeffs[n] for n in range(m + 1)) for m in range(len(coeffs))]


def representative(x: PadicNumber):
    return 0 if x.unit == 0 else x.unit * Fraction(x.p) ** x.valuation


def agrees(value: PadicNumber, exact) -> bool:
    """True when the exact rational has every digit that value claims."""
    if value.is_exact_zero:
        return exact == 0
    diff = Fraction(exact) - representative(value)
    return diff == 0 or padic_valuation(diff, value.p) >= value.abs_precision


def test_coefficients_constant_and_linear():
    c = mahler_coefficients([7] * 10, 9, 5, 4)
    assert c.coeffs[0].residue(4) == 7
    assert all(x.is_exact_zero for x in c.coeffs[1:])
    lin = mahler_coefficients(list(range(10)), 9, 5, 4)
    assert lin.coeffs[0].is_exact_zero
    assert lin.coeffs[1].residue(4) == 1
    assert all(x.is_exact_zero for x in lin.coeffs[2:])


def test_coefficients_of_powers_of_two():
    series = mahler_coefficients([2**k for k in range(12)], 11, 3, 5)
    assert all(c.residue(5) == 1 for c in series.coeffs)


def test_coefficients_match_alternating_sum():
    rng = random.Random(3)
    window = [Fraction(rng.randint(-30, 30)) for _ in range(14)]
    series = mahler_coefficients(window, 13, 5, 6)
    for got, want in zip(series.coeffs, alternating_sums(window)):
        if want == 0:
            assert got.is_exact_zero
        else:
            assert got == padic_of_rational(want, 5, 6) or got.residue(
                min(got.abs_precision, 6)
            ) == int(want) % 5 ** min(got.abs_precision, 6)


def test_binomial_inversion_round_trip():
    """The oracle pair inverts each other, and the library's coefficients and
    integer evaluation reproduce them on Fraction windows."""
    assert alternating_sums([1, 1, 1]) == [1, 0, 0]
    assert alternating_sums([0, 1, 2]) == [0, 1, 0]
    rng = random.Random(17)
    for _ in range(10):
        data = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(12)]
        assert binomial_sums(alternating_sums(data)) == data
        assert alternating_sums(binomial_sums(data)) == data
        series = mahler_coefficients(data, 11, 7, 5)
        assert all(agrees(c, a) for c, a in zip(series.coeffs, alternating_sums(data)))
        assert all(agrees(evaluate_mahler(series, m), data[m]) for m in range(12))


def test_difference_operator():
    square = [k * k for k in range(10)]
    coeffs = mahler_coefficients(square, 9, 5, 4).coeffs
    assert coeffs[2].residue(4) == 2
    assert all(c.is_exact_zero for c in coeffs[3:])
    # shift identity: sum_j C(m,j) a_{n+j} = D^n f(m) = sum_k (-1)^(n-k) C(n,k) f(k+m)
    rng = random.Random(23)
    f = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
    a = alternating_sums(f)
    for m in range(4):
        shifted = mahler_coefficients(f[m:], 15 - m, 5, 6).coeffs
        for n in range(4):
            lhs = sum(comb(m, j) * a[n + j] for j in range(m + 1))
            assert lhs == alternating_sums(f[m:])[n]
            assert agrees(shifted[n], lhs)


def _entries(p: int, precision: int):
    """Window entries of every kind mahler_coefficients takes."""
    units = st.integers(1, p**8).filter(lambda u: u % p)
    return st.one_of(
        st.integers(-60, 60),
        st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, p, p * p, 2 * p + 1))),
        st.just(PadicNumber.exact_zero(p)),
        st.builds(PadicNumber.zero_mod, st.just(p), st.integers(-2, precision + 2)),
        st.builds(lambda v, u, n: PadicNumber(p, v, u, n), st.integers(-2, 3), units,
                  st.integers(1, precision + 2)),
    )


@st.composite
def mixed_windows(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    precision = draw(st.integers(1, 6))
    window = draw(st.lists(_entries(p, precision), min_size=1, max_size=12))
    return p, precision, window


@settings(max_examples=100, deadline=None)
@given(mixed_windows(), st.data())
def test_coefficients_agree_with_alternating_sums_at_claimed_digits(case, data):
    """On mixed windows, coefficient n claims the least precision of entries
    0..n, and the alternating sum of any representatives of the entries
    agrees with it at every claimed digit."""
    p, precision, window = case
    series = mahler_coefficients(window, len(window) - 1, p, precision)
    exact = all(isinstance(x, (int, Fraction)) for x in window)
    known, values = INFINITY, []
    for x in window:
        if isinstance(x, PadicNumber):
            if x.is_exact_zero:
                values.append(0)
            else:
                shift = data.draw(st.integers(-(p**3), p**3))
                values.append(representative(x) + shift * Fraction(p) ** x.abs_precision)
            known = min(known, x.abs_precision)
        else:
            values.append(x)
            known = min(known, INFINITY if exact or x == 0 else precision)
        want = alternating_sums(values)[-1]
        got = series.coeffs[len(values) - 1]
        assert agrees(got, want), (values, got)
        if exact:
            assert got == padic_reduce_abs(want, p, precision)
        elif known == INFINITY:
            assert got.is_exact_zero
        else:
            assert got.abs_precision == known


@settings(max_examples=100, deadline=None)
@given(mixed_windows())
@example(case=(2, 1, [0, Fraction(1, 2), 0]))  # C(2, 1) = 2 once dropped a term worth 1
def test_evaluation_at_window_integers_gives_the_window_back(case):
    """Summing the coefficients back at m = 0..L gives entry m at every digit
    the value claims, and claims no more than entry m holds."""
    p, precision, window = case
    series = mahler_coefficients(window, len(window) - 1, p, precision)
    for m, x in enumerate(window):
        value = evaluate_mahler(series, m)
        if isinstance(x, PadicNumber):
            assert value.abs_precision <= x.abs_precision, (m, value)
            x = representative(x)
        assert agrees(value, x), (m, value)


def test_round_trip_padic_windows():
    rng = random.Random(41)
    p, N, L = 5, 6, 24
    window = [padic_of_rational(rng.randint(0, 5**N - 1), p, N) for _ in range(L + 1)]
    series = mahler_coefficients(window, L, p, N)
    for m in range(L + 1):
        val = evaluate_mahler(series, m)
        got = val.residue(min(val.abs_precision, N)) if not val.is_exact_zero else 0
        assert got == window[m].residue(min(val.abs_precision, N) if not val.is_exact_zero else N)


def pair_by_comb(series, r, top, digits=INFINITY):
    """mahler._pair as first written: math.comb for every term and v_p of
    every nonzero binomial.  The oracle the incremental pairing is checked
    against, (total, known) for (total, known), with the library's
    ``_representative`` as then, so that the total's type is the first one's."""
    p, prec = series.p, series.precision
    total, known = 0, INFINITY
    for n in range(top + 1):
        a = series.coeffs[n]
        if a.is_exact_zero:
            continue
        if n and digits != INFINITY:
            known = min(known, a.valuation + digits - _log_floor(n, p))
        c = comb(r, n)
        if c:
            known = min(known, a.abs_precision + padic_valuation(c, p), prec + a.valuation)
            total += _representative(a) * c
    return total, known


@st.composite
def mixed_series(draw):
    """A series whose coefficients mix exact zeros, inexact zeros, negative
    valuations and absolute precisions above and below the series'."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    precision = draw(st.integers(1, 6))
    units = st.integers(1, p**8).filter(lambda u: u % p)
    coefficient = st.one_of(
        st.just(PadicNumber.exact_zero(p)),
        st.builds(PadicNumber.zero_mod, st.just(p), st.integers(-2, precision + 2)),
        st.builds(lambda v, u, n: PadicNumber(p, v, u, n), st.integers(-3, 3), units,
                  st.integers(1, precision + 3)),
    )
    return MahlerSeries(p, precision, draw(st.lists(coefficient, min_size=1, max_size=30)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixed_series(), mixed_windows().map(lambda c: mahler_coefficients(c[2], len(c[2]) - 1, c[0], c[1]))),
       st.integers(0, 10**6), st.integers(1, 8))
def test_pair_equals_the_comb_pairing(series, r, digits):
    """At every integer point the pairing gives the oracle's (total, known);
    at a p-adic point r + O(p^digits) too, its residue below and above the
    window's length both."""
    top = len(series) - 1
    for m in range(top + 1):
        assert _pair(series, m, m) == pair_by_comb(series, m, m), m
    for point in (r % (top + 1), r):
        assert _pair(series, point, top, digits) == pair_by_comb(series, point, top, digits), point


def _typed(value):
    if isinstance(value, PadicNumber):
        return [_typed(getattr(value, name)) for name in PadicNumber.__slots__]
    if isinstance(value, tuple):
        return [_typed(x) for x in value]
    return type(value), value


@pytest.mark.parametrize("p, precision, coeffs", [
    # a negative valuation makes the total a Fraction, Fraction(1) at x = 3
    (3, 4, [PadicNumber(3, 0, 7, 4), PadicNumber(3, -1, 1, 4), PadicNumber(3, -2, 5, 4), PadicNumber(3, 1, 2, 3)]),
    # an inexact zero of negative valuation
    (5, 3, [PadicNumber(5, 0, 2, 3), PadicNumber.zero_mod(5, -1), PadicNumber(5, 0, 3, 3), PadicNumber(5, 2, 1, 1)]),
    # an exact zero, first and inside
    (2, 5, [PadicNumber.exact_zero(2), PadicNumber(2, 0, 3, 5), PadicNumber.exact_zero(2), PadicNumber(2, 1, 1, 4)]),
    # abs_precision 2 and 1, below the series precision 6
    (7, 6, [PadicNumber(7, 0, 10, 2), PadicNumber(7, 0, 3, 6), PadicNumber(7, 1, 1, 1), PadicNumber(7, 0, 5, 6)]),
    # all four at once
    (3, 3, [PadicNumber(3, -1, 2, 3), PadicNumber.exact_zero(3), PadicNumber.zero_mod(3, -2), PadicNumber(3, 0, 1, 1),
            PadicNumber(3, 0, 4, 3)]),
])
def test_pair_edge_cases_are_type_identical_to_the_comb_pairing(p, precision, coeffs):
    """At every integer x the pairing and the evaluation are the oracle's
    down to the type of each field: int against Fraction, int against inf.
    The evaluation runs in forward order, so it is the walk's."""
    series = MahlerSeries(p, precision, coeffs)
    for x in range(len(coeffs)):
        got, want = _pair(series, x, x), pair_by_comb(series, x, x)
        assert _typed(got) == _typed(want), x
        assert _typed(evaluate_mahler(series, x)) == _typed(_by_comb(series, x)), x
    assert _walk_length(series) == len(coeffs)


def _by_comb(series, x):
    """evaluate_mahler(series, x) at an integer from the oracle pairing, which
    reads the fields as they are now, as a fresh series of them would."""
    total, known = pair_by_comb(series, x, x)
    return PadicNumber.exact_zero(series.p) if known == INFINITY else reduce_absolute(total, series.p, known)


def _walk_length(series):
    """How many points the walk holds for series: 0 when it holds another."""
    if _WALK[:2] != [series.p, series.precision] or _WALK[2] != series.coeffs[:len(_WALK[2])]:
        return 0
    return len(_WALK[2])


def _evaluates_as_the_oracle(series, xs):
    """Each evaluation is the oracle's, field by field, and so is the walk's
    (total, known) wherever the walk then holds x."""
    for x in xs:
        assert _typed(evaluate_mahler(series, x)) == _typed(_by_comb(series, x)), x
        walked = _walked(series, x)
        if walked is not None:
            assert _typed(walked) == _typed(pair_by_comb(series, x, x)), x


@settings(max_examples=100, deadline=None)
@given(mixed_series(), st.sampled_from(("forward", "reversed", "shuffled", "repeated")), st.randoms())
def test_the_walk_gives_the_comb_pairing_in_every_order(series, order, rng):
    """Evaluated at its integers in any order, a series gives the oracle's
    value, field by field; forward and repeated orders walk the whole series."""
    xs = list(range(len(series)))
    if order == "reversed":
        xs.reverse()
    elif order == "shuffled":
        rng.shuffle(xs)
    elif order == "repeated":
        xs = [x for x in xs for _ in range(2)] + xs[::-1]
    _evaluates_as_the_oracle(series, xs)
    if order in ("forward", "repeated"):
        assert _walk_length(series) == len(series)


@settings(max_examples=50, deadline=None)
@given(mixed_series(), mixed_series())
def test_two_interleaved_series_each_give_the_comb_pairing(first, second):
    """Two series evaluated in turn, x by x, each give the oracle's values."""
    for x in range(max(len(first), len(second))):
        for series in (first, second):
            if x < len(series):
                _evaluates_as_the_oracle(series, [x])


@settings(max_examples=100, deadline=None)
@given(mixed_series(), st.sampled_from(("replace a coefficient", "reassign coeffs", "reassign precision")),
       st.data())
def test_a_series_changed_under_its_walk_gives_the_comb_pairing(series, change, data):
    """After a coefficient already read is replaced in place, or coeffs or
    precision is reassigned, every point is a fresh series' value."""
    p, top = series.p, len(series) - 1
    walked = data.draw(st.integers(0, top), label="walked to")
    _evaluates_as_the_oracle(series, range(walked + 1))
    k = data.draw(st.integers(0, walked), label="k")
    unit = data.draw(st.integers(1, p**8).filter(lambda u: u % p), label="unit")
    other = PadicNumber(p, data.draw(st.integers(-3, 3), label="v"), unit, data.draw(st.integers(1, 9), label="n"))
    if change == "replace a coefficient":
        series.coeffs[k] = other
    elif change == "reassign coeffs":
        series.coeffs = series.coeffs[:k] + [other] + series.coeffs[k + 1:]
    else:
        series.precision = data.draw(st.integers(1, 7).filter(lambda n: n != series.precision), label="precision")
    _evaluates_as_the_oracle(series, [walked, *range(top + 1), *range(top, -1, -1)])


def test_a_far_point_does_not_extend_the_walk():
    """x = 2000 on a fresh 2001-term series is one pairing: the walk keeps the
    series it held, at the length it had, and builds no table up to x; nor
    does it once it walks the new series."""
    held = MahlerSeries(5, 6, [PadicNumber(5, 1, 1 + n % 4, 6) for n in range(10)])
    _evaluates_as_the_oracle(held, range(10))
    fresh = MahlerSeries(5, 6, [PadicNumber(5, n % 3, 1 + n % 4, 6) for n in range(2001)])
    value = _by_comb(fresh, 2000)
    assert evaluate_mahler(fresh, 2000) == value
    assert _walk_length(fresh) == 0 and _walk_length(held) == 10
    _evaluates_as_the_oracle(fresh, range(5))
    assert evaluate_mahler(fresh, 2000) == value
    assert _walk_length(fresh) == 5


def test_verify_decay_linear_vacuous():
    report = verify_decay(list(range(40)), 5, 3, 1, 39)
    assert report.ok and (report.s, report.t) == (3, 1)


@pytest.mark.parametrize("s, t", [(0, 1), (-1, 1), (1, -1)])
def test_verify_decay_refuses_a_modulus_outside_its_domain(s, t):
    with pytest.raises(ValueError, match="needs s >= 1 and t >= 0"):
        verify_decay([1, 2], 5, s, t, 1)


def test_verify_decay_morita_gamma_matching_modulus():
    p = 5
    window = [morita_gamma_exact(n, p) for n in range(31)]
    report = verify_decay(window, p, 1, 1, 30)
    assert report.ok


def test_verify_decay_counterexample_path():
    # 1/(k+1) breaks p-integrality at k = p-1, so no decay certificate holds
    p = 5
    window = [Fraction(1, k + 1) for k in range(3 * p + 1)]
    report = verify_decay(window, p, 1, 1, 3 * p)
    assert not report.ok
    assert report.violation is not None
    n, sigma, v = report.violation
    assert v < sigma


def test_evaluate_linear_at_padic_point():
    p, N = 5, 6
    lin = mahler_coefficients(list(range(40)), 39, p, N)
    lin.decay = (N, 0)  # coefficients vanish beyond index 1
    x = padic_of_rational(Fraction(1, 1 - p), p, N)  # 1 + p + p^2 + ...
    val = evaluate_mahler(lin, x)
    assert val.congruent_mod(x, min(val.abs_precision, N))


def test_evaluate_integer_point_powers_of_two():
    series = mahler_coefficients([2**k for k in range(12)], 11, 3, 6)
    value = evaluate_mahler(series, 10)
    assert value.residue(6) == 1024 % 3**6


def test_evaluate_constant_series():
    series = mahler_coefficients([9] * 8, 7, 5, 4)
    series.decay = (4, 0)
    x = padic_of_rational(123, 5, 4)
    assert evaluate_mahler(series, x).residue(4) == 9


def test_evaluate_requires_certificate_or_flat_tail():
    series = mahler_coefficients([2**k for k in range(12)], 11, 3, 5)
    x = padic_of_rational(10, 3, 5)
    with pytest.raises(InsufficientTailError):
        evaluate_mahler(series, x)


def test_characteristic_series():
    # (b=0, n=0): indicator of everything
    series = characteristic_mahler(0, 0, 5, 12)
    assert series.coeffs[0].residue(1) == 1
    assert all(c.is_exact_zero for c in series.coeffs[1:])
    # (b=0, n=1, p=2): 1 at even integers, 0 at odd
    series = characteristic_mahler(0, 1, 2, 40)
    assert evaluate_mahler(series, 2).residue(2) == 1
    assert evaluate_mahler(series, 3).unit == 0 or evaluate_mahler(series, 3).is_exact_zero


def class_sums(b: int, pn: int, upto: int) -> list[int]:
    """The explicit a_k(b) = sum over j <= k with j = b mod p^n of (-1)^(k-j) C(k, j)."""
    return [sum((-1) ** (k - j) * comb(k, j) for j in range(b, k + 1, pn)) for k in range(upto + 1)]


def _stored() -> int:
    """How many integers the column table holds."""
    return sum(len(column) for columns in _COLUMNS.values() for column in columns)


def test_characteristic_coefficients_match_alternating_sum():
    """The folded Pascal recurrence against the explicit class sums for every
    b, from an empty column table and then read back warm; (3, 4) has
    p^n > upto + 1, where a row stops at class upto and every b > upto has only
    zero coefficients.  Folds of at most _COLUMN_LIMIT integers are stored and
    larger ones, from (5, 3, 64) on, are not.  Mod 2 the sums are
    a_k(c) = (-1)^(k-c) 2^(k-1) for k >= 1, since each class holds half of the
    binomials of row k, all of one sign: the folds of 4096 and 4098 integers."""
    for p, n, upto in ((2, 3, 60), (3, 2, 60), (5, 0, 60), (5, 1, 60), (5, 2, 60), (7, 2, 60), (3, 4, 60),
                       (5, 1, 35), (7, 1, 49), (5, 3, 64), (11, 2, 70), (2, 1, 2047), (2, 1, 2048)):
        pn = p**n
        if pn == 2:
            explicit = [[1 - c] + [(-1) ** (k - c) * 2 ** (k - 1) for k in range(1, upto + 1)] for c in range(2)]
            assert explicit[1][:40] == class_sums(1, 2, 39)
        else:
            explicit = [class_sums(b, pn, upto) for b in range(pn)]
        _COLUMNS.clear()
        for b in [*range(pn), *reversed(range(pn))]:
            assert characteristic_coefficients_exact(b, n, p, upto) == explicit[b], (p, n, b)
        width = min(pn, upto + 1)
        assert list(_COLUMNS) == ([(width, upto)] if width * (upto + 1) <= _COLUMN_LIMIT else []), (p, n, upto)
    upto = 60
    with pytest.raises(ValueError):
        characteristic_coefficients_exact(9, 2, 3, upto)
    with pytest.raises(ValueError, match="need a class exponent n >= 0, got n = -3"):
        characteristic_coefficients_exact(0, -3, 5, upto)


def test_a_returned_column_is_the_callers_own():
    """Changing a returned list changes no later call, warm or cold."""
    _COLUMNS.clear()
    first = characteristic_coefficients_exact(2, 1, 5, 35)
    expected = class_sums(2, 5, 35)
    assert first == expected and type(first) is list
    first[3] = 10**9
    first.append(7)
    second = characteristic_coefficients_exact(2, 1, 5, 35)
    assert second == expected and second is not first
    second.clear()
    assert characteristic_coefficients_exact(2, 1, 5, 35) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(0, 3), st.integers(0, 120), st.data()),
                min_size=1, max_size=12))
def test_the_column_table_never_holds_more_than_its_limit(calls):
    """Any sequence of calls gives the class sums, and the table holds at most
    _COLUMN_LIMIT integers after each, every fold in it whole."""
    _COLUMNS.clear()
    for p, n, upto, data in calls:
        pn = p**n
        b = data.draw(st.integers(0, pn - 1), label="b")
        assert characteristic_coefficients_exact(b, n, p, upto) == class_sums(b, pn, upto), (p, n, b, upto)
        assert _stored() <= _COLUMN_LIMIT
        assert all(len(columns) == width and {len(c) for c in columns} == {upto + 1}
                   for (width, upto), columns in _COLUMNS.items())


def test_a_fold_past_the_limit_stores_nothing():
    """The mahler-coeffs --char cap, upto = 2120 with p^n > 2121, keeps one row
    at a time: the table is left as it was."""
    _COLUMNS.clear()
    characteristic_coefficients_exact(1, 1, 5, 35)
    held = dict(_COLUMNS)
    coeffs = characteristic_coefficients_exact(3, 1, 2131, 2120)
    assert coeffs[:5] == [0, 0, 0, 1, -4] and coeffs[2120] == -comb(2120, 3)
    assert len(coeffs) == 2121 and _COLUMNS == held and _stored() == 5 * 36


def test_a_fold_that_would_pass_the_limit_clears_the_table_first():
    _COLUMNS.clear()
    characteristic_coefficients_exact(3, 2, 5, 60)
    characteristic_coefficients_exact(3, 2, 7, 40)
    assert list(_COLUMNS) == [(25, 60), (41, 40)] and _stored() == 25 * 61 + 41 * 41
    assert characteristic_coefficients_exact(1, 1, 2, 1000)[:4] == [0, 1, -2, 4]
    assert list(_COLUMNS) == [(2, 1000)] and _stored() == 2002


@pytest.mark.parametrize("warm", [False, True])
def test_indicator_refusals_and_empty_classes_read_no_table(warm):
    """b > upto returns zeros, n < 0 and b outside 0..p^n - 1 raise, in that
    order, with the messages they always had, whatever the table holds."""
    _COLUMNS.clear()
    if warm:
        for b in range(9):
            characteristic_coefficients_exact(b, 2, 3, 5)
    held = dict(_COLUMNS)
    assert characteristic_coefficients_exact(7, 2, 3, 5) == [0] * 6
    assert characteristic_coefficients_exact(3, 1, 5, 2) == [0, 0, 0]
    assert characteristic_coefficients_exact(0, 1, 5, -1) == []
    with pytest.raises(ValueError, match="need a class exponent n >= 0, got n = -1"):
        characteristic_coefficients_exact(9, -1, 3, 5)
    for b, n in ((9, 2), (-1, 2), (1, 0)):
        with pytest.raises(ValueError, match=r"need 0 <= b < p\^n"):
            characteristic_coefficients_exact(b, n, 3, 5)
    assert _COLUMNS == held


def test_characteristic_series_at_padic_points():
    """The indicator series evaluates to the indicator at p-adic points,
    0 mod p^precision off the class included."""
    rng = random.Random(11)
    for p, n, b in ((3, 1, 1), (3, 2, 4), (5, 1, 2), (5, 2, 7), (7, 1, 3)):
        pn = p**n
        series = characteristic_mahler(b, n, p, 4 * pn)
        points = [b + pn * rng.randrange(p**6) for _ in range(3)]
        points += [b + j + pn * rng.randrange(p**6) for j in range(1, pn, max(1, pn // 6))]
        for r in points:
            value = evaluate_mahler(series, padic_of_rational(r, p, 8))
            assert value.abs_precision >= 4
            assert value.residue(4) == (1 if r % pn == b else 0), (p, n, b, r)


def test_characteristic_decay_certificate():
    p, n = 5, 1
    upto = 4 * p
    series = characteristic_mahler(2, n, p, upto)
    s, t = series.decay
    assert t == n and s == upto // p**n
    # and the certified bound really holds on the exact coefficients
    from pqzeta.mahler import characteristic_coefficients_exact
    from pqzeta.padics import padic_valuation

    coeffs = characteristic_coefficients_exact(2, n, p, upto)
    for k, c in enumerate(coeffs):
        for sigma in range(1, s + 1):
            if k >= sigma * p**n and c != 0:
                assert padic_valuation(Fraction(c), p) >= sigma


def binomial_coefficient_padic(x: PadicNumber, n: int) -> PadicNumber:
    """C(x, n) for a p-adic integer x, via an integer representative.

    Well defined mod p^(A - floor(log_p n)) when x is known mod p^A (see
    ``_log_floor``); always a p-adic integer (|C(x,n)|_p <= 1).
    """
    if x.valuation < 0:
        raise ValueError("binomial symbol needs a p-adic integer")
    A = x.abs_precision
    keep = int(A - _log_floor(n, x.p))
    if keep <= 0:
        raise PrecisionError("binomial loses all tracked digits")
    return reduce_absolute(comb(x.residue(A), n), x.p, keep)


def test_binomial_symbol_bounded():
    rng = random.Random(7)
    for p in (3, 7):
        for _ in range(25):
            x = padic_of_rational(rng.randint(0, p**6 - 1), p, 6)
            n = rng.randint(0, 10)
            c = binomial_coefficient_padic(x, n)
            if not c.is_exact_zero and c.unit != 0:
                assert c.valuation >= 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 40), st.integers(1, 7), st.integers(0, 10**6))
@example(p=2, n=1, digits=1, r=0)  # C(O(2), 1) is O(2), not an exact 0
def test_binomial_symbol_agrees_at_every_representative(p, n, digits, r):
    """C(x, n) claims A - floor(log_p n) digits for x known mod p^A, and
    C(r + k p^A, n) has every one of them."""
    x = padic_reduce_abs(r % p**digits + p**digits, p, digits)
    try:
        c = binomial_coefficient_padic(x, n)
    except PrecisionError:
        assert n >= p**digits
        return
    lost, m = 0, n // p  # floor(log_p n): one digit per base-p place of n past the first
    while m:
        lost, m = lost + 1, m // p
    assert c.abs_precision == digits - lost
    for k in range(p**2):
        assert agrees(c, comb(r % p**digits + k * p**digits, n)), k


def test_padic_point_with_few_digits_claims_none_it_lacks():
    """x = 1 + O(3) stands for 4 as well, where the indicator of 4 mod 9 is
    1: no digit of the value at x is certified."""
    series = characteristic_mahler(4, 2, 3, 36)
    with pytest.raises(PrecisionError):
        evaluate_mahler(series, PadicNumber(3, 0, 1, 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2), st.integers(0, 10**6), st.integers(1, 4),
       st.integers(0, 10**6), st.integers(1, 4))
def test_indicator_at_padic_point_agrees_at_every_representative(p, n, b, scale, r, digits):
    """The value at x = r + O(p^A) agrees, at every digit it claims, with the
    indicator at every representative r + k p^A."""
    pn = p**n
    b %= pn
    series = characteristic_mahler(b, n, p, scale * pn * p)
    x = padic_reduce_abs(r % p**digits + p**digits, p, digits)
    try:
        value = evaluate_mahler(series, x)
    except PrecisionError:
        return
    for k in range(pn * p):
        y = r % p**digits + k * p**digits
        assert agrees(value, 1 if y % pn == b else 0), (y, value)
        assert value.congruent_mod(evaluate_mahler(series, padic_of_rational(y, p, 12)),
                                   value.abs_precision)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(2, 8), st.integers(0, 10**6), st.integers(1, 6))
def test_polynomial_at_padic_point_agrees_at_every_representative(p, poly, precision, r, digits):
    """A polynomial of degree d has a_n = 0 for n > d, so the certificate
    (precision, t) with p^t > d holds; its value at x = r + O(p^A) agrees
    with the polynomial at every representative r + k p^A."""
    def f(k):
        return sum(c * k**i for i, c in enumerate(poly))

    t = 0
    while p**t < len(poly):
        t += 1
    upto = precision * p**t
    series = mahler_coefficients([f(k) for k in range(upto + 1)], upto, p, precision)
    series.decay = (precision, t)
    x = padic_reduce_abs(r % p**digits + p**digits, p, digits)
    try:
        value = evaluate_mahler(series, x)
    except PrecisionError:
        assert digits <= len(poly) - 1
        return
    for k in range(p**3):
        assert agrees(value, f(r % p**digits + k * p**digits)), k


def test_ultrametric_tail_bound():
    # dropping certified-tail terms moves the value by at most the tail norm
    p, N = 5, 4
    upto = 5 * p
    series = characteristic_mahler(2, 1, p, upto)
    x = padic_of_rational(7, p, N)
    full = evaluate_mahler(series, x)
    shorter = MahlerSeries(
        p=p, precision=series.precision, coeffs=series.coeffs[: 3 * p + 1], decay=(3, 1)
    )
    part = evaluate_mahler(shorter, x)
    sigma = shorter.tail_bound_exponent()
    assert full.congruent_mod(part, min(sigma, part.abs_precision, full.abs_precision))


def test_series_serialization_round_trip():
    rng = random.Random(13)
    p, N = 7, 5
    window = [rng.randint(0, 7**N - 1) for k in range(15)]
    series = mahler_coefficients(window, 14, p, N)
    text = series.serialize()
    back = MahlerSeries.deserialize(text)
    assert back.p == p and back.precision == N
    assert len(back.coeffs) == len(series.coeffs)
    for x, y in zip(series.coeffs, back.coeffs):
        assert x == y
    assert back.serialize() == text


def test_serialization_keeps_coefficient_precision():
    # coefficients known mod 5^2 in a series of precision 6 say so in a
    # fourth field, and come back known mod 5^2, not 5^6
    series = mahler_coefficients([PadicNumber(5, 0, 1, 2), PadicNumber(5, 0, 3, 2)], 1, 5, 6)
    text = series.serialize()
    assert text == "5 6 2\n0 0 1 2\n1 0 2 2\n"
    back = MahlerSeries.deserialize(text)
    assert back.coeffs == series.coeffs
    assert [c.abs_precision for c in back.coeffs] == [2, 2]
    assert back.serialize() == text
    # an exact window keeps its three-field lines
    assert mahler_coefficients([1, 4], 1, 5, 6).serialize() == "5 6 2\n0 0 1\n1 0 3\n"
    for bad in ("5 6 1\n0 0 0 2\n", "5 6 1\n0 0 1 2 2\n", "5 6 1\n0 2 1 2\n"):
        with pytest.raises(ValueError):
            MahlerSeries.deserialize(bad)


def test_deserialize_reads_exponents_up_to_the_printable_power():
    # 2^14284 has 4300 digits and 2^14285 has 4301, as mahler-coeffs --precision caps them
    assert MahlerSeries.deserialize("2 14284 1\n0 -14284 1\n").coeffs == [PadicNumber(2, -14284, 1, 28568)]
    for text, name in (("2 14285 1\n0 0 1\n", "the header: the precision"),
                       ("2 6 1\n0 -14285 1\n", "coefficient line 0: the valuation"),
                       ("2 6 1\n0 14285 0\n", "coefficient line 0: the valuation"),
                       ("2 6 1\n0 0 1 14285\n", "coefficient line 0: the abs precision")):
        with pytest.raises(ValueError, match=f"^{name} makes a power of 2 of more than 4300 digits$"):
            MahlerSeries.deserialize(text)


def test_zero_mod_serialization():
    series = MahlerSeries(
        p=5, precision=3, coeffs=[PadicNumber.zero_mod(5, 3), padic_of_rational(2, 5, 3)]
    )
    back = MahlerSeries.deserialize(series.serialize())
    assert back.coeffs[0].unit == 0 and back.coeffs[0].valuation == 3
    assert back.coeffs[1] == series.coeffs[1]


def test_every_mahler_entry_refuses_a_composite_prime():
    """mahler_coefficients, evaluate_mahler and characteristic_mahler check
    the prime once at entry, so no window, series or point gets past it,
    not even one whose value is exactly 0."""
    four = PadicNumber(4, 0, 1, 3)
    windows = ([1, 2, 3], [0, 0, 0], [1, four, Fraction(1, 2)], [0, four, 0], [four] * 3,
               [PadicNumber.exact_zero(4)] * 3)
    for window in windows:
        with pytest.raises(ValueError, match="4 is not a prime"):
            mahler_coefficients(window, 2, 4, 3)
    for coeffs in ([four] * 2, [PadicNumber.exact_zero(4)] * 2, [PadicNumber.zero_mod(4, 3), four]):
        series = MahlerSeries(4, 3, coeffs, decay=(2, 1))
        for x in (0, 1, four, PadicNumber(4, 1, 1, 2)):
            with pytest.raises(ValueError, match="4 is not a prime"):
                evaluate_mahler(series, x)
    for b, n in ((0, 0), (1, 1), (5, 2)):
        with pytest.raises(ValueError, match="4 is not a prime"):
            characteristic_mahler(b, n, 4, 8)


def test_a_composite_prime_is_refused_after_a_walk_at_a_prime():
    """A walk is begun only at a checked prime, so a series built directly
    with a composite p still raises at 0, 1 and 5 after a prime series has
    been walked there, and the prime series' walk is left as it was."""
    prime = MahlerSeries(5, 4, [PadicNumber(5, 0, 1 + k % 4, 4) for k in range(8)])
    values = [evaluate_mahler(prime, x) for x in range(8)]
    assert _walk_length(prime) == 8
    for coeffs in ([PadicNumber(4, 0, 1, 4)] * 8, [PadicNumber(4, 0, 1 + k % 3, 4) for k in range(8)]):
        composite = MahlerSeries(4, 4, coeffs)
        for x in (0, 1, 5, 0):
            with pytest.raises(ValueError, match="4 is not a prime"):
                evaluate_mahler(composite, x)
        assert _walk_length(prime) == 8
    assert [evaluate_mahler(prime, x) for x in range(8)] == values
