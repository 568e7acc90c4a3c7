import random
from fractions import Fraction
from math import comb

import pytest

from pqzeta.gamma import morita_gamma_exact
from pqzeta.mahler import (
    InsufficientTailError,
    MahlerSeries,
    binomial_coefficient_padic,
    binomial_inversion,
    characteristic_coefficients_exact,
    characteristic_mahler,
    characteristic_rows,
    difference_operator,
    evaluate_mahler,
    forward_binomial_sum,
    mahler_coefficients,
    verify_decay,
)
from pqzeta.padics import PadicNumber, padic_of_rational


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
    direct = binomial_inversion(window)
    for got, want in zip(series.coeffs, direct):
        if want == 0:
            assert got.is_exact_zero
        else:
            assert got == padic_of_rational(want, 5, 6) or got.residue(
                min(got.abs_precision, 6)
            ) == int(want) % 5 ** min(got.abs_precision, 6)


def test_binomial_inversion_round_trip():
    assert binomial_inversion([1, 1, 1]) == [1, 0, 0]
    assert binomial_inversion([0, 1, 2]) == [0, 1, 0]
    rng = random.Random(17)
    for _ in range(10):
        data = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(12)]
        assert forward_binomial_sum(binomial_inversion(data)) == data
        assert binomial_inversion(forward_binomial_sum(data)) == data


def test_difference_operator():
    square = [k * k for k in range(10)]
    assert difference_operator(square, 2, 0) == 2
    assert difference_operator(square, 0, 4) == 16
    # shift identity: sum_j C(m,j) a_{n+j} = sum_k (-1)^(n-k) C(n,k) f(k+m)
    from math import comb

    rng = random.Random(23)
    f = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
    a = binomial_inversion(f)
    for n in range(4):
        for m in range(4):
            lhs = sum(comb(m, j) * a[n + j] for j in range(m + 1))
            rhs = sum(
                (-1) ** (n - k) * comb(n, k) * f[k + m] for k in range(n + 1)
            )
            assert lhs == rhs


def test_round_trip_padic_windows():
    rng = random.Random(41)
    p, N, L = 5, 6, 24
    window = [padic_of_rational(rng.randint(0, 5**N - 1), p, N) for _ in range(L + 1)]
    series = mahler_coefficients(window, L, p, N)
    for m in range(L + 1):
        val = evaluate_mahler(series, m)
        got = val.residue(min(val.abs_precision, N)) if not val.is_exact_zero else 0
        assert got == window[m].residue(min(val.abs_precision, N) if not val.is_exact_zero else N)


def test_verify_decay_linear_vacuous():
    report = verify_decay(list(range(40)), 5, 3, 1, 39)
    assert report.ok and report.certificate == (3, 1)


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


def test_characteristic_coefficients_match_alternating_sum():
    """The folded Pascal recurrence against the explicit class sums; (3, 4)
    has p^n > upto + 1, where a row stops at b = upto."""
    upto = 60
    for p, n in ((2, 3), (3, 2), (5, 0), (5, 1), (5, 2), (7, 2), (3, 4)):
        pn = p**n
        rows = list(characteristic_rows(p, n, upto))
        assert len(rows) == upto + 1
        for b in range(pn):
            explicit = [
                sum((-1) ** (k - j) * comb(k, j) for j in range(b, k + 1, pn))
                for k in range(upto + 1)
            ]
            assert characteristic_coefficients_exact(b, n, p, upto) == explicit, (p, n, b)
            if b < len(rows[0]):
                assert [row[b] for row in rows] == explicit, (p, n, b)
    with pytest.raises(ValueError):
        characteristic_coefficients_exact(9, 2, 3, upto)


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


def test_binomial_symbol_bounded():
    rng = random.Random(7)
    for p in (3, 7):
        for _ in range(25):
            x = padic_of_rational(rng.randint(0, p**6 - 1), p, 6)
            n = rng.randint(0, 10)
            c = binomial_coefficient_padic(x, n)
            if not c.is_exact_zero and c.unit != 0:
                assert c.valuation >= 0


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


def test_zero_mod_serialization():
    series = MahlerSeries(
        p=5, precision=3, coeffs=[PadicNumber.zero_mod(5, 3), padic_of_rational(2, 5, 3)]
    )
    back = MahlerSeries.deserialize(series.serialize())
    assert back.coeffs[0].unit == 0 and back.coeffs[0].valuation == 3
    assert back.coeffs[1] == series.coeffs[1]
