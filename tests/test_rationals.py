from fractions import Fraction
from math import ceil, comb, lcm, log2

import pytest

from pqzeta import rationals
from pqzeta.padics import is_prime
from pqzeta.rationals import (
    BernoulliTable,
    bernoulli,
    bernoulli_polynomial,
    bernoulli_polynomial_ratio,
    binomial,
    rising_factorial,
    zeta_neg,
    zeta_neg_ratio,
)


def test_binomial_basics():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 9) == 0
    assert binomial(4, -1) == 0


def test_pascal_identity():
    for n in range(1, 25):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    for k in range(3, 40, 2):
        assert bernoulli(k) == 0


def test_bernoulli_recurrence_closure():
    for m in range(1, 60):
        total = sum(binomial(m + 1, j) * bernoulli(j) for j in range(m + 1))
        assert total == 0


def test_bernoulli_cache_determinism():
    # the shared table behind bernoulli() and a fresh one agree
    assert [bernoulli(k) for k in range(81)] == BernoulliTable().values(80)


def _recurrence_bernoulli(upto):
    """B_0..B_upto by the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0,
    in Fractions: the reference the tangent-number table must reproduce."""
    vals = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum(comb(m + 1, j) * vals[j] for j in range(m) if vals[j])
        vals.append(-acc / (m + 1))
    return vals


def test_bernoulli_table_matches_recurrence():
    assert BernoulliTable().values(300) == _recurrence_bernoulli(300)


def test_bernoulli_table_matches_sympy():
    sympy = pytest.importorskip("sympy")
    expected = [Fraction(int(b.p), int(b.q)) for b in map(sympy.bernoulli, range(1001))]
    expected[1] = Fraction(-1, 2)  # sympy uses B_1 = +1/2
    assert BernoulliTable().values(1000) == expected


def test_bernoulli_sequential_reads_rebuild_logarithmically():
    table = BernoulliTable()
    rebuilds, seen = 0, table.max_index
    for k in range(1001):
        table.get(k)
        if table.max_index != seen:
            rebuilds, seen = rebuilds + 1, table.max_index
    assert rebuilds <= ceil(log2(1000)) + 2


@pytest.mark.parametrize("upto", [0, 1, 2, 3])
def test_bernoulli_values_small(upto):
    got = BernoulliTable().values(upto)
    assert got == [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0)][: upto + 1]


def test_bernoulli_extend_steps_match_fresh_table():
    table = BernoulliTable()
    for upto in (7, 8, 100, 513):
        table.extend(upto)
    assert table.values(513) == BernoulliTable().values(513)


def test_odd_reads_past_the_table_build_nothing():
    built = BernoulliTable().values(1300)
    table = BernoulliTable()
    table.values(10)
    for k in (11, 13, 99, 1201, 1299):
        assert table.get(k) == built[k] == 0
        assert table.max_index == 10
    assert BernoulliTable().get(1) == Fraction(-1, 2)
    assert [table.get(k) for k in range(1301)] == built


def _trial_division_denominator(n):
    """Product of the primes p with (p - 1) | n, for even n >= 2, by trial
    division of n: the per-index reference for the sieve."""
    den = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            for e in {d, n // d}:
                if is_prime(e + 1):
                    den *= e + 1
        d += 1
    return den


def test_the_sieve_matches_trial_division():
    dens = rationals._staudt_clausen_denominators(2048)
    assert dens == [1] + [_trial_division_denominator(2 * k) for k in range(1, 2049)]
    assert rationals._staudt_clausen_denominators(0) == [1]


def test_bernoulli_denominator_mismatch_raises(monkeypatch):
    monkeypatch.setattr(rationals, "_staudt_clausen_denominators", lambda half: [1] * (half + 1))
    with pytest.raises(ArithmeticError, match="von Staudt-Clausen"):
        BernoulliTable().values(2)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 10, 49, 50])
def test_a_wrong_tangent_number_fails_von_staudt_clausen(monkeypatch, k):
    tangent_numbers = rationals._tangent_numbers

    def mutant(half):
        T = tangent_numbers(half)
        T[k] += 1
        return T

    monkeypatch.setattr(rationals, "_tangent_numbers", mutant)
    with pytest.raises(ArithmeticError, match=f"B_{2 * k} = .* fails von Staudt-Clausen"):
        BernoulliTable().values(100)


def test_bernoulli_polynomial_values():
    assert bernoulli_polynomial(0) == [Fraction(1)]
    assert bernoulli_polynomial(1) == [Fraction(-1, 2), Fraction(1)]
    assert bernoulli_polynomial(2) == [Fraction(1, 6), Fraction(-1), Fraction(1)]
    for k in range(12):
        coeffs = bernoulli_polynomial(k)
        assert coeffs[0] == bernoulli(k)
        at_one = sum(coeffs)
        if k == 1:
            assert at_one == Fraction(1, 2)
        else:
            assert at_one == bernoulli(k)


def test_bernoulli_polynomial_ratio_is_the_coefficient_list_over_the_lcm():
    for k in range(81):
        numerators, den = bernoulli_polynomial_ratio(k)
        assert den == lcm(*(bernoulli(j).denominator for j in range(k + 1))), k
        want = [comb(k, j) * bernoulli(j) for j in range(k, -1, -1)]
        assert [Fraction(c, den) for c in numerators] == want == bernoulli_polynomial(k), k
    with pytest.raises(ValueError):
        bernoulli_polynomial_ratio(-1)


def test_zeta_neg_ratio_is_the_unreduced_pair():
    for primes in ((), (5,), (5, 7)):
        for m in range(60):
            num, den = zeta_neg_ratio(m, primes)
            b = bernoulli(m + 1)
            assert den == b.denominator * (m + 1) and Fraction(num, den) == zeta_neg(m, primes), (m, primes)
    with pytest.raises(ValueError, match="m >= 0"):
        zeta_neg_ratio(-1)


def test_zeta_neg_values():
    assert zeta_neg(0) == Fraction(-1, 2)
    assert zeta_neg(1) == Fraction(-1, 12)
    assert zeta_neg(2) == 0
    for k in range(2, 30):
        assert -bernoulli(k) / k == zeta_neg(k - 1)
    with pytest.raises(ValueError):
        zeta_neg(-1)
    assert zeta_neg(2) == 0


@pytest.mark.parametrize("primes", [(), (5,), (7,), (5, 7), (7, 13)])
def test_zeta_neg_removes_the_euler_factors(primes):
    """zeta_neg(m, primes) against the Fraction-power formulas it replaced:
    the one-prime value -(1 - p^m) B_(m+1)/(m+1), the two-prime value
    (1 - p^m)(1 - q^m)(-B_(m+1)/(m+1)) (0 at m = 0, where both factors
    vanish), and the moment closed forms (1 - a^(m+1)) prod (1 - l^m) zeta(-m)."""
    for m in range(301):
        got = zeta_neg(m, primes)
        b = bernoulli(m + 1)
        plain = Fraction((-1) ** m) * b / (m + 1)
        if not primes:
            want = plain
        elif len(primes) == 1:
            want = -(1 - Fraction(primes[0]) ** m) * b / (m + 1)
        elif m == 0:
            want = Fraction(0)
        else:
            p, q = primes
            want = (1 - Fraction(p) ** m) * (1 - Fraction(q) ** m) * (-b / (m + 1))
        assert got == want, (m, primes)
        euler = Fraction(1)
        for ell in primes:
            euler *= 1 - Fraction(ell) ** m
        for a in (2, 3):
            closed = (1 - Fraction(a) ** (m + 1)) * euler * plain
            assert (1 - a ** (m + 1)) * got == closed, (m, primes, a)


def test_rising_factorial():
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(Fraction(22, 7), 0) == 1
    assert rising_factorial(3, 3) == 60
