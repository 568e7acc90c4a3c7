import math
import random
from fractions import Fraction

import pytest

from pqzeta import padics
from pqzeta.padics import (
    PadicNumber,
    PrecisionError,
    _teichmuller_unit,
    angle_bracket,
    crt_pair,
    double_teichmuller,
    factored_numerator,
    ideal_shadow,
    is_prime,
    padic_of_rational,
    padic_reduce_abs,
    padic_valuation,
    reduce_absolute,
    reduce_relative,
    require_primes,
    require_tolerance,
    teichmuller,
)
from pqzeta.rationals import zeta_neg_ratio


@pytest.mark.parametrize("precision", [2.5, math.inf, -math.inf, math.nan, "3"])
def test_both_public_reductions_refuse_a_precision_that_is_not_an_int(precision):
    for reduce in (padic_of_rational, padic_reduce_abs):
        with pytest.raises(ValueError, match="precision must be an int"):
            reduce(3, 5, precision)


def test_an_absolute_precision_may_be_negative():
    assert padic_reduce_abs(Fraction(3, 25), 5, -1) == PadicNumber(5, -2, 3, 1)


def test_of_rational_examples():
    x = padic_of_rational(Fraction(1, 3), 5, 3)
    assert (x.valuation, x.unit) == (0, 42)  # 3 * 42 = 126 = 1 mod 125
    zero = padic_of_rational(0, 7, 4)
    assert zero.is_exact_zero
    y = padic_of_rational(50, 5, 2)
    assert (y.valuation, y.unit) == (2, 2)


def test_norm():
    assert padic_of_rational(50, 5, 2).norm() == Fraction(1, 25)
    assert padic_of_rational(0, 5, 2).norm() == 0
    assert padic_of_rational(Fraction(1, 3), 3, 2).norm() == 3


def test_digits():
    x = padic_of_rational(Fraction(1, 3), 5, 3)
    assert x.digits(3) == [2, 3, 1]
    assert padic_of_rational(7, 5, 2).digits(2) == [2, 1]
    assert padic_of_rational(0, 5, 4).digits(3) == [0, 0, 0]
    with pytest.raises(PrecisionError):
        padic_of_rational(7, 5, 2).digits(9)


def test_ring_homomorphism_against_exact_arithmetic():
    rng = random.Random(5)
    for p in (3, 5, 7):
        N = 6
        mod = p**N
        for _ in range(40):
            a = Fraction(rng.randint(-200, 200), rng.choice([1, 2, 3, 7, 11]))
            b = Fraction(rng.randint(-200, 200), rng.choice([1, 2, 3, 7, 11]))
            if a.denominator % p == 0 or b.denominator % p == 0:
                continue
            xa, xb = padic_of_rational(a, p, N), padic_of_rational(b, p, N)
            for op, exact in (("add", a + b), ("mul", a * b)):
                got = xa + xb if op == "add" else xa * xb
                want = padic_reduce_abs(exact, p, min(got.abs_precision, N))
                if got.unit == 0 or want.unit == 0 or got.is_exact_zero or want.is_exact_zero:
                    continue
                keep = min(got.abs_precision, want.abs_precision, N)
                assert got.residue(keep) == want.residue(keep)


def test_subtraction_cancellation_is_tracked():
    p, N = 5, 4
    x = padic_of_rational(1 + 5**3, p, N)
    y = padic_of_rational(1, p, N)
    d = x - y
    assert (d.valuation, d.unit) == (3, 1)
    assert d.precision == 1  # only one digit of the difference survives
    z = x - x
    assert z.unit == 0 and z.valuation == N  # inexact zero mod p^4


def test_ultrametric_norm():
    rng = random.Random(9)
    p = 5
    for _ in range(60):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        if a == 0 or b == 0 or a + b == 0:
            continue
        xa, xb = padic_of_rational(a, p, 8), padic_of_rational(b, p, 8)
        s = xa + xb
        if s.unit == 0:
            continue
        assert s.norm() <= max(xa.norm(), xb.norm())
        if xa.norm() != xb.norm():
            assert s.norm() == max(xa.norm(), xb.norm())
        prod = xa * xb
        assert prod.norm() == xa.norm() * xb.norm()


def test_sum_of_inexact_zeros_is_inexact_zero():
    z = PadicNumber.zero_mod(5, 3) + PadicNumber.zero_mod(5, 3)
    assert z.unit == 0 and z.valuation == 3  # O(5^3)
    # any term of valuation >= 3 added to O(5^3) leaves only O(5^3)
    w = PadicNumber.zero_mod(5, 3) + padic_of_rational(250, 5, 2)
    assert w.unit == 0 and w.valuation == 3


def test_division_rules():
    p = 5
    x = padic_of_rational(7, p, 4)
    u = padic_of_rational(3, p, 4)
    assert (x / u * u).residue(4) == x.residue(4)
    nonunit = padic_of_rational(10, p, 4)
    with pytest.raises(PrecisionError):
        x / nonunit
    with pytest.raises(ZeroDivisionError):
        x / padic_of_rational(0, p, 4)


def test_teichmuller_examples():
    assert teichmuller(1, 5, 3).unit == 1
    w = teichmuller(2, 5, 3)
    assert w.unit == 57
    assert pow(57, 4, 125) == 1
    v = teichmuller(2, 3, 4)
    assert v.unit == 80  # i.e. -1 mod 81
    with pytest.raises(ValueError):
        teichmuller(10, 5, 3)
    with pytest.raises(ValueError):
        teichmuller(2, 5, 0)


def test_teichmuller_characterization():
    for p in (3, 5, 7, 11):
        N = 4
        for n in range(1, 25):
            if n % p == 0:
                continue
            w = teichmuller(n, p, N)
            assert w.unit % p == n % p
            assert pow(w.unit, p - 1, p**N) == 1
    # fixed on roots of unity already present
    assert teichmuller(pow(2, 4, 125) and 57, 5, 3).unit == 57


def test_crt_pair():
    assert crt_pair(2, 9, 3, 25) == 128
    assert crt_pair(0, 9, 0, 25) == 0
    assert crt_pair(1, 9, 1, 25) == 1
    with pytest.raises(ValueError):
        crt_pair(1, 10, 1, 4)


def test_double_teichmuller():
    assert double_teichmuller(1, 3, 5, 2, 2) == 1
    x = double_teichmuller(2, 3, 5, 2, 2)
    assert x == 107
    assert pow(107, 2, 9) == 1 and pow(107, 4, 25) == 1
    assert double_teichmuller(4, 3, 5, 1, 1) == 4
    for n, p, q in ((7, 3, 5), (8, 5, 7), (11, 5, 7)):
        w = double_teichmuller(n, p, q, 3, 3)
        assert w % p == n % p and w % q == n % q
        assert pow(w, p - 1, p**3) == 1 and pow(w, q - 1, q**3) == 1
    with pytest.raises(ValueError):
        double_teichmuller(6, 3, 5, 2, 2)


def test_double_teichmuller_reduces_to_single():
    for n in (2, 7, 11, 13):
        for p, q, M, L in ((3, 5, 3, 2), (5, 7, 2, 3)):
            if n % p == 0 or n % q == 0:
                continue
            w = double_teichmuller(n, p, q, M, L)
            assert w % p**M == teichmuller(n, p, M).unit
            assert w % q**L == teichmuller(n, q, L).unit


def test_angle_bracket():
    bp, bq = angle_bracket(1, 3, 5, 2, 2)
    assert bp.unit == 1 and bq.unit == 1
    bp, bq = angle_bracket(2, 3, 5, 2, 2)
    assert bp.unit % 3 == 1 and bq.unit % 5 == 1
    bp, bq = angle_bracket(7, 3, 5, 1, 1)
    assert bp.unit == 1 and bq.unit == 1


def test_ideal_shadow():
    assert ideal_shadow(12, 2) == 2
    assert ideal_shadow(7, 5) == 0
    assert ideal_shadow(125, 5) == 3


def test_text_round_trips():
    # the two text forms are output only; pin what each renders
    cases = [
        (padic_of_rational(Fraction(1, 3), 5, 3), "(0, 42, 3)", "2 + 3*5 + 1*5^2 + O(5^3)"),
        (padic_of_rational(50, 5, 4), "(2, 2, 4)", "2*5^2 + O(5^6)"),
        (padic_of_rational(Fraction(7, 5), 5, 3), "(-1, 7, 3)", "2*5^-1 + 1 + O(5^2)"),
        (padic_of_rational(0, 5, 3), "(inf, 0, inf)", "0"),
        (PadicNumber.zero_mod(5, 4), "(4, 0, 0)", "O(5^4)"),
    ]
    for x, triple, digits in cases:
        assert x.to_triple_string() == triple
        assert x.to_digit_string() == digits


def test_digit_string_format():
    x = padic_of_rational(Fraction(1, 3), 5, 3)
    assert x.to_digit_string() == "2 + 3*5 + 1*5^2 + O(5^3)"
    y = padic_of_rational(Fraction(7, 5), 5, 2)
    assert y.to_digit_string() == "2*5^-1 + 1 + O(5^1)"
    assert padic_of_rational(0, 3, 2).to_digit_string() == "0"


def test_valuation_helper():
    assert padic_valuation(Fraction(50), 5) == 2
    assert padic_valuation(Fraction(1, 25), 5) == -2
    assert padic_valuation(Fraction(0), 5) > 10**6


def test_is_prime():
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # only an int is prime, whatever value it compares equal to
    assert not is_prime(2.5)
    assert not is_prime(7.0)
    assert not is_prime(Fraction(7, 2))


def test_is_prime_matches_sympy():
    # trial division below 10^5, the strong probable-prime test above it
    sympy = pytest.importorskip("sympy")
    isprime = sympy.isprime
    assert [n for n in range(-3, 200_000) if is_prime(n)] == [n for n in range(-3, 200_000) if isprime(n)]
    rng = random.Random(41)
    draws = [rng.randrange(10**5, padics.PSI_13) for _ in range(200)]
    for n in draws + [sympy.nextprime(n) for n in draws] + [padics.PSI_13 - 1, 2**61 - 1, 2**64 + 1]:
        assert is_prime(n) == isprime(n), n


def test_is_prime_is_decided_only_below_psi_13():
    # psi_12 passes the test to the bases 2..37, and 3215031751 to 2, 3, 5 and 7
    assert padics.PSI_13 == 3317044064679887385961981
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3215031751)
    assert is_prime(10**23 + 117)  # a 24-digit prime
    # from psi_13 up no n is called composite, not even an even one
    for n in (padics.PSI_13, padics.PSI_13 + 1, 10**30 + 57):
        with pytest.raises(ValueError, match=f"cannot decide whether {n} is a prime: the primality "
                                             f"test is proven only below {padics.PSI_13}"):
            is_prime(n)


def test_require_primes_messages():
    require_primes()
    require_primes(2)
    require_primes(2, 3, 5, 7)
    for args, message in (
        ((4,), "4 is not a prime"),
        ((7.0,), "7.0 is not a prime"),
        ((Fraction(5, 2),), "5/2 is not a prime"),
        ((5, 9), "9 is not a prime"),
        ((4, 4), "4 is not a prime"),
        ((5, 5), "the primes must be distinct, got 5, 5"),
        ((2, 3, 2), "the primes must be distinct, got 2, 3, 2"),
    ):
        with pytest.raises(ValueError) as info:
            require_primes(*args)
        assert str(info.value) == message, args


# -- the kernels against the formulas they replaced ---------------------------


def lift_by_power(n, p, N):
    """The Teichmuller lift as one modular power, n^(p^(N-1)) mod p^N: the
    oracle the Newton lift is checked against."""
    return pow(n, p ** (N - 1), p**N)


def bracket_by_crt(b, p, q, Np, Nq):
    """<b> as first computed: the two lifts CRT-ed into one integer, that
    integer reduced mod p^Np and q^Nq, and b divided by each part."""
    mp, mq = p**Np, q**Nq
    w = crt_pair(lift_by_power(b, p, Np), mp, lift_by_power(b, q, Nq), mq)
    return b * pow(w % mp, -1, mp) % mp, b * pow(w % mq, -1, mq) % mq


def of_rational_by_fraction(x, p, N):
    """padic_of_rational as first written, through ``Fraction``."""
    x = Fraction(x)
    if x == 0:
        return PadicNumber.exact_zero(p)
    v = padic_valuation(x, p)
    scaled = x / Fraction(p) ** v
    mod = p**N
    return PadicNumber(p, v, scaled.numerator * pow(scaled.denominator, -1, mod) % mod, N)


def test_newton_lift_equals_one_modular_power():
    for p in (2, 3, 5, 7, 11, 13, 101):
        for N in range(1, 31):
            for n in range(1, min(p * p, 200)):
                if n % p:
                    assert teichmuller(n, p, N) == PadicNumber(p, 0, lift_by_power(n, p, N), N), (n, p, N)
    # negative and large arguments land in the class of n mod p
    for n in (-1, -7, -(10**6) - 3, 10**12 + 1):
        for p in (2, 3, 5, 101):
            if n % p:
                assert teichmuller(n, p, 17).unit == lift_by_power(n, p, 17)


TABLE_PRIMES = (2, 3, 5, 7, 101)


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_root_table_serves_any_order_of_precisions(order, monkeypatch):
    monkeypatch.setattr(padics, "_ROOTS", {})
    precisions = list(range(1, 41))
    if order == "descending":
        precisions.reverse()
    elif order == "interleaved":
        random.Random(31).shuffle(precisions)
    # several n per class, negative and large ones too: one entry per class
    args = {p: [n for n in (*range(-2 * p, 2 * p + 1), -(10**6) - 1, 10**12 + 3) if n % p][:40]
            for p in TABLE_PRIMES}
    for N in precisions:
        for p, ns in args.items():
            for n in ns:
                assert _teichmuller_unit(n, p, N) == lift_by_power(n, p, N), (order, n, p, N)
    for p, ns in args.items():
        classes = {n % p for n in ns}
        assert {r for q, r in padics._ROOTS if q == p} == classes
        assert len(classes) <= p - 1
        assert all(padics._ROOTS[p, r][0] == 40 for r in classes)


def test_refused_lifts_leave_the_root_table_unchanged(monkeypatch):
    monkeypatch.setattr(padics, "_ROOTS", {})
    teichmuller(2, 5, 6)
    before = dict(padics._ROOTS)
    for args in ((10, 5, 8), (2, 5, 0), (2, 5, -3), (2, 9, 8), (3, 1, 4)):
        with pytest.raises(ValueError):
            teichmuller(*args)
    for args in ((2.0, 5, 8), (2, 5, 8.0), (Fraction(2), 5, 3)):
        with pytest.raises(TypeError):
            teichmuller(*args)
    assert padics._ROOTS == before


def test_a_wrong_stored_root_fails_the_fixed_point_check(monkeypatch):
    # a root wrong mod p^2 but in the right class: Newton from it gains too few
    # digits to reach p^4 or p^8, and the check on the new lift catches it
    for p in (3, 5, 7, 101):
        for N in (4, 8):
            wrong = {(p, 2): (2, (lift_by_power(2, p, 2) + 2 * p) % p**2)}
            monkeypatch.setattr(padics, "_ROOTS", dict(wrong))
            with pytest.raises(ArithmeticError, match="fixed point"):
                teichmuller(2, p, N)
            assert padics._ROOTS == wrong


def test_angle_bracket_equals_crt_and_inverse():
    rng = random.Random(13)
    pairs = ((2, 3), (3, 2), (3, 5), (5, 7), (7, 11), (5, 13), (11, 13), (2, 101))
    for _ in range(1500):
        p, q = rng.choice(pairs)
        b = rng.choice((rng.randrange(-60, 60), rng.randrange(2, 10**6)))
        if b % p == 0 or b % q == 0:
            with pytest.raises(ValueError):
                angle_bracket(b, p, q, 3, 3)
            continue
        Np, Nq = rng.randrange(1, 21), rng.randrange(1, 21)
        up, uq = bracket_by_crt(b, p, q, Np, Nq)
        assert angle_bracket(b, p, q, Np, Nq) == (PadicNumber(p, 0, up, Np), PadicNumber(q, 0, uq, Nq))
    for args in ((2, 5, 5, 3, 3), (2, 4, 5, 3, 3), (2, 5, 7, 0, 3), (2, 5, 7, 3, 0)):
        with pytest.raises(ValueError):
            angle_bracket(*args)


def test_minus_one_over_p_minus_one_is_the_repunit():
    # the Newton step's 1/(p - 1) = -(1 + p + ... + p^(k-1)) mod p^k
    for p in (2, 3, 5, 7, 101):
        for k in range(1, 31):
            m = p**k
            assert (m - 1) // (p - 1) * (p - 1) % m == m - 1, (p, k)


def test_lift_of_the_inverse_class_is_the_inverse_lift():
    # omega(b)^-1 = omega(b^-1 mod p), which angle_bracket relies on
    rng = random.Random(29)
    for p in (2, 3, 5, 7, 11, 101):
        bs = [-1, -p - 1, -(10**9) - 7, 10**12 + 1, 10**30 + 3] + [rng.randrange(-(10**6), 10**6) for _ in range(20)]
        for N in range(1, 31):
            for b in bs:
                if b % p:
                    inverse = _teichmuller_unit(pow(b, -1, p), p, N)
                    assert inverse * _teichmuller_unit(b, p, N) % p**N == 1, (b, p, N)


def test_of_rational_equals_fraction_path():
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 101):
        values = [-1, -p, -(p**3) * 7, p**4, 3 * p**2, 10**9 + 7, Fraction(-5, p**3), Fraction(7, p)]
        for _ in range(150):
            num = rng.randrange(-(10**6), 10**6) * p ** rng.randrange(0, 5)
            den = rng.choice((1, rng.randrange(1, 500), p ** rng.randrange(1, 5) * rng.randrange(1, 40)))
            values.append(Fraction(num, den))
            values.append(num)
        for x in values:
            # the cores also take the unreduced pair (g num, g den), with no gcd
            g = rng.choice((1, -1, 2, p, 3 * p**2, -(p**3)))
            pair = (g * Fraction(x).numerator, g * Fraction(x).denominator)
            for N in (0, 1, 2, 7):
                want = of_rational_by_fraction(x, p, N)
                assert padic_of_rational(x, p, N) == want, (x, p, N)
                assert reduce_relative(pair, p, N) == want, (pair, p, N)
            for A in (-2, 0, 1, 5, 9):
                v = padic_valuation(Fraction(x), p)
                want = PadicNumber.zero_mod(p, A) if v >= A else of_rational_by_fraction(x, p, A - v)
                assert padic_reduce_abs(x, p, A) == want, (x, p, A)
                assert reduce_absolute(pair, p, A) == want, (pair, p, A)
        # 0 is exact_zero at relative precision; at absolute precision the
        # core gives zero_mod(A), as v_p(0) = +inf >= A, and only the public
        # entry keeps an exact 0 exact
        for zero in (0, Fraction(0), (0, 1), (0, -7 * p)):
            for N in (0, 1, 7):
                assert reduce_relative(zero, p, N) == PadicNumber.exact_zero(p), (zero, p, N)
            for A in (-2, 0, 1, 9):
                assert reduce_absolute(zero, p, A) == PadicNumber.zero_mod(p, A), (zero, p, A)
        for A in (-2, 0, 1, 9):
            assert padic_reduce_abs(0, p, A) == PadicNumber.exact_zero(p), (p, A)
    # the other values Fraction accepts are still read through it
    for x in ("22/7", 0.5, True, Fraction(-50)):
        assert padic_of_rational(x, 5, 4) == of_rational_by_fraction(x, 5, 4)
        assert padic_reduce_abs(x, 5, 4) == padic_of_rational(Fraction(x), 5, 4 - padic_valuation(Fraction(x), 5))


def _fields(z):
    """The fields of a PadicNumber with the type of each."""
    return [(type(getattr(z, f)), getattr(z, f)) for f in ("p", "valuation", "unit", "precision")]


def test_reduce_relative_reads_the_euler_factors_one_at_a_time():
    # (num, den, m, primes) is num/den prod (1 - l^m): the same fields, of the same
    # types, as the product pair zeta_neg_ratio(m, primes) gives; m = 0 zeroes a
    # factor, l = p makes a unit, and even m >= 2 puts B_(m+1) = 0 in the pair
    for m in (0, 1, 2, 3, 4, 11, 24, 99, 375, 1000):
        for primes in ((), (5,), (11,), (5, 11), (11, 5, 7), (2, 3)):
            for p in (2, 3, 5, 7, 11):
                for N in (0, 1, 2, 6):
                    want = reduce_relative(zeta_neg_ratio(m, primes), p, N)
                    got = reduce_relative((*zeta_neg_ratio(m), m, primes), p, N)
                    assert _fields(got) == _fields(want), (m, primes, p, N)
    # v_5(1 - 11^m) = 1 + v_5(m) >= 3 stays past the first modulus 5^(N + 1)
    for m, v in ((500, 4), (375, 4), (3125, 6)):
        assert padic_valuation(1 - 11**m, 5) == v
        for num, den in ((1, 1), (-7, 30), (50, 3), (1, 125)):
            for N in (0, 1, 3, 8):
                want = reduce_relative((num * (1 - 11**m) * (1 - 5**m) * (1 - 2**m), den), 5, N)
                got = reduce_relative((num, den, m, (11, 5, 2)), 5, N)
                assert _fields(got) == _fields(want), (m, num, den, N)
    for zero in ((0, 1, 3, (7,)), (5, 3, 0, (7,)), (5, 3, 0, (5, 7))):
        assert reduce_relative(zero, 5, 3) == PadicNumber.exact_zero(5), zero
    assert _fields(reduce_relative((5, 3, 0, ()), 5, 3)) == _fields(reduce_relative((5, 3), 5, 3))


def test_factored_numerator_is_the_product_form_mod_p_to_the_k():
    # num prod (1 - l^m) mod p^K without l^m: l = p, m = 0, and factors of
    # valuation >= 3 (v_5(1 - 11^m) = 1 + v_5(m), v_5(1 - 7^m) = 2 + v_5(m/4) for 4 | m)
    deep = set()
    for m in (0, 1, 2, 3, 20, 25, 100, 125, 500):
        for primes in ((), (5,), (11,), (5, 7), (7, 11), (2, 3, 11)):
            for num in (0, 1, -1, 3, -250, 7**40 + 2):
                product = num
                for ell in primes:
                    product *= 1 - ell**m
                for p in (5, 7):
                    for K in (1, 2, 3, 6, 12):
                        got = factored_numerator(num, m, primes, p**K)
                        assert type(got) is int and got == product % p**K, (num, m, primes, p, K)
                deep.update(ell for ell in primes if ell != 5 and m and padic_valuation(1 - ell**m, 5) >= 3)
    assert {7, 11} <= deep
    assert factored_numerator(9, 0, (7,), 5**3) == 0 and factored_numerator(9, 0, (), 5**3) == 9


def test_reduce_abs_checks_the_prime_before_any_early_return():
    # a zero, a value past the precision and a unit all name the composite
    for x in (0, 16, 3):
        with pytest.raises(ValueError, match="4 is not a prime"):
            padic_reduce_abs(x, 4, 1)
    with pytest.raises(ValueError, match="1 is not a prime"):
        padic_reduce_abs(16, 1, 1)


def test_of_rational_rejects_a_negative_precision():
    for x in (3, Fraction(1, 3)):
        with pytest.raises(ValueError, match="precision must be an int >= 0"):
            padic_of_rational(x, 5, -1)


def test_require_tolerance():
    for tol in (0, 0.0, 1e-12, 3, Fraction(1, 2)):
        require_tolerance(tol)
    for tol in (float("nan"), float("inf"), -1e-300, -1):
        with pytest.raises(ValueError, match="a tolerance must be a finite number >= 0"):
            require_tolerance(tol)
