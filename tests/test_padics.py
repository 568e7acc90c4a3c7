import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqzeta import padics
from pqzeta.padics import (
    PadicNumber,
    PrecisionError,
    Record,
    _teichmuller_lift,
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


_VALUES = st.one_of(st.just(0), st.integers(), st.fractions())
_NOT_INTS = st.one_of(st.floats(), st.fractions(), st.decimals(), st.text(max_size=3), st.none(), st.complex_numbers())


@settings(max_examples=150, deadline=None)
@given(x=_VALUES, p=st.sampled_from([2, 3, 5, 7]), precision=_NOT_INTS)
@example(x=0, p=5, precision=2.5)
def test_both_public_reductions_refuse_every_precision_that_is_not_an_int_at_every_value(x, p, precision):
    # the precision is read before the value, so that 0 is refused as any value is
    for reduce in (padic_of_rational, padic_reduce_abs):
        with pytest.raises(ValueError, match="precision must be an int"):
            reduce(x, p, precision)


@settings(max_examples=100, deadline=None)
@given(x=_VALUES, p=st.sampled_from([2, 3, 5, 7]), precision=st.integers(max_value=-1))
@example(x=0, p=5, precision=-1)
def test_of_rational_refuses_every_negative_precision_at_every_value(x, p, precision):
    with pytest.raises(ValueError, match="precision must be an int >= 0"):
        padic_of_rational(x, p, precision)


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
    monkeypatch.setattr(padics, "_LIFTS", {})
    precisions = list(range(1, 41))
    if order == "descending":
        precisions.reverse()
    elif order == "interleaved":
        random.Random(31).shuffle(precisions)
    # several n per class, negative and large ones too: one root per class,
    # and one lift per (p, N, class) whose p^N fits the lift table
    args = {p: [n for n in (*range(-2 * p, 2 * p + 1), -(10**6) - 1, 10**12 + 3) if n % p][:40]
            for p in TABLE_PRIMES}
    for N in precisions:
        for p, ns in args.items():
            for n in ns:
                assert _teichmuller_lift(n, p, N) == (lift_by_power(n, p, N), p**N), (order, n, p, N)
    for p, ns in args.items():
        classes = {n % p for n in ns}
        assert {r for q, r in padics._ROOTS if q == p} == classes
        assert len(classes) <= p - 1
        assert all(padics._ROOTS[p, r][0] == 40 for r in classes)
    keys = {(p, N, n % p) for p, ns in args.items() for n in ns for N in precisions
            if (p**N).bit_length() <= padics._LIFT_BITS}
    assert (101**39).bit_length() > padics._LIFT_BITS and len(keys) <= padics._LIFT_LIMIT
    assert padics._LIFTS.keys() == keys
    for (p, N, r), lift in padics._LIFTS.items():
        assert lift == (lift_by_power(r, p, N), p**N)


class _Int(int):
    """An int subclass: read as the int it equals."""


def test_refused_lifts_leave_the_root_table_unchanged(monkeypatch):
    monkeypatch.setattr(padics, "_ROOTS", {})
    monkeypatch.setattr(padics, "_LIFTS", {})
    teichmuller(2, 5, 6)
    teichmuller(1, 5, 1)
    angle_bracket(2, 5, 7, 3, 3)
    double_teichmuller(2, 5, 7, 3, 1)
    before = dict(padics._ROOTS), dict(padics._LIFTS)
    assert {(5, 6, 2), (5, 1, 1), (5, 3, 3), (7, 3, 4), (5, 3, 2), (7, 1, 2)} <= before[1].keys()
    for args in ((10, 5, 8), (2, 5, 0), (2, 5, -3), (2, 9, 8), (3, 1, 4), (2, 5, 0.5), (2.0, 5, 0)):
        with pytest.raises(ValueError):
            teichmuller(*args)
    # every key these would read is already in the table
    lift_message = "teichmuller needs an int n and precision"
    refusals = [
        (teichmuller, (2.0, 5, 6), lift_message),
        (teichmuller, (Fraction(2), 5, 6), lift_message),
        (teichmuller, (2, 5, 6.0), lift_message),
        (teichmuller, (_Int(2), 5, 6.0), lift_message),
        (double_teichmuller, (2.0, 5, 7, 3, 1), lift_message),
        (double_teichmuller, (2, 5, 7, 3, 1.0), lift_message),
        (angle_bracket, (2, 5, 7, 3.0, 3), lift_message),
        (angle_bracket, (2, 5, 7, 3, 3.0), lift_message),
        # a b that is not an int is refused where it always was, by pow(b, -1, p)
        (angle_bracket, (2.0, 5, 7, 3, 3), "pow() 3rd argument not allowed unless all arguments are integers"),
        (angle_bracket, (Fraction(2), 5, 7, 3, 3), "Fraction.__pow__() takes 2 positional arguments but 3 were given"),
    ]
    for function, args, message in refusals:
        with pytest.raises(TypeError) as info:
            function(*args)
        assert str(info.value) == message, (function.__name__, args)
    assert (padics._ROOTS, padics._LIFTS) == before
    # a bool or an int subclass is read as the int it equals, and every unit is an int
    for value, want in (
        (teichmuller(True, 5, 1), teichmuller(1, 5, 1)),
        (teichmuller(_Int(2), 5, _Int(6)), teichmuller(2, 5, 6)),
        (teichmuller(_Int(7), 5, True), teichmuller(2, 5, 1)),
        (angle_bracket(True, 5, 7, 3, 3), angle_bracket(1, 5, 7, 3, 3)),
        (angle_bracket(_Int(2), 5, 7, _Int(3), 3), angle_bracket(2, 5, 7, 3, 3)),
        (double_teichmuller(_Int(2), 5, 7, 3, True), double_teichmuller(2, 5, 7, 3, 1)),
    ):
        assert value == want
        for x in value if isinstance(value, tuple) else (value,):
            fields = (x.unit, x.valuation, x.precision) if isinstance(x, PadicNumber) else (x,)
            assert all(type(field) is int for field in fields), value


def test_a_wrong_stored_root_fails_the_fixed_point_check(monkeypatch):
    # a root wrong mod p^2 but in the right class: Newton from it gains too few
    # digits to reach p^4 or p^8, and the check on the new lift catches it
    # before it is stored in either table
    for p in (3, 5, 7, 101):
        for N in (4, 8):
            wrong = {(p, 2): (2, (lift_by_power(2, p, 2) + 2 * p) % p**2)}
            monkeypatch.setattr(padics, "_ROOTS", dict(wrong))
            monkeypatch.setattr(padics, "_LIFTS", {})
            with pytest.raises(ArithmeticError, match="fixed point"):
                teichmuller(2, p, N)
            assert padics._ROOTS == wrong and padics._LIFTS == {}


def test_the_lift_table_is_bounded(monkeypatch):
    monkeypatch.setattr(padics, "_ROOTS", {})
    monkeypatch.setattr(padics, "_LIFTS", {})
    # p^N of more than 256 bits is served by the class's root and not stored
    assert (101**38).bit_length() <= 256 < (101**39).bit_length()
    for n in (2, 3):
        for N in (39, 38, 40):
            assert teichmuller(n, 101, N).unit == lift_by_power(n, 101, N)
    assert set(padics._LIFTS) == {(101, 38, 2), (101, 38, 3)}
    assert padics._ROOTS == {(101, 2): (40, lift_by_power(2, 101, 40)), (101, 3): (40, lift_by_power(3, 101, 40))}
    # the worst case: every key holds a prime near PSI_13 and a large class,
    # and every value two ints of nearly 256 bits
    p = padics.PSI_13 - 2
    while not is_prime(p):
        p -= 2
    assert (p**3).bit_length() <= 256
    limit = padics._LIFT_LIMIT
    padics._LIFTS.clear()
    for n in range(p - 1, p - 1 - limit, -1):
        _teichmuller_lift(n, int(str(p)), 3)
        assert len(padics._LIFTS) <= limit
    assert len(padics._LIFTS) == limit
    assert _deep_size(padics._LIFTS) < 10**6
    # one lift more clears the table first
    _teichmuller_lift(2, p, 3)
    assert list(padics._LIFTS) == [(p, 3, 2)]


def test_the_root_table_is_bounded(monkeypatch):
    monkeypatch.setattr(padics, "_ROOTS", {})
    monkeypatch.setattr(padics, "_LIFTS", {})
    limit = padics._LIFT_LIMIT
    primes = [n for n in range(3, 20_000) if is_prime(n)]
    assert len(primes) > limit
    for i, p in enumerate(primes):
        assert _teichmuller_lift(2, p, 2) == (lift_by_power(2, p, 2), p**2)
        assert len(padics._ROOTS) <= limit
        if i == limit - 1:
            # a deeper root of a stored class replaces it, with no clear
            full = set(padics._ROOTS)
            assert len(full) == limit
            assert _teichmuller_lift(2, p, 3)[0] == lift_by_power(2, p, 3)
            assert set(padics._ROOTS) == full and padics._ROOTS[p, 2] == (3, lift_by_power(2, p, 3))
    # the root of a new class past the limit cleared the table first
    assert set(padics._ROOTS) == {(p, 2) for p in primes[limit:]}


def _deep_size(table: dict) -> int:
    """Bytes of a dict of tuples of ints, with its keys and values, each object counted once."""
    import sys

    objects = {id(x): x for pair in table.items() for part in pair for x in (part, *part)}
    return sys.getsizeof(table) + sum(map(sys.getsizeof, objects.values()))


def test_the_prime_memo_reads_only_exact_ints(monkeypatch):
    monkeypatch.setattr(padics, "_PRIMES", set())
    require_primes(5)
    assert padics._PRIMES == {5}

    class LikeFive(int):
        """4, but equal to 5 and hashed as 5: a memo read by == would pass it."""

        def __eq__(self, other):
            return other == 5 or int(self) == other

        def __hash__(self):
            return hash(5)

    assert LikeFive(4) in padics._PRIMES
    for args, message in (((5.0,), "5.0 is not a prime"), ((True,), "True is not a prime"),
                          ((LikeFive(4),), "4 is not a prime"), ((5, 5), "the primes must be distinct, got 5, 5")):
        with pytest.raises(ValueError) as info:
            require_primes(*args)
        assert str(info.value) == message, args
    # an int subclass is tested on every call, and never stored
    tested = []
    monkeypatch.setattr(padics, "is_prime", lambda n: tested.append(n) or is_prime(n))
    require_primes(_Int(5))
    require_primes(5)
    assert tested == [5] and padics._PRIMES == {5} and all(type(p) is int for p in padics._PRIMES)


def test_the_prime_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(padics, "_PRIMES", set())
    limit = padics._PRIME_LIMIT
    primes = [n for n in range(2, 50_000) if is_prime(n)]
    assert len(primes) > limit
    for i, p in enumerate(primes):
        require_primes(p)
        assert len(padics._PRIMES) <= limit
        if i == limit - 1:
            assert padics._PRIMES == set(primes[:limit])
    # the prime past the bound cleared the set first
    assert padics._PRIMES == set(primes[(len(primes) - 1) // limit * limit:])
    # from PSI_13 up nothing is proven, so nothing is stored
    monkeypatch.setattr(padics, "_PRIMES", set())
    for n in (padics.PSI_13, padics.PSI_13 + 2, 10**30 + 57):
        with pytest.raises(ValueError, match="cannot decide"):
            require_primes(n)
    assert padics._PRIMES == set()


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
                    inverse, mod = _teichmuller_lift(pow(b, -1, p), p, N)
                    assert inverse * _teichmuller_lift(b, p, N)[0] % mod == 1 and mod == p**N, (b, p, N)


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


def test_reduce_relative_reads_a_numerator_whose_valuation_passes_the_first_modulus():
    # v_p(num) = e >= N + 1, so num is 0 mod the first modulus p^(N + 1) and K
    # doubles; the own prime's factor 1 - p^m is read at m < K and at m >= K
    def oracle(value, p, N):
        v = 0
        while value.numerator % p == 0:
            value, v = value / p, v + 1
        while value.denominator % p == 0:
            value, v = value * p, v - 1
        unit = value.numerator * pow(value.denominator, -1, p**N) % p**N
        return [(int, p), (int, v), (int, unit), (int, N)]

    below, at_or_above = False, False
    for p in (2, 3, 5, 7):
        for N in (0, 1, 3, 8):
            for e in (N + 1, 2 * N + 3, 40, 300):
                for u in (1, -(p + 1), p * 10**20 + 1):
                    num = p**e * u
                    for den in (1, -(p + 1), (p + 1) * p**2):
                        value = Fraction(num, den)
                        for x in ((num, den), value) + ((num,) if den == 1 else ()):
                            assert _fields(reduce_relative(x, p, N)) == oracle(value, p, N), (x, p, N)
                        for m in (1, N + 1, 50):
                            for primes in ((p,), (11, p)):
                                want = value
                                for ell in primes:
                                    want *= 1 - ell**m
                                got = reduce_relative((num, den, m, primes), p, N)
                                assert _fields(got) == oracle(want, p, N), (num, den, m, primes, p, N)
                                Ks = [N + 1]  # the moduli p^K read, until K holds v_p(numerator) + N
                                while Ks[-1] < padic_valuation(want * den, p) + N:
                                    Ks.append(2 * Ks[-1])
                                below |= any(m < K for K in Ks)
                                at_or_above |= any(m >= K for K in Ks)
    assert below and at_or_above


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


def test_a_record_without_init_gets_one_from_its_slots():
    class Pair(Record):
        __slots__ = ("a", "b")
        _defaults = {"b": (1, 2)}

    assert Pair(1).b == (1, 2) and Pair(1, 3) == Pair(b=3, a=1)
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")
    assert Pair.__init__.__code__.co_filename.endswith("Pair.__init__>")
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'a'"):
        Pair()


def test_record_defaults_must_be_trailing_and_immutable():
    with pytest.raises(TypeError, match="_defaults must name its last fields, in order"):
        class Early(Record):
            __slots__ = ("a", "b")
            _defaults = {"a": 0}
    with pytest.raises(TypeError, match="unhashable"):
        class Shared(Record):
            __slots__ = ("a",)
            _defaults = {"a": []}


def _checked(z):
    """z rebuilt from its own fields by the checked constructor."""
    return PadicNumber(z.p, z.valuation, z.unit, z.precision)


def test_the_unchecked_constructor_stores_what_the_checked_one_would():
    # every value built by _of_unit (under the reductions, the lifts and the
    # brackets) has the fields, value and type, that PadicNumber(...) stores
    # from the same fields, and that the checked formulas they replaced give
    rng = random.Random(33)
    for p in TABLE_PRIMES:
        values = [1, -1, p, -(p**3) * 7, Fraction(-5, p**3), Fraction(7, p), Fraction(p**2, 3), True]
        values += [Fraction(rng.randrange(-(10**6), 10**6) * p ** rng.randrange(0, 4),
                            rng.choice((1, rng.randrange(1, 500), p ** rng.randrange(1, 5))))
                   for _ in range(60)]
        for x in filter(None, values):
            g = rng.choice((1, -1, 2, p, -(p**2)))
            pair = (g * Fraction(x).numerator, g * Fraction(x).denominator)
            v = padic_valuation(Fraction(x), p)
            for N in (0, 1, 2, 7, True, False):
                want = _fields(of_rational_by_fraction(x, p, N))
                for got in (padic_of_rational(x, p, N), reduce_relative(x, p, N), reduce_relative(pair, p, N)):
                    assert _fields(got) == _fields(_checked(got)) == want, (x, pair, p, N)
            for A in (v - 3, v - 1, v, v + 1, v + 6, -2, 0, True):
                checked = PadicNumber.zero_mod(p, A) if v >= A else of_rational_by_fraction(x, p, int(A - v))
                for got in (padic_reduce_abs(x, p, A), reduce_absolute(x, p, A), reduce_absolute(pair, p, A)):
                    assert _fields(got) == _fields(_checked(got)) == _fields(checked), (x, pair, p, A)
        for N in (1, 2, 9, 30, True):
            for n in (1, 2, -1, p + 1, 10**12 + 1):
                if n % p:
                    got = teichmuller(n, p, N)
                    checked = PadicNumber(p, 0, lift_by_power(n, p, int(N)), N)
                    assert _fields(got) == _fields(_checked(got)) == _fields(checked), (n, p, N)
        for q in TABLE_PRIMES:
            for b in (1, -1, 11 * 13 + 1, 10**9 + 7):
                if q == p or b % p == 0 or b % q == 0:
                    continue
                for Np, Nq in ((1, 1), (3, 7), (True, 2), (12, True)):
                    up, uq = bracket_by_crt(b, p, q, int(Np), int(Nq))
                    got = angle_bracket(b, p, q, Np, Nq)
                    checked = (PadicNumber(p, 0, up, Np), PadicNumber(q, 0, uq, Nq))
                    assert [_fields(z) for z in got] == [_fields(_checked(z)) for z in got] \
                        == [_fields(z) for z in checked], (b, p, q, Np, Nq)
    assert repr(teichmuller(2, 5, True)) == "PadicNumber(p=5, v=0, unit=2, N=1)"


def test_a_wide_gap_in_a_sum_forms_no_large_power():
    # 5^(10^7) in full is about 2.9 MB: no term or residue below may form it
    import tracemalloc

    near, far = PadicNumber(5, 0, 1, 5), PadicNumber(5, 10**7, 1, 5)
    tracemalloc.start()
    try:
        got = [near + far, far + near, near - far, far.residue(5), far.residue(10**7)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [_fields(z) for z in got[:3]] == [_fields(near)] * 3 and got[3:] == [0, 0]
    assert peak < 10**5, peak


_PRIMES_DRAWN = (2, 3, 5, 7, 101)


@st.composite
def _operand(draw, p):
    """(x, X): a PadicNumber x at p and an exact rational X that x approximates at
    every digit it claims; x is exact zero, an inexact zero zero_mod(M) or a
    value of valuation -3..3 read to precision 1..12."""
    def unit():
        return draw(st.integers(0, 10**6)) * p + draw(st.integers(1, p - 1))

    kind = draw(st.sampled_from(("value", "value", "value", "exact zero", "inexact zero")))
    v = draw(st.integers(-3, 3))
    if kind == "exact zero":
        return PadicNumber.exact_zero(p), Fraction(0)
    if kind == "inexact zero":
        X = Fraction(p) ** v * draw(st.integers(-(10**6), 10**6)) / unit()
        return PadicNumber.zero_mod(p, v), X
    X = Fraction(p) ** v * draw(st.sampled_from((1, -1))) * unit() / unit()
    return padic_of_rational(X, p, draw(st.integers(1, 12))), X


def _claims_hold(z, Z) -> bool:
    """Whether the exact rational Z agrees with z at every digit z claims."""
    if z.is_exact_zero:
        return Z == 0
    diff = Z - (Fraction(z.p) ** z.valuation * z.unit if z.unit else 0)
    return diff == 0 or padic_valuation(diff, z.p) >= z.abs_precision


def _refused(operation, kind, message):
    with pytest.raises(kind) as info:
        operation()
    assert str(info.value) == message


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_operator_agrees_with_the_fraction_oracle_at_every_claimed_digit(data):
    p = data.draw(st.sampled_from(_PRIMES_DRAWN))
    (x, X), (y, Y) = data.draw(_operand(p)), data.draw(_operand(p))
    results = [(-x, -X), (x + y, X + Y), (x - y, X - Y), (x * y, X * Y)]
    if y.is_exact_zero or y.unit == 0:
        _refused(lambda: x / y, ZeroDivisionError, "division by (approximate) zero")
    elif y.valuation != 0:
        _refused(lambda: x / y, PrecisionError, "division by a non-unit; rescale through the rational constructor")
    else:
        results.append((x / y, X / Y))
    for e in range(-3, 6):
        if e < 0 and (x.valuation != 0 or x.unit == 0):
            _refused(lambda: x**e, PrecisionError, "negative power of a non-unit")
        elif e == 0 and x.unit == 0 and not x.is_exact_zero:
            _refused(lambda: x**e, PrecisionError, "0^0 undetermined for approximate zero")
        else:
            results.append((x**e, X**e))
    for z, Z in results:
        # every result is what the checked constructor stores from its fields
        assert _fields(z) == _fields(_checked(z)), z
        assert _claims_hold(z, Z), (x, y, z, Z)
    q = data.draw(st.sampled_from([q for q in _PRIMES_DRAWN if q != p]))
    other = data.draw(_operand(q))[0]
    for operation in (lambda: x + other, lambda: x - other, lambda: x * other, lambda: x / other):
        _refused(operation, ValueError, "mixed primes")
