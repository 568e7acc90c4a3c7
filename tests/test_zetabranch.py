import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from pqzeta import rationals
from pqzeta.padics import PadicNumber, angle_bracket, padic_of_rational, padic_valuation, require_primes
from pqzeta.rationals import bernoulli, zeta_neg
from pqzeta.zetabranch import (
    CongruenceResult,
    DoubleBranch,
    HypothesisError,
    KLBranch,
    double_branch_eval,
    double_value,
    excluded_sigma0,
    extended_kummer_check,
    kl_branch_eval,
    kl_value,
    kummer_check,
    pq_hurwitz,
    universal_power,
    _is_excluded,
)


def test_kl_values():
    assert kl_value(5, 2) == Fraction(1, 3)
    assert kl_value(5, 3) == 0
    assert kl_value(7, 4) == Fraction(-57, 20)


@pytest.mark.parametrize("p", [6, 4, 1, 0, -5])
def test_kl_value_refuses_a_p_that_is_not_a_prime(p):
    with pytest.raises(ValueError, match=f"{p} is not a prime"):
        kl_value(p, 4)


def test_kummer_examples():
    res = kummer_check(5, 2, 6, 0)
    assert res.ok and res.valuation == 1
    res = kummer_check(7, 2, 2, 1)
    assert res.ok  # zero difference
    with pytest.raises(HypothesisError):
        kummer_check(5, 4, 8, 0)  # (p-1) | i
    with pytest.raises(HypothesisError):
        kummer_check(5, 2, 3, 0)  # wrong congruence class


def test_kl_branch_construction():
    KLBranch(p=5, s0=2, precision=3)
    KLBranch(p=3, s0=0, precision=2)
    with pytest.raises(ValueError):
        KLBranch(p=3, s0=1, precision=2)
    with pytest.raises(ValueError):
        KLBranch(p=5, s0=9, precision=2)
    with pytest.raises(ValueError):
        KLBranch(p=6, s0=1, precision=2)


def test_kl_branch_values():
    branch = KLBranch(p=5, s0=2, precision=3)
    v = kl_branch_eval(branch, 0)  # n = 2
    assert v == padic_of_rational(Fraction(1, 3), 5, 3)
    odd = KLBranch(p=5, s0=1, precision=3)
    assert kl_branch_eval(odd, 1).is_exact_zero  # B_5 = 0: odd branch vanishes


def test_kl_branch_zero_function_on_odd_classes():
    for s0 in (1, 3):
        branch = KLBranch(p=5, s0=s0, precision=2)
        for t in range(1, 5):
            assert kl_branch_eval(branch, t).is_exact_zero


def test_kl_branch_pole():
    branch = KLBranch(p=5, s0=0, precision=2)
    with pytest.raises(ZeroDivisionError):
        kl_branch_eval(branch, 0)
    with pytest.raises(ZeroDivisionError):
        kl_branch_eval(branch, PadicNumber.exact_zero(5))
    # non-exact zero input picks t = p^N instead
    v = kl_branch_eval(branch, 25)
    assert not v.is_exact_zero


def test_kl_branch_representative_independence():
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([5, 7])
        s0 = rng.choice([s for s in range(1, p - 1)])
        N = rng.choice([1, 2])
        t = rng.randint(0, 4)
        k = rng.randint(1, 2)
        n1 = s0 + (p - 1) * t
        n2 = s0 + (p - 1) * (t + k * p**N)
        if n1 < 1:
            continue
        diff = kl_value(p, n1) - kl_value(p, n2)
        assert padic_valuation(diff, p) >= N + 1


@pytest.mark.xfail(
    strict=True,
    reason="fault F3: the pole branch s0 = 0 over-claims its N - 1 digits for p = 5",
)
def test_pole_branch_next_representative_agrees():
    branch = KLBranch(p=5, s0=0, precision=3)
    got = kl_branch_eval(branch, 50)  # PadicNumber(v=-3, unit=12, N=2)
    # s = 50 + 5^3 is the same class; its value must agree at the claimed digits
    other = padic_of_rational(kl_value(5, 4 * 175), 5, got.precision + 4)
    assert got.congruent_mod(other, got.abs_precision)


def test_double_values():
    assert double_value(5, 7, 2) == -2
    assert double_value(3, 5, 3) == 0
    assert double_value(5, 7, 4) == Fraction(5301, 15)


def test_extended_kummer():
    out = extended_kummer_check(5, 7, 2, 26, 0)
    assert out[5].ok and out[7].ok
    out = extended_kummer_check(5, 7, 9, 9, 1)
    assert out[5].ok and out[7].ok
    with pytest.raises(HypothesisError):
        extended_kummer_check(5, 7, 4, 28, 0)
    with pytest.raises(HypothesisError):
        extended_kummer_check(5, 7, 6, 30, 0)  # (q-1) | i


def _old_double_value(p, q, n):
    return (1 - Fraction(p) ** (n - 1)) * (1 - Fraction(q) ** (n - 1)) * (-bernoulli(n) / n)


def _old_kummer_check(p, i, j, n):
    """The one-prime check as written with Fraction-power Euler factors."""
    if i < 2 or j < 2:
        raise HypothesisError("need i, j >= 2")
    if i % (p - 1) == 0:
        raise HypothesisError("(p-1) divides i")
    if (i - j) % (p**n * (p - 1)) != 0:
        raise HypothesisError("i != j mod p^n(p-1)")

    def value(k):
        return -(1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k

    v = padic_valuation(value(i) - value(j), p)
    return CongruenceResult(ok=v >= n + 1, required=n + 1, valuation=v)


def _old_extended_kummer_check(p, q, i, j, n):
    """The two-prime check as written with Fraction-power Euler factors."""
    if i < 2 or j < 2:
        raise HypothesisError("need i, j >= 2")
    if i % (p - 1) == 0 or i % (q - 1) == 0:
        raise HypothesisError("neither (p-1) nor (q-1) may divide i")
    if (i - j) % (p**n * (p - 1)) != 0 or (i - j) % (q**n * (q - 1)) != 0:
        raise HypothesisError("i != j mod p^n(p-1) and q^n(q-1)")
    diff = _old_double_value(p, q, i) - _old_double_value(p, q, j) if i != j else Fraction(0)
    out = {}
    for prime in (p, q):
        v = padic_valuation(diff, prime)
        out[prime] = CongruenceResult(ok=v >= n + 1, required=n + 1, valuation=v)
    return out


def _outcome(check, *args):
    try:
        return check(*args)
    except HypothesisError:
        return HypothesisError


def test_kummer_checks_match_the_fraction_power_bodies():
    seen = set()
    for p in (2, 3, 5, 7, 11):
        for i in range(16):
            for j in {2, i, i + 4, i + 20, i + p * (p - 1), i + p * p * (p - 1)}:
                for n in (0, 1, 2):
                    want = _outcome(_old_kummer_check, p, i, j, n)
                    assert _outcome(kummer_check, p, i, j, n) == want, (p, i, j, n)
                    seen.add(want if want is HypothesisError else want.ok)
    for p, q in ((5, 7), (7, 13), (3, 5), (5, 11)):
        M = (p - 1) * (q - 1)
        L = lcm(p * (p - 1), q * (q - 1))  # i = j mod L meets both hypotheses at n = 1
        for i in range(16):
            for j in {2, i, i + 12, i + M, i + L}:
                for n in (0, 1):
                    want = _outcome(_old_extended_kummer_check, p, q, i, j, n)
                    assert _outcome(extended_kummer_check, p, q, i, j, n) == want, (p, q, i, j, n)
    assert seen == {HypothesisError, True}  # the congruences are theorems


def test_kummer_hypothesis_failures_name_the_prime():
    for check, args, message in (
        (kummer_check, (5, 4, 8, 0), "5 - 1 divides i = 4"),
        (kummer_check, (5, 2, 3, 1), "i != j mod 5^1 (5 - 1)"),
        (extended_kummer_check, (5, 7, 6, 30, 0), "7 - 1 divides i = 6"),
        (extended_kummer_check, (5, 7, 2, 26, 1), "i != j mod 5^1 (5 - 1)"),
        (extended_kummer_check, (5, 7, 2, 122, 1), "i != j mod 7^1 (7 - 1)"),
    ):
        with pytest.raises(HypothesisError) as info:
            check(*args)
        assert str(info.value) == message, args


def test_excluded_sigma0_set():
    exc = excluded_sigma0(5, 7)
    assert -1 in exc
    assert 4 in exc and 8 in exc  # p-side multiples
    assert 6 in exc and 12 in exc  # q-side multiples
    assert 3 in exc and 7 in exc  # s0 = -1 mod (p-1)
    assert 5 in exc and 11 in exc  # s0 = -1 mod (q-1)
    assert 0 not in exc and 1 not in exc and 2 not in exc


def _excluded_by_enumeration(p, q):
    """The excluded set listed out: -1, the multiples k(p-1) and k(q-1), and
    the classes sigma0 = -1 mod (p-1) or mod (q-1)."""
    out = {-1}
    top = (p - 1) * (q - 1) - 2
    out.update(k * (p - 1) for k in range(1, q - 1))
    out.update(k * (q - 1) for k in range(1, p - 1))
    for s0 in range(0, top + 1):
        if (s0 + 1) % (p - 1) == 0 or (s0 + 1) % (q - 1) == 0:
            out.add(s0)
    return out


def test_exclusion_predicate_matches_the_enumeration():
    primes = [5, 7, 11, 13, 17, 19, 23]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            listed = _excluded_by_enumeration(p, q)
            top = (p - 1) * (q - 1) - 2
            assert {s for s in range(-1, top + 1) if _is_excluded(s, p, q)} == listed, (p, q)
            assert excluded_sigma0(p, q) == listed, (p, q)
            for s0 in range(-1, top + 1):
                if s0 in listed:
                    with pytest.raises(ValueError, match="excluded"):
                        DoubleBranch(p=p, q=q, sigma0=s0)
                else:
                    DoubleBranch(p=p, q=q, sigma0=s0)


def test_double_branch_construction_and_pole():
    DoubleBranch(p=5, q=7, sigma0=0)
    DoubleBranch(p=5, q=7, sigma0=1)
    with pytest.raises(ValueError):
        DoubleBranch(p=5, q=7, sigma0=-1)
    with pytest.raises(ValueError):
        DoubleBranch(p=5, q=7, sigma0=3)
    with pytest.raises(ValueError):
        DoubleBranch(p=3, q=7, sigma0=0)
    pole = DoubleBranch(p=5, q=7, sigma0=-1, pole=True)
    with pytest.raises(ZeroDivisionError):
        double_branch_eval(pole, 0, 2)


@pytest.mark.parametrize("p, q", [(4, 6), (5, 5), (2, 3), (3, 7), (5, 2), (1, 7), (True, 7), (5.0, 7), (7, 0)])
def test_the_excluded_set_checks_its_primes_as_a_branch_does(p, q):
    """Bad primes, repeated primes and primes below 5 are refused with the
    message that the double branch itself gives."""
    with pytest.raises(ValueError) as branch:
        DoubleBranch(p, q, -1, pole=True)
    with pytest.raises(ValueError) as excluded:
        excluded_sigma0(p, q)
    assert str(excluded.value) == str(branch.value)


def test_double_branch_values():
    branch = DoubleBranch(p=5, q=7, sigma0=0)
    for N in (1, 2, 3, 6):
        vp, vq = double_branch_eval(branch, 0, N)
        assert vp.is_exact_zero and vq.is_exact_zero  # (1 - p^0) = 0
    branch = DoubleBranch(p=5, q=7, sigma0=1)
    vp, vq = double_branch_eval(branch, 0, 3)
    want = double_value(5, 7, 2)
    assert want == -2
    assert vp == padic_of_rational(want, 5, 3)
    assert vq == padic_of_rational(want, 7, 3)


def test_double_branch_representative_independence():
    rng = random.Random(29)
    p, q = 5, 7
    M = (p - 1) * (q - 1)
    allowed = [s for s in range(0, M - 1) if s not in excluded_sigma0(p, q)]
    for _ in range(12):
        s0 = rng.choice(allowed)
        N = 1
        sigma, k = rng.randint(0, 1), 1
        i = s0 + M * sigma + 1
        j = s0 + M * (sigma + k * p**N) + 1
        if i < 2:
            continue
        diff = double_value(p, q, i) - double_value(p, q, j)
        assert padic_valuation(diff, p) >= N + 1


def test_double_branch_reduces_to_single_construction():
    # per prime, the double value is the single value with an extra Euler factor
    p, q = 5, 7
    for n in range(2, 30):
        assert double_value(p, q, n) == (1 - Fraction(q) ** (n - 1)) * kl_value(p, n)


def test_universal_power_examples():
    out = universal_power(31, 5, (2, 3, 5), 2)
    assert out[5].residue(2) == pow(31, 5, 25) == 1
    out = universal_power(1, 3, (2, 3, 5), 3)
    assert all(v.residue(3) == 1 for v in out.values())
    with pytest.raises(ValueError):
        universal_power(10, 2, (2, 3, 5), 2)


def test_universal_power_matches_modular_exponentiation():
    primes = (2, 3, 5, 7)
    n, N = 211, 4
    for s in range(0, 51, 7):
        out = universal_power(n, s, primes, N)
        for p in primes:
            assert out[p].residue(N) == pow(n, s, p**N)


def test_universal_power_negative_exponent():
    out = universal_power(211, -3, (2, 3, 5, 7), 3)
    for p in (2, 3, 5, 7):
        direct = pow(pow(211, -1, p**3), 3, p**3)
        assert out[p].residue(3) == direct


def falling_binomial(x, k: int) -> Fraction:
    """x(x-1)...(x-k+1)/k!, the binomial coefficient C(x, k) for any rational x."""
    prod = Fraction(1)
    for i in range(k):
        prod *= Fraction(x) - i
    return prod / factorial(k)


def test_universal_power_carries_the_integer_binomial():
    """The series sum_k C(s, k)(n-1)^k carries C(s, k) as an integer from term
    to term; it must equal the falling-factorial binomial for every integer s,
    negative ones included."""
    assert falling_binomial(-1, 2) == 1  # (-1)(-2)/2
    assert falling_binomial(Fraction(9, 7), 0) == 1
    assert falling_binomial(3, 2) == comb(3, 2)
    assert falling_binomial(-3, 4) == comb(6, 4)  # integer-valued on negative integers too
    primes = (2, 3, 5, 7)
    for s in range(-30, 31):
        for n, N in ((211, 4), (421, 3), (841, 5)):
            out = universal_power(n, s, primes, N)
            for p in primes:
                terms = N // padic_valuation(n - 1, p) + 2
                series = sum(falling_binomial(s, k) * (n - 1) ** k for k in range(terms))
                assert out[p] == padic_of_rational(series, p, N), (n, s, p)


def test_universal_power_continuity():
    n = 211
    for p in (2, 3, 5, 7):
        for m in range(4):
            for k in (1, 2, 5):
                lhs = pow(n, k + p**m, p ** (m + 1))
                rhs = pow(n, k, p ** (m + 1))
                assert lhs == rhs


def test_pq_hurwitz_base_case():
    p, q = 5, 7
    F = p * q
    vp, vq = pq_hurwitz(0, 1, F, p, q, 3)
    want = -(Fraction(1, F)) * (1 - Fraction(F, 2))  # -(1/F)(B_0 + F B_1)
    assert vp == padic_of_rational(want, p, 3)
    assert vq == padic_of_rational(want, q, 3)


def test_pq_hurwitz_guards():
    with pytest.raises(ValueError):
        pq_hurwitz(1, 1, 35, 5, 7, 2)
    with pytest.raises(ValueError):
        pq_hurwitz(0, 5, 35, 5, 7, 2)
    with pytest.raises(ValueError):
        pq_hurwitz(0, 1, 10, 5, 7, 2)


def test_pq_hurwitz_p_side_matches_single_prime_recomputation():
    # reduction mod p of the p-side value only sees the single-prime bracket
    from pqzeta.padics import teichmuller

    p, q = 5, 7
    F = 35
    for n in (0, -1, -2):
        for b in (2, 3, 4):
            if b % p == 0 or b % q == 0:
                continue
            vp, _ = pq_hurwitz(n, b, F, p, q, 2)
            m = 1 - n
            from pqzeta.rationals import bernoulli, zeta_neg

            acc = sum(comb(m, k) * Fraction(F, b) ** k * bernoulli(k) for k in range(m + 1))
            wp = teichmuller(b, p, 2).unit
            bracket = b * pow(wp, -1, p**2) % p**2
            single = (
                padic_of_rational(-Fraction(1, m * F), p, 2)
                * PadicNumber(p, 0, bracket, 2) ** m
                * padic_of_rational(acc, p, 2)
            )
            assert vp.congruent_mod(single, 1)


# The Fraction route that the integer-pair reductions replaced: every value
# built as a reduced Fraction, then reduced or read for its valuation.


def _fraction_kummer(primes, i, j, n):
    """``_kummer`` with the difference taken as reduced Fractions."""
    require_primes(*primes)
    if i < 2 or j < 2:
        raise HypothesisError("need i, j >= 2")
    if n < 0:
        raise HypothesisError(f"need n >= 0, got n = {n}")
    for ell in primes:
        if i % (ell - 1) == 0:
            raise HypothesisError(f"{ell} - 1 divides i = {i}")
    for ell in primes:
        if (i - j) % (ell**n * (ell - 1)) != 0:
            raise HypothesisError(f"i != j mod {ell}^{n} ({ell} - 1)")
    diff = zeta_neg(i - 1, primes) - zeta_neg(j - 1, primes)
    out = {}
    for ell in primes:
        v = padic_valuation(diff, ell)
        out[ell] = CongruenceResult(ok=v >= n + 1, required=n + 1, valuation=v)
    return out


def _fraction_kl_branch_eval(branch, t):
    """``kl_branch_eval`` at an int t >= 1 through ``padic_of_rational``."""
    p = branch.p
    n = branch.s0 + (p - 1) * t
    value = -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    return padic_of_rational(value, p, branch.certified_precision)


def _fraction_pq_hurwitz(n, b, F, p, q, precision):
    """``pq_hurwitz`` with the Fraction Horner sum."""
    m = 1 - n
    y = Fraction(F, b)
    acc = Fraction(0)
    for c in [comb(m, j) * bernoulli(j) for j in range(m, -1, -1)]:
        acc = acc * y + c
    assert padic_valuation(acc, p) >= 0 and padic_valuation(acc, q) >= 0
    bp, bq = angle_bracket(b, p, q, precision, precision)
    prefactor = -Fraction(1, m) * Fraction(1, F)
    return tuple(
        padic_of_rational(prefactor, prime, precision) * bracket**m * padic_of_rational(acc, prime, precision)
        for prime, bracket in ((p, bp), (q, bq))
    )


def _identical(x, y):
    """Field-wise equality of two PadicNumbers, the type of each field included."""

    def fields(z):
        return [(type(getattr(z, f)), getattr(z, f)) for f in ("p", "valuation", "unit", "precision")]

    return fields(x) == fields(y)


def _kummer_outcome(check, *args, prime=None):
    """The result (its entry at prime, if given) with the type of each
    valuation, or the text of the HypothesisError."""
    try:
        out = check(*args)
    except HypothesisError as exc:
        return str(exc)
    out = out if prime is None else out[prime]
    results = out.values() if isinstance(out, dict) else [out]
    return repr(out), [type(r.valuation) for r in results]


def test_kummer_pairs_match_the_fraction_difference():
    # zeta-sweep's range, i < 500 and j = i + k step below 500, at every n <= 3:
    # exact zeros at odd i, i = j at even i (a nonzero side, a zero difference,
    # read by the size bound) and denominators with v_5 >= 2 (i = 50, 150, 250)
    infinite, same_nonzero, deep = 0, 0, set()
    for primes in ((2,), (3,), (5,), (7,), (11,), (13,), (5, 7), (5, 11), (7, 13)):
        for n in (0, 1, 2, 3):
            step = lcm(*(ell**n * (ell - 1) for ell in primes))
            for i in range(2, 500):
                for j in {k for k in (2, i, i - step, i + step, i + step * ((499 - i) // step)) if 2 <= k < 500}:
                    if len(primes) == 1:
                        want = _kummer_outcome(_fraction_kummer, primes, i, j, n, prime=primes[0])
                        got = _kummer_outcome(kummer_check, *primes, i, j, n)
                    else:
                        want = _kummer_outcome(_fraction_kummer, primes, i, j, n)
                        got = _kummer_outcome(extended_kummer_check, *primes, i, j, n)
                    assert got == want, (primes, i, j, n)
                    if isinstance(want, str):
                        continue
                    infinite += "inf" in want[0]
                    if i == j:
                        assert want[0].count("valuation=inf") == len(want[1]), want
                        same_nonzero += i % 2 == 0
                    deep.update((ell, i) for ell in primes if padic_valuation(i, ell) >= 2)
    assert infinite > 0 and same_nonzero > 0 and {(5, 50), (5, 150), (5, 250)} <= deep
    # at the kummer cap (kummer --p 5 --i 1498 --j 1498 --n 0): both sides
    # nonzero, the difference exactly 0
    assert bernoulli(1498) != 0
    assert kummer_check(5, 1498, 1498, 0) == CongruenceResult(ok=True, required=1, valuation=float("inf"))
    assert all(type(r.valuation) is float and r.ok for r in extended_kummer_check(5, 7, 1498, 1498, 0).values())


def test_kl_branch_values_match_the_fraction_route():
    # the zeta-sweep branches: every t = 1 .. p^N - 1 on every even s0
    for p, N in ((5, 3), (7, 2), (13, 1)):
        for s0 in range(0, p - 1, 2):
            branch = KLBranch(p, s0, N)
            for t in range(1, p**N):
                got = kl_branch_eval(branch, t)
                assert _identical(got, _fraction_kl_branch_eval(branch, t)), (p, s0, N, t)


def test_double_branch_values_match_the_fraction_route():
    # every regular branch and the pole branch, every sigma up to the CLI's
    # Bernoulli-index cap 1500; even sigma0 gives B of odd index, an exact zero
    zeros = 0
    for p, q in ((5, 7), (5, 11), (7, 13), (11, 23)):
        period = (p - 1) * (q - 1)
        regular = sorted(set(range(-1, period - 1)) - excluded_sigma0(p, q))
        branches = [DoubleBranch(p, q, s0) for s0 in regular] + [DoubleBranch(p, q, -1, pole=True)]
        for branch in branches:
            for sigma in range(branch.pole, (1500 - branch.sigma0 - 1) // period + 1):
                value = _old_double_value(p, q, branch.sigma0 + sigma * period + 1)
                zeros += value == 0
                for N in (1, 2, 4, 6):
                    got = double_branch_eval(branch, sigma, N)
                    want = padic_of_rational(value, p, N), padic_of_rational(value, q, N)
                    assert type(got) is tuple and all(map(_identical, got, want)), (p, q, branch, sigma, N)
    assert zeros > 0


def test_kummer_reads_the_larger_index_first(monkeypatch):
    # one table build to max(i, j), not a rebuild to 2 min(i, j) past it
    monkeypatch.setattr(rationals, "_TABLE", rationals.BernoulliTable())
    res = kummer_check(5, 102, 154, 0)
    assert rationals._TABLE.max_index == 154
    assert res == kummer_check(5, 154, 102, 0) == _old_kummer_check(5, 102, 154, 0)
    assert extended_kummer_check(5, 7, 154, 10, 0) == extended_kummer_check(5, 7, 10, 154, 0)


def test_pq_hurwitz_matches_the_fraction_horner():
    for p, q, F in ((5, 7, 35), (5, 7, 105), (2, 3, 12), (3, 5, 15), (3, 7, 42)):
        bs = [b for b in range(1, F) if b % p and b % q][:8]
        for b in bs:
            for n in range(-40, 1):
                got = pq_hurwitz(n, b, F, p, q, 4)
                want = _fraction_pq_hurwitz(n, b, F, p, q, 4)
                assert all(map(_identical, got, want)), (n, b, F, p, q)


def test_the_truncated_hurwitz_sum_matches_the_fraction_horner_on_every_grid_point():
    # l in {2, 3} and v_l(F) > 1 included; at l = 2 the sum is sometimes
    # divisible by 4, so its precision doubles at least once
    for p, q in ((5, 7), (3, 5), (2, 3), (2, 5), (5, 11), (3, 7), (7, 13)):
        for F in (p * q, 2 * p * q, 3 * p * q, p * p * q, p * q**3):
            units = [b for b in range(1, F) if b % p and b % q]
            for b in {units[0], units[1], units[len(units) // 2], units[-1]}:
                y = Fraction(F, b)
                for n in [*range(0, -40, -1), -77, -130]:
                    m = 1 - n
                    acc = Fraction(0)
                    for c in [comb(m, j) * bernoulli(j) for j in range(m, -1, -1)]:
                        acc = acc * y + c
                    for N in (1, 2, 4, 6):
                        bp, bq = angle_bracket(b, p, q, N, N)
                        want = [padic_of_rational(-Fraction(1, m * F), prime, N) * bracket**m
                                * padic_of_rational(acc, prime, N) for prime, bracket in ((p, bp), (q, bq))]
                        got = pq_hurwitz(n, b, F, p, q, N)
                        assert all(map(_identical, got, want)), (n, b, F, p, q, N)


def test_pq_hurwitz_reads_only_the_first_bernoulli_numbers(monkeypatch):
    # the value at the pq-hurwitz cap, n = -2399, from the terms k <= 5 alone
    # (l = 5 and 7, v_l(35) = 1, N = 4, so K = 5), where the full sum reads
    # B_0..B_2400; the value is the Fraction Horner sum's
    monkeypatch.setattr(rationals, "_TABLE", rationals.BernoulliTable())
    got = pq_hurwitz(-2399, 2, 35, 5, 7, 4)
    assert rationals._TABLE.max_index == 4
    assert [(x.p, x.valuation, x.unit, x.precision) for x in got] == [(5, -3, 242, 4), (7, -1, 752, 4)]


def test_a_bernoulli_number_with_25_in_its_denominator_breaks_integrality(monkeypatch):
    table = rationals.BernoulliTable()
    table.values(20)
    table._values[4] = Fraction(-1, 150)  # B_4 = -1/30
    monkeypatch.setattr(rationals, "_TABLE", table)
    with pytest.raises(ArithmeticError, match="binomial Bernoulli sum lost integrality"):
        pq_hurwitz(-9, 2, 35, 5, 7, 4)
    # m = 3 reads no B_4
    assert all(map(_identical, pq_hurwitz(-2, 2, 35, 5, 7, 4), _fraction_pq_hurwitz(-2, 2, 35, 5, 7, 4)))
