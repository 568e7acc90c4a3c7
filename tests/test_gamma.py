import random

import pytest

from pqzeta.gamma import (
    gamma_continuity_check,
    gamma_functional_step,
    inverse_general,
    inverse_of_half_pr_plus_one,
    morita_gamma,
    morita_gamma_exact,
    s_pq_membership,
    verify_triviality_theorem,
)


def test_morita_values():
    assert morita_gamma_exact(0, 5) == 1
    assert morita_gamma_exact(1, 5) == -1
    assert morita_gamma(6, 5, 2) == 24  # 1*2*3*4 with even sign
    # Wilson: Gamma_5(5) = -(4!) = -24 = 1 mod 5
    assert morita_gamma(5, 5, 1) == 1
    with pytest.raises(ValueError):
        morita_gamma(3, 2, 1)


def test_functional_equation_exact():
    for p in (3, 5, 7):
        for n in range(201):
            h = gamma_functional_step(n, p)
            assert morita_gamma_exact(n + 1, p) == h * morita_gamma_exact(n, p)
    assert gamma_functional_step(3, 5) == -3
    assert gamma_functional_step(10, 5) == -1


def test_gamma_units():
    for p in (3, 5, 7):
        for n in range(80):
            assert morita_gamma_exact(n, p) % p != 0


def test_continuity_congruence():
    assert gamma_continuity_check(5, 1, 50).ok
    assert gamma_continuity_check(3, 2, 60).ok
    assert gamma_continuity_check(7, 2, 40).ok


@pytest.mark.parametrize(
    "s, upto",
    [(0, 50), (-1, 50), (1, -1), (9, 0), (12, 50), (13, 50), (10**100, 50)],
)
def test_continuity_check_refuses_a_span_outside_its_domain(s, upto):
    # s >= 1, upto >= 0 and p^s + upto <= 10^6 (5^9 = 1953125 already exceeds it)
    with pytest.raises(ValueError, match=r"p\^s \+ upto <= 10\^6"):
        gamma_continuity_check(5, s, upto)


def test_continuity_check_takes_the_largest_span():
    assert gamma_continuity_check(3, 12, 10**6 - 3**12).ok


def test_unrestricted_factorial_fails_continuity():
    report = gamma_continuity_check(5, 1, 50, restricted=False)
    assert not report.ok
    assert report.first_failure is not None


def test_inverse_half_formula():
    assert inverse_of_half_pr_plus_one(3, 1, 2) == 5
    assert inverse_of_half_pr_plus_one(5, 1, 3) == 42
    for p in (3, 5, 7, 11):
        for r in range(1, 4):
            for s in range(r + 1, 7):
                u = (p**r + 1) // 2
                x = inverse_of_half_pr_plus_one(p, r, s)
                assert 0 < x < p**s
                assert u * x % p**s == 1
                assert x == pow(u, -1, p**s)


def test_inverse_general_specializes():
    for p in (3, 5, 7):
        for r in range(1, 3):
            for s in range(r + 1, 6):
                assert inverse_general(1, r, 1, 2, p, s) == inverse_of_half_pr_plus_one(
                    p, r, s
                ) % p**s


def test_inverse_general_example_and_grid():
    # inverse of (3 + 2)/1 = 5 mod 9
    assert inverse_general(1, 1, 2, 1, 3, 2) == 2
    rng = random.Random(31)
    count = 0
    while count < 120:
        p = rng.choice([3, 5, 7])
        r = rng.randint(1, 3)
        s = rng.randint(r + 1, 5)
        m = rng.randint(1, 6)
        t = rng.randint(1, 8)
        if t % p == 0:
            continue
        target = m * p**r + t
        v = rng.choice([d for d in range(1, 7) if target % d == 0])
        u = target // v
        if u % p == 0:
            continue
        x = inverse_general(m, r, t, v, p, s)
        assert x == pow(u % p**s, -1, p**s)
        count += 1


def test_inverse_general_guards():
    with pytest.raises(ValueError):
        inverse_general(1, 1, 2, 4, 3, 2)  # 4 does not divide 5
    with pytest.raises(ValueError):
        inverse_general(1, 1, 3, 1, 3, 2)  # t shares the prime


def euclid_division_steps(a: int, b: int) -> int:
    """Number of division steps of the Euclidean algorithm on (a, b), a > b."""
    steps = 0
    while b:
        a, b = b, a % b
        steps += 1
    return steps


def test_euclid_parity_matches_alternation_depth():
    # the number of division steps on (u, p^s) has the parity of the maximal
    # n with nr < s; verified for p >= 5 (p = 3 has degenerate small cases)
    for p in (5, 7, 11, 13):
        for r in range(1, 4):
            for s in range(r + 1, 8):
                u = (p**r + 1) // 2
                n = (s - 1) // r
                steps = euclid_division_steps(u, p**s)
                assert steps % 2 == n % 2, (p, r, s)


def test_membership_witnesses():
    w = s_pq_membership(2, 3, 5, depth=4)
    assert w is not None and w.side == "p-side"
    assert w.exponent == 2 and w.inverse == 5 and w.divisor == 5
    w = s_pq_membership(2, 3, 7, depth=4)
    assert w is not None  # 14 = 2 * 7 shows up as an inverse of 2 mod 27
    with pytest.raises(ValueError):
        s_pq_membership(1, 3, 5)
    with pytest.raises(ValueError):
        s_pq_membership(6, 3, 5)


def test_membership_search_needs_depth_one():
    assert s_pq_membership(2, 3, 5, depth=1).side == "q-side"  # 2^-1 = 3 mod 5
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            s_pq_membership(2, 3, 5, depth=depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            verify_triviality_theorem(3, 5, 5, depth=depth)


def test_triviality_sweep_needs_j_bound_two():
    # no j lies in 2 <= j <= j_bound, so "all excluded" would hold vacuously
    for j_bound in (1, 0, -5):
        with pytest.raises(ValueError, match="j_bound >= 2"):
            verify_triviality_theorem(3, 5, j_bound)
    report = verify_triviality_theorem(3, 5, 2)
    assert set(report.witnesses) | set(report.undecided) == {2}


def test_triviality_sweep_reports_witnesses_and_undecided():
    report = verify_triviality_theorem(3, 5, 30, depth=12)
    assert set(report.witnesses) | set(report.undecided) == {
        j for j in range(2, 31) if j % 3 and j % 5
    }
    # every witness is genuine
    for j, w in report.witnesses.items():
        modulus = (3 if w.side == "p-side" else 5) ** w.exponent
        assert j * w.inverse % modulus == 1
        assert w.inverse % w.divisor == 0


def test_two_power_non_exclusion_is_structural():
    """The inverses of 4 mod 3^r are (3^m + 1)/4 with m odd, never divisible
    by 5 (that needs m = 2 mod 4); the q-side inverses are always 1 mod 3.
    So j = 4 can never receive a witness for (p, q) = (3, 5) at any depth."""
    for r in range(1, 40):
        x = pow(4, -1, 3**r)
        m = r if r % 2 else r + 1
        assert x == (3**m + 1) // 4
        assert x % 5 != 0
    for s in range(1, 25):
        assert pow(4, -1, 5**s) % 3 == 1
    assert s_pq_membership(4, 3, 5, depth=24) is None


def test_membership_is_independent_of_earlier_queries():
    first = s_pq_membership(7, 3, 5, 16)
    assert (first.side, first.exponent) == ("p-side", 6)
    s_pq_membership(7, 3, 5, 3)
    assert s_pq_membership(7, 3, 5, 16) == first


def test_reduced_gamma_is_exact_gamma_reduced():
    for p in (3, 5, 7, 11):
        for e in (1, 2, 3, 5):
            for n in range(0, 300, 7):
                assert morita_gamma(n, p, e) == morita_gamma_exact(n, p) % p**e


def test_composite_primes_rejected():
    for call in (
        lambda: morita_gamma(5, 9, 1),
        lambda: morita_gamma_exact(5, 4),
        lambda: gamma_functional_step(3, 6),
        lambda: gamma_continuity_check(9, 1, 10),
        lambda: inverse_of_half_pr_plus_one(9, 1, 2),
        lambda: inverse_general(1, 1, 1, 2, 9, 2),
        lambda: s_pq_membership(7, 4, 5),
        lambda: verify_triviality_theorem(3, 15, 10),
    ):
        with pytest.raises(ValueError):
            call()
