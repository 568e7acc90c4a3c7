"""Acceptance suite: one test per criterion (split where a criterion bundles
independent claims), each printing a PASS/FAIL line.

Four sub-criteria are implemented exactly as stated and are expected to fail;
the analysis lives in the decisions ledger next to the repository.  In short:

  2b  the stated decay bound over-claims for the gamma-value window at
      (p=3, t=1, sigma=3); the uniform-continuity modulus there only
      supports sigma <= t.
  6b  the floor-form closed formula describes a differently normalized
      measure; already on the whole space it gives (1/a-1)/2 while the
      zeroth moment forces (a-1)/2.  The series route instead matches the
      independent generating-function oracle to certified precision.
  7b  j = 4 (and the other powers of two listed) provably never receives an
      exclusion witness: the inverses of 4 mod 3^r are (3^m+1)/4 with m odd,
      never divisible by 5, and the q-side inverses are always 1 mod 3.
  10d the real-limit reparametrization converges first order in 1/N, so no
      schedule ending at N = 32 can reach 1e-6 (N ~ 2^21 does).

Run directly (python tests/test_acceptance.py) for the line-per-criterion
report without pytest.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from pqzeta import analytic, chains, gamma, mahler, measures, padics, rationals, zetabranch
from pqzeta.padics import padic_of_rational, padic_valuation


def _ladder_residual(alpha, beta, n, phi):
    """Max residual of D_n D_n^+ - D_{n-1}^+ D_{n-1} - ((alpha+beta)/2) id on
    one function phi over layer n-1 (family alpha+2, beta+2), from the ladder
    operators themselves; D_0 maps to no layer, so at n = 1 that term is 0."""
    down_up = chains.lowering_operator(chains.raising_operator(phi, n, alpha, beta), n, alpha, beta)
    up_down = dict.fromkeys(phi, 0)
    if n >= 2:
        up_down = chains.raising_operator(
            chains.lowering_operator(phi, n - 1, alpha + 2, beta + 2), n - 1, alpha + 2, beta + 2
        )
    half = Fraction(alpha + beta, 2)
    return max(abs(down_up[key] - up_down[key] - half * phi[key]) for key in phi)


def _report(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


# -- criterion 1: Mahler round trip --------------------------------------------


def test_criterion_01_mahler_round_trip():
    rng = random.Random(2027)
    start = time.monotonic()
    checked = 0
    for trial in range(25):
        p = (3, 5, 7)[trial % 3]
        N, L = 8, 64
        window = [padic_of_rational(rng.randrange(p**N), p, N) for _ in range(L + 1)]
        series = mahler.mahler_coefficients(window, L, p, N)
        for m in range(L + 1):
            value = mahler.evaluate_mahler(series, m)
            keep = N if value.is_exact_zero else min(value.abs_precision, N)
            assert value.residue(keep) == window[m].residue(keep), (p, trial, m)
            checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    assert _report("1", ok, f"{checked} points reproduced exactly, {elapsed:.2f}s")


# -- criterion 2: Bojanic decay ------------------------------------------------


def test_criterion_02a_decay_characteristic_functions():
    s = 3
    violations = []
    for p in (3, 5):
        for t in (1, 2):
            L = 3 * p**t * s
            for b in range(0, p**t, max(1, p ** (t - 1))):
                window = [1 if k % p**t == b else 0 for k in range(L + 1)]
                report = mahler.verify_decay(window, p, s, t, L)
                if not report.ok:
                    violations.append((p, t, b, report.violation))
    assert _report("2a", not violations, f"characteristic windows, violations={violations}")


def test_criterion_02b_decay_morita_gamma():
    s = 3
    violations = []
    for p in (3, 5):
        for t in (1, 2):
            L = 3 * p**t * s
            window = [gamma.morita_gamma_exact(k, p) for k in range(L + 1)]
            report = mahler.verify_decay(window, p, s, t, L)
            if not report.ok:
                violations.append((p, t, report.violation))
    ok = not violations
    _report("2b", ok, f"gamma windows, violations={violations}")
    assert ok, (
        "stated bound over-claims: the gamma window's modulus gives sigma <= t, "
        f"and sigma=3 fails at t=1 for p=3; see decisions ledger ({violations})"
    )


# -- criterion 3: Morita gamma -------------------------------------------------


def test_criterion_03_morita_gamma():
    for p in (3, 5, 7):
        for n in range(501):
            lhs = gamma.morita_gamma_exact(n + 1, p)
            rhs = gamma.gamma_functional_step(n, p) * gamma.morita_gamma_exact(n, p)
            assert lhs == rhs, (p, n)
        for s in (1, 2, 3):
            report = gamma.gamma_continuity_check(p, s, 200)
            assert report.ok, (p, s)
        # Wilson cases: Gamma_p(p) = -(p-1)! = 1 mod p, and the generalized
        # product over a full window of units is -1 mod p^s
        assert gamma.morita_gamma(p, p, 1) == 1
        for s in (1, 2, 3):
            prod = 1
            for k in range(1, p**s):
                if k % p:
                    prod = prod * k % p**s
            assert prod == p**s - 1
    assert _report("3", True, "functional equation n<=500, continuity s<=3, Wilson")


# -- criterion 4: Kummer suites -------------------------------------------------


def test_criterion_04_kummer_suites():
    total = 0
    for p in (5, 7, 11):
        values = {}
        for i in range(2, 401):
            if i % (p - 1):
                values[i] = zetabranch.kl_value(p, i)
        for n in (0, 1, 2):
            modulus = p**n * (p - 1)
            for i in values:
                for j in values:
                    if j > i and (j - i) % modulus == 0:
                        diff = values[i] - values[j]
                        assert padic_valuation(diff, p) >= n + 1, (p, i, j, n)
                        total += 1
    extended = 0
    for p, q in ((5, 7), (5, 11), (7, 11)):
        values = {}
        for i in range(2, 401):
            if i % (p - 1) and i % (q - 1):
                values[i] = zetabranch.double_value(p, q, i)
        for n in (0, 1, 2):
            for i in values:
                for j in values:
                    if (
                        j > i
                        and (j - i) % (p**n * (p - 1)) == 0
                        and (j - i) % (q**n * (q - 1)) == 0
                    ):
                        diff = values[i] - values[j]
                        assert padic_valuation(diff, p) >= n + 1, (p, q, i, j, n)
                        assert padic_valuation(diff, q) >= n + 1, (p, q, i, j, n)
                        extended += 1
    assert _report("4", True, f"{total} single-prime and {extended} two-prime pairs, 100% pass")


# -- criterion 5: measure moments ------------------------------------------------


def test_criterion_05_measure_moments():
    start = time.monotonic()
    count = 0
    for a in (2, 3):
        for r in (1, 2, 3, 5):
            for m in range(25):
                measures.moment(a, r, m)  # both sides computed and compared inside
                count += 1
    # r = 1 recovers the plain twisted moments
    for m in range(25):
        assert measures.moment(2, 1, m) == (1 - Fraction(2) ** (m + 1)) * rationals.zeta_neg(m)
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    assert _report("5", ok, f"{count} both-sides equalities, {elapsed:.2f}s")


# -- criterion 6: open-set measure ----------------------------------------------


def test_criterion_06a_open_set_additivity():
    digits = 4
    for a in (2, 3):
        for p in (5, 7):
            tables = {n: measures.measure_open_set_table(a, p, n, digits) for n in (0, 1, 2)}
            for n in (1, 2):
                for b in range(p ** (n - 1)):
                    refined = sum(
                        tables[n][c].series_sum for c in range(p**n) if c % p ** (n - 1) == b
                    )
                    coarse = tables[n - 1][b].series_sum
                    assert padic_valuation(refined - coarse, p) >= digits, (a, p, n, b)
    assert _report("6a", True, "additivity over residues at precision p^-4")


def test_criterion_06b_open_set_floor_form():
    digits = 4
    mismatches = []
    for a in (2, 3):
        for p in (5, 7):
            for n in (0, 1, 2):
                table = measures.measure_open_set_table(a, p, n, digits)
                for b, entry in table.items():
                    if not entry.matches_conjecture(digits):
                        mismatches.append((a, p, n, b))
    ok = not mismatches
    _report("6b", ok, f"floor-form mismatches={len(mismatches)}")
    assert ok, (
        "the conjectured floor form describes a differently normalized measure "
        f"(see decisions ledger); {len(mismatches)} of the stated cases disagree, "
        f"first few: {mismatches[:4]}"
    )


# -- criterion 7: S(p,q) triviality ----------------------------------------------


def test_criterion_07a_inverse_formulas_vs_euclid():
    rng = random.Random(404)
    checked = 0
    while checked < 500:
        p = rng.choice([3, 5, 7])
        r = rng.randint(1, 4)
        s = rng.randint(r + 1, 6)
        if rng.random() < 0.5:
            u = (p**r + 1) // 2
            x = gamma.inverse_of_half_pr_plus_one(p, r, s)
        else:
            m, t = rng.randint(1, 9), rng.randint(1, 9)
            if t % p == 0:
                continue
            divisors = [d for d in range(1, 8) if (m * p**r + t) % d == 0]
            v = rng.choice(divisors)
            u = (m * p**r + t) // v
            if u % p == 0:
                continue
            x = gamma.inverse_general(m, r, t, v, p, s)
        assert x % p**s == pow(u % p**s, -1, p**s), (p, r, s)
        checked += 1
    assert _report("7a", True, f"{checked} inverse-formula cases equal extended Euclid")


def test_criterion_07b_triviality_sweep():
    undecided = {}
    for p, q in ((3, 5), (3, 7), (5, 7)):
        report = gamma.verify_triviality_theorem(p, q, 100, depth=16)
        if not report.all_excluded:
            undecided[(p, q)] = report.undecided
    ok = not undecided
    _report("7b", ok, f"undecided={undecided}")
    assert ok, (
        "the triviality claim fails for these j: the chain of inverses provably "
        f"never meets the other prime (see decisions ledger); undecided={undecided}"
    )


# -- criterion 8: branch well-definedness -----------------------------------------


def test_criterion_08_branch_representative_independence():
    rng = random.Random(88)
    failures = 0
    pairs = 0
    while pairs < 50:
        p = rng.choice([5, 7, 11])
        s0 = rng.randint(1, p - 2)
        N = 1 if p == 11 else rng.choice([1, 2])
        t = rng.randint(0, 4)
        k = rng.randint(1, 2)
        n1 = s0 + (p - 1) * t
        n2 = s0 + (p - 1) * (t + k * p**N)
        if n1 < 1 or n2 > 650:
            continue
        diff = zetabranch.kl_value(p, n1) - zetabranch.kl_value(p, n2)
        if padic_valuation(diff, p) < N + 1:
            failures += 1
        pairs += 1
    double_pairs = 0
    p, q = 5, 7
    M = (p - 1) * (q - 1)
    allowed = [s for s in range(0, M - 1) if s not in zetabranch.excluded_sigma0(p, q)]
    while double_pairs < 50:
        s0 = rng.choice(allowed)
        N = 1
        sigma = rng.randint(0, 2)
        k = rng.randint(1, 2)
        i = s0 + M * sigma + 1
        j = s0 + M * (sigma + k * p**N) + 1
        if i < 2 or j > 650:
            continue
        diff = zetabranch.double_value(p, q, i) - zetabranch.double_value(p, q, j)
        if padic_valuation(diff, p) < N + 1:
            failures += 1
        double_pairs += 1
    assert _report(
        "8", failures == 0, f"{pairs}+{double_pairs} representative pairs, {failures} failures"
    )


# -- criterion 9: universal power --------------------------------------------------


def test_criterion_09_universal_power():
    primes = (2, 3, 5, 7)
    n, N = 211, 4
    for s in range(51):
        out = zetabranch.universal_power(n, s, primes, N)
        for p in primes:
            assert out[p].residue(N) == pow(n, s, p**N), (p, s)
    for p in primes:
        for m in range(4):
            for k in (1, 2, 3, 10):
                assert pow(n, k + p**m, p ** (m + 1)) == pow(n, k, p ** (m + 1)), (p, m, k)
    assert _report("9", True, "series = modular exponentiation, s <= 50; continuity m <= 3")


# -- criterion 10: chains -----------------------------------------------------------


def _all_kernels():
    return [
        chains.kernel_padic_beta(5, 1, 1),
        chains.kernel_padic_beta(3, 2, 1),
        chains.kernel_q_beta(Fraction(1, 2), 1, 1),
        chains.kernel_q_beta(Fraction(1, 3), 2, 3),
        chains.kernel_real_beta(2, 2),
        chains.kernel_real_beta(1, 3),
        chains.kernel_q_gamma(Fraction(1, 2), 1),
        chains.kernel_basic(Fraction(1, 2), 2),
        chains.kernel_u_gamma(6, 1),
    ]


def test_criterion_10a_row_stochastic():
    for kernel in _all_kernels():
        assert kernel.is_row_stochastic(12), kernel.family
    assert _report("10a", True, "all kernels row-stochastic to depth 12")


def test_criterion_10b_real_beta_closed_form():
    pairs = ((2, 2), (2, 4), (1, 1), (3, 2), (1, 5), (4, 6))
    for alpha, beta in pairs:
        kernel = chains.kernel_real_beta(alpha, beta)
        for n in range(21):
            assert (
                chains.propagate(kernel, n).weights
                == chains.real_beta_layer_closed_form(alpha, beta, n).weights
            ), (alpha, beta, n)
    assert _report("10b", True, "propagation = rising-factorial closed form, n <= 20")


def test_criterion_10c_heisenberg():
    rng = random.Random(10)
    for alpha, beta in ((2, 2), (1, 3), (2, 4), (3, 5)):
        for n in range(1, 7):
            vectors = [
                {
                    (i, n - 1 - i): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for i in range(n)
                }
                for _ in range(2)
            ]
            assert all(_ladder_residual(alpha, beta, n, phi) == 0 for phi in vectors), (alpha, beta, n)
            assert chains.heisenberg_check(alpha, beta, n) == 0
    assert _report("10c", True, "ladder residual exactly 0, n <= 6, 4 parameter pairs")


def test_criterion_10d_q_beta_limits():
    schedule = [4, 8, 16, 32]
    padic = chains.limit_check("p-adic-beta", 5, 1, 1, schedule, 1e-6)
    real = chains.limit_check("real-beta", None, 2, 2, schedule, 1e-6)
    ok = padic.ok and real.ok
    _report(
        "10d",
        ok,
        f"p-adic final={padic.residuals[-1]:.2e}, real final={real.residuals[-1]:.2e}",
    )
    assert padic.ok, padic.residuals
    assert real.ok, (
        "the real reparametrization converges first order in 1/N; its residual at "
        f"N=32 is {real.residuals[-1]:.2e}, far above 1e-6 (see decisions ledger)"
    )


def test_criterion_11_q_zeta_limit():
    for s in (1, 2, 3):
        err = abs(chains.q_zeta(s / 40.0, 2.0**-40) - 1.0 / (1.0 - 2.0**-s))
        assert err < 1e-4, (s, err)
    assert _report("11", True, "q-zeta limit within 1e-4 at N = 40")


def test_criterion_12_analytic_shadows():
    x = 0.125
    while x <= 8.0 + 1e-9:
        assert abs(analytic.theta(1.0 / x) - math.sqrt(x) * analytic.theta(x)) < 1e-12, x
        x *= 1.2
    for s in (0.25, 0.4, 0.75, 2.0, 3.0):
        assert abs(analytic.completed_zeta(s) - analytic.completed_zeta(1.0 - s)) < 1e-10, s
    assert abs(analytic.completed_zeta(2.0) - math.pi / 6.0) < 1e-10
    for s, P, M in ((2.0, 10**4, 10**6), (3.0, 10**4, 10**6), (1.5, 10**4, 10**6)):
        report = analytic.euler_product_check(s, P, M)
        assert report.ok, (s, report.residual, report.tail_bound)
    assert _report("12", True, "theta, functional equation, pi/6, Euler-product bounds")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    raise SystemExit(1 if failures else 0)
