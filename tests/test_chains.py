import math
import random
import time
from fractions import Fraction

import pytest

from pqzeta.chains import (
    hahn_basis,
    heisenberg_check,
    kernel_basic,
    kernel_padic_beta,
    kernel_q_beta,
    kernel_q_gamma,
    kernel_real_beta,
    kernel_u_gamma,
    LimitReport,
    layer_inner_product,
    limit_check,
    lowering_operator,
    parse_kernel_spec,
    propagate,
    q_integer,
    q_zeta,
    raising_operator,
    real_beta_layer_closed_form,
)
from pqzeta.padics import padic_of_rational


def row_sum(kernel, state):
    return sum(pr for _, pr in kernel.step(state))


def ladder_residual(alpha, beta, n, phi):
    """Max residual of D_n D_n^+ - D_{n-1}^+ D_{n-1} - ((alpha+beta)/2) id on
    one function phi over layer n-1 (family alpha+2, beta+2), from the ladder
    operators themselves; D_0 maps to no layer, so at n = 1 that term is 0."""
    down_up = lowering_operator(raising_operator(phi, n, alpha, beta), n, alpha, beta)
    up_down = dict.fromkeys(phi, 0)
    if n >= 2:
        up_down = raising_operator(
            lowering_operator(phi, n - 1, alpha + 2, beta + 2), n - 1, alpha + 2, beta + 2
        )
    half = Fraction(alpha + beta, 2)
    return max(abs(down_up[key] - up_down[key] - half * phi[key]) for key in phi)


def test_padic_beta_entries():
    p = 5
    k = kernel_padic_beta(p, 1, 1)
    expected = (1 - Fraction(1, 5)) / (1 - Fraction(1, 25))
    assert k.transition((0, 0), (0, 1)) == expected
    assert row_sum(k, (0, 0)) == 1
    assert k.transition((3, 0), (4, 0)) == Fraction(1, 5)
    assert k.transition((2, 4), (2, 5)) == 1


def test_q_beta_row_sums_algebraic():
    k = kernel_q_beta(Fraction(1, 2), 1, 1)
    assert k.transition((0, 0), (0, 1)) == Fraction(2, 3)
    for i in range(5):
        for j in range(5):
            assert row_sum(k, (i, j)) == 1


def test_real_beta_entries():
    k = kernel_real_beta(2, 2)
    assert k.transition((0, 0), (0, 1)) == Fraction(1, 2)
    assert k.transition((1, 0), (2, 0)) == Fraction(4, 6)
    for i in range(6):
        for j in range(6):
            assert row_sum(k, (i, j)) == 1


def test_gamma_and_basic_kernels():
    g = kernel_q_gamma(Fraction(1, 2), 1)
    for st in ((0, 0), (3, 1), (5, 2)):
        assert row_sum(g, st) == 1
    b = kernel_basic(Fraction(1, 2), 1)
    assert b.transition(0, 0) == Fraction(1, 2)
    assert row_sum(b, 0) == 1
    # large beta: the stay probability dies and the chain shifts
    shifty = kernel_basic(Fraction(1, 2), 40)
    assert shifty.transition(0, 1) == 1 - Fraction(1, 2) ** 40


def test_u_gamma_kernel():
    k = kernel_u_gamma(6, 2)
    assert row_sum(k, (0, 0)) == 1
    assert k.transition((3, 2), (4, 3)) == 1
    assert k.transition((1, 0), (2, 0)) == Fraction(1, 36)


def test_u_gamma_crt_reduction():
    from pqzeta.padics import crt_pair

    primes = (2, 3, 5)
    M = 4
    u = 0
    mod = 1
    for p in primes:
        u = crt_pair(u, mod, p % p**M, p**M) if mod > 1 else p % p**M
        mod = mod * p**M if mod > 1 else p**M
    beta = 2
    for p in primes:
        x = padic_of_rational(Fraction(1, u**beta), p, 2)
        assert x.valuation == -beta


def test_row_stochastic_sweep():
    kernels = [
        kernel_padic_beta(5, 1, 2),
        kernel_q_beta(Fraction(1, 3), 2, 1),
        kernel_real_beta(1, 3),
        kernel_q_gamma(Fraction(1, 2), 2),
        kernel_basic(Fraction(2, 3), 1),
        kernel_u_gamma(10, 1),
    ]
    for k in kernels:
        assert k.is_row_stochastic(12)


def test_propagate_real_beta_first_layers():
    k = kernel_real_beta(2, 2)
    law1 = propagate(k, 1)
    assert law1.weights == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    law2 = propagate(k, 2)
    assert law2.weights == {
        (0, 2): Fraction(1, 3),
        (1, 1): Fraction(1, 3),
        (2, 0): Fraction(1, 3),
    }
    assert sum(law2.weights.values()) == 1


def test_closed_form_matches_propagation():
    for alpha, beta in ((2, 2), (2, 4), (1, 1), (3, 2), (1, 5), (4, 6)):
        k = kernel_real_beta(alpha, beta)
        for n in range(8):
            law = propagate(k, n)
            closed = real_beta_layer_closed_form(alpha, beta, n)
            assert law.weights == closed.weights
            assert sum(closed.weights.values()) == 1


def test_closed_form_one_step_example():
    closed = real_beta_layer_closed_form(2, 4, 1)
    assert closed.weights[(1, 0)] == Fraction(1, 3)
    assert closed.weights[(0, 1)] == Fraction(2, 3)


def test_limit_check_padic():
    report = limit_check("p-adic-beta", 5, 1, 1, [4, 8, 16, 32], 1e-6)
    assert report.decreasing
    assert report.final_ok
    # fixed start state converges to the target entry
    k32 = (1 - Fraction(5) ** -1) / (1 - Fraction(5) ** -2)
    target = kernel_padic_beta(5, 1, 1).transition((0, 0), (0, 1))
    assert k32 == target


def test_limit_check_real_converges_slowly():
    report = limit_check("real-beta", None, 2, 2, [4, 8, 16, 32], 1e-6)
    assert report.decreasing
    assert not report.final_ok  # first-order in 1/N: far above 1e-6 at N=32
    deep = limit_check("real-beta", None, 2, 2, [1 << 18, 1 << 21], 1e-6, depth=6)
    assert deep.residuals[-1] < 1e-6


def test_heisenberg_zero_residual():
    assert heisenberg_check(2, 2, 1) == 0
    assert heisenberg_check(1, 3, 2) == 0
    rng = random.Random(7)
    for n in (2, 3, 4):
        vectors = [
            {(i, n - 1 - i): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(n)}
            for _ in range(3)
        ]
        assert all(ladder_residual(2, 4, n, phi) == 0 for phi in vectors)


def test_lowering_kills_constants():
    for n in (1, 2, 5):
        ones = {(i, n - i): Fraction(1) for i in range(n + 1)}
        image = lowering_operator(ones, n, 2, 2)
        assert all(v == 0 for v in image.values())


def test_hahn_basis_orthogonality():
    for alpha, beta in ((2, 2), (1, 3)):
        n = 3
        basis = hahn_basis(alpha, beta, n)
        law = real_beta_layer_closed_form(alpha, beta, n)
        assert len(basis) == n + 1
        assert set(basis[0].values()) == {Fraction(1)}
        for m1 in range(n + 1):
            for m2 in range(m1):
                assert layer_inner_product(basis[m1], basis[m2], law) == 0
            assert layer_inner_product(basis[m1], basis[m1], law) != 0


def test_hahn_basis_spans_like_gram_schmidt():
    alpha = beta = 2
    n = 3
    basis = hahn_basis(alpha, beta, n)
    law = real_beta_layer_closed_form(alpha, beta, n)
    # Gram-Schmidt on the monomials 1, j, j^2, ... under the same weights
    monomials = [
        {state: Fraction(state[1] ** m) for state in law.weights} for m in range(n + 1)
    ]
    gs: list[dict] = []
    for vec in monomials:
        work = dict(vec)
        for prev in gs:
            coeff = layer_inner_product(vec, prev, law) / layer_inner_product(prev, prev, law)
            work = {k: work[k] - coeff * prev[k] for k in work}
        gs.append(work)
    for m in range(n + 1):
        ratios = {
            k: basis[m][k] / gs[m][k] for k in gs[m] if gs[m][k] != 0 or basis[m][k] != 0
        }
        assert len(set(ratios.values())) == 1  # proportional vectors


def test_q_integers():
    assert q_integer(0, Fraction(1, 2)) == 0
    assert q_integer(2, Fraction(1, 3)) == 1 + Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        q_integer(3, 1)


def test_q_zeta_limits():
    assert abs(q_zeta(2.0, 1e-9) - 1.0) < 1e-8  # empty-product regime
    for s in (1, 2, 3):
        for N in (5, 10, 20, 40):
            q = 2.0**-N
            err = abs(q_zeta(s / N, q) - 1.0 / (1.0 - 2.0**-s))
            if N == 40:
                assert err < 1e-4
    # truncation error shrinks along the schedule
    errs = [
        abs(q_zeta(1.0 / N, 2.0**-N) - 2.0) for N in (5, 10, 20, 40)
    ]
    assert errs == sorted(errs, reverse=True)


def q_zeta_by_loop(s, q):
    """q_zeta as first written: factors until the tail test passes, and out
    of reach once 10^6 + 1 factors have not passed it."""
    prod, n = 1.0, 0
    while True:
        term = q ** (s + n)
        if term / (1.0 - q) < 1e-14:
            return prod
        prod /= 1.0 - term
        n += 1
        if n > 10**6:
            return "out of reach"


def test_q_zeta_decides_reach_as_the_loop_did():
    """At the edge of 10^6 factors the up-front refusal agrees with the loop
    that counted them, and an accepted product is the loop's, bit for bit."""
    for q, shift in ((1 - 3e-5, -0.6), (1 - 3e-5, 0.6), (1 - 2e-5, 0.3)):
        s = math.log(1e-14 * (1 - q)) / math.log(q) - 10**6 + shift
        want = q_zeta_by_loop(s, q)
        if want == "out of reach":
            with pytest.raises(ValueError, match="needs more than 10"):
                q_zeta(s, q)
        else:
            assert q_zeta(s, q) == want
    for s, q in ((2.0, 0.5), (0.5, 0.99), (-2.5, 0.3), (1e-3, 0.9)):
        assert q_zeta(s, q) == q_zeta_by_loop(s, q)
    for s in (0.0, -1.0, -4.0):
        with pytest.raises(ValueError, match="pole"):
            q_zeta(s, 0.5)


def test_q_zeta_refuses_an_underflowed_product():
    for s, q in ((-400.5, 0.9), (-1000.5, 0.5)):
        with pytest.raises(ValueError, match=f"leaves the normal floats at s = {s}, q = {q}"):
            q_zeta(s, q)
    # -1.34e-143 is a normal float, and stays a value
    assert q_zeta(-30.5, 0.5) == -1.3423991614450568e-143


@pytest.mark.parametrize("schedule", [[0], [0, 4], [4, -8], []])
def test_limit_check_needs_every_n_at_least_one(schedule):
    for target, p in (("p-adic-beta", 5), ("real-beta", None)):
        with pytest.raises(ValueError, match="needs every N >= 1"):
            limit_check(target, p, 1, 1, schedule, 1e-6)


def test_limit_check_rejects_a_nan_or_negative_tolerance():
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            limit_check("p-adic-beta", 5, 1, 1, [4], tol)


def test_limit_check_needs_a_depth_of_at_least_zero():
    # depth -1 leaves no state, so its all-zero residuals would check nothing
    for target, p in (("p-adic-beta", 5), ("real-beta", None)):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            limit_check(target, p, 1, 1, [4, 8], 1e-6, depth=-1)


def test_parse_kernel_spec():
    k = parse_kernel_spec("real-beta:alpha=2,beta=2")
    assert k.family == "real-beta"
    assert k.transition((0, 0), (0, 1)) == Fraction(1, 2)
    k = parse_kernel_spec("p-beta:p=5,alpha=1,beta=1")
    assert k.family == "p-beta"
    k = parse_kernel_spec("p-gamma:p=5,beta=2")
    assert k.family == "q-gamma"
    assert k.params["q"] == Fraction(1, 5)
    with pytest.raises(ValueError):
        parse_kernel_spec("mystery:x=1")


def _digits_formed(spec: str, layers: int, monkeypatch) -> tuple[int, Exception | None]:
    """The most digits of a numerator or denominator among the powers that
    ``_pow`` returns and the weights that ``propagate`` returns as
    chain-propagate builds, checks and propagates the kernel, and the
    ValueError or ZeroDivisionError that ended the run, if one did."""
    from pqzeta import chains

    most = [0]

    def note(x):
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            most[0] = max(most[0], len(str(abs(x.numerator))), len(str(x.denominator)))
        return x

    pow_ = chains._pow
    with monkeypatch.context() as patch:
        patch.setattr(chains, "_pow", lambda base, exponent: note(pow_(base, exponent)))
        try:
            kernel = parse_kernel_spec(spec)
            if kernel.is_row_stochastic(min(layers, 12)):
                for weight in propagate(kernel, layers).weights.values():
                    note(weight)
        except (ValueError, ZeroDivisionError) as exc:
            return most[0], exc
    return most[0], None


def test_no_run_forms_a_power_or_weight_of_more_than_4300_digits(monkeypatch):
    """Every power and weight a run forms has at most 4300 digits, or the run
    raises ValueError; near the limit the check lets a 4300-digit power or
    weight through and refuses one digit more, and the billion exponents of
    p-beta and q-beta (with beta = 1/2, or alpha + beta = 1) are refused
    before the power is formed."""
    values = ("-3", "0", "1", "2", "7", "1/2", "0.5")
    specs = [f"{family}:{base},beta={beta}" for family, base in
             (("basic", "q=1/2"), ("basic", "q=9/10"), ("q-gamma", "q=2/3"), ("q-gamma", "q=3/2"),
              ("p-gamma", "p=3"), ("u-gamma", "u=2")) for beta in values]
    specs += [f"{family}:{base},alpha={alpha},beta={beta}" for family, base in
              (("q-beta", "q=1/2"), ("q-beta", "q=9/10"), ("q-beta", "q=3/2"), ("p-beta", "p=2"), ("p-beta", "p=5"))
              for alpha in values for beta in values]
    checked = 0
    for spec in specs:
        for layers in (0, 1, 2, 9, 13):
            formed, error = _digits_formed(spec, layers, monkeypatch)
            assert formed <= 4300, (spec, layers)
            checked += error is None
    assert checked > 1000
    refused = "more than 4300 digits"
    for spec, layers, most, error in (
        ("u-gamma:u=2,beta=7142", 2, 4300, None),  # the layer-2 weights 2^-14284
        ("u-gamma:u=2,beta=7143", 2, 2151, "layer 2 has a weight of " + refused),
        ("p-beta:p=2,alpha=14284,beta=1", 2, 4300, "the exact power 2^-14285 has " + refused),
        ("q-beta:q=1/2,alpha=14284,beta=1/2", 2, 4300, "the exact power 1/2^14285 has " + refused),
        ("basic:q=1/10,beta=4299", 0, 4300, None),  # 10^4299 is formed and compared
        ("basic:q=1/10,beta=4300", 0, 0, "the exact power 1/10^4300 has " + refused),
        ("real-beta:alpha=1e300,beta=1", 140, 0, "layer 15 has a weight of " + refused),
        ("p-beta:p=2,alpha=1000000000,beta=1", 2, 1, "the exact power 2^-1000000000 has " + refused),
        ("q-beta:q=1/2,alpha=1000000000,beta=1/2", 2, 0, "the exact power 1/2^1000000000 has " + refused),
        ("q-beta:q=1/2,alpha=1000000000,beta=-999999999", 2, 1, "the exact power 1/2^-999999999 has " + refused),
    ):
        start = time.perf_counter()
        formed, exc = _digits_formed(spec, layers, monkeypatch)
        assert time.perf_counter() - start < 0.5, spec  # 2^(10^9) alone takes seconds
        assert (formed, exc if exc is None else str(exc)) == (most, error), spec
        assert exc is None or type(exc) is ValueError


def test_float_mode_row_sums():
    k = kernel_q_beta(0.5**0.25, 1.0, 1.0)
    assert not k.exact
    for i in range(4):
        for j in range(4):
            assert abs(row_sum(k, (i, j)) - 1.0) < 1e-12


def test_exact_agreement_reads_as_converged():
    # depth 0 keeps the one state (0, 0), which agrees exactly for every N
    report = limit_check("p-adic-beta", 5, 1, 1, [4, 8, 16, 32], 1e-6, depth=0)
    assert report.residuals == [0.0] * 4 and report.decreasing and report.ok
    for residuals, decreasing in (
        ([0.5, 0.0, 0.0], True),
        ([0.5, 0.25], True),
        ([0.5, 0.5], False),  # flat but nonzero
        ([0.0, 0.5], False),
        ([0.25, 0.5], False),
    ):
        assert LimitReport("p-adic-beta", [4] * len(residuals), residuals, 1e-6).decreasing is decreasing


def test_final_residual_may_equal_the_tolerance():
    for residuals, tol, final_ok in (
        ([0.0, 0.0], 0.0, True),
        ([0.5, 0.25], 0.25, True),
        ([0.5, 0.25], 0.125, False),
    ):
        assert LimitReport("p-adic-beta", [4, 8], residuals, tol).final_ok is final_ok
