import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pqzeta import analytic
from pqzeta.analytic import (
    completed_zeta,
    completed_zeta_dirichlet,
    euler_product_check,
    primes_up_to,
    theta,
    weil_finite,
    zeta_dirichlet,
)


def test_theta_large_argument():
    assert abs(theta(60.0) - 1.0) < 1e-15


def test_theta_transformation_grid():
    x = 0.125
    while x <= 8.0 + 1e-9:
        assert abs(theta(1.0 / x) - math.sqrt(x) * theta(x)) < 1e-12
        x *= 1.25
    # the fixed point x = 1
    assert abs(theta(1.0) - 1.0 * theta(1.0)) == 0.0


def test_theta_half_vs_two():
    assert abs(theta(0.5) - math.sqrt(2.0) * theta(2.0)) < 1e-12


def test_lambda_symmetry_is_structural():
    for s in (0.25, 0.4, 0.75, 2.0, 3.0):
        assert abs(completed_zeta(s) - completed_zeta(1.0 - s)) < 1e-10


def test_lambda_at_two():
    assert abs(completed_zeta(2.0) - math.pi / 6.0) < 1e-10


def test_lambda_matches_dirichlet_oracle():
    for s in (2.0, 2.5, 3.0, 4.0):
        assert abs(completed_zeta(s) - completed_zeta_dirichlet(s)) < 1e-10


def test_lambda_pole_guard():
    with pytest.raises(ZeroDivisionError):
        completed_zeta(0.0)
    with pytest.raises(ZeroDivisionError):
        completed_zeta(1.0)


def test_lambda_matches_mpmath_on_the_supported_range():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for k in range(1201):
            s = (k - 580) / 40  # s = -14.5, -14.475, ..., 15.5
            if s in (0.0, 1.0):
                continue
            # Lambda(s) = Lambda(1 - s) keeps the reference off the poles of Gamma(s/2)
            t = mpmath.mpf(max(s, 1.0 - s))
            exact = mpmath.pi ** (-t / 2) * mpmath.gamma(t / 2) * mpmath.zeta(t)
            worst = max(worst, float(abs((completed_zeta(s) - exact) / exact)))
    assert worst <= 2e-14


def test_zeta_dirichlet_known_values():
    assert abs(zeta_dirichlet(2.0) - math.pi**2 / 6.0) < 1e-12
    assert abs(zeta_dirichlet(4.0) - math.pi**4 / 90.0) < 1e-12


def zeta_from_lambda(s: float) -> float:
    """zeta recovered from the continuation: Lambda(s) pi^(s/2) / Gamma(s/2).

    1/Gamma is computed by lifting the argument past the poles, so the
    trivial zeros at negative even s come out as genuine zeros.
    """
    x = s / 2.0
    prefactor = 1.0
    while x < 1.0:
        prefactor *= x
        x += 1.0
    return completed_zeta(s) * math.pi ** (s / 2.0) * prefactor / math.gamma(x)


def test_trivial_zero_recovered():
    assert abs(zeta_from_lambda(-2.0 + 1e-6)) < 1e-5
    assert abs(zeta_from_lambda(-2.5)) > 1e-3
    assert abs(zeta_from_lambda(2.0) - math.pi**2 / 6.0) < 1e-9


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_euler_product_residuals():
    rep = euler_product_check(2.0, 10**4, 10**6)
    assert rep.residual < 1e-4 and rep.ok
    rep = euler_product_check(3.0, 10**4, 10**6)
    assert rep.residual < 1e-7 and rep.ok
    rep = euler_product_check(1.5, 10**4, 10**6)
    assert rep.ok


def test_euler_product_residual_decreases_with_cutoffs():
    small = euler_product_check(2.0, 10**3, 10**5)
    large = euler_product_check(2.0, 10**4, 10**6)
    assert large.residual < small.residual


def test_weil_single_term():
    p = 7
    f = lambda x: 1.0 if abs(x - p) < 1e-9 else 0.0
    assert abs(weil_finite(f, p, 10) - math.log(p) * p**-0.5) < 1e-15


def test_weil_symmetric_profile_doubles():
    p = 5
    g = lambda x: math.exp(-(math.log(x) ** 2))
    total = weil_finite(g, p, 40)
    one_sided = sum(
        p ** (-n / 2.0) * math.exp(-((n * math.log(p)) ** 2)) for n in range(1, 41)
    )
    assert abs(total - 2.0 * math.log(p) * one_sided) < 1e-14


def test_weil_tail_stability():
    g = lambda x: math.exp(-(math.log(x) ** 2))
    v1 = weil_finite(g, 2, 30)
    v2 = weil_finite(g, 2, 60)
    assert abs(v1 - v2) < 1e-14


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).parents[1]))
    code = "import sys, pqzeta.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"
