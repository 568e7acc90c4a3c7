import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqzeta
from pqzeta import cli, mahler
from pqzeta.cli import COMMANDS, CSV_SCHEMA, FORMATS, REQUIRED, build_parser, parse, run
from pqzeta.padics import padic_reduce_abs

_BILLION = 10**9


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_zeta_neg_command():
    code, out = _run(["zeta-neg", "--m", "1"])
    assert code == 0
    assert "-1/12" in out
    assert out.splitlines()[0] == CSV_SCHEMA


def test_bernoulli_command_json():
    code, out = _run(["--format", "json", "bernoulli", "--upto", "4"])
    assert code == 0
    rows = json.loads(out)
    assert rows[2]["B_k"] == "1/6"


def test_padic_command():
    code, out = _run(["padic", "--value", "1/3", "--p", "5", "--precision", "3"])
    assert code == 0
    assert "(0, 42, 3)" in out
    code, out = _run(["padic", "--ideal", "12", "--p", "2"])
    assert code == 0 and "2" in out


def test_teichmuller_command():
    code, out = _run(["teichmuller", "--n", "2", "--p", "3", "--q", "5", "--precision", "2"])
    assert code == 0
    assert "107" in out


def test_mahler_coeffs_checks_the_printed_series(monkeypatch):
    """--window sums the printed series back at every window integer and
    exits 1 when an entry does not come back at the claimed digits."""
    argv = ["mahler-coeffs", "--window", "1,4,9,16,1/3", "--p", "3", "--precision", "4"]
    code, out = _run(argv)
    assert code == 0 and out.splitlines()[2] == "3 4 5"
    evaluate = mahler.evaluate_mahler

    def off_by_one(series, x):
        value = evaluate(series, x)
        return value + padic_reduce_abs(1, series.p, series.precision) if x == 4 else value

    monkeypatch.setattr(mahler, "evaluate_mahler", off_by_one)
    code, out = _run(argv)
    assert code == 1 and "window entry at 4" in out


def test_kummer_command_pass_and_usage():
    code, out = _run(["kummer", "--p", "5", "--i", "2", "--j", "6", "--n", "0"])
    assert code == 0 and "True" in out
    code, _ = _run(["kummer", "--p", "5", "--i", "4", "--j", "8", "--n", "0"])
    assert code == 2  # hypothesis violation is a usage error, not a counterexample


def test_spq_sweep_command():
    code, out = _run(["spq-sweep", "--p", "3", "--q", "5", "--jmax", "20", "--depth", "12"])
    # j = 4, 8, 16 are undecided: the sweep reports a counterexample exit
    assert code == 1
    assert "undecided" in out
    code, out = _run(["spq-sweep", "--p", "3", "--q", "5", "--jmax", "3", "--depth", "12"])
    assert code == 0


def test_decay_check_command():
    window = ",".join(str(k) for k in range(20))
    code, out = _run(["decay-check", "--window", window, "--p", "5", "--s", "2", "--t", "1"])
    assert code == 0
    code, out = _run(
        ["decay-check", "--window", ",".join(f"1/{k+1}" for k in range(20)), "--p", "5",
         "--s", "1", "--t", "1"]
    )
    assert code == 1


def test_chain_commands():
    code, out = _run(
        ["chain-propagate", "--kernel", "real-beta:alpha=2,beta=2", "--layers", "2",
         "--closed-form"]
    )
    assert code == 0 and "1/3" in out
    code, out = _run(
        ["chain-limits", "--target", "p-adic-beta", "--p", "5", "--schedule", "4,8,16",
         "--tol", "1e-6"]
    )
    assert code == 0


def test_heisenberg_and_hahn_commands():
    code, out = _run(["heisenberg", "--alpha", "1", "--beta", "3", "--n", "2"])
    assert code == 0
    assert out.strip().endswith("0")
    code, out = _run(["hahn-basis", "--n", "2"])
    assert code == 0


def test_moments_command():
    code, out = _run(["moments", "--a", "2", "--mmax", "4"])
    assert code == 0 and "1/4" in out
    code, out = _run(["moments", "--a", "3", "--pair", "5,7", "--restricted", "--mmax", "2"])
    assert code == 0 and "16" in out


def test_moments_delta_row_is_the_delta_operator_at_one():
    """The delta_n row is the n-th Taylor coefficient of Psi_r at t = 1; the
    symbolic quotient-rule chain of the delta operator is the oracle."""
    from fractions import Fraction

    from test_measures import delta_at_one, psi_r_fraction

    ns = (0, 1, 2, 5, 9, 12)
    for a in range(2, 7):
        for r in (1, 2, 3):
            want = delta_at_one(*psi_r_fraction(a, r), max(ns))
            for p in (2, 3, 5, 7, 11):
                if a % p == 0:
                    continue
                for n in ns:
                    argv = ["moments", "--a", str(a), "--r", str(r), "--mmax", "0",
                            "--delta", str(n), "--delta-prime", str(p)]
                    code, out = _run(argv)
                    assert code == 0, argv
                    row = _csv_rows(out)[-1]
                    assert row[0] == f"delta_{n}" and Fraction(row[1]) == want[n], argv


def test_moments_delta_usage_errors(capsys):
    for argv, line in (
        (["moments", "--a", "3", "--delta", "-1"], "n must be >= 0"),
        (["moments", "--a", "3", "--delta", "2", "--delta-prime", "4"], "4 is not a prime"),
        (["moments", "--a", "5", "--delta", "2", "--delta-prime", "5"], "a must be coprime to p"),
    ):
        assert _rejected(argv, capsys) == f"usage error: {line}", argv


@pytest.mark.parametrize(
    "argv",
    [
        # no weight list exists for r < 1 or a < 2; each used to print the
        # error row Fraction(0, 0) and exit 1, or a value from no weights
        # (--restricted without --pair is refused first, by name)
        *(["moments", "--a", "3", "--r", r, *mode] for r in ("0", "-2") for mode in ((), ("--delta", "3"))),
        *(["moments", "--a", "-3", *mode]
          for mode in ((), ("--pair", "5,7"), ("--pair", "5,7", "--restricted"), ("--delta", "3"))),
        ["open-set-measure", "--a", "-2", "--p", "5", "--n", "0"],
        ["open-set-measure", "--a", "-2", "--p", "5", "--n", "1"],
    ],
)
def test_a_and_r_outside_their_domain_are_usage_errors(argv, capsys):
    assert _rejected(argv, capsys) == "usage error: need a >= 2 and r >= 1", argv


def test_a_negative_kummer_n_is_a_usage_error(capsys):
    # each used to print a vacuous verdict (required 0 or -1) and exit 0
    for argv, n in (
        (["kummer", "--p", "5", "--i", "2", "--j", "2", "--n", "-1"], -1),
        (["kummer", "--p", "5", "--q", "7", "--i", "2", "--j", "2", "--n", "-2"], -2),
    ):
        assert _rejected(argv, capsys) == f"usage error: need n >= 0, got n = {n}", argv


@pytest.mark.parametrize("argv", ["--a 2 --mmax 462 --restricted", "--a 1 --restricted", "--a -3 --restricted",
                                  "--a 3 --r 0 --restricted", "--a 3 --r -2 --restricted",
                                  "--a 2 --mmax 3 --delta 2 --restricted"])
def test_restricted_without_a_pair_is_refused_before_the_series(argv, monkeypatch, capsys):
    # the series was formed first, and --a 1 or --r 0 was named instead of --restricted
    _stand_in(monkeypatch, "measures.psi_r_series")
    assert _rejected(["moments", *argv.split()], capsys) == "usage error: --restricted needs --pair p,q"


def test_malformed_moments_pair_argv_are_usage_errors(capsys):
    # a wrong count of primes printed Python's unpacking message, while
    # --restricted without --pair and a pair-mode --mmax -1 exited 0
    for argv, line in (
        (["--pair", "5,7,11", "--mmax", "2"], "usage error: --pair expects two primes p,q, got '5,7,11'"),
        (["--pair", "5", "--mmax", "2"], "usage error: --pair expects two primes p,q, got '5'"),
        (["--pair", "5,x", "--mmax", "2"], "usage error: --pair expects two primes p,q, got '5,x'"),
        (["--mmax", "2", "--restricted"], "usage error: --restricted needs --pair p,q"),
        (["--pair", "5,7", "--mmax", "-1"], "usage error: order must be >= 0"),
        (["--pair", "5,7", "--mmax", "-1", "--restricted"], "usage error: order must be >= 0"),
        (["--mmax", "-1"], "usage error: order must be >= 0"),
    ):
        assert _rejected(["moments", "--a", "2", *argv], capsys) == line, argv


@pytest.mark.parametrize("argv, line", [
    ("mahler-coeffs --p 5 --char 1,2,3", "--char expects two integers b,n, got '1,2,3'"),
    ("mahler-coeffs --p 5 --char 1", "--char expects two integers b,n, got '1'"),
    ("spq-sweep --p 3 --inverse x,2", "--inverse expects two integers r,s, got 'x,2'"),
    ("universal-power --n 211 --s 2 --primes 2,,3", "--primes expects comma-separated primes, got '2,,3'"),
    ("chain-limits --target real-beta --schedule 4,8.5", "--schedule expects comma-separated integers N, got '4,8.5'"),
    ("lambda-check --grid abc", "--grid expects comma-separated numbers s, got 'abc'"),
    ("lambda-check --grid 2,", "--grid expects comma-separated numbers s, got '2,'"),
    ("mahler-coeffs --window 1,x --p 3", "--window expects comma-separated rationals, got '1,x'"),
    ("mahler-coeffs --window 1/0,2 --p 3", "--window expects comma-separated rationals, got '1/0,2'"),
    ("decay-check --window 1,0,1/0 --p 3 --s 1 --t 1", "--window expects comma-separated rationals, got '1,0,1/0'"),
    ("padic --value 1/0 --p 5", "--value expects a rational, got '1/0'"),
    ("padic --value x --p 5", "--value expects a rational, got 'x'"),
])
def test_a_malformed_list_flag_is_named_with_its_text(argv, line, capsys):
    # each used to print Python's own message (an unpacking count, int() and float() of one
    # value, or Fraction's "Invalid literal for Fraction: 'x'" and "Fraction(1, 0)")
    assert _rejected(argv.split(), capsys) == f"usage error: {line}"


@pytest.mark.parametrize("stdin, line", [
    ("3 6 1\n0 -100000000 1\n", "coefficient line 0: the valuation makes a power of 3 of more than 4300 digits"),
    ("3 1000000000 1\n0 0 1\n", "the header: the precision makes a power of 3 of more than 4300 digits"),
    ("3 6 1\n0 0 1 1000000000\n", "coefficient line 0: the abs precision makes a power of 3 of more than 4300 digits"),
    ("3 6 1\n0 0 " + "1" * 5000 + "\n", "coefficient line 0: the unit has more than 4300 digits"),
], ids=["valuation", "precision", "abs-precision", "unit"])
def test_a_series_field_past_the_digit_limit_is_refused_at_once(stdin, line, capsys, monkeypatch):
    # the first three hung mahler-eval forming p^n; the unit gave int()'s set_int_max_str_digits advice
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    start = time.perf_counter()
    got = _rejected(["mahler-eval", "--x", "0"], capsys)
    assert time.perf_counter() - start < 0.1
    assert got == f"usage error: {line}" and "set_int_max_str_digits" not in got


def test_a_negative_class_exponent_is_a_usage_error(capsys):
    # p**n was a float, and a TypeError traceback ended the run with exit 1
    assert _rejected("mahler-coeffs --p 5 --char 0,-3".split(), capsys) == \
        "usage error: need a class exponent n >= 0, got n = -3"


@pytest.mark.parametrize("argv", [
    "chain-propagate --kernel p-beta:p=2,alpha=1,beta=-1",
    "chain-propagate --kernel p-beta:p=2,alpha=1/2,beta=-1/2",
    "chain-propagate --kernel q-beta:q=1/2,alpha=1,beta=-1",
    "chain-propagate --kernel q-beta:q=1,alpha=1,beta=1",
    "chain-propagate --kernel real-beta:alpha=1,beta=-1",
    "chain-limits --target p-adic-beta --p 5 --alpha 1 --beta -1",
    "chain-limits --target real-beta --alpha 1 --beta -1",
])
def test_a_zero_denominator_is_a_usage_error_in_one_line(argv, capsys):
    # each used to print Python's division message: Fraction(-1, 0), Fraction(0, 0) or float division by zero
    line = _rejected(argv.split(), capsys)
    assert line.endswith("divides by zero") and "Fraction(" not in line, line


def test_plain_mode_moments_flags_with_pair_are_usage_errors(capsys):
    # pair mode reads none of these; each used to print the double_moment
    # rows as if the flag were absent and exit 0
    for argv, flag in (
        (["--a", "2", "--pair", "5,7", "--mmax", "1", "--delta", "3"], "--delta"),
        (["--a", "2", "--pair", "5,7", "--mmax", "1", "--r", "5"], "--r"),
        (["--a", "2", "--pair", "5,7", "--mmax", "1", "--r", "1"], "--r"),
        (["--a", "2", "--r", "-2", "--pair", "5,7"], "--r"),
        (["--a", "2", "--pair", "5,7", "--delta-prime", "7"], "--delta-prime"),
        (["--a", "2", "--pair", "5,7", "--restricted", "--delta", "3"], "--delta"),
    ):
        line = f"usage error: {flag} is not read with --pair p,q"
        assert _rejected(["moments", *argv], capsys) == line, argv


# the one form of every work refusal; a count an estimate stops early is a lower bound
_CAP_LINE = re.compile(r"usage error: (--[A-Za-z-]+) (\S+) asks for at least (\d+) ([A-Za-z ]+), past the cap of (\d+)")


class _Started(Exception):
    """Raised by the stand-in for a command's first work function."""


def _stand_in(monkeypatch, target):
    """Make the work function target ("module.name" in pqzeta) raise _Started."""
    module, name = target.rsplit(".", 1)

    def started(*args, **kwargs):
        raise _Started(target)

    monkeypatch.setattr(importlib.import_module(f"pqzeta.{module}"), name, started)


def _moment_steps(order: int, weights: int, period: int) -> int:
    """The digit steps the moments cap counts: (order + 1)^2 (order + 1 + weights) times the digits of the period."""
    return (order + 1) ** 2 * (order + 1 + weights) * len(str(period))


_R2150 = "5" + "0" * 2149  # 2 r = 10^2150, whose square has 4301 digits


@pytest.mark.parametrize(
    "argv, flag, work, unit, cap",
    [
        (["--a", "2", "--mmax", "1000000000"], "--mmax", _moment_steps(10**9, 2, 2), "digit steps", 10**8),
        (["--a", "2", "--mmax", "463"], "--mmax", _moment_steps(463, 2, 2), "digit steps", 10**8),
        (["--a", "2", "--r", "10000000000000000000", "--mmax", "170"], "--mmax", _moment_steps(170, 2, 2 * 10**19),
         "digit steps", 10**8),
        (["--a", "2", "--mmax", "0", "--delta", "1000"], "--delta", _moment_steps(1000, 2, 2), "digit steps", 10**8),
        (["--a", "3", "--pair", "5,7", "--mmax", "367"], "--mmax", _moment_steps(367, 3, 21), "digit steps", 10**8),
        (["--a", "3", "--pair", "5,7", "--mmax", "316", "--restricted"], "--mmax", _moment_steps(316, 15, 105),
         "digit steps", 10**8),
        (["--a", "2", "--pair", "751,1000000000039", "--mmax", "63", "--restricted"], "--mmax",
         _moment_steps(63, 1502, 1502000000058578), "digit steps", 10**8),
        (["--a", "1000001", "--mmax", "0"], "--a", 1000001, "weight terms", 10**6),
        (["--a", "2", "--pair", "500009,7", "--mmax", "0", "--restricted"], "--pair", 1000018, "weight terms", 10**6),
        (["--a", "2", "--pair", "75011,7", "--mmax", "6", "--restricted"], "--pair", 7 * 150022, "weight terms", 10**6),
        (["--a", "1000001", "--pair", "2,3", "--mmax", "0"], "--a", 1000001, "weight terms", 10**6),
        (["--a", "2", "--r", _R2150, "--mmax", "1"], "--r", 4301, "digits", 4300),
        (["--a", "2", "--r", "5" + "0" * 4299, "--mmax", "0"], "--r", 4301, "digits", 4300),
    ],
)
def test_moments_past_the_work_cap_are_refused_before_any_work(argv, flag, work, unit, cap, monkeypatch, capsys):
    _stand_in(monkeypatch, "measures._xi_numerators")
    assert work > cap
    value = argv[argv.index(flag) + 1]
    line = f"usage error: {flag} {value} asks for at least {min(work, 10**18)} {unit}, past the cap of {cap}"
    assert _rejected(["moments", *argv], capsys) == line


def test_moments_at_the_work_cap_reach_the_weights(monkeypatch):
    # every moment route reads its numerators through _xi_numerators, warm table or not
    _stand_in(monkeypatch, "measures._xi_numerators")
    for argv in (["--a", "2", "--mmax", "462"], ["--a", "2", "--r", "4995000", "--mmax", "0"],
                 ["--a", "2", "--r", "10000000000000000000", "--mmax", "169"],
                 ["--a", "3", "--pair", "5,7", "--mmax", "366"], ["--a", "3", "--pair", "5,7", "--mmax", "315", "--restricted"],
                 ["--a", "2", "--mmax", "0", "--delta", "462"],
                 ["--a", "2", "--pair", "751,1000000000039", "--mmax", "62", "--restricted"],
                 ["--a", "1000000", "--mmax", "0"], ["--a", "2", "--pair", "499979,7", "--mmax", "0", "--restricted"],
                 ["--a", "2", "--pair", "75011,7", "--mmax", "5", "--restricted"],
                 # without --restricted a pair sweep reads the a weights of xi_1 and xi_q alone
                 ["--a", "2", "--pair", "500009,7", "--mmax", "0"], ["--a", "2", "--pair", "1000003,3", "--mmax", "0"],
                 ["--a", "999999", "--pair", "2,1000000000000000000000007", "--mmax", "0"],
                 ["--a", "2", "--pair", "5,1000000000000000000000007", "--mmax", "157"],
                 ["--a", "2", "--r", "4" + "0" * 2149, "--mmax", "1"], ["--a", "2", "--r", "4" + "0" * 4299, "--mmax", "0"]):
        with pytest.raises(_Started):
            _run(["moments", *argv])


@pytest.mark.parametrize("argv, report, divisions, xi_calls", [
    # 2 of 10^7 weights are nonzero; the list of all of them took seconds
    ("moments --a 2 --r 4995000 --mmax 0", "# schema=2\nm,value,xi_at_m,psi_slot\n0,1/2,-1,1/2\n",
     [(9990000, 2)], [(0, 2, 4995000)]),
    # xi_1, xi_p, xi_q and xi_pq, 2 weights each: the p-unit twists, of 2216 pairs on the periods
    # 2 * 1109 and 2 * 1117 * 1109, were rebuilt whole for each order; each order resumes each division
    ("moments --a 2 --pair 1109,1117 --mmax 1 --restricted", "# schema=2\nm,value\n0,0\n1,309132\n",
     [(2, 2), (2218, 2), (2234, 2), (2477506, 2)] * 2, []),
])
def test_moments_with_a_long_period_divide_only_the_nonzero_weights(argv, report, divisions, xi_calls, monkeypatch):
    from pqzeta import measures

    seen, called = [], []
    numerators, xi = measures.taylor_numerators, measures.xi

    def recorded(pairs, period, upto, stored=None):
        pairs = tuple(pairs)
        seen.append((period, len(pairs)))
        return numerators(pairs, period, upto, stored)

    monkeypatch.setattr(measures, "taylor_numerators", recorded)
    monkeypatch.setattr(measures, "xi", lambda *args: called.append(args) or xi(*args))
    monkeypatch.setattr(measures, "_NUMERATORS", {})
    assert _run(argv.split()) == (0, report)
    assert (seen, called) == (divisions, xi_calls)  # (period, pairs) per division; xi only for the xi_at_m column


def test_a_float_mode_p_beta_power_past_4300_digits_is_zero():
    # 2^-14285 was formed exactly and refused; as a float it is 0.0
    argv = ["chain-propagate", "--kernel", "p-beta:p=2,alpha=1/2,beta=14285", "--layers", "2"]
    assert _run(argv) == (0, '# schema=2\nstate,weight\n"(0, 2)",1.0\n')


@pytest.mark.parametrize(
    "argv, modulus",
    [
        (["--n", "2", "--p", "101", "--precision", "30000"], "101^30000"),
        (["--n", "2", "--p", "101", "--precision", "300000"], "101^300000"),
        (["--n", "3", "--p", "2", "--precision", "14285"], "2^14285"),
        (["--n", "5", "--p", "2", "--q", "3", "--precision", "5526"], "2^5526 * 3^5526"),
        (["--n", "2", "--p", "101", "--q", "103", "--precision", "1071"], "101^1071 * 103^1071"),
        (["--n", "2", "--p", "101", "--precision", "10000000000000000000000"], "101^10000000000000000000000"),
    ],
)
def test_teichmuller_past_the_digit_cap_is_refused_before_any_lift(argv, modulus, monkeypatch, capsys):
    _stand_in(monkeypatch, "padics._teichmuller_unit")
    m = _CAP_LINE.fullmatch(_rejected(["teichmuller", *argv], capsys))
    assert m and m.group(1, 2, 4, 5) == ("--precision", argv[-1], "digits", "4300"), m
    # the modulus has more than 4300 digits, and the count is exact or a lower bound
    base = math.prod(int(power.split("^")[0]) for power in modulus.split(" * "))
    assert 4300 < int(m[3]) <= int(argv[-1]) * math.log10(base) + 1


def test_teichmuller_at_the_digit_cap_reaches_the_lift(monkeypatch):
    # the largest precisions whose modulus has at most 4300 digits pass the cap
    _stand_in(monkeypatch, "padics._teichmuller_unit")
    for argv in (["--p", "2", "--precision", "14284"], ["--p", "2", "--q", "3", "--precision", "5525"],
                 ["--p", "101", "--precision", "2145"], ["--p", "101", "--q", "103", "--precision", "1070"]):
        with pytest.raises(_Started):
            _run(["teichmuller", "--n", "5", *argv])


# (row of WORK_CAPS, argv just past its cap, argv at or just below it, the command's first work function)
_CAP_CASES = [
    (("bernoulli", 0), "bernoulli --upto 2049", "bernoulli --upto 2048", "rationals.bernoulli"),
    (("bernoulli", 1), "bernoulli --upto 500 --poly", "bernoulli --upto 499 --poly", "rationals.bernoulli"),
    (("zeta-neg", 0), "zeta-neg --m 2063", "zeta-neg --m 2061", "rationals.zeta_neg"),
    (("zeta-neg", 0), "zeta-neg --one-minus 2064", "zeta-neg --one-minus 2062", "rationals.zeta_neg"),
    (("padic", 0), "padic --p 2 --precision 14285", "padic --p 2 --precision 14284", "padics.padic_of_rational"),
    (("padic", 1), "padic --value 1e4300 --p 5", "padic --value 1e4299 --p 5", "padics.padic_of_rational"),
    (("padic", 1), "padic --value 1.5e-4300 --p 5", "padic --value 1.5e-4299 --p 5", "padics.padic_of_rational"),
    (("padic", 1), f"padic --value {'7' * 4301} --p 5", f"padic --value {'7' * 4300} --p 5", "padics.padic_of_rational"),
    (("teichmuller", 0), "teichmuller --n 2 --p 5 --q 7 --precision 2785",
     "teichmuller --n 2 --p 5 --q 7 --precision 2784", "padics._teichmuller_unit"),
    (("mahler-coeffs", 0), "mahler-coeffs --char 1,1 --p 3 --upto 2121", "mahler-coeffs --char 1,1 --p 3 --upto 2120",
     "mahler.characteristic_mahler"),
    (("mahler-coeffs", 1), "mahler-coeffs --char 0,14285 --p 2", "mahler-coeffs --char 0,14284 --p 2",
     "mahler.characteristic_mahler"),
    (("mahler-coeffs", 2), "mahler-coeffs --window 1,4,9 --p 2 --precision 14285",
     "mahler-coeffs --window 1,4,9 --p 2 --precision 14284", "mahler.mahler_coefficients"),
    (("mahler-coeffs", 3), "mahler-coeffs --window 1,1e4300,9 --p 5", "mahler-coeffs --window 1,1e4299,9 --p 5",
     "mahler.mahler_coefficients"),
    (("decay-check", 0), "decay-check --window 1,2 --p 2 --s 1 --t 14285", "decay-check --window 1,2 --p 2 --s 1 --t 14284",
     "mahler.verify_decay"),
    (("decay-check", 1), "decay-check --window 1,2e-4300 --p 5 --s 1 --t 1",
     "decay-check --window 1,2e-4299 --p 5 --s 1 --t 1", "mahler.verify_decay"),
    (("gamma-p", 0), "gamma-p --p 5 --modulus-exp 6152", "gamma-p --p 5 --modulus-exp 6151", "gamma.morita_gamma"),
    (("gamma-p", 1), "gamma-p --p 5 --upto 7070", "gamma-p --p 5 --upto 7069", "gamma.morita_gamma"),
    (("gamma-p", 2), "gamma-p --p 5 --modulus-exp 6151 --upto 185", "gamma-p --p 5 --modulus-exp 6151 --upto 184",
     "gamma.morita_gamma"),
    (("spq-sweep", 0), "spq-sweep --p 3 --inverse 1,9013", "spq-sweep --p 3 --inverse 1,9012",
     "gamma.inverse_of_half_pr_plus_one"),
    (("spq-sweep", 1), "spq-sweep --p 3 --q 5 --jmax 2 --depth 3657", "spq-sweep --p 3 --q 5 --jmax 2 --depth 3656",
     "gamma.verify_triviality_theorem"),
    (("spq-sweep", 2), "spq-sweep --p 3 --q 5 --jmax 500001", "spq-sweep --p 3 --q 5 --jmax 500000",
     "gamma.verify_triviality_theorem"),
    (("kummer", 0), "kummer --p 5 --i 1501 --j 2", "kummer --p 5 --i 1500 --j 2", "zetabranch.kummer_check"),
    (("kummer", 0), "kummer --p 5 --i 2 --j 1502", "kummer --p 5 --i 2 --j 1500", "zetabranch.kummer_check"),
    (("kummer", 1), "kummer --p 5 --q 7 --i 2 --j 2 --n 2785", "kummer --p 5 --q 7 --i 2 --j 2 --n 2784",
     "zetabranch.extended_kummer_check"),
    (("kl-branch", 0), "kl-branch --p 5 --s0 0 --tmax 376", "kl-branch --p 5 --s0 0 --tmax 375", "zetabranch.KLBranch"),
    (("kl-branch", 1), "kl-branch --p 2 --s0 0 --tmax 50 --precision 9963",
     "kl-branch --p 2 --s0 0 --tmax 49 --precision 9963", "zetabranch.KLBranch"),
    (("double-branch", 0), "double-branch --p 5 --q 7 --sigma0 12 --smax 62",
     "double-branch --p 5 --q 7 --sigma0 11 --smax 62", "zetabranch.DoubleBranch"),
    (("double-branch", 1), "double-branch --p 5 --q 7 --sigma0 1 --precision 2785",
     "double-branch --p 5 --q 7 --sigma0 1 --precision 2784", "zetabranch.DoubleBranch"),
    (("universal-power", 0), "universal-power --n 211 --s 5 --precision 1852", "universal-power --n 211 --s 5 --precision 1851",
     "zetabranch.universal_power"),
    (("pq-hurwitz", 0), "pq-hurwitz --n -2400 --b 2 --F 35 --p 5 --q 7", "pq-hurwitz --n -2399 --b 2 --F 35 --p 5 --q 7",
     "zetabranch.pq_hurwitz"),
    (("pq-hurwitz", 1), "pq-hurwitz --n -3 --b 2 --F 35 --p 5 --q 7 --precision 2785",
     "pq-hurwitz --n -3 --b 2 --F 35 --p 5 --q 7 --precision 2784", "zetabranch.pq_hurwitz"),
    (("pq-hurwitz", 2), f"pq-hurwitz --n -2399 --b 2 --F 35{'0' * 60} --p 5 --q 7",
     f"pq-hurwitz --n -2399 --b 2 --F 35{'0' * 59} --p 5 --q 7", "zetabranch.pq_hurwitz"),
    (("pq-hurwitz", 2), f"pq-hurwitz --n -2399 --b 1{'0' * 19}1 --F 35{'0' * 40} --p 5 --q 7",
     f"pq-hurwitz --n -2399 --b 1{'0' * 18}1 --F 35{'0' * 40} --p 5 --q 7", "zetabranch.pq_hurwitz"),
    (("moments", 0), "moments --a 2 --mmax 463", "moments --a 2 --mmax 462", "measures._xi_numerators"),
    (("moments", 1), "moments --a 2 --pair 500009,7 --mmax 0 --restricted",
     "moments --a 2 --pair 499979,7 --mmax 0 --restricted", "measures._xi_numerators"),
    (("moments", 2), f"moments --a 2 --r {_R2150} --mmax 1", f"moments --a 2 --r 4{'0' * 2149} --mmax 1",
     "measures._xi_numerators"),
    (("open-set-measure", 0), "open-set-measure --a 3 --p 2 --n 1 --digits 14282",
     "open-set-measure --a 3 --p 2 --n 1 --digits 14281", "measures.measure_open_set_table"),
    (("open-set-measure", 1), "open-set-measure --a 66 --p 5 --n 5", "open-set-measure --a 64 --p 5 --n 5",
     "measures.measure_open_set_table"),
    (("open-set-measure", 2), "open-set-measure --a 3 --p 2 --n 8 --digits 4323",
     "open-set-measure --a 3 --p 2 --n 8 --digits 4322", "measures.measure_open_set_table"),
    (("chain-propagate", 0), "chain-propagate --kernel real-beta:alpha=2,beta=2 --layers 141",
     "chain-propagate --kernel real-beta:alpha=2,beta=2 --layers 140", "chains.parse_kernel_spec"),
    (("chain-propagate", 1), "chain-propagate --kernel real-beta:alpha=1e4300,beta=1",
     "chain-propagate --kernel real-beta:alpha=1e4299,beta=1", "chains.parse_kernel_spec"),
    (("chain-limits", 0), "chain-limits --target real-beta --schedule 4 --depth 173",
     "chain-limits --target real-beta --schedule 4 --depth 172", "chains.limit_check"),
    (("chain-limits", 1), "chain-limits --target p-adic-beta --p 5 --alpha 3384",
     "chain-limits --target p-adic-beta --p 5 --alpha 3383", "chains.limit_check"),
    (("heisenberg", 0), "heisenberg --n 201", "heisenberg --n 200", "chains.heisenberg_check"),
    (("hahn-basis", 0), "hahn-basis --n 58", "hahn-basis --n 57", "chains.hahn_basis"),
    (("theta-check", 0), "theta-check --xmin 1e-4 --xmax 1e4 --step 1.0018",
     "theta-check --xmin 1e-4 --xmax 1e4 --step 1.00185", "analytic.theta"),
    (("lambda-check", 0), f"lambda-check --grid {','.join(['3'] * 12001)}", f"lambda-check --grid {','.join(['3'] * 12000)}",
     "analytic.completed_zeta"),
]


def test_every_cap_row_has_a_boundary_case():
    rows = {(name, k) for name, caps in cli.WORK_CAPS.items() for k in range(len(caps))}
    assert {row for row, *_ in _CAP_CASES} == rows


# an id is the past argv, cut to the length of the longest --value case (a --grid past its cap is 24 000 characters)
@pytest.mark.parametrize("row, past, at, target", _CAP_CASES, ids=[past[:4400] for _, past, *_ in _CAP_CASES])
def test_a_cap_refuses_in_one_line_before_any_work_and_lets_its_boundary_through(row, past, at, target,
                                                                                   monkeypatch, capsys):
    _stand_in(monkeypatch, target)
    estimate, cap, unit = cli.WORK_CAPS[row[0]][row[1]]
    flag, work = estimate(parse(past.split()))
    assert work > cap >= estimate(parse(at.split()))[1]
    value = past.split()[past.split().index(flag) + 1]
    line = f"usage error: {flag} {value} asks for at least {work} {unit}, past the cap of {cap}"
    assert _rejected(past.split(), capsys) == line and _CAP_LINE.fullmatch(line)
    with pytest.raises(_Started):
        _run(at.split())


@pytest.mark.parametrize(
    "argv, target",
    [(f"bernoulli --upto {_BILLION}", "rationals.bernoulli"), (f"bernoulli --upto {_BILLION} --poly", "rationals.bernoulli"),
     (f"zeta-neg --m {_BILLION - 1}", "rationals.zeta_neg"), (f"zeta-neg --one-minus {_BILLION}", "rationals.zeta_neg"),
     (f"padic --precision {_BILLION}", "padics.padic_of_rational"),
     (f"padic --value 1e{_BILLION}", "padics.padic_of_rational"), (f"padic --value 1e-{_BILLION}", "padics.padic_of_rational"),
     (f"mahler-coeffs --window 1,1e{_BILLION} --p 3", "mahler.mahler_coefficients"),
     (f"decay-check --window 1e{_BILLION},2 --p 2 --s 1 --t 1", "mahler.verify_decay"),
     (f"mahler-coeffs --char 1,1 --p 3 --upto {_BILLION}", "mahler.characteristic_mahler"),
     (f"mahler-coeffs --char 0,{_BILLION} --p 3", "mahler.characteristic_mahler"),
     (f"mahler-coeffs --window 1,2 --p 3 --precision {_BILLION}", "mahler.mahler_coefficients"),
     (f"decay-check --window 1,2 --p 2 --s 1 --t {_BILLION}", "mahler.verify_decay"),
     (f"gamma-p --p 5 --upto {_BILLION}", "gamma.morita_gamma"), (f"gamma-p --p 5 --modulus-exp {_BILLION}", "gamma.morita_gamma"),
     (f"spq-sweep --p 3 --jmax {_BILLION}", "gamma.verify_triviality_theorem"),
     (f"spq-sweep --p 3 --depth {_BILLION}", "gamma.verify_triviality_theorem"),
     (f"spq-sweep --p 3 --inverse 1,{_BILLION}", "gamma.inverse_of_half_pr_plus_one"),
     (f"kummer --p 5 --i {_BILLION} --j 2", "zetabranch.kummer_check"),
     (f"kummer --p 5 --i 2 --j {_BILLION}", "zetabranch.kummer_check"),
     (f"kummer --p 5 --i 2 --j 2 --n {_BILLION}", "zetabranch.kummer_check"),
     (f"kl-branch --p 5 --s0 2 --tmax {_BILLION}", "zetabranch.KLBranch"),
     (f"kl-branch --p 5 --s0 2 --precision {_BILLION}", "zetabranch.KLBranch"),
     (f"double-branch --p 5 --q 7 --sigma0 1 --smax {_BILLION}", "zetabranch.DoubleBranch"),
     (f"double-branch --p 5 --q 7 --sigma0 1 --precision {_BILLION}", "zetabranch.DoubleBranch"),
     (f"universal-power --n 211 --s 5 --precision {_BILLION}", "zetabranch.universal_power"),
     (f"pq-hurwitz --n -{_BILLION} --b 2 --F 35 --p 5 --q 7", "zetabranch.pq_hurwitz"),
     (f"pq-hurwitz --n -3 --b 2 --F 35 --p 5 --q 7 --precision {_BILLION}", "zetabranch.pq_hurwitz"),
     (f"open-set-measure --a 3 --p 7 --n {_BILLION}", "measures.measure_open_set_table"),
     (f"open-set-measure --a {_BILLION} --p 7 --n 1", "measures.measure_open_set_table"),
     (f"open-set-measure --a 3 --p 2 --n {_BILLION} --digits 0", "measures.measure_open_set_table"),
     (f"open-set-measure --a 3 --p 7 --n 1 --digits {_BILLION}", "measures.measure_open_set_table"),
     (f"chain-propagate --kernel real-beta:alpha=2,beta=2 --layers {_BILLION}", "chains.parse_kernel_spec"),
     (f"chain-propagate --kernel q-beta:q=1/2,alpha=1e{_BILLION},beta=1", "chains.parse_kernel_spec"),
     (f"chain-limits --target real-beta --depth {_BILLION}", "chains.limit_check"),
     (f"chain-limits --target p-adic-beta --p 5 --schedule {_BILLION}", "chains.limit_check"),
     (f"chain-limits --target p-adic-beta --p 5 --alpha {_BILLION}", "chains.limit_check"),
     (f"chain-limits --target p-adic-beta --p 5 --beta -{_BILLION}", "chains.limit_check"),
     (f"heisenberg --n {_BILLION}", "chains.heisenberg_check"), (f"hahn-basis --n {_BILLION}", "chains.hahn_basis")],
)
def test_a_flag_of_a_billion_is_refused_at_once(argv, target, monkeypatch, capsys):
    _stand_in(monkeypatch, target)
    start = time.perf_counter()
    line = _rejected(argv.split(), capsys)
    assert time.perf_counter() - start < 0.1 and _CAP_LINE.fullmatch(line), line


# (kernel past the chain digit limit, kernel at it, the exit code at it): chains refuses an exact
# power or a layer's weight of more than 4300 digits where it is formed
_CHAIN_LIMIT_CASES = [
    ("basic:q=1/2,beta=33 --layers 140", "basic:q=1/2,beta=32 --layers 140", 0),
    ("u-gamma:u=2,beta=7143 --layers 2", "u-gamma:u=2,beta=7142 --layers 2", 0),
    # a weight of layer 2 passes 4300 digits
    ("p-beta:p=2,alpha=14284,beta=1 --layers 2", "p-beta:p=2,alpha=14283,beta=1 --layers 2", 2),
    # the float kernel forms (1/2)^(alpha + 1) exactly at state (1, 0)
    ("q-beta:q=1/2,alpha=14285,beta=1/2 --layers 2", "q-beta:q=1/2,alpha=14284,beta=1/2 --layers 2", 2),
    ("q-beta:q=1/2,alpha=103,beta=1 --layers 140", "q-beta:q=1/2,alpha=102,beta=1 --layers 140", 0),
]


@pytest.mark.parametrize("past, at, code", _CHAIN_LIMIT_CASES, ids=[past for past, *_ in _CHAIN_LIMIT_CASES])
def test_a_chain_past_the_digit_limit_is_refused_in_one_line(past, at, code, capsys):
    line = _rejected(["chain-propagate", "--kernel", *past.split()], capsys)
    assert line.startswith("usage error: ") and line.endswith("more than 4300 digits"), line
    argv = ["chain-propagate", "--kernel", *at.split()]
    if code:
        _rejected(argv, capsys)
    else:
        got, out = _run(argv)
        assert got == 0 and len(_csv_rows(out)) == int(at.split()[-1]) + 2, at  # the schema line and every state


@pytest.mark.parametrize("argv", [f"chain-propagate --kernel basic:q=1/2,beta={_BILLION} --layers 2",
                                  f"chain-propagate --kernel p-beta:p=2,alpha={_BILLION},beta=1",
                                  f"chain-propagate --kernel q-beta:q=1/2,alpha={_BILLION},beta=1/2",
                                  f"chain-propagate --kernel q-beta:q=1/2,alpha={_BILLION},beta={1 - _BILLION}"])
def test_a_chain_power_of_a_billion_is_refused_at_once(argv, capsys):
    start = time.perf_counter()
    line = _rejected(argv.split(), capsys)
    assert time.perf_counter() - start < 0.1 and line.endswith("more than 4300 digits"), line


@pytest.mark.parametrize("value", ["abc", "", "1e", "1e5.0", "1e5e5", "1e+ 4", "1e" + "9" * 5000, "1e1/2"],
                         ids=lambda value: value[:8])
def test_a_value_whose_exponent_is_unreadable_counts_no_digits(value, capsys):
    # the estimate never raises; Fraction refuses the text itself, before any power
    for argv in (["padic", "--value", value], ["mahler-coeffs", "--window", value, "--p", "3"],
                 ["decay-check", "--window", value, "--p", "3", "--s", "1", "--t", "1"]):
        estimate = cli.WORK_CAPS[argv[0]][-1][0]
        assert estimate(parse(argv)) == (argv[1], 0)
        line = _rejected(argv, capsys)
        assert line.startswith("usage error: ") and not _CAP_LINE.fullmatch(line), line


def test_batch_moments_argv_do_not_depend_on_the_triangle(monkeypatch):
    """The benchmark's moments argv print the same bytes from a fresh module
    triangle and an empty numerator table, in either order, and after a
    larger --mmax has grown both."""
    from pqzeta import measures

    batch = [argv for argv in _cli_batch_argv() if argv[0] == "moments"]
    assert len(batch) == 2
    reports = []
    for order in (batch, batch[::-1], None):
        monkeypatch.setattr(measures, "_TRIANGLE", [[1]])
        monkeypatch.setattr(measures, "_NUMERATORS", {})
        if order is None:
            assert _run(["moments", "--a", "2", "--mmax", "40"])[0] == 0
            assert max(map(len, measures._NUMERATORS.values())) == 41
            order = batch
        reports.append({tuple(argv): _run(argv) for argv in order})
    assert reports[0] == reports[1] == reports[2]
    assert all(code == 0 for code, _ in reports[0].values())


def test_batch_open_set_and_char_argv_do_not_depend_on_the_columns(monkeypatch, capsys):
    """The benchmark's open-set-measure and mahler-coeffs --char argv print
    the exit code, stdout and stderr they print from an empty column table
    in forward, reversed and shuffled order, and after --char folds that
    share the --char argv's key or fill the table until it is cleared."""
    from pqzeta import mahler

    def job(argv):
        code, out = _run(argv)
        return code, out, capsys.readouterr().err

    batch = [argv for argv in _cli_batch_argv() if "open-set-measure" in argv or "--char" in argv]
    assert len(batch) == 2
    fresh = {}
    for argv in batch:
        monkeypatch.setattr(mahler, "_COLUMNS", {})
        fresh[tuple(argv)] = job(argv)
    assert all(code == 0 and out and not err for code, out, err in fresh.values())
    warmers = [["mahler-coeffs", "--char", "0,1", "--p", "3", "--upto", "12"],
               ["mahler-coeffs", "--char", "4,2", "--p", "3", "--upto", "40"],
               ["mahler-coeffs", "--char", "3,2", "--p", "7", "--upto", "60"],
               ["mahler-coeffs", "--char", "1,1", "--p", "2", "--upto", "600"]]
    shuffled = batch * 2 + warmers
    random.Random(37).shuffle(shuffled)
    monkeypatch.setattr(mahler, "_COLUMNS", {})
    for order in (batch, batch[::-1], warmers + batch, shuffled):
        for argv in order:
            result = job(argv)
            if argv in batch:
                assert result == fresh[tuple(argv)], argv


def test_chain_limits_exact_agreement_exits_0():
    code, out = _run(["chain-limits", "--target", "p-adic-beta", "--p", "5", "--depth", "0"])
    assert code == 0
    assert _csv_rows(out)[1:] == [[str(n), "0.000000000000e+00"] for n in (4, 8, 16, 32)] + [["ok", "True"]]


def test_open_set_command():
    code, out = _run(["open-set-measure", "--a", "2", "--p", "5", "--n", "1"])
    assert code == 0
    assert "False" in out  # the conjectured floor form does not match


def test_universal_power_command():
    code, out = _run(["universal-power", "--n", "211", "--s", "9", "--precision", "3"])
    assert code == 0


def test_analytic_commands():
    code, out = _run(["theta-check"])
    assert code == 0
    code, out = _run(["q-zeta", "--s", "0.05", "--q", "0.5"])
    assert code == 0
    code, out = _run(["weil", "--p", "3"])
    assert code == 0


def _csv_rows(out):
    lines = out.splitlines()
    assert lines[0] == CSV_SCHEMA == "# schema=2"
    return list(csv.reader(lines[1:]))


def test_csv_fields_with_commas_parse():
    first = {}
    for argv in (
        ["padic", "--value", "22/7", "--p", "5", "--precision", "8"],
        ["chain-propagate", "--kernel", "real-beta:alpha=2,beta=2", "--layers", "6",
         "--closed-form"],
    ):
        code, out = _run(argv)
        assert code == 0
        header, *rows = _csv_rows(out)
        assert rows and all(len(row) == len(header) for row in rows), argv
        first[argv[0]] = dict(zip(header, rows[0]))
    assert first["padic"]["triple"] == "(0, 279021, 8)"
    assert first["chain-propagate"]["state"] == "(0, 6)"


def test_csv_header_is_the_union_of_row_keys():
    code, out = _run(["lambda-check", "--grid", "0.25,2"])
    assert code == 0
    header, low, high = _csv_rows(out)
    assert header == ["s", "lhs", "rhs", "residual", "dirichlet_residual"]
    assert low[-1] == "" and high[-1] != ""


def test_unknown_command_and_flags_exit_2(capsys):
    code, _ = _run(["no-such-command"])
    assert code == 2
    assert "error: argument command: invalid choice: 'no-such-command'" in capsys.readouterr().err
    code, _ = _run(["zeta-neg", "--bogus", "1"])
    assert code == 2


def test_determinism():
    argv = ["moments", "--a", "2", "--mmax", "6"]
    assert _run(argv) == _run(argv)
    argv = ["lambda-check", "--grid", "2,3", "--tol", "1e-9"]
    assert _run(argv) == _run(argv)


def test_every_subcommand_registered():
    names = [
        "bernoulli", "zeta-neg", "padic", "teichmuller", "mahler-coeffs", "mahler-eval",
        "decay-check", "gamma-p", "gamma-continuity", "spq-sweep", "kummer", "kl-branch",
        "double-branch", "universal-power", "pq-hurwitz", "moments", "open-set-measure",
        "chain-propagate", "chain-limits", "heisenberg", "hahn-basis", "q-zeta",
        "theta-check", "lambda-check", "weil",
    ]
    assert list(COMMANDS) == names
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1])) and hasattr(a, "choices")
    )
    assert list(sub.choices) == names


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", paragraph) == list(COMMANDS)


def _parsed(parser, argv):
    """(exit code, stdout, stderr) of parsing argv; code None when it parses."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER = build_parser()


def _attrs(args):
    """The attributes of a parsed args object, comparable across the two
    parsers and with a nan value."""
    return repr(sorted(vars(args).items()))


def _argparse_attrs(argv):
    """_attrs of what the full parser reads from argv; None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _attrs(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _sample(kind):
    """A value argparse reads without complaint for a flag of this kind."""
    return {int: "3", float: "0.5", str: "1"}.get(kind) or kind[0]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_subparser_reads_as_the_full_parser(name, capsys):
    """One subcommand read from its row of COMMANDS reads as the full
    argparse parser: well-formed argv to the same attributes, and help and
    errors to argparse's own exit code, stdout and stderr."""
    flags = COMMANDS[name][1]
    required = [[flag, _sample(kind)] for flag, kind, default, *_ in flags if default is REQUIRED]
    every = [[flag] if kind is bool else [flag, _sample(kind)] for flag, kind, *_ in flags]
    for argv in ([name, *sum(required, [])], [name, *sum(every, [])]):
        assert parse(argv) is not None, argv
        assert _attrs(parse(argv)) == _argparse_attrs(argv), argv
    for argv in ([name, "--help"], [name, "--bogus"], ["--help"], ["--format", "xml", name]):
        assert parse(argv) is None, argv
        code, out, err = _parsed(PARSER, argv)
        capsys.readouterr()
        assert _run(argv) == (2 if code else 0, ""), argv
        assert capsys.readouterr() == (out, err), argv


def _cli_batch_argv():
    """The argv of perfbench's cli-batch workload, read from its source."""
    source = (Path(__file__).parents[1] / "perfbench" / "wl_cli_batch.py").read_text()
    batch = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BATCH")
    return [shlex.split(line) for line, _ in ast.literal_eval(batch)]


@pytest.mark.parametrize("argv", _cli_batch_argv(), ids=" ".join)
def test_parse_reads_every_benchmark_argv_as_argparse(argv):
    assert parse(argv) is not None
    assert _attrs(parse(argv)) == _argparse_attrs(argv)


_FLAGS = sorted({flag for _, flags in COMMANDS.values() for flag, *_ in flags})
_VALUES = {
    int: ["5", "0", "-3", "2", "-0", "1_0", " 7"],
    float: ["0.5", "-.5", "1e-6", "2", "nan", "-2.5"],
    str: ["1/3", "2,3", "1,4,9", "real-beta:alpha=2,beta=2", "a b", ""],
}
# tokens argparse reads in ways a table lookup might not: abbreviations,
# "=" forms, "-" values that are and are not numbers, unicode digits, spaces
_HOSTILE = ["--prec", "--n", "--x=", "-1/3", "-", "--", "-1e6", "-.5", "-5.", "-3\n", "-3 ", "-1 2",
            "٣", "-٣", "²", "--poly=1", "--format", "json", "-h", "--help", "=5", "-inf", "x"]


@st.composite
def _hostile_argv(draw):
    """An argv of one subcommand: its required flags and some others with
    values of their kind, in any order and either spelling; now and then a
    required flag left out, a hostile value or token, or a misplaced format
    flag."""
    name = draw(st.sampled_from(list(COMMANDS)))
    groups = []
    for flag, kind, default, *_ in COMMANDS[name][1]:
        if not (draw(st.integers(0, 19)) if default is REQUIRED else draw(st.booleans())):
            continue
        if kind is bool:
            groups.append([flag] if draw(st.integers(0, 5)) else [f"{flag}=1"])
            continue
        values = list(kind) if isinstance(kind, tuple) else _VALUES[kind]
        value = draw(st.sampled_from(values if draw(st.integers(0, 9)) else _HOSTILE))
        groups.append([flag, value] if draw(st.integers(0, 5)) else [f"{flag}={value}"])
    tokens = [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_FLAGS + _HOSTILE)))
    head = draw(st.sampled_from([[], [], [], [], ["--format", "json"], ["--format=plain"], ["--format", "xml"],
                                 ["--format", "csv", "--format", "json"], ["--form", "json"], ["--"]]))
    tail = draw(st.sampled_from([[], [], [], ["--format", "json"]]))
    return [*head, name, *tokens, *tail]


@settings(max_examples=600, deadline=None)
@given(_hostile_argv())
@example(["--format", "json", "padic", "--prec", "5"])
@example(["weil", "--n", "5"])
@example(["weil", "--p", "5", "--n", "5"])
@example(["zeta-neg", "--m", "-3\n"])
@example(["zeta-neg", "--m", "-٣"])
@example(["zeta-neg", "--m", "²"])
@example(["padic", "--value", "-1/3"])
@example(["padic", "--value=-1/3"])
@example(["padic", "--value", "-"])
@example(["padic", "--value", "1 2"])
@example(["q-zeta", "--s", "-.5", "--q", "-5."])
@example(["q-zeta", "--s", "-1e6", "--q", "0.5"])
@example(["bernoulli", "--poly=1"])
@example(["pq-hurwitz", "--n", "1", "--b", "2", "--F", "35", "--p", "5"])
@example(["bernoulli", "--upto", "3", "--upto", "4"])
@example(["zeta-neg", "--m="])
@example(["zeta-neg", "--", "--m", "3"])
@example(["zeta-neg", "--m", "3", "--format", "json"])
@example(["--format", "json", "--format", "plain", "zeta-neg"])
def test_parse_reads_as_argparse_or_not_at_all(argv):
    """Whatever argv parse accepts, argparse reads to the same attributes."""
    fast = parse(argv)
    if fast is not None:
        assert _attrs(fast) == _argparse_attrs(argv)
        assert fast.format in FORMATS


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--bogus", "zeta-neg"],
        ["-5", "zeta-neg"],
        ["--", "zeta-neg"],
        ["--form", "json", "zeta-neg", "--bogus"],
        ["--format", "xml", "zeta-neg"],
        ["--format=xml", "zeta-neg"],
        ["--format", "--", "zeta-neg"],
        ["zeta-neg", "--m", "x"],
    ],
)
def test_run_rejects_argv_as_the_full_parser_does(argv, capsys):
    code, _, err = _parsed(build_parser(), argv)
    assert code == 2
    capsys.readouterr()
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err == err


def _rejected(argv, capsys):
    """The one stderr line of an in-process run that must exit 2 with no output."""
    capsys.readouterr()
    code, out = _run(argv)
    captured = capsys.readouterr()
    assert code == 2 and out == "" and captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n"), (argv, captured.err)
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        # Lambda(s) is evaluated only for s in [-14.5, 15.5]
        *(["lambda-check", f"--grid={s}"] for s in ("15.6", "-15", "1e6", "-1e6", "nan", "inf", "-inf")),
        # 5^442 overflows a float
        ["weil", "--p", "5", "--n-bound", "442"],
        # q-zeta products that cannot be reached
        ["q-zeta", "--s", "nan", "--q", "0.5", "--integer", "3"],
        ["q-zeta", "--s", "2", "--q", "0.9999999"],
        ["q-zeta", "--s", "-3000000", "--q", "0.5"],
    ],
)
def test_unreachable_float_arguments_are_usage_errors(argv, capsys):
    line = _rejected(argv, capsys)
    assert line.startswith("usage error: ") and "Traceback" not in line, line


@pytest.mark.parametrize(
    "argv",
    [
        # gamma continuity needs s >= 1, upto >= 0 and p^s + upto <= 10^6
        ["gamma-continuity", "--p", "5", "--s", "-1"],
        ["gamma-continuity", "--p", "5", "--s", "0"],
        ["gamma-continuity", "--p", "5", "--s", "12"],
        ["gamma-continuity", "--p", "5", "--s", "13"],
        ["gamma-continuity", "--p", "5", "--s", str(10**100)],
        ["gamma-continuity", "--p", "5", "--upto", "-1"],
        # a decay modulus needs s >= 1 and t >= 0
        ["decay-check", "--window", "1,2", "--p", "5", "--s", "1", "--t", "-1"],
        ["decay-check", "--window", "1,2", "--p", "5", "--s", "0", "--t", "1"],
        # every N of a limit schedule is >= 1
        ["chain-limits", "--target", "p-adic-beta", "--p", "5", "--schedule", "0"],
        ["chain-limits", "--target", "real-beta", "--schedule", "0,4"],
        ["chain-limits", "--target", "real-beta", "--schedule", "4,-8"],
        # the sup over the states i + j <= depth needs depth >= 0
        ["chain-limits", "--target", "p-adic-beta", "--p", "5", "--depth", "-1"],
        # the inverse-chain search needs depth >= 1
        ["spq-sweep", "--p", "3", "--q", "5", "--depth", "0", "--jmax", "5"],
        ["spq-sweep", "--p", "3", "--q", "5", "--depth", "-2", "--jmax", "1"],
        # a sweep of 2 <= j <= jmax needs jmax >= 2
        ["spq-sweep", "--p", "3", "--q", "5", "--jmax", "-5"],
        ["spq-sweep", "--p", "3", "--q", "5", "--jmax", "1"],
    ],
)
def test_a_verifier_parameter_outside_its_domain_is_a_usage_error(argv, capsys):
    """Such a call checked nothing (exit 0), reported a counterexample from a
    meaningless input (exit 1), or died in a traceback or a huge list."""
    line = _rejected(argv, capsys)
    assert line.startswith("usage error: ") and "Traceback" not in line, line


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda-check", "--tol", "nan"],
        ["lambda-check", "--tol", "-1"],
        ["theta-check", "--tol", "nan"],
        ["chain-limits", "--target", "real-beta", "--tol", "nan"],
    ],
)
def test_a_nan_or_negative_tolerance_is_a_usage_error(argv, capsys):
    """A check against such a tolerance could only fail, which would read as
    a counterexample (exit 1)."""
    line = _rejected(argv, capsys)
    assert line == f"usage error: a tolerance must be a finite number >= 0, got {float(argv[-1])}", line


@pytest.mark.parametrize(
    "argv",
    [
        ["chain-limits", "--target", "p-adic-beta", "--p", "5", "--depth", "0", "--tol", "0"],
        ["lambda-check", "--grid", "0.25,0.4", "--tol", "0"],
        ["theta-check", "--xmin", "1", "--xmax", "1", "--tol", "0"],
    ],
)
def test_exact_agreement_meets_a_zero_tolerance(argv):
    code, out = _run(argv)
    assert code == 0, out
    residuals = [float(row[-1]) for row in csv.reader(out.splitlines()[2:]) if row[0] != "ok"]
    assert residuals and set(residuals) == {0.0}, out


def test_a_residual_above_the_tolerance_is_a_counterexample(monkeypatch):
    """Each check passes a residual equal to --tol and fails one above it."""
    from pqzeta import analytic
    # residuals |1 - sqrt(x)|: 0 at x = 1 and 1 at x = 4
    monkeypatch.setattr(analytic, "theta", lambda x: 1.0)
    theta = ["theta-check", "--xmin", "1", "--xmax", "4", "--step", "4", "--tol"]
    assert _run([*theta, "1"])[0] == 0
    assert _run([*theta, "0.5"])[0] == 1
    # functional-equation residual 0, Dirichlet cross-check residual 0.5 at s = 2
    monkeypatch.setattr(analytic, "completed_zeta", lambda s: 1.0)
    monkeypatch.setattr(analytic, "completed_zeta_dirichlet", lambda s: 1.5)
    assert _run(["lambda-check", "--grid", "2", "--tol", "0.5"])[0] == 0
    assert _run(["lambda-check", "--grid", "2", "--tol", "0.25"])[0] == 1
    assert _run(["lambda-check", "--grid", "0.75", "--tol", "0"])[0] == 0
    monkeypatch.setattr(analytic, "completed_zeta", lambda s: s)  # residual |2s - 1| = 0.5
    assert _run(["lambda-check", "--grid", "0.75", "--tol", "0.5"])[0] == 0
    assert _run(["lambda-check", "--grid", "0.75", "--tol", "0.25"])[0] == 1
    code, out = _run(["chain-limits", "--target", "real-beta", "--depth", "0", "--tol", "0"])
    assert code == 1 and out.splitlines()[-1] == "ok,False"


def test_one_minus_below_two_names_the_flag(capsys):
    for k in ("1", "0", "-3"):
        line = _rejected(["zeta-neg", "--one-minus", k], capsys)
        assert line == f"usage error: --one-minus needs k >= 2, got {k}", line


def test_q_zeta_names_a_pole_and_an_out_of_reach_product(capsys):
    for s in ("-1", "0", "-7"):
        assert _rejected(["q-zeta", "--s", s, "--q", "0.5"], capsys) == (
            f"usage error: the q-zeta product has a pole at the non-positive integer s = {float(s)}")
    assert _rejected(["q-zeta", "--s", "2", "--q", "0.9999999"], capsys) == (
        "usage error: the q-zeta product needs more than 10^6 factors at s = 2.0, q = 0.9999999")
    # next to a pole the product is finite
    assert _run(["q-zeta", "--s", "-2.5", "--q", "0.5"])[0] == 0
    # far below s = 0 the product underflows past the normal floats
    for s, q in (("-400.5", "0.9"), ("-1000.5", "0.5")):
        assert _rejected(["q-zeta", "--s", s, "--q", q], capsys) == (
            f"usage error: the q-zeta product leaves the normal floats at s = {float(s)}, q = {float(q)}: -0.0")
    # a tiny but normal product is still a value
    code, out = _run(["q-zeta", "--s", "-30.5", "--q", "0.5"])
    assert code == 0 and _csv_rows(out)[1:] == [["-30.5", "0.5", "-1.342399161445e-143"]]


@pytest.mark.parametrize(
    "kernel", ["basic:q=1/2,beta=-1", "q-gamma:q=inf,beta=1", "real-beta:alpha=nan,beta=2"]
)
def test_chain_propagate_refuses_weights_outside_0_1(kernel):
    code, out = _run(["chain-propagate", "--kernel", kernel, "--layers", "2"])
    assert code == 1
    assert _csv_rows(out)[1:] == [["kernel rows are not laws: weights must lie in [0, 1] and sum to 1"]]


def test_composite_primes_are_usage_errors(capsys):
    for argv, bad in (
        (["gamma-p", "--p", "4"], "4"),
        (["gamma-continuity", "--p", "9"], "9"),
        (["teichmuller", "--n", "2", "--p", "4"], "4"),
        (["padic", "--value", "3", "--p", "4", "--precision", "2"], "4"),
        (["padic", "--ideal", "12", "--p", "4"], "4"),
        (["open-set-measure", "--a", "3", "--p", "4", "--n", "1"], "4"),
        (["decay-check", "--window", "1,0,1", "--p", "4", "--s", "1", "--t", "0"], "4"),
        (["weil", "--p", "4"], "4"),
        (["kummer", "--p", "4", "--i", "2", "--j", "2", "--n", "0"], "4"),
        (["kummer", "--p", "9", "--q", "7", "--i", "2", "--j", "2", "--n", "0"], "9"),
        (["moments", "--a", "5", "--pair", "4,9", "--mmax", "2"], "4"),
        (["moments", "--a", "3", "--mmax", "2", "--delta", "2", "--delta-prime", "4"], "4"),
        (["chain-limits", "--target", "p-adic-beta", "--p", "4"], "4"),
        (["chain-propagate", "--kernel", "p-beta:p=4,alpha=1,beta=1"], "4"),
        (["chain-propagate", "--kernel", "p-gamma:p=4,beta=1"], "4"),
        (["chain-propagate", "--kernel", "p-beta:p=5/2,alpha=1,beta=1"], "5/2"),
    ):
        assert _rejected(argv, capsys) == f"usage error: {bad} is not a prime", argv


def test_a_prime_past_the_decided_range_is_a_usage_error_at_once():
    # trial division up to sqrt(p) never returned on this argv
    from pqzeta.padics import PSI_13

    p = "1000000000000000000000000000057"
    proc = _pqzeta(["teichmuller", "--n", "2", "--p", p, "--precision", "1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"usage error: cannot decide whether {p} is a prime: "
                           f"the primality test is proven only below {PSI_13}\n")


def test_a_24_digit_prime_is_accepted():
    p = 10**23 + 117
    code, out = _run(["teichmuller", "--n", "2", "--p", str(p), "--precision", "1"])
    assert code == 0
    assert _csv_rows(out)[1:] == [["2", str(p), "2", "1"]]


def test_repeated_primes_are_usage_errors(capsys):
    for argv in (
        ["moments", "--a", "3", "--pair", "5,5", "--mmax", "2"],
        ["moments", "--a", "3", "--pair", "5,5", "--mmax", "2", "--restricted"],
        ["universal-power", "--n", "5", "--s", "3", "--primes", "2,2"],
        ["kummer", "--p", "5", "--q", "5", "--i", "2", "--j", "2", "--n", "0"],
        ["teichmuller", "--n", "2", "--p", "5", "--q", "5"],
        ["spq-sweep", "--p", "5", "--q", "5"],
        ["double-branch", "--p", "5", "--q", "5", "--sigma0", "1"],
    ):
        assert _rejected(argv, capsys).startswith("usage error: the primes must be distinct"), argv


SCRIPT = ("-m", "pqzeta.cli")  # runs cli.main, as the pqzeta script does
NORMAL_EXIT = ("-c", "import sys; from pqzeta.cli import run; sys.exit(run(sys.argv[1:]))")


def _pqzeta(argv, stdin="", entry=SCRIPT, stdout=subprocess.PIPE, environ=os.environ):
    """One ``python -m pqzeta.cli`` process, or another entry, on this checkout's sources."""
    env = dict(environ, PYTHONPATH=str(Path(pqzeta.__file__).parents[1]))
    return subprocess.run([sys.executable, *entry, *argv], input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


def _modules_after(code):
    """The modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(pqzeta.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_library_module_and_no_dataclasses():
    bare = _modules_after("pass")
    library = {f"pqzeta.{m}" for m in ("analytic", "chains", "gamma", "mahler", "measures", "zetabranch")}
    argparse_modules = {"argparse", "gettext", "locale"}
    loaded = _modules_after("import pqzeta.cli") - bare
    assert "pqzeta.cli" in loaded
    assert not loaded & ({"dataclasses", "inspect", "json"} | library | argparse_modules)
    # a subcommand loads its own module and no other, and well-formed argv no argparse
    loaded = _modules_after("from pqzeta import cli\n"
                            "assert cli.run(['kummer', '--p', '5', '--i', '2', '--j', '6']) == 0")
    assert loaded & library == {"pqzeta.zetabranch"}
    assert not loaded & argparse_modules
    # help and usage errors are argparse's
    for argv, code in ((["--help"], 0), (["zeta-neg", "--bogus", "1"], 2)):
        loaded = _modules_after(f"from pqzeta import cli\nassert cli.run({argv!r}) == {code}")
        assert argparse_modules <= loaded, argv
    everything = _modules_after("import " + ", ".join(sorted(library | {"pqzeta.cli"})))
    assert library <= everything and "dataclasses" not in everything - bare


def test_precision_errors_exit_2_without_traceback():
    short = mahler.mahler_coefficients([1, 2, 3], 2, 5, 6).serialize()
    for argv, stdin in (
        (["padic", "--value", "3", "--p", "3", "--precision", "0"], ""),
        (["mahler-eval", "--x", "5"], short),
    ):
        proc = _pqzeta(argv, stdin)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("precision error: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # theta grids that never end or never start
        ["theta-check", "--step", "1"],
        ["theta-check", "--xmax", "inf"],
        ["theta-check", "--xmin", "4", "--xmax", "2"],
        # theta grids too fine or too wide to finish
        ["theta-check", "--step", "1.0000001"],
        ["theta-check", "--xmax", "1e20"],
        # a negative level or digit count, and a missing kernel parameter
        ["open-set-measure", "--a", "2", "--p", "5", "--n", "-1"],
        ["open-set-measure", "--a", "2", "--p", "5", "--n", "1", "--digits", "-10"],
        ["chain-propagate", "--kernel", "real-beta:alpha=2"],
        # a composite base u and an exponent beta that are not ints
        ["chain-propagate", "--kernel", "u-gamma:u=6,beta=3/2", "--layers", "2"],
        ["chain-propagate", "--kernel", "u-gamma:u=5/2,beta=1"],
        # a power that overflows a float
        ["chain-propagate", "--kernel", f"q-beta:q=1/2,alpha={10**401 + 1}/2,beta=1/3", "--layers", "2"],
        ["q-zeta", "--s", "2", "--q", "0.5", "--integer", "-2000"],
        # no valuation exists at p = 1
        ["padic", "--ideal", "12", "--p", "1"],
        ["padic", "--value", "3", "--p", "1", "--precision", "2"],
        # an empty table is no answer
        ["bernoulli", "--upto", "-1"],
        # a float power that overflows in the p-beta kernel
        ["chain-propagate", "--kernel", "p-beta:p=2,alpha=-1100,beta=1/2", "--layers", "2"],
        # a float 2^1100 in a float-mode p-beta kernel, which overflowed its (0, 0) row while exact
        ["chain-propagate", "--kernel", "p-beta:p=2,alpha=-1100,beta=1100.5", "--layers", "2"],
        ["chain-propagate", "--kernel", "p-beta:p=2,alpha=1100.5,beta=-1100", "--layers", "2"],
        # a q = 0.5^(2/N) that rounds to 1, where 2.0/N overflowed at an N of 401 digits
        ["chain-limits", "--target", "real-beta", "--schedule", str(10**400)],
    ],
)
def test_bad_arguments_are_usage_errors(argv):
    proc = _pqzeta(argv)
    assert proc.returncode == 2, (argv, proc.stderr)
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "stdin",
    [
        "",  # no header
        "4 3 2\n0 0 1\n1 0 1\n",  # 4 is not a prime
        "5 0 1\n0 0 1\n",  # precision below 1
        "5 3\n0 0 1\n",  # a header of two fields
        "5 3 2\n0 0 1\n0 0 2\n",  # index 0 twice
        "5 3 1\n0 0 1\n1 0 2\n",  # a line past the declared length
        "5 3 2\n0 0 1\n",  # a line short of it
    ],
)
def test_mahler_eval_rejects_malformed_series(stdin):
    proc = _pqzeta(["mahler-eval", "--x", "0"], stdin)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: ")
    assert "Traceback" not in proc.stderr


def test_spq_sweep_ignores_earlier_sweeps():
    deep = ["spq-sweep", "--p", "3", "--q", "5", "--jmax", "50", "--depth", "12"]
    alone = _run(deep)
    _run(deep[:-1] + ["2"])
    assert _run(deep) == alone


def _without_frames(stderr):
    """stderr less the frame lines of a traceback, which differ with the entry."""
    return re.sub(r"(?m)^  .*\n", "", stderr) if stderr.startswith("Traceback") else stderr


# stdout block-buffered, as on a pipe by default: the flush before the hard exit matters
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _both_entries(argv, stdin="", stdout=subprocess.PIPE, environ=BUFFERED):
    """The pqzeta script and a normal-exit entry on the same argv, run side by side."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(lambda entry: _pqzeta(argv, stdin, entry, stdout, environ),
                             (SCRIPT, NORMAL_EXIT)))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["zeta-neg", "--m", "1"], 0),
        (["--format", "json", "padic", "--value", "22/7", "--p", "5", "--precision", "8"], 0),
        (["spq-sweep", "--p", "3", "--q", "5", "--jmax", "6", "--depth", "1"], 1),
        (["kummer", "--p", "4", "--i", "2", "--j", "6"], 2),
        (["padic", "--value", "3", "--p", "3", "--precision", "0"], 2),
        (["--help"], 0),
        (["mahler-eval", "--x", "3"], 0),
    ],
)
def test_the_hard_exit_keeps_exit_code_and_bytes(argv, code):
    stdin = mahler.mahler_coefficients([1, 4, 9, 16], 3, 3, 6).serialize() if argv[0] == "mahler-eval" else ""
    script, normal = _both_entries(argv, stdin)
    assert script.returncode == normal.returncode == code, (script.stderr, normal.stderr)
    assert script.stdout == normal.stdout and bool(script.stdout) == (code != 2)
    assert script.stderr == normal.stderr and bool(script.stderr) == (code == 2)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_pipe_is_reported_as_before(unbuffered):
    environ = dict(BUFFERED, PYTHONUNBUFFERED="1") if unbuffered else BUFFERED
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        script, normal = _both_entries(["kummer", "--p", "5", "--i", "2", "--j", "6"],
                                       stdout=write_end, environ=environ)
    finally:
        os.close(write_end)
    # buffered, the interpreter's final flush fails; unbuffered, the write in
    # run does, and run names it in one line: exit 120 either way
    assert script.returncode == normal.returncode == 120
    assert _without_frames(script.stderr) == _without_frames(normal.stderr)
    assert script.stderr.rstrip().endswith("BrokenPipeError: [Errno 32] Broken pipe")
    if unbuffered:
        assert script.stderr == "output error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_a_report_past_the_stdout_buffer_on_a_closed_pipe_exits_120():
    # the write in run fails before any flush: one line, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        script, normal = _both_entries(["bernoulli", "--upto", "400"], stdout=write_end)
    finally:
        os.close(write_end)
    assert script.returncode == normal.returncode == 120
    assert script.stderr == normal.stderr == "output error: BrokenPipeError: [Errno 32] Broken pipe\n"


class _Stream:
    def __init__(self, fails=False):
        self.fails, self.flushed = fails, False

    def flush(self):
        if self.fails:
            raise BrokenPipeError(32, "Broken pipe")
        self.flushed = True


def test_main_flushes_then_exits_hard_or_falls_back_to_a_normal_exit(monkeypatch):
    hard = []
    monkeypatch.setattr(cli, "run", lambda argv: 1)
    monkeypatch.setattr(cli.os, "_exit", hard.append)
    stdout, stderr = _Stream(), _Stream()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    cli.main()
    assert hard == [1] and stdout.flushed and stderr.flushed
    monkeypatch.setattr(sys, "stdout", None)  # no stream to flush is no failure
    cli.main()
    assert hard == [1, 1]
    monkeypatch.setattr(sys, "stdout", _Stream(fails=True))
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1 and hard == [1, 1]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_value_too_long_to_print_is_a_usage_error_before_any_output(fmt, monkeypatch, capsys):
    rows = [{"k": 0, "value": 1}, {"k": 1, "value": Fraction(10**4400, 3)}]
    monkeypatch.setitem(COMMANDS, "zeta-neg", (lambda args: (0, rows), COMMANDS["zeta-neg"][1]))
    assert _run(["--format", fmt, "zeta-neg"]) == (2, "")
    line = "usage error: a report value has an integer of more than 4300 digits, the most that can be printed\n"
    assert capsys.readouterr().err == line  # no advice to call a Python function
