"""Batch command-line surface.

Every subcommand drives one library operation or verification sweep and
emits a machine-readable report (csv by default, json or plain on request).
Exit codes: 0 success/verified, 1 a verification found a counterexample,
2 usage error or unattainable precision, 120 a report that could not be
written (a closed pipe).  Output is deterministic for fixed
argv: rows are emitted in canonical sorted order and floats use a fixed
format.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import padics  # run() catches its PrecisionError; each handler imports its own module

TYPE_CHECKING = False  # typing is not imported at run time
if TYPE_CHECKING:
    from typing import NoReturn

CSV_SCHEMA = "# schema=2"


def _emit(rows: list[dict], fmt: str) -> str:
    """The whole report as one string, so nothing is written when a value
    cannot be printed: an integer past Python's str() digit limit is a usage
    error that names the limit."""
    try:
        if fmt == "json":
            import json
            return json.dumps(rows, default=str, sort_keys=True) + "\n"
        if fmt == "plain":
            return "".join(" ".join(f"{k}={row[k]}" for k in row) + "\n" for row in rows)
        text = io.StringIO()
        text.write(CSV_SCHEMA + "\n")
        if rows:
            # every key of every row, in first-seen order: rows may add fields
            header = list(dict.fromkeys(k for row in rows for k in row))
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([str(row.get(k, "")) for k in header])
        return text.getvalue()
    except ValueError:  # only str() of an int past the limit raises it here
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a report value has an integer of more than {limit} digits, "
                         "the most that can be printed") from None


def _float(x: float) -> str:
    return f"{x:.12e}"


# -- handlers (return (exit_code, rows)) ---------------------------------------
#
# @command(name, *flags) registers a handler as subcommand name.  A flag is
# (flag, type, default[, help]): the default REQUIRED makes it required, the
# type bool a store_true switch, and a tuple of strings its choices.

REQUIRED = object()
COMMANDS: dict = {}  # name -> (handler, flags), in registration order


def command(name: str, *flags: tuple):
    """Register the decorated handler as subcommand name with its flags."""
    def register(handler):
        COMMANDS[name] = (handler, flags)
        return handler
    return register


@command("bernoulli", ("--upto", int, 12), ("--poly", bool, False))
def _cmd_bernoulli(args):
    from . import rationals
    if args.upto < 0:
        raise ValueError("need --upto >= 0")
    rows = []
    for k in range(args.upto + 1):
        row = {"k": k, "B_k": rationals.bernoulli(k)}
        if args.poly:
            row["B_k_of_x"] = " ".join(str(c) for c in rationals.bernoulli_polynomial(k))
        rows.append(row)
    # spot check against the defining recurrence sum C(m+1, j) B_j = 0, an
    # algorithm independent of the tangent-number table
    m = max(args.upto, 1)
    acc = sum(
        rationals.binomial(m + 1, j) * rationals.bernoulli(j) for j in range(m + 1)
    )
    if acc != 0:
        return 1, [{"error": f"recurrence failed at m={m}"}]
    return 0, rows


@command("zeta-neg", ("--m", int, 1), ("--one-minus", int, None))
def _cmd_zeta_neg(args):
    from . import rationals
    if args.one_minus is not None:
        if args.one_minus < 2:
            raise ValueError(f"--one-minus needs k >= 2, got {args.one_minus}")
        return 0, [{"k": args.one_minus, "zeta(1-k)": rationals.zeta_neg(args.one_minus - 1)}]
    return 0, [{"m": args.m, "zeta(-m)": rationals.zeta_neg(args.m)}]


@command("padic", ("--value", str, "1/3"), ("--p", int, 5), ("--precision", int, 5),
         ("--ideal", int, None))
def _cmd_padic(args):
    if args.ideal is not None:
        return 0, [{"m": args.ideal, "p": args.p, "exponent": padics.ideal_shadow(args.ideal, args.p)}]
    value = _split("--value", args.value, "a rational", Fraction, count=1)[0]
    x = padics.padic_of_rational(value, args.p, args.precision)
    row = {
        "value": args.value,
        "p": args.p,
        "triple": x.to_triple_string(),
        "digits_form": x.to_digit_string(),
        "norm": x.norm(),
    }
    if x.valuation != padics.INFINITY and x.valuation >= 0:
        row["digits"] = " ".join(str(d) for d in x.digits(min(args.precision, x.precision)))
    return 0, [row]


@command("teichmuller", ("--n", int, REQUIRED), ("--p", int, REQUIRED), ("--q", int, None),
         ("--precision", int, 4))
def _cmd_teichmuller(args):
    if args.q is None:
        w = padics.teichmuller(args.n, args.p, args.precision)
        return 0, [{"n": args.n, "p": args.p, "unit": w.unit, "precision": args.precision}]
    w = padics.double_teichmuller(args.n, args.p, args.q, args.precision, args.precision)
    bp, bq = padics.angle_bracket(args.n, args.p, args.q, args.precision, args.precision)
    check = padics.crt_pair(
        w % args.p**args.precision,
        args.p**args.precision,
        w % args.q**args.precision,
        args.q**args.precision,
    )
    return 0, [
        {
            "n": args.n,
            "p": args.p,
            "q": args.q,
            "omega_pq": w,
            "crt_roundtrip": check,
            "angle_p": bp.unit,
            "angle_q": bq.unit,
        }
    ]


def _split(flag: str, text: str, expects: str, kind=int, count: int | None = None) -> list:
    """The comma-separated values of a list flag, each read by kind.  A value
    that kind refuses (a zero denominator too), or a count of values other
    than count, raises ValueError naming the flag and its text."""
    try:
        values = [kind(x) for x in text.split(",")]
        if count in (None, len(values)):
            return values
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{flag} expects {expects}, got {text!r}")


def _agrees(value: padics.PadicNumber, exact: Fraction) -> bool:
    """True when the exact rational has every digit that value claims."""
    if value.is_exact_zero:
        return exact == 0
    digits = value.abs_precision
    return value.congruent_mod(padics.padic_reduce_abs(exact, value.p, digits), digits)


@command("mahler-coeffs", ("--window", str, ""), ("--char", str, ""), ("--p", int, REQUIRED),
         ("--precision", int, 6), ("--upto", int, 30))
def _cmd_mahler_coeffs(args):
    from . import mahler
    if args.char:
        b, n = _split("--char", args.char, "two integers b,n", count=2)
        series = mahler.characteristic_mahler(b, n, args.p, args.upto)
    elif args.window:
        window = _split("--window", args.window, "comma-separated rationals", Fraction)
        series = mahler.mahler_coefficients(window, len(window) - 1, args.p, args.precision)
        # independent of the differences: the printed series, summed back, gives each entry
        printed = mahler.MahlerSeries.deserialize(series.serialize())
        for m, entry in enumerate(window):
            if not _agrees(mahler.evaluate_mahler(printed, m), entry):
                return 1, [{"error": f"the series does not give the window entry at {m} back"}]
    else:
        raise ValueError("provide --window or --char")
    rows = [{"serialized": line} for line in series.serialize().splitlines()]
    return 0, rows


@command("mahler-eval", ("--x", int, REQUIRED))
def _cmd_mahler_eval(args):
    from . import mahler
    series = mahler.MahlerSeries.deserialize(sys.stdin.read())
    value = mahler.evaluate_mahler(series, args.x)
    return 0, [{"x": args.x, "value": value.to_digit_string()}]


@command("decay-check", ("--window", str, REQUIRED), ("--p", int, REQUIRED), ("--s", int, REQUIRED),
         ("--t", int, REQUIRED))
def _cmd_decay_check(args):
    from . import mahler
    window = _split("--window", args.window, "comma-separated rationals", Fraction)
    report = mahler.verify_decay(window, args.p, args.s, args.t, len(window) - 1)
    row = {"p": args.p, "s": args.s, "t": args.t, "ok": report.ok}
    if not report.ok:
        row["violation_index"], row["violation_sigma"], row["violation_valuation"] = report.violation
    return (0 if report.ok else 1), [row]


@command("gamma-p", ("--p", int, REQUIRED), ("--upto", int, 20), ("--modulus-exp", int, 3))
def _cmd_gamma_p(args):
    from . import gamma
    rows = []
    for n in range(args.upto + 1):
        rows.append(
            {
                "n": n,
                "p": args.p,
                "gamma_mod": gamma.morita_gamma(n, args.p, args.modulus_exp),
                "step_multiplier": gamma.gamma_functional_step(n, args.p),
            }
        )
    return 0, rows


@command("gamma-continuity", ("--p", int, REQUIRED), ("--s", int, 1), ("--upto", int, 50),
         ("--unrestricted", bool, False))
def _cmd_gamma_continuity(args):
    from . import gamma
    report = gamma.gamma_continuity_check(args.p, args.s, args.upto, restricted=not args.unrestricted)
    row = {"p": args.p, "s": args.s, "upto": args.upto, "ok": report.ok}
    if not report.ok:
        row["first_failure"] = report.first_failure
    return (0 if report.ok else 1), [row]


@command("spq-sweep", ("--p", int, REQUIRED), ("--q", int, 5), ("--jmax", int, 50),
         ("--depth", int, 12), ("--inverse", str, ""))
def _cmd_spq_sweep(args):
    from . import gamma
    if args.inverse:
        r, s = _split("--inverse", args.inverse, "two integers r,s", count=2)
        x1 = gamma.inverse_of_half_pr_plus_one(args.p, r, s)
        x2 = gamma.inverse_general(1, r, 1, 2, args.p, s)
        if x1 % args.p**s != x2:
            return 1, [{"error": "inverse formulas disagree"}]
        return 0, [{"p": args.p, "r": r, "s": s, "inverse": x1}]
    report = gamma.verify_triviality_theorem(args.p, args.q, args.jmax, args.depth)
    rows = []
    for j in sorted(report.witnesses):
        w = report.witnesses[j]
        rows.append(
            {
                "j": j,
                "witness_type": w.side,
                "exponent": w.exponent,
                "inverse": w.inverse,
                "divisor": w.divisor,
            }
        )
    for j in report.undecided:
        rows.append({"j": j, "witness_type": "undecided", "exponent": "", "inverse": "", "divisor": ""})
    return (0 if report.all_excluded else 1), rows


@command("kummer", ("--p", int, REQUIRED), ("--q", int, None), ("--i", int, REQUIRED),
         ("--j", int, REQUIRED), ("--n", int, 0))
def _cmd_kummer(args):
    from . import zetabranch
    if args.q is None:
        res = zetabranch.kummer_check(args.p, args.i, args.j, args.n)
        ok = res.ok
        rows = [
            {
                "p": args.p,
                "i": args.i,
                "j": args.j,
                "n": args.n,
                "valuation": res.valuation,
                "required": res.required,
                "ok": ok,
            }
        ]
    else:
        out = zetabranch.extended_kummer_check(args.p, args.q, args.i, args.j, args.n)
        ok = all(r.ok for r in out.values())
        rows = [
            {"prime": prime, "valuation": r.valuation, "required": r.required, "ok": r.ok}
            for prime, r in sorted(out.items())
        ]
    return (0 if ok else 1), rows


@command("kl-branch", ("--p", int, REQUIRED), ("--s0", int, REQUIRED), ("--tmax", int, 5),
         ("--precision", int, 3))
def _cmd_kl_branch(args):
    from . import zetabranch
    branch = zetabranch.KLBranch(p=args.p, s0=args.s0, precision=args.precision)
    rows = []
    for t in range(args.tmax + 1):
        if args.s0 == 0 and t == 0:
            continue
        n = args.s0 + (args.p - 1) * t
        value = zetabranch.kl_value(args.p, n)
        reduced = zetabranch.kl_branch_eval(branch, t)
        rows.append(
            {
                "s0": args.s0,
                "t": t,
                "n": n,
                "value": value,
                "mod_p": reduced.to_digit_string(),
            }
        )
    return 0, rows


@command("double-branch", ("--p", int, REQUIRED), ("--q", int, REQUIRED),
         ("--sigma0", int, REQUIRED), ("--smax", int, 3), ("--precision", int, 3))
def _cmd_double_branch(args):
    from . import zetabranch
    branch = zetabranch.DoubleBranch(p=args.p, q=args.q, sigma0=args.sigma0)
    rows = []
    for sigma in range(args.smax + 1):
        vp, vq = zetabranch.double_branch_eval(branch, sigma, args.precision)
        k = args.sigma0 + sigma * (args.p - 1) * (args.q - 1)
        raw = zetabranch.double_value(args.p, args.q, k + 1) if k + 1 >= 2 else ""
        rows.append(
            {
                "sigma": sigma,
                "index": k + 1,
                "value": raw,
                "mod_p": vp.to_digit_string(),
                "mod_q": vq.to_digit_string(),
            }
        )
    return 0, rows


@command("universal-power", ("--n", int, REQUIRED), ("--s", int, REQUIRED),
         ("--primes", str, "2,3,5,7"), ("--precision", int, 4))
def _cmd_universal_power(args):
    from . import zetabranch
    primes = tuple(_split("--primes", args.primes, "comma-separated primes"))
    values = zetabranch.universal_power(args.n, args.s, primes, args.precision)
    rows = []
    ok = True
    for p in sorted(values):
        series = values[p]
        direct = pow(args.n, args.s, p**args.precision) if args.s >= 0 else None
        if direct is not None and series.residue(args.precision) != direct:
            ok = False
        rows.append(
            {
                "p": p,
                "series": series.residue(args.precision),
                "direct": direct if direct is not None else "",
            }
        )
    return (0 if ok else 1), rows


@command("pq-hurwitz", ("--n", int, REQUIRED), ("--b", int, REQUIRED), ("--F", int, REQUIRED),
         ("--p", int, REQUIRED), ("--q", int, REQUIRED), ("--precision", int, 3))
def _cmd_pq_hurwitz(args):
    from . import zetabranch
    vp, vq = zetabranch.pq_hurwitz(args.n, args.b, args.F, args.p, args.q, args.precision)
    return 0, [
        {
            "n": args.n,
            "b": args.b,
            "F": args.F,
            "mod_p": vp.to_digit_string(),
            "mod_q": vq.to_digit_string(),
        }
    ]


# --r and --delta-prime default to None so that pair mode, which reads
# neither, can tell a given flag from a default; plain mode resolves them
@command("moments", ("--a", int, REQUIRED), ("--r", int, None), ("--mmax", int, 8),
         ("--pair", str, ""), ("--restricted", bool, False), ("--delta", int, None),
         ("--delta-prime", int, None))
def _cmd_moments(args):
    from . import measures
    if args.mmax < 0:
        raise ValueError("order must be >= 0")
    rows = []
    try:
        if args.pair:
            p, q = _split("--pair", args.pair, "two primes p,q", count=2)
            for flag, value in (("--r", args.r), ("--delta", args.delta), ("--delta-prime", args.delta_prime)):
                if value is not None:
                    raise ValueError(f"{flag} is not read with --pair p,q")
            for m in range(args.mmax + 1):
                value = (
                    measures.restricted_moment(args.a, p, q, m)
                    if args.restricted
                    else measures.double_moment(args.a, p, q, m)
                )
                rows.append({"m": m, "value": value})
        else:
            if args.restricted:
                raise ValueError("--restricted needs --pair p,q")
            r = 1 if args.r is None else args.r
            psi = measures.psi_r_series(args.a, r, args.mmax)
            for m, slot in enumerate(psi):
                rows.append(
                    {
                        "m": m,
                        "value": slot * math.factorial(m),
                        "xi_at_m": measures.xi(m, args.a, r),
                        "psi_slot": slot,
                    }
                )
            if args.delta is not None:
                delta_prime = 5 if args.delta_prime is None else args.delta_prime
                d = measures.binomial_moments(args.a, delta_prime, args.delta, r)
                rows.append({"m": f"delta_{args.delta}", "value": d[args.delta], "xi_at_m": "", "psi_slot": ""})
    except ArithmeticError as exc:
        return 1, [{"error": str(exc)}]
    return 0, rows


@command("open-set-measure", ("--a", int, REQUIRED), ("--p", int, REQUIRED), ("--n", int, REQUIRED),
         ("--digits", int, 4))
def _cmd_open_set_measure(args):
    from . import measures
    table = measures.measure_open_set_table(args.a, args.p, args.n, args.digits)
    rows = []
    for b in sorted(table):
        entry = table[b]
        rows.append(
            {
                "b": b,
                "series_mod": entry.value.to_digit_string(),
                "conjectured_floor_form": entry.conjectured,
                "matches_conjecture": entry.matches_conjecture(args.digits),
            }
        )
    return 0, rows


@command("chain-propagate",
         ("--kernel", str, REQUIRED, "family:key=value,... e.g. real-beta:alpha=2,beta=2"),
         ("--layers", int, 4), ("--closed-form", bool, False))
def _cmd_chain_propagate(args):
    from . import chains
    kernel = chains.parse_kernel_spec(args.kernel)
    if not kernel.is_row_stochastic(min(args.layers, 12)):
        return 1, [{"error": "kernel rows are not laws: weights must lie in [0, 1] and sum to 1"}]
    law = chains.propagate(kernel, args.layers)
    rows = []
    for state in sorted(law.weights):
        rows.append({"state": f"{state}", "weight": law.weights[state]})
    if kernel.family == "real-beta" and args.closed_form:
        closed = chains.real_beta_layer_closed_form(
            kernel.params["alpha"], kernel.params["beta"], args.layers
        )
        agree = closed.weights == law.weights
        rows.append({"state": "closed_form_agrees", "weight": agree})
        if not agree:
            return 1, rows
    return 0, rows


@command("chain-limits", ("--target", ("p-adic-beta", "real-beta"), REQUIRED), ("--p", int, None),
         ("--alpha", int, 1), ("--beta", int, 1), ("--schedule", str, "4,8,16,32"),
         ("--tol", float, 1e-6), ("--depth", int, 6))
def _cmd_chain_limits(args):
    from . import chains
    schedule = _split("--schedule", args.schedule, "comma-separated integers N")
    report = chains.limit_check(
        args.target, args.p, args.alpha, args.beta, schedule, args.tol, depth=args.depth
    )
    rows = [
        {"N": N, "sup_residual": _float(r)} for N, r in zip(report.schedule, report.residuals)
    ]
    rows.append({"N": "ok", "sup_residual": report.ok})
    return (0 if report.ok else 1), rows


@command("heisenberg", ("--alpha", int, 2), ("--beta", int, 2), ("--n", int, 2))
def _cmd_heisenberg(args):
    from . import chains
    residual = chains.heisenberg_check(args.alpha, args.beta, args.n)
    return (0 if residual == 0 else 1), [
        {"alpha": args.alpha, "beta": args.beta, "n": args.n, "residual": residual}
    ]


@command("hahn-basis", ("--alpha", int, 2), ("--beta", int, 2), ("--n", int, 3))
def _cmd_hahn_basis(args):
    from . import chains
    basis = chains.hahn_basis(args.alpha, args.beta, args.n)
    law = chains.real_beta_layer_closed_form(args.alpha, args.beta, args.n)
    rows = []
    ok = True
    for m, phi in enumerate(basis):
        for m2 in range(m):
            if chains.layer_inner_product(basis[m2], phi, law) != 0:
                ok = False
        rows.append(
            {"m": m, "vector": " ".join(f"{phi[k]}" for k in sorted(phi))}
        )
    return (0 if ok else 1), rows


@command("q-zeta", ("--s", float, REQUIRED), ("--q", float, REQUIRED), ("--integer", int, None))
def _cmd_q_zeta(args):
    from . import chains
    value = chains.q_zeta(args.s, args.q)
    rows = [{"s": args.s, "q": args.q, "q_zeta": _float(value)}]
    if args.integer is not None:
        rows.append(
            {"s": args.integer, "q": args.q, "q_zeta": f"[s]_q={chains.q_integer(args.integer, args.q)}"}
        )
    return 0, rows


@command("theta-check", ("--xmin", float, 0.125), ("--xmax", float, 8.0), ("--step", float, 1.5),
         ("--tol", float, 1e-12))
def _cmd_theta_check(args):
    from . import analytic
    padics.require_tolerance(args.tol)
    # the grid x = xmin, xmin * step, ... must climb past a finite xmax
    if not all(math.isfinite(v) for v in (args.xmin, args.xmax, args.step)):
        raise ValueError("--xmin, --xmax and --step must be finite")
    if args.step <= 1 or args.xmin <= 0 or args.xmin > args.xmax:
        raise ValueError("need --step > 1 and 0 < --xmin <= --xmax")
    # theta(1/x) sums about sqrt(x) terms, so the grid stays in [1e-4, 1e4]
    if args.xmin < 1e-4 or args.xmax > 1e4:
        raise ValueError("need 1e-4 <= --xmin <= --xmax <= 1e4")
    rows = []
    worst = 0.0
    x = args.xmin
    while x <= args.xmax * (1 + 1e-12):
        residual = abs(analytic.theta(1.0 / x) - (x**0.5) * analytic.theta(x))
        worst = max(worst, residual)
        rows.append({"x": _float(x), "residual": _float(residual)})
        x *= args.step
    ok = worst <= args.tol
    rows.append({"x": "worst", "residual": _float(worst)})
    return (0 if ok else 1), rows


@command("lambda-check", ("--grid", str, "0.25,0.4,0.75,2,3"), ("--tol", float, 1e-10),
         ("--euler", bool, False))
def _cmd_lambda_check(args):
    from . import analytic
    padics.require_tolerance(args.tol)
    rows = []
    ok = True
    for s in _split("--grid", args.grid, "comma-separated numbers s", float):
        lhs = analytic.completed_zeta(s)
        rhs = analytic.completed_zeta(1.0 - s)
        residual = abs(lhs - rhs)
        row = {"s": _float(s), "lhs": _float(lhs), "rhs": _float(rhs), "residual": _float(residual)}
        if s >= 2:
            cross = abs(lhs - analytic.completed_zeta_dirichlet(s))
            row["dirichlet_residual"] = _float(cross)
            ok = ok and cross <= args.tol
        ok = ok and residual <= args.tol
        rows.append(row)
    if args.euler:
        rep = analytic.euler_product_check(2.0, 10**4, 10**5)
        rows.append(
            {
                "s": "euler_s=2",
                "lhs": _float(rep.residual),
                "rhs": _float(rep.tail_bound),
                "residual": rep.ok,
            }
        )
        ok = ok and rep.ok
    return (0 if ok else 1), rows


@command("weil", ("--p", int, REQUIRED), ("--profile", ("gauss-log", "indicator-p"), "gauss-log"),
         ("--n-bound", int, 60))
def _cmd_weil(args):
    from . import analytic
    f = {
        "gauss-log": lambda x: math.exp(-(math.log(x) ** 2)),
        "indicator-p": lambda x: 1.0 if abs(x - args.p) < 1e-9 else 0.0,
    }[args.profile]
    value = analytic.weil_finite(f, args.p, args.n_bound)
    return 0, [{"p": args.p, "profile": args.profile, "value": _float(value)}]


# -- work caps -----------------------------------------------------------------
#
# WORK_CAPS[name] lists (estimate, cap, unit) rows: run refuses a subcommand
# whose estimate(args) -> (flag, work) passes a cap, before its handler runs.
# An estimate never raises, forms no power of an unbounded exponent, and
# counts 0 for args that its handler refuses with a message of its own.


def _digits(exponent: int, *primes: int | None) -> int:
    """The digits of |prod(primes)|^exponent (None primes skipped), 0 when that
    is below 2: exact up to 2^15 bits, and past them a lower bound with no
    power formed."""
    base = abs(math.prod(p for p in primes if p is not None))
    bits = exponent * (base.bit_length() - 1) if base > 1 and exponent > 0 else 0  # at most log2(power)
    if not 0 < bits <= 2**15:
        return bits * 30102 // 100000 + (bits > 0)
    digits = int(math.log10(power := base**exponent))  # floor(log10(power)), or one off it
    return digits + 1 + (10 ** (digits + 1) <= power) - (10**digits > power)


def _ints(text: str) -> list[int]:
    """The unsigned ints in a flag value, each short enough for int()."""
    return [int(x) for x in re.findall(r"\d{1,4000}", text)]


def _rational_digits(text: str) -> int:
    """At least the digits that Fraction(text) reads or forms: every digit
    written, or |e| + 1 for a decimal exponent e, since it forms 10^|e|,
    whichever is more.  It never raises: text whose exponent int() refuses
    counts 0, and Fraction refuses it too before forming any power."""
    body, e, exponent = text.lower().partition("e")
    try:
        power = abs(int(exponent)) + 1 if e else 0
    except ValueError:
        return 0
    return max(sum(c.isdecimal() for c in body), power)


def _window_digits(text: str) -> int:
    """The largest ``_rational_digits`` of the comma-separated entries of a window."""
    return max(map(_rational_digits, text.split(",")))


def _moment_sizes(a) -> tuple[str, int, int, int]:
    """(order flag, order, weights, period) of a ``moments`` argv: the order is
    --mmax, or --delta if larger, and the weights and the period are those of
    its largest weight list.  Every list is the a nonzero weights of some
    xi_r, on the period r a: xi_r itself, xi_q with --pair, and xi_pq, on
    the period a p q, with --restricted too.  All 0 for an argv that the
    handler refuses with a message of its own."""
    try:
        p, q = map(int, a.pair.split(",")) if a.pair else (1, 1)
    except ValueError:  # the handler names the malformed pair
        return "--mmax", 0, 0, 0
    r = 1 if a.r is None else a.r
    if a.mmax < 0 or a.a < 2 or r < 1 or a.pair and (a.r, a.delta, a.delta_prime) != (None,) * 3:
        return "--mmax", 0, 0, 0
    order = max(a.mmax, a.delta or 0)
    period = a.a * r * q * (p if a.restricted else 1)
    return "--delta" if order > a.mmax else "--mmax", order, a.a, period


def _moment_steps(a) -> tuple[str, int]:
    """(order + 1)^2 (order + 1 + weights) steps, each on numbers of as many
    digits as the period: the Stirling pairing and the binomials C(n, k) of
    the series division, which grow with the order and the period."""
    flag, order, weights, period = _moment_sizes(a)
    return flag, (order + 1) ** 2 * (order + 1 + weights) * _digits(1, period)


def _moment_digits(a) -> tuple[str, int]:
    """The digits of period^(order + 1), the common denominator of the pairing,
    named by --r or --pair: past them a step costs more than its digits say.
    Without --r the period is a, which the other two rows bound first."""
    _, order, _, period = _moment_sizes(a)
    return "--pair" if a.pair else "--r", _digits(order + 1, period)


def _moment_terms(a) -> tuple[str, int]:
    """(order + 1) * weights weight terms: the series division sums a binomial
    per weight for each order it forms, and a weight term costs far more than
    a digit step."""
    _, order, weights, _ = _moment_sizes(a)
    return "--a", (order + 1) * weights


def _chain_limits(a) -> tuple[str, int]:
    """The digits of p^(|alpha| + |beta| + N depth), the largest power of p
    that the p-adic-beta target forms, named by its largest part."""
    parts = {"--alpha": abs(a.alpha), "--beta": abs(a.beta), "--schedule": max(_ints(a.schedule) or [0]) * a.depth}
    return max(parts, key=parts.get), _digits(sum(parts.values()), a.p if a.target == "p-adic-beta" else None)


# _B: the largest Bernoulli index read.  A table read in order grows by doubling, so
# commands that read many indices have lower caps than zeta-neg, which reads one
_B = "Bernoulli numbers"
_PRINTABLE = (padics.PRINTABLE_DIGITS, "digits")  # a residue with a longer modulus could not be printed
_RESIDUE = (lambda a: ("--precision", _digits(a.precision, a.p, a.q)), *_PRINTABLE)  # mod p^N, or p^N q^N
WORK_CAPS = {
    "bernoulli": ((lambda a: ("--upto", a.upto), 2048, _B),
                  (lambda a: ("--upto", max(a.upto + 1, 0) ** 2 // 2 if a.poly else 0), 125_000, "polynomial terms")),
    # zeta(-m) = -B_(m+1)/(m+1) has more than 4300 digits from m = 2063 on: 2062 is the largest printable index
    "zeta-neg": ((lambda a: ("--m", a.m + 1 if a.m % 2 else 0) if a.one_minus is None
                  else ("--one-minus", 0 if a.one_minus % 2 else a.one_minus), 2062, _B),),
    "padic": ((lambda a: ("--precision", _digits(a.precision if a.ideal is None else 0, a.p)), *_PRINTABLE),
              (lambda a: ("--value", _rational_digits(a.value) if a.ideal is None else 0), *_PRINTABLE)),
    "teichmuller": (_RESIDUE,),
    "mahler-coeffs": ((lambda a: ("--upto", max(a.upto + 1, 0) ** 2 if a.char else 0), 4_500_000, "steps"),
                      (lambda a: ("--char", _digits((_ints(a.char) or [0])[-1], a.p)), *_PRINTABLE),
                      (lambda a: ("--precision", _digits(a.precision if a.window and not a.char else 0, a.p)),
                       *_PRINTABLE),
                      (lambda a: ("--window", 0 if a.char else _window_digits(a.window)), *_PRINTABLE)),
    "decay-check": ((lambda a: ("--t", _digits(a.t, a.p)), *_PRINTABLE),
                    (lambda a: ("--window", _window_digits(a.window)), *_PRINTABLE)),
    "gamma-p": ((lambda a: ("--modulus-exp", _digits(a.modulus_exp, a.p)), *_PRINTABLE),
                (lambda a: ("--upto", max(a.upto + 2, 0) ** 2 // 2), 25_000_000, "products"),
                (lambda a: ("--upto", max(a.upto + 2, 0) ** 2 // 2 * _digits(a.modulus_exp, a.p)), 75_000_000,
                 "digit products")),
    "spq-sweep": ((lambda a: ("--inverse", _digits((_ints(a.inverse) or [0])[-1], a.p)), *_PRINTABLE),
                  (lambda a: ("--depth", _digits(0 if a.inverse else a.depth, a.p, a.q)), *_PRINTABLE),
                  (lambda a: ("--jmax", 0 if a.inverse else max(a.jmax, 0) * a.depth), 6_000_000, "inverses")),
    "kummer": ((lambda a: ("--i", a.i) if a.i >= a.j else ("--j", a.j), 1500, _B),
               (lambda a: ("--n", _digits(a.n, a.p, a.q)), *_PRINTABLE)),
    "kl-branch": ((lambda a: ("--tmax", a.s0 + max(a.p - 1, 0) * max(a.tmax, 0)), 1500, _B),
                  (lambda a: ("--precision", max(a.tmax + 1, 1) * _digits(a.precision, a.p)), 150_000,
                   "residue digits")),
    "double-branch": ((lambda a: ("--smax", a.sigma0 + max(a.smax, 0) * (a.p - 1) * (a.q - 1) + 1), 1500, _B),
                      _RESIDUE),
    "universal-power": ((lambda a: ("--precision", _digits(a.precision, *_ints(a.primes))), *_PRINTABLE),),
    # the Horner integer of pq_hurwitz reaches about (1 - n)(digits of F + digits of b) digits
    "pq-hurwitz": ((lambda a: ("--n", 1 - a.n), 2400, _B), _RESIDUE,
                   (lambda a: ("--F", (1 - a.n) * (_digits(1, a.F) + _digits(1, a.b)) if a.n <= 0 < a.b < a.F else 0),
                    150_000, "Horner digits")),
    "moments": ((_moment_steps, 10**8, "digit steps"), (_moment_terms, 10**6, "weight terms"),
                (_moment_digits, *_PRINTABLE)),
    # p^20 >= 2^20 already passes both caps on a p^n, so no larger power is formed
    "open-set-measure": ((lambda a: ("--digits", _digits(a.digits + 3, a.p)), *_PRINTABLE),
                         (lambda a: ("--n", a.a * a.p ** min(max(a.n, 0), 20)), 200_000, "terms"),
                         (lambda a: ("--n", a.a * a.p ** min(max(a.n, 0), 20) * _digits(a.digits + 3, a.p)),
                          1_000_000, "term digits")),
    "chain-propagate": ((lambda a: ("--layers", max(a.layers + 1, 0) ** 2), 20_000, "states"),
                        (lambda a: ("--kernel", max(_rational_digits(item.partition("=")[2])
                                                    for item in a.kernel.partition(":")[2].split(","))),
                         *_PRINTABLE)),
    "chain-limits": ((lambda a: ("--depth", len(_ints(a.schedule)) * max(a.depth + 1, 0) ** 2 // 2), 15_000,
                      "states"), (_chain_limits, 2500, "digits")),
    "heisenberg": ((lambda a: ("--n", max(a.n, 0) ** 2), 40_000, "operator entries"),),
    "hahn-basis": ((lambda a: ("--n", (a.n + 1) ** 3), 200_000, "ladder steps"),),
    "theta-check": ((lambda a: ("--step", math.floor(math.log(a.xmax / a.xmin) / math.log(a.step)) + 1
                                if all(map(math.isfinite, (a.xmin, a.xmax, a.step, a.tol))) and a.tol >= 0
                                and a.step > 1 and 1e-4 <= a.xmin <= a.xmax <= 1e4 else 0), 10_000, "grid points"),),
    "lambda-check": ((lambda a: ("--grid", a.grid.count(",") + 1), 12_000, "grid points"),),
}


FORMATS = ("csv", "json", "plain")
# argparse's negative-number pattern; fullmatch also refuses the trailing
# newline that argparse's "$" lets through
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def build_parser():
    """The argparse parser of pqzeta, the one source of help, usage and
    error text; ``run`` builds it only for argv that ``parse`` refuses."""
    import argparse
    ap = argparse.ArgumentParser(prog="pqzeta", description=__doc__)
    ap.add_argument("--format", choices=FORMATS, default="csv")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, kind, default, *text in flags:
            spec = {"help": text[0]} if text else {}
            if kind is bool:
                spec["action"] = "store_true"
            elif isinstance(kind, tuple):
                spec["choices"] = kind
            else:
                spec["type"] = kind
            if default is REQUIRED:
                spec["required"] = True
            else:
                spec["default"] = default
            sp.add_argument(flag, **spec)
    return ap


def parse(argv: list[str]) -> SimpleNamespace | None:
    """The args ``build_parser().parse_args(argv)`` gives, read from COMMANDS
    directly, or None where argparse might read argv otherwise: help, "--",
    a flag not spelled in full, a stray token, a missing required flag, a
    value that fails its type or choices, "=value" on a switch, and a value
    that starts with "-" and is not a negative number."""
    fmt = "csv"
    if argv[:1] == ["--format"] and len(argv) > 1:
        fmt, argv = argv[1], argv[2:]
    elif argv[:1] and argv[0].startswith("--format="):
        fmt, argv = argv[0].partition("=")[2], argv[1:]
    if fmt not in FORMATS or not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, *_ in flags}
    values = {flag: default for flag, _, default, *_ in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kind = kinds.get(flag)
        if kind is None or kind is bool and eq:
            return None
        if kind is bool:
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(value):
                return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[flag] = value
    if any(value is REQUIRED for value in values.values()):
        return None
    dests = {flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], format=fmt, **dests)


def run(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    args = parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    try:
        for estimate, cap, unit in WORK_CAPS.get(args.command, ()):
            flag, work = estimate(args)
            if work > cap:
                raise ValueError(f"{flag} {getattr(args, flag[2:].replace('-', '_'))} asks for at least "
                                 f"{min(work, 10**18)} {unit}, past the cap of {cap}")
        code, rows = COMMANDS[args.command][0](args)
        report = _emit(rows, args.format)
    except padics.PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        out.write(report)
    except OSError as exc:  # a closed pipe: exit 120, as the interpreter's failed final flush does
        print(f"output error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 120
    return code


def main() -> NoReturn:
    """The ``pqzeta`` script: run argv, flush the report and end the process
    without interpreter teardown, pqzeta's one hard exit.  A flush that fails
    (a closed pipe) leaves the exit to the interpreter, which reports it."""
    code = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
