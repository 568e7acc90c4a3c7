"""cli-batch: a fixed list of ``pqzeta`` calls, one process each.

A closed loop with one client: each call starts when the previous one has
ended.  The list covers all 25 subcommands at README scale, the seven README
examples among them, and feeds ``mahler-coeffs`` output to ``mahler-eval``.
At this scale interpreter and import start-up dominate, so start-up and emit
work show here and hardly anywhere else.

A call is made the way the installed ``pqzeta`` script makes it.  In a traced
round each call runs ``cli_child.py`` instead, which times the import of
``pqzeta.cli`` and the in-process ``cli.run``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import selectors
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from harness import BENCH_DIR, INTERPRETER_PROBE, Failure, Op, Outcome, child_env

NAME = "cli-batch"
SUBCOMMANDS = [
    "bernoulli", "zeta-neg", "padic", "teichmuller", "mahler-coeffs", "mahler-eval", "decay-check",
    "gamma-p", "gamma-continuity", "spq-sweep", "kummer", "kl-branch", "double-branch",
    "universal-power", "pq-hurwitz", "moments", "open-set-measure", "chain-propagate",
    "chain-limits", "heisenberg", "hahn-basis", "q-zeta", "theta-check", "lambda-check", "weil",
]
IMPORTED = ["rationals", "padics", "mahler", "measures", "zetabranch", "gamma", "chains", "analytic", "cli"]
SUBPROCESS_CALLS = True  # its calls are process starts: scaled by the interpreter probe
LAYERS = {
    **{f"import.{m}_ms": "ms" for m in IMPORTED},
    "cli.interpreter_ms": "ms",
    **{f"cli.run_ms.{c}": "ms" for c in SUBCOMMANDS},
}
ENTRY = "import sys; from pqzeta.cli import main; main()"
IMPORT_REPS, INTERPRETER_REPS = 3, 5
CALL_TIMEOUT_S = 120
TIMING_MARK = "pqzeta-bench-timing "

# (argv, documented exit code).  The seven README examples are marked.
BATCH = [
    ("bernoulli --upto 12", 0),
    ("bernoulli --upto 6 --poly", 0),
    ("zeta-neg --m 1", 0),  # README
    ("zeta-neg --one-minus 12", 0),
    ("padic --value 22/7 --p 5 --precision 8", 0),  # F1: the (v, unit, N) triple holds commas
    ("--format json padic --value 22/7 --p 5 --precision 8", 0),
    ("padic --ideal 50 --p 5", 0),
    ("teichmuller --n 2 --p 5 --precision 6", 0),
    ("teichmuller --n 2 --p 5 --q 7 --precision 4", 0),
    ("mahler-coeffs --window 1,4,9,16,25,36,49,64 --p 3 --precision 6", 0),
    ("mahler-eval --x 5", 0),  # stdin: the serialized series printed by the call above
    ("mahler-coeffs --char 1,1 --p 3 --upto 12", 0),
    ("decay-check --window 1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1 --p 2 --s 2 --t 1", 0),
    ("gamma-p --p 5 --upto 20", 0),
    ("gamma-continuity --p 5 --s 1 --upto 50", 0),
    ("spq-sweep --p 3 --q 5 --jmax 50 --depth 12", 1),  # README; undecided j remain
    ("spq-sweep --p 5 --inverse 2,3", 0),
    ("kummer --p 5 --i 2 --j 6 --n 0", 0),  # README
    ("kummer --p 5 --q 7 --i 2 --j 14 --n 0", 0),
    ("kl-branch --p 5 --s0 2 --tmax 4 --precision 3", 0),  # README
    ("double-branch --p 5 --q 7 --sigma0 1 --smax 3 --precision 3", 0),
    ("universal-power --n 211 --s 5 --primes 2,3,5,7 --precision 4", 0),
    ("pq-hurwitz --n -3 --b 2 --F 35 --p 5 --q 7 --precision 3", 0),
    ("moments --a 2 --mmax 8", 0),
    ("moments --a 3 --pair 5,7 --mmax 6 --restricted", 0),
    ("--format json open-set-measure --a 2 --p 5 --n 1 --digits 4", 0),
    ("chain-propagate --kernel real-beta:alpha=2,beta=2 --layers 6 --closed-form", 0),  # README; F1
    ("--format json chain-propagate --kernel real-beta:alpha=2,beta=2 --layers 6 --closed-form", 0),
    ("chain-limits --target p-adic-beta --p 5 --schedule 4,8,16,32 --tol 1e-6", 0),  # README
    ("heisenberg --alpha 2 --beta 2 --n 2", 0),
    ("hahn-basis --alpha 2 --beta 2 --n 3", 0),
    ("q-zeta --s 2 --q 0.5 --integer 3", 0),
    ("theta-check", 0),
    ("lambda-check --grid 0.25,0.4,0.75,2,3 --tol 1e-10 --euler", 0),  # README
    ("weil --p 5", 0),
    ("spq-sweep --p 3 --q 5 --jmax 50 --depth 12", 1),  # repeated argv: must print the same bytes
]


def subcommand(argv: list[str]) -> str:
    return next(a for a in argv if a in SUBCOMMANDS)


class State:
    """The batch is fixed, so every seed measures the same calls; set-up is
    the import that every ``pqzeta`` call pays."""

    def __init__(self, seed: int) -> None:
        import pqzeta.cli  # noqa: F401  (the import every call pays)

        self.batch = [(shlex.split(line), code) for line, code in BATCH]
        self.peak_rss_mb = 0.0  # the largest batch call so far


def setup(seed: int) -> State:
    return State(seed)


@dataclass
class Call:
    """What one call returns; two calls are equal when exit code and stdout are."""

    returncode: int
    stdout: bytes
    stderr: str = field(compare=False)
    rss_mb: float = field(default=0.0, compare=False)  # the call's own peak resident set
    run_s: float | None = field(default=None, compare=False)


def _call(cmd: list[str], stdin: bytes | None) -> Call:
    """``subprocess.run(cmd, input=stdin, capture_output=True)``, except that
    the child is reaped with ``os.wait4``, which gives its own peak resident
    set apart from every other process the run has started."""
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    proc.stdin.write(stdin or b"")  # a few lines at most: never fills the pipe
    proc.stdin.close()
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    deadline, timed_out = time.monotonic() + CALL_TIMEOUT_S, False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map() and not timed_out:
            ready = sel.select(deadline - time.monotonic())
            timed_out = not ready
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    if timed_out:
        proc.kill()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        raise subprocess.TimeoutExpired(cmd, CALL_TIMEOUT_S)
    stdout, stderr = (b"".join(c) for c in chunks.values())
    stderr, run_s = stderr.decode(), None
    head, _, last = stderr.rstrip().rpartition("\n")
    if last.startswith(TIMING_MARK):
        stderr, run_s = head, json.loads(last[len(TIMING_MARK):])["run_s"]
    return Call(proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0, run_s)


def ops(st: State, traced: bool = False) -> list[Op]:
    out = []
    last = {}
    for k, (argv, _) in enumerate(st.batch):
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]

        def call(cmd=cmd, argv=argv):
            stdin = _series_text(last.get("mahler-coeffs")) if argv[0] == "mahler-eval" else None
            result = _call(cmd, stdin)
            st.peak_rss_mb = max(st.peak_rss_mb, result.rss_mb)
            if argv[0] == "mahler-coeffs" and "--window" in argv:
                last["mahler-coeffs"] = result.stdout
            return result

        out.append(Op(f"{k} {' '.join(argv)}", call))
    return out


def _series_text(coeffs_stdout: bytes | None) -> bytes:
    """The serialized Mahler series printed as rows of ``mahler-coeffs``."""
    if coeffs_stdout is None:
        return b""
    rows = parse_output("csv", coeffs_stdout.decode())
    return "".join(row["serialized"] + "\n" for row in rows).encode()


def patches(st: State) -> list:
    return []


def peak_rss_mb(st: State) -> float:
    """The largest resident set of one batch call."""
    return st.peak_rss_mb


def after_traced_round(st: State, outcomes: list[Outcome], spans) -> None:
    """Per-subcommand ``cli.run`` time reported by each traced call."""
    for o in outcomes:
        if o.error is None and o.value.run_s is not None:
            spans.add(f"cli.run_ms.{subcommand(o.op.name.split()[1:])}", o.value.run_s)


def extra_layers(st: State, spans) -> None:
    """Import time of each module in a fresh interpreter, and the bare interpreter."""
    import statistics

    env = child_env()
    for module in IMPORTED:
        code = (f"import time; t = time.perf_counter(); import pqzeta.{module}; "
                "print(time.perf_counter() - t)")
        samples = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                                        check=True, timeout=60).stdout) for _ in range(IMPORT_REPS)]
        spans.seconds[f"import.{module}_ms"] = statistics.median(samples)
    spans.seconds["cli.interpreter_ms"] = statistics.median(
        INTERPRETER_PROBE.seconds() for _ in range(INTERPRETER_REPS))


# -- checks ---------------------------------------------------------------------


class UnparsableCSV(ValueError):
    pass


def parse_output(fmt: str, text: str) -> list[dict[str, str]]:
    """Rows of a report as strings; CSV must parse with a stock reader."""
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(text)]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("CSV report lacks its '# schema=' line")
    table = list(csv.reader(lines[1:]))
    if not table:
        return []
    header, body = table[0], table[1:]
    for row in body:
        if len(row) != len(header):
            raise UnparsableCSV(f"a row has {len(row)} fields under a {len(header)}-field header: {row}")
    return [dict(zip(header, row)) for row in body]


def _digits_match(orc, text: str, value, p: int, precision: int | None = None) -> bool:
    got, abs_prec = orc.parse_digits(text, p)
    if precision is not None and abs_prec - orc.valuation(got or value, p) != precision:
        return False
    return orc.congruent(got, value, p, abs_prec)


def _check_rows(orc, argv: list[str], rows: list[dict[str, str]]) -> list[str]:
    """Value checks against the oracles; returns the problems found."""
    cmd = subcommand(argv)
    opt = {argv[k][2:]: argv[k + 1] for k in range(len(argv) - 1) if argv[k].startswith("--")}
    bad = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(msg)

    F = Fraction
    if cmd == "bernoulli":
        expect(len(rows) == int(opt["upto"]) + 1, "row count")
        for row in rows:
            k = int(row["k"])
            expect(F(row["B_k"]) == orc.bernoulli(k), f"B_{k}")
            if "--poly" in argv:
                got = [F(c) for c in row["B_k_of_x"].split()]
                expect(got == orc.bernoulli_poly_coeffs(k), f"B_{k}(x)")
    elif cmd == "zeta-neg":
        m = int(opt["m"]) if "m" in opt else int(opt["one-minus"]) - 1
        value = rows[0].get("zeta(-m)", rows[0].get("zeta(1-k)"))
        expect(F(value) == orc.zeta_neg(m), "zeta value")
    elif cmd == "padic":
        p = int(opt["p"])
        if "ideal" in opt:
            expect(int(rows[0]["exponent"]) == orc.valuation(int(opt["ideal"]), p), "ideal exponent")
        else:
            x, N = F(opt["value"]), int(opt["precision"])
            r = rows[0]
            v = orc.valuation(x, p)
            unit = orc.residue(x / F(p) ** v, p, N)
            expect(r["triple"] == f"({v}, {unit}, {N})", "triple")
            expect(_digits_match(orc, r["digits_form"], x, p, N), "digit form")
            expect(F(r["norm"]) == F(1, p) ** v, "norm")
            if v >= 0:
                expect(r["digits"].split() == [str(unit * p**v // p**i % p) for i in range(N)], "digits")
    elif cmd == "teichmuller":
        n, p, N = int(opt["n"]), int(opt["p"]), int(opt["precision"])
        r = rows[0]
        if "q" not in opt:
            expect(int(r["unit"]) == orc.teichmuller_unit(n, p, N), "lift")
        else:
            q = int(opt["q"])
            w = int(r["omega_pq"])
            expect(w % p**N == orc.teichmuller_unit(n, p, N) and w % q**N == orc.teichmuller_unit(n, q, N),
                   "CRT lift")
            expect(int(r["crt_roundtrip"]) == w, "CRT round trip")
            for prime, key in ((p, "angle_p"), (q, "angle_q")):
                mod = prime**N
                expect(int(r[key]) * orc.teichmuller_unit(n, prime, N) % mod == n % mod, key)
    elif cmd == "mahler-coeffs":
        p = int(opt["p"])
        head, *body = [row["serialized"].split() for row in rows]
        prec, length = int(head[1]), int(head[2])
        if "window" in opt:
            window = [int(F(v)) for v in opt["window"].split(",")]
            want = [orc.mahler_coefficient(window, k) for k in range(len(window))]
        else:
            b, n = (int(x) for x in opt["char"].split(","))
            want = [orc.indicator_mahler(b, n, p, k) for k in range(int(opt["upto"]) + 1)]
        expect(length == len(want) == len(body), "coefficient count")
        for (idx, v, unit), w in zip(body, want):
            got = 0 if v == "inf" or unit == "0" else int(unit) * p ** int(v)
            expect((got - w) % p**prec == 0, f"a_{idx}")
    elif cmd == "mahler-eval":
        window = [1, 4, 9, 16, 25, 36, 49, 64]  # the window of the mahler-coeffs call it reads
        expect(_digits_match(orc, rows[0]["value"], window[int(opt["x"])], 3), "value")
    elif cmd == "decay-check":
        window = [int(v) for v in opt["window"].split(",")]
        p, s, t = int(opt["p"]), int(opt["s"]), int(opt["t"])
        ok = all(orc.valuation(orc.mahler_coefficient(window, n), p) >= sigma
                 for n in range(len(window)) for sigma in range(1, s + 1) if n >= sigma * p**t)
        expect(rows[0]["ok"] == str(ok), "decay verdict")
    elif cmd == "gamma-p":
        p, e = int(opt["p"]), int(opt.get("modulus-exp", 3))
        for row in rows:
            n = int(row["n"])
            expect(int(row["gamma_mod"]) == orc.morita_gamma(n, p, e), f"Gamma_p({n})")
            expect(int(row["step_multiplier"]) == (-1 if n % p == 0 else -n), f"h_p({n})")
    elif cmd == "gamma-continuity":
        expect(rows[0]["ok"] == "True", "continuity verdict")
    elif cmd == "spq-sweep":
        p = int(opt["p"])
        if "inverse" in opt:
            r, s = (int(x) for x in opt["inverse"].split(","))
            expect(int(rows[0]["inverse"]) == pow((p**r + 1) // 2, -1, p**s), "inverse")
        else:
            q, jmax, depth = int(opt["q"]), int(opt["jmax"]), int(opt["depth"])
            js = [j for j in range(2, jmax + 1) if j % p and j % q]
            expect(sorted(int(row["j"]) for row in rows) == js, "every j once")
            for row in rows:
                j = int(row["j"])
                if row["witness_type"] == "undecided":
                    expect(_first_witness(j, p, q, depth) is None, f"j={j} has a witness")
                else:
                    prime, other = (p, q) if row["witness_type"] == "p-side" else (q, p)
                    e, inv = int(row["exponent"]), int(row["inverse"])
                    expect(inv == pow(j, -1, prime**e) and inv % other == 0 and int(row["divisor"]) == other,
                           f"witness for j={j}")
    elif cmd == "kummer":
        p, i, j, n = int(opt["p"]), int(opt["i"]), int(opt["j"]), int(opt["n"])
        if "q" not in opt:
            v = orc.valuation(orc.kl_value(p, i) - orc.kl_value(p, j), p)
            expect(rows[0]["valuation"] == str(v) and rows[0]["ok"] == str(v >= n + 1), "valuation")
        else:
            q = int(opt["q"])
            diff = orc.double_value(p, q, i) - orc.double_value(p, q, j)
            for row in rows:
                v = orc.valuation(diff, int(row["prime"]))
                expect(row["valuation"] == str(v) and row["ok"] == str(v >= n + 1), f"mod {row['prime']}")
    elif cmd == "kl-branch":
        p, s0, N = int(opt["p"]), int(opt["s0"]), int(opt["precision"])
        for row in rows:
            n = int(row["n"])
            value = orc.kl_value(p, n)
            expect(n == s0 + (p - 1) * int(row["t"]) and F(row["value"]) == value, f"value at n={n}")
            expect(_digits_match(orc, row["mod_p"], value, p, N if s0 else max(N - 1, 1)), f"mod_p at n={n}")
    elif cmd == "double-branch":
        p, q, N = int(opt["p"]), int(opt["q"]), int(opt["precision"])
        for row in rows:
            n = int(row["index"])
            value = orc.double_value(p, q, n)
            expect(F(row["value"]) == value, f"value at index {n}")
            for prime, key in ((p, "mod_p"), (q, "mod_q")):
                if value == 0:
                    expect(row[key] == "0", f"{key} at index {n}")
                else:
                    expect(_digits_match(orc, row[key], value, prime, N), f"{key} at index {n}")
    elif cmd == "universal-power":
        n, s, N = int(opt["n"]), int(opt["s"]), int(opt["precision"])
        for row in rows:
            p = int(row["p"])
            expect(int(row["series"]) == int(row["direct"]) == pow(n, s, p**N), f"n^s mod {p}")
    elif cmd == "pq-hurwitz":
        n, b, F_, N = int(opt["n"]), int(opt["b"]), int(opt["F"]), int(opt["precision"])
        for prime, key in ((int(opt["p"]), "mod_p"), (int(opt["q"]), "mod_q")):
            v, unit = orc.pq_hurwitz(n, b, F_, prime, N)
            got, abs_prec = orc.parse_digits(rows[0][key], prime)
            expect(abs_prec == v + N and orc.residue(got / F(prime) ** v, prime, N) == unit, key)
    elif cmd == "moments":
        a = int(opt["a"])
        for row in rows:
            if not row["m"].isdigit():
                continue
            m = int(row["m"])
            if "pair" in opt:
                p, q = (int(x) for x in opt["pair"].split(","))
                want = (1 - a ** (m + 1)) * (1 - q**m) * orc.zeta_neg(m)
                if "--restricted" in argv:
                    want *= 1 - p**m
            else:
                r = int(opt.get("r", 1))
                want = (1 - a ** (m + 1)) * r**m * orc.zeta_neg(m)
                expect(F(row["psi_slot"]) * math.factorial(m) == want, f"Psi slot {m}")
            expect(F(row["value"]) == want, f"moment {m}")
    elif cmd == "open-set-measure":
        a, p, n = int(opt["a"]), int(opt["p"]), int(opt["n"])
        certified = int(opt["digits"]) + 3
        expect(len(rows) == p**n, "one row per residue")
        for row in rows:
            b = int(row["b"])
            expect(_digits_match(orc, row["series_mod"], orc.open_set_measure(a, p, n, b), p), f"b={b}")
            _, abs_prec = orc.parse_digits(row["series_mod"], p)
            expect(abs_prec == certified, f"certified digits at b={b}")
    elif cmd == "chain-propagate":
        weights = [F(row["weight"]) for row in rows if row["state"].startswith("(")]
        expect(sum(weights) == 1 and all(w >= 0 for w in weights), "layer law")
        expect(len(weights) == int(opt["layers"]) + 1, "state count")
        expect(rows[-1] == {"state": "closed_form_agrees", "weight": "True"}, "closed form")
    elif cmd == "chain-limits":
        res = [float(row["sup_residual"]) for row in rows[:-1]]
        expect(res == sorted(res, reverse=True) and res[-1] < float(opt["tol"]), "residuals")
        expect(rows[-1]["sup_residual"] == "True", "verdict")
    elif cmd == "heisenberg":
        expect(rows[0]["residual"] == "0", "residual")
    elif cmd == "hahn-basis":
        expect(len(rows) == int(opt["n"]) + 1, "basis size")
        expect(rows[0]["vector"].split() == ["1"] * (int(opt["n"]) + 1), "constant vector")
    elif cmd == "q-zeta":
        s, q = float(opt["s"]), float(opt["q"])
        expect(math.isclose(float(rows[0]["q_zeta"]), orc.q_zeta(s, q), rel_tol=1e-11), "q-zeta")
        k = int(opt["integer"])
        expect(rows[1]["q_zeta"] == f"[s]_q={(1 - q**k) / (1 - q)}", "q-integer")
    elif cmd == "theta-check":
        xs = [float(row["x"]) for row in rows[:-1]]
        expect(all(math.isclose(b, a * 1.5) for a, b in zip(xs, xs[1:])) and xs[0] == 0.125, "grid")
        expect(all(float(row["residual"]) < 1e-12 for row in rows), "theta transformation residual")
    elif cmd == "lambda-check":
        for row in rows[:-1]:
            s = float(row["s"])
            expect(math.isclose(float(row["lhs"]), orc.completed_zeta(s), rel_tol=1e-10), f"Lambda({s})")
        expect(rows[-1]["residual"] == "True", "Euler product check")
    elif cmd == "weil":
        p = int(opt["p"])
        want = math.log(p) * sum(p ** (-n / 2) * (math.exp(-((n * math.log(p)) ** 2)) * 2)
                                 for n in range(1, 61))
        expect(math.isclose(float(rows[0]["value"]), want, rel_tol=1e-12), "Weil sum")
    return bad


def _first_witness(j: int, p: int, q: int, depth: int):
    for prime, other in ((p, q), (q, p)):
        for e in range(1, depth + 1):
            if pow(j, -1, prime**e) % other == 0:
                return prime, e
    return None


def check(st: State, outcomes: list[Outcome]) -> list[Failure]:
    import oracles as orc

    fails = []
    seen: dict[tuple[str, ...], bytes] = {}
    for o, (argv, code) in zip(outcomes, st.batch):
        name = o.op.name
        if o.error is not None:
            fails.append(Failure(name, f"raised {o.error!r}"))
            continue
        returncode, stdout = o.value.returncode, o.value.stdout
        if returncode != code:
            fails.append(Failure(name, f"exit {returncode}, documented {code}: {o.value.stderr[-300:]}"))
            continue
        key = tuple(argv)
        if seen.setdefault(key, stdout) != stdout:
            fails.append(Failure(name, "stdout differs from an earlier call with the same argv"))
        fmt = argv[1] if argv[0] == "--format" else "csv"
        try:
            rows = parse_output(fmt, stdout.decode())
        except UnparsableCSV as exc:
            fails.append(Failure(name, f"F1: cli._emit writes CSV fields unquoted, so {exc}", fault="F1"))
            continue
        except ValueError as exc:
            fails.append(Failure(name, f"output does not parse: {exc}"))
            continue
        try:
            problems = _check_rows(orc, argv, rows)
        except (KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        if problems:
            fails.append(Failure(name, "wrong " + ", ".join(problems)))
    return fails
