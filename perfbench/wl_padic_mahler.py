"""padic-mahler: PadicNumber arithmetic through Mahler rows.

Random PadicNumber windows are turned into Mahler coefficients by forward
differences (the writes) and evaluated back at every window integer (the
reads); Teichmuller lifts and angle brackets are computed for random
arguments.  A small fixed phase evaluates indicator series at fixed p-adic
points, where fault F2 shows.  No Bernoulli table and no ``measures`` code
runs here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Failure, Op, Outcome, self_peak_rss_mb

NAME = "padic-mahler"
SUBPROCESS_CALLS = False
LAYERS = {
    "mahler.coefficients_s": "s",
    "mahler.eval_int_s": "s",
    "mahler.characteristic_mahler_s": "s",
    "mahler.eval_padic_s": "s",
    "padics.teichmuller_s": "s",
    "padics.angle_bracket_s": "s",
}

# p^N > 2^60, so a difference that cancels every tracked digit (which would
# run into F2) has probability below 2^-60 per entry
WINDOW_PRIMES = [(3, 38), (5, 26), (7, 22)]
WINDOWS_PER_PRIME, WINDOW_LEN = 12, 48
LIFT_PRIMES = (5, 7, 11, 13, 101)
LIFTS, LIFT_BATCH = 3200, 200
BRACKET_PAIRS = ((5, 7), (7, 11), (5, 13), (11, 13))
# F2 phase: fixed series and points, independent of the seed, so the failures
# are the same operations in every run
INDICATORS = [(3, 1, 1), (3, 2, 4), (5, 1, 2), (5, 2, 7), (7, 1, 3)]
POINT_DIGITS, POINTS = 8, 8
F2_MESSAGE = "sum retains no tracked digits"


def fixed_points(p: int) -> list[int]:
    return [(7919 * k + 13) % p**POINT_DIGITS for k in range(POINTS)]


class State:
    def __init__(self, seed: int) -> None:
        from pqzeta import mahler, padics

        self.mahler, self.padics = mahler, padics
        rng = random.Random(seed)
        self.windows = []  # (p, N, [PadicNumber], [residue mod p^N])
        for p, N in WINDOW_PRIMES:
            for _ in range(WINDOWS_PER_PRIME):
                values, residues = [], []
                for _ in range(WINDOW_LEN):
                    v = rng.choice((0, 0, 0, 1, 2))
                    unit = rng.randrange(1, p ** (N - v))
                    if unit % p == 0:
                        unit += 1
                    values.append(padics.PadicNumber(p, v, unit, N - v))
                    residues.append(unit * p**v % p**N)
                self.windows.append((p, N, values, residues))
        self.lifts = []
        for _ in range(LIFTS):
            p = rng.choice(LIFT_PRIMES)
            n = rng.randrange(1, 10**6)
            self.lifts.append((n if n % p else n + 1, p, rng.randrange(10, 31)))
        self.brackets = []
        for _ in range(LIFTS):
            p, q = rng.choice(BRACKET_PAIRS)
            b = rng.randrange(2, 10**6)
            while b % p == 0 or b % q == 0:
                b += 1
            self.brackets.append((b, p, q, rng.randrange(8, 21), rng.randrange(8, 21)))
        self.points = {
            p: [padics.padic_reduce_abs(c, p, POINT_DIGITS) for c in fixed_points(p)]
            for p in {p for p, _, _ in INDICATORS}
        }


def setup(seed: int) -> State:
    return State(seed)


def ops(st: State, traced: bool = False) -> list[Op]:
    mh, pa = st.mahler, st.padics
    out = []
    for k, (p, N, values, _) in enumerate(st.windows):
        series = {}

        def coefficients(values=values, p=p, N=N, series=series):
            series["s"] = mh.mahler_coefficients(values, len(values) - 1, p, N)
            return series["s"]

        out.append(Op(f"coefficients {k}", coefficients, "mahler.coefficients_s"))
        out.append(Op(f"eval_int {k}", lambda series=series: [mh.evaluate_mahler(series["s"], x)
                                                               for x in range(WINDOW_LEN)], "mahler.eval_int_s"))
    for k in range(0, LIFTS, LIFT_BATCH):
        batch = st.lifts[k : k + LIFT_BATCH]
        out.append(Op(f"teichmuller {k // LIFT_BATCH}", lambda batch=batch: [pa.teichmuller(*a) for a in batch],
                      "padics.teichmuller_s"))
        batch = st.brackets[k : k + LIFT_BATCH]
        out.append(Op(f"angle_bracket {k // LIFT_BATCH}", lambda batch=batch: [pa.angle_bracket(*a) for a in batch],
                      "padics.angle_bracket_s"))
    for p, n, b in INDICATORS:
        series = {}

        def indicator(p=p, n=n, b=b, series=series):
            series["s"] = mh.characteristic_mahler(b, n, p, 4 * p**n)
            return series["s"]

        out.append(Op(f"characteristic p={p} n={n} b={b}", indicator, "mahler.characteristic_mahler_s"))
        for k, x in enumerate(st.points[p]):
            out.append(Op(f"eval_padic p={p} n={n} b={b} point={k}",
                          lambda series=series, x=x: mh.evaluate_mahler(series["s"], x), "mahler.eval_padic_s"))
    return out


def patches(st: State) -> list:
    return []


def after_traced_round(st: State, outcomes: list[Outcome], spans) -> None:
    """Every span of this workload is recorded during the round itself."""


def extra_layers(st: State, spans) -> None:
    """Every layer metric of this workload is timed in the traced round."""


def peak_rss_mb(st: State) -> float:
    return self_peak_rss_mb()

def check(st: State, outcomes: list[Outcome]) -> list[Failure]:
    import oracles as orc

    fails = []
    for o in outcomes:
        name = o.op.name
        kind, _, rest = name.partition(" ")
        if o.error is not None:
            if kind == "eval_padic" and F2_MESSAGE in str(o.error):
                fails.append(Failure(name, f"F2: PadicNumber.__add__ raised {o.error!r} on a sum known "
                                           "only to be 0 mod p^M", fault="F2"))
            else:
                fails.append(Failure(name, f"raised {o.error!r}"))
            continue
        if kind in ("coefficients", "eval_int"):
            p, N, _, residues = st.windows[int(rest)]
            mod = p**N
            if kind == "coefficients":
                got = [c.residue(N) for c in o.value.coeffs]
                want = [orc.mahler_coefficient(residues, k) % mod for k in range(WINDOW_LEN)]
                bad = [k for k in range(WINDOW_LEN) if k >= len(got) or got[k] != want[k]]
                if bad:
                    fails.append(Failure(name, f"coefficients {bad[:5]} differ from the alternating sums"))
            else:
                got = [x.residue(N) for x in o.value]
                if got != residues:
                    fails.append(Failure(name, "evaluation at the window integers does not give the window back"))
        elif kind == "teichmuller":
            batch = st.lifts[int(rest) * LIFT_BATCH:][:LIFT_BATCH]
            for w, (n, p, N) in zip(o.value, batch):
                u, mod = w.unit, p**N
                if w.precision != N or pow(u, p - 1, mod) != 1 or (u - n) % p:
                    fails.append(Failure(name, f"omega({n}) mod {p}^{N} = {u} is not the Teichmuller lift"))
        elif kind == "angle_bracket":
            batch = st.brackets[int(rest) * LIFT_BATCH:][:LIFT_BATCH]
            for pair, (b, p, q, Np, Nq) in zip(o.value, batch):
                for x, prime, N in zip(pair, (p, q), (Np, Nq)):
                    mod = prime**N
                    omega = orc.teichmuller_unit(b, prime, N)
                    if x.precision != N or x.unit % prime != 1 or x.unit * omega % mod != b % mod:
                        fails.append(Failure(name, f"<{b}> mod {prime}^{N} = {x.unit} is not b/omega(b)"))
        elif kind == "characteristic":
            p, n, b = (int(kv.split("=")[1]) for kv in rest.split())
            fails += [Failure(name, m) for m in _check_indicator(orc, o.value, p, n, b)]
        elif kind == "eval_padic":
            p, n, b, k = (int(kv.split("=")[1]) for kv in rest.split())
            c = fixed_points(p)[k]
            want = 1 if c % p**n == b else 0
            x = o.value
            if x.is_exact_zero or x.abs_precision < 1 or not orc.congruent(
                want, x.unit * Fraction(p) ** x.valuation, p, x.abs_precision
            ):
                fails.append(Failure(name, f"{x!r} is not the indicator value {want}"))
    return fails


def _check_indicator(orc, series, p, n, b) -> list[str]:
    """Coefficients against the explicit alternating sums, and the decay
    certificate (s, t) = (upto // p^n, n) against their valuations."""
    upto = 4 * p**n
    out = []
    exact = [orc.indicator_mahler(b, n, p, k) for k in range(upto + 1)]
    mod = p**series.precision
    for k, (c, want) in enumerate(zip(series.coeffs, exact)):
        if c.residue(series.precision) != want % mod:
            out.append(f"a_{k} differs from the alternating sum")
    if series.decay != (upto // p**n, n):
        out.append(f"decay certificate {series.decay}")
    else:
        s, t = series.decay
        for k, want in enumerate(exact):
            for sigma in range(1, s + 1):
                if k >= sigma * p**t and orc.valuation(want, p) < sigma:
                    out.append(f"a_{k} breaks the certified decay at sigma={sigma}")
    return out
