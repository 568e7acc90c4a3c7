"""zeta-sweep: the Bernoulli table, then Kummer sweeps and branch values.

Each round first builds a fresh Bernoulli table up to ``TABLE_TOP`` (the
write), then reads through the module table, which the untimed warm-up
round has filled: single- and two-prime Kummer checks, KL-branch and
two-prime branch values, and two-prime Hurwitz values.  ``measures`` is
never called.  The KL-branch points are fixed, apart from the seed, because
fault F3 shows on one of the branches.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from harness import Failure, Op, Outcome, self_peak_rss_mb

NAME = "zeta-sweep"
SUBPROCESS_CALLS = False
LAYERS = {
    "rationals.bernoulli_extend_s": "s",
    "rationals.bernoulli_get_us": "us",
    "zetabranch.kl_value_s": "s",
    "padics.valuation_s": "s",
    "zetabranch.kl_branch_eval_s": "s",
    "zetabranch.double_branch_eval_s": "s",
    "zetabranch.pq_hurwitz_s": "s",
}

TABLE_TOP = 500
PAIRS_PER_CLASS = 60
SINGLE_CLASSES = [(p, n) for p in (5, 7, 11, 13) for n in (0, 1, 2) if p**n * (p - 1) < TABLE_TOP // 2]
DOUBLE_CLASSES = [(5, 7, 0), (5, 7, 1), (5, 11, 0), (7, 11, 0), (7, 13, 0)]
# (p, N): every point t = 1 .. p^N - 1, so every index n = s0 + (p-1)t stays <= TABLE_TOP
KL_BRANCHES = [(5, 3), (7, 2), (13, 1)]
DOUBLE_PAIR, DOUBLE_PRECISION, DOUBLE_POINTS = (5, 7), 4, 1200
HURWITZ_POINTS, HURWITZ_PRECISION = 24, 4
BATCH = 100


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi), so
    that every seed does about the same amount of work."""
    width = (hi - lo) / count
    return [lo + int(k * width) + rng.randrange(max(1, int(width))) for k in range(count)]


class State:
    def __init__(self, seed: int) -> None:
        from pqzeta import rationals, zetabranch

        self.rationals, self.zetabranch = rationals, zetabranch
        rng = random.Random(seed)
        self.single = []
        for p, n in SINGLE_CLASSES:
            step = p**n * (p - 1)
            for i in _strata(rng, 2, TABLE_TOP - step, PAIRS_PER_CLASS):
                if i % (p - 1) == 0:
                    i += 1
                j = i + step * (1 + rng.randrange((TABLE_TOP - i) // step))
                self.single.append((p, i, j, n))
        self.double = []
        for p, q, n in DOUBLE_CLASSES:
            step = math.lcm(p**n * (p - 1), q**n * (q - 1))
            tops = TABLE_TOP - step
            for i in _strata(rng, 2, tops, PAIRS_PER_CLASS):
                while i % (p - 1) == 0 or i % (q - 1) == 0:
                    i += 1
                j = i + step * (1 + rng.randrange(max(1, (TABLE_TOP - i) // step)))
                self.double.append((p, q, i, j, n))
        # odd s0 gives odd indices, where B_n = 0
        self.kl = [(p, s0, N) for p, N in KL_BRANCHES for s0 in range(0, p - 1, 2)]
        p, q = DOUBLE_PAIR
        allowed = sorted(set(range(-1, (p - 1) * (q - 1) - 1)) - zetabranch.excluded_sigma0(p, q))
        period = (p - 1) * (q - 1)
        self.double_branch = []
        for _ in range(DOUBLE_POINTS):
            s0 = rng.choice(allowed)
            self.double_branch.append((s0, rng.randrange((TABLE_TOP - 1 - s0) // period + 1)))
        self.hurwitz = []
        for m in _strata(rng, 30, 130, HURWITZ_POINTS):
            F = rng.choice((35, 70, 105))
            b = rng.choice([b for b in range(1, F) if b % 5 and b % 7])
            self.hurwitz.append((1 - m, b, F))


def setup(seed: int) -> State:
    return State(seed)


def _batches(items: list, size: int = BATCH) -> list[list]:
    return [items[k : k + size] for k in range(0, len(items), size)]


def ops(st: State, traced: bool = False) -> list[Op]:
    z, r = st.zetabranch, st.rationals
    out = [Op("bernoulli_table", lambda: r.BernoulliTable().values(TABLE_TOP), "rationals.bernoulli_extend_s")]
    for k, batch in enumerate(_batches(st.single)):
        out.append(Op(f"kummer {k}", lambda batch=batch: [z.kummer_check(*args) for args in batch]))
    for k, batch in enumerate(_batches(st.double)):
        out.append(Op(f"extended_kummer {k}", lambda batch=batch: [z.extended_kummer_check(*args) for args in batch]))
    for k, (bp, s0, N) in enumerate(st.kl):
        out.append(
            Op(f"kl_branch {k}",
               lambda bp=bp, s0=s0, N=N: [z.kl_branch_eval(z.KLBranch(bp, s0, N), t) for t in range(1, bp**N)],
               "zetabranch.kl_branch_eval_s")
        )
    p, q = DOUBLE_PAIR
    for k, batch in enumerate(_batches(st.double_branch)):
        out.append(
            Op(f"double_branch {k}",
               lambda batch=batch: [z.double_branch_eval(z.DoubleBranch(p, q, s0), sigma, DOUBLE_PRECISION)
                                    for s0, sigma in batch],
               "zetabranch.double_branch_eval_s")
        )
    for n, b, F in st.hurwitz:
        out.append(Op(f"pq_hurwitz n={n} b={b} F={F}",
                      lambda n=n, b=b, F=F: z.pq_hurwitz(n, b, F, p, q, HURWITZ_PRECISION),
                      "zetabranch.pq_hurwitz_s"))
    return out


def patches(st: State) -> list:
    return [
        (st.zetabranch, "kl_value", "zetabranch.kl_value_s"),
        (st.zetabranch, "padic_valuation", "padics.valuation_s"),
    ]


def extra_layers(st: State, spans) -> None:
    """Warm lookups in the module table, timed as one loop (us per lookup)."""
    import time

    bernoulli, reps = st.rationals.bernoulli, 200
    indices = range(TABLE_TOP + 1)
    t0 = time.perf_counter()
    for _ in range(reps):
        for k in indices:
            bernoulli(k)
    per_lookup = (time.perf_counter() - t0) / (reps * len(indices))
    spans.seconds["rationals.bernoulli_get_us"] = per_lookup


def after_traced_round(st: State, outcomes: list[Outcome], spans) -> None:
    """Every span of this workload is recorded during the round itself."""


def peak_rss_mb(st: State) -> float:
    return self_peak_rss_mb()

def _agrees(orc, x, value, p) -> str | None:
    """None when the PadicNumber x equals the rational value to its tracked precision."""
    if x.unit == 0:
        return f"{x!r} carries no digits"
    if not orc.congruent(value, x.unit * Fraction(p) ** x.valuation, p, x.valuation + x.precision):
        return f"{x!r} differs from {value} mod {p}^{x.valuation + x.precision}"
    return None


def check(st: State, outcomes: list[Outcome]) -> list[Failure]:
    import oracles as orc

    fails = []
    p, q = DOUBLE_PAIR
    for o in outcomes:
        name = o.op.name
        if o.error is not None:
            fails.append(Failure(name, f"raised {o.error!r}"))
            continue
        kind, _, index = name.partition(" ")
        batch = lambda items: _batches(items)[int(index)]
        if kind == "bernoulli_table":
            if len(o.value) != TABLE_TOP + 1:
                fails.append(Failure(name, f"{len(o.value)} values, expected {TABLE_TOP + 1}"))
            for k, value in enumerate(o.value):
                if value != orc.bernoulli(k):
                    fails.append(Failure(name, f"B_{k} = {value}, expected {orc.bernoulli(k)}"))
                elif k >= 2 and k % 2 == 0 and value.denominator != orc.von_staudt_denominator(k):
                    fails.append(Failure(name, f"B_{k} breaks von Staudt-Clausen: {value.denominator}"))
        elif kind == "kummer":
            for res, (pp, i, j, n) in zip(o.value, batch(st.single)):
                v = orc.valuation(orc.kl_value(pp, i) - orc.kl_value(pp, j), pp)
                if res.valuation != v or res.required != n + 1 or not res.ok or v < n + 1:
                    fails.append(Failure(name, f"p={pp} i={i} j={j} n={n}: {res}, expected valuation {v}"))
        elif kind == "extended_kummer":
            for res, (pp, qq, i, j, n) in zip(o.value, batch(st.double)):
                for prime in (pp, qq):
                    v = orc.valuation(orc.double_value(pp, qq, i) - orc.double_value(pp, qq, j), prime)
                    got = res[prime]
                    if got.valuation != v or not got.ok or v < n + 1:
                        fails.append(Failure(name, f"p={pp} q={qq} i={i} j={j} mod {prime}: {got}, expected {v}"))
        elif kind == "kl_branch":
            pp, s0, N = st.kl[int(index)]
            certified = N if s0 else max(N - 1, 1)
            over_claimed = []
            for t, x in enumerate(o.value, start=1):
                msg = None
                if x.precision != certified:
                    msg = f"precision {x.precision}, expected {certified}"
                msg = msg or _agrees(orc, x, orc.kl_value(pp, s0 + (pp - 1) * t), pp)
                if msg:
                    fails.append(Failure(name, f"p={pp} s0={s0} N={N} s={t}: {msg}"))
                # the next representative of the class agrees at the certified
                # precision too (the KLBranch docstring)
                elif _agrees(orc, x, orc.kl_value(pp, s0 + (pp - 1) * (t + pp**N)), pp):
                    over_claimed.append(t)
            if over_claimed:
                fails.append(Failure(
                    name, f"F3: kl_branch_eval over-claims precision on p={pp} s0={s0} N={N}: at s = "
                    f"{over_claimed} the value at s + {pp}^{N} differs within the claimed digits", fault="F3"))
        elif kind == "double_branch":
            for (xp, xq), (s0, sigma) in zip(o.value, batch(st.double_branch)):
                k = s0 + sigma * (p - 1) * (q - 1)
                value = -(1 - Fraction(p) ** k) * (1 - Fraction(q) ** k) * orc.bernoulli(k + 1) / (k + 1)
                for x, prime in ((xp, p), (xq, q)):
                    if value == 0:
                        msg = None if x.is_exact_zero else f"{x!r} should be exact zero"
                    else:
                        msg = _agrees(orc, x, value, prime) or (
                            None if x.precision == DOUBLE_PRECISION else f"precision {x.precision}")
                    if msg:
                        fails.append(Failure(name, f"sigma0={s0} sigma={sigma} mod {prime}: {msg}"))
        elif kind == "pq_hurwitz":
            n, b, F = (int(kv.split("=")[1]) for kv in name.split()[1:])
            for x, prime in zip(o.value, (p, q)):
                v, unit = orc.pq_hurwitz(n, b, F, prime, HURWITZ_PRECISION)
                if (x.valuation, x.unit, x.precision) != (v, unit, HURWITZ_PRECISION):
                    fails.append(Failure(name, f"mod {prime}: {x!r}, expected v={v} unit={unit}"))
    return fails
