"""open-set: the open-set measure tables and the series-division moments.

Layers: ``measures`` (binomial moments by the quotient-rule triangle, the
open-set table's Pascal-row loop, series division for the moments) and the
indicator coefficients of ``mahler``.  The Bernoulli table and PadicNumber
arithmetic are barely touched.
"""

from __future__ import annotations

import random

from harness import Failure, Op, Outcome, self_peak_rss_mb

NAME = "open-set"
SUBPROCESS_CALLS = False
LAYERS = {
    "measures.binomial_moments_s": "s",
    "measures.open_set_table_s": "s",
    "measures.measure_on_open_set_s": "s",
    "mahler.characteristic_coefficients_s": "s",
    "measures.moment_s": "s",
}

DIGITS, GUARD = 4, 3
CERTIFIED = DIGITS + GUARD
TABLE_GRID = [(a, p, n) for a in (2, 3) for p in (5, 7) for n in (0, 1, 2)]
# single residues stay on the cheaper levels so that the seed moves which
# residue is measured, not how much work the round does
SINGLE_GRID = [(2, 5, 1), (2, 5, 2), (3, 5, 1), (2, 7, 1), (3, 7, 1)]
# many single-residue queries against one moments list each: a group of
# alike operations large enough to hold the median operation time
PAIRING_GRID, PAIRINGS = [(2, 5, 1), (3, 5, 1), (2, 7, 1), (3, 7, 1)], 10
MOMENT_CASES = [(2, 1), (3, 1), (2, 3), (3, 2)]
PAIR_CASES = [(2, 5, 7), (3, 5, 7), (2, 7, 11)]
MOMENT_MAX, PAIR_MAX = 24, 12


class State:
    def __init__(self, seed: int) -> None:
        from pqzeta import measures

        self.measures = measures
        rng = random.Random(seed)
        self.single = [(a, p, n, rng.randrange(p**n)) for a, p, n in SINGLE_GRID]
        self.from_moments = [
            (a, p, n, [rng.randrange(p**n) for _ in range(PAIRINGS)]) for a, p, n in PAIRING_GRID
        ]


def setup(seed: int) -> State:
    return State(seed)


def ops(st: State, traced: bool = False) -> list[Op]:
    m = st.measures
    out = []
    for a, p, n in TABLE_GRID:
        out.append(
            Op(f"table a={a} p={p} n={n}", lambda a=a, p=p, n=n: m.measure_open_set_table(a, p, n, DIGITS),
               "measures.open_set_table_s")
        )
    for a, p, n, b in st.single:
        out.append(
            Op(f"single a={a} p={p} n={n} b={b}",
               lambda a=a, p=p, n=n, b=b: m.measure_on_open_set(a, p, n, b, DIGITS, GUARD),
               "measures.measure_on_open_set_s")
        )
    for a, p, n, bs in st.from_moments:
        # the moments list is an op's result, reused by the pairing ops after it
        moments = {}

        def compute(a=a, p=p, n=n, moments=moments):
            moments["d"] = m.binomial_moments(a, p, CERTIFIED * p**n)
            return len(moments["d"])

        out.append(Op(f"binomial_moments a={a} p={p} n={n}", compute))
        for b in bs:
            out.append(
                Op(f"from_moments a={a} p={p} n={n} b={b}",
                   lambda p=p, n=n, b=b, moments=moments: m.open_set_from_moments(moments["d"], p, n, b))
            )
    # the moments are cheap one by one, so one operation computes m = 0..max
    for a, r in MOMENT_CASES:
        out.append(Op(f"moment a={a} r={r}", lambda a=a, r=r: [m.moment(a, r, k) for k in range(MOMENT_MAX + 1)],
                      "measures.moment_s"))
    for a, p, q in PAIR_CASES:
        for kind in ("double_moment", "restricted_moment"):
            fn = getattr(m, kind)
            out.append(Op(f"{kind} a={a} p={p} q={q}",
                          lambda a=a, p=p, q=q, fn=fn: [fn(a, p, q, k) for k in range(PAIR_MAX + 1)],
                          "measures.moment_s"))
    return out


def patches(st: State) -> list:
    return [
        (st.measures, "binomial_moments", "measures.binomial_moments_s"),
        (st.measures, "characteristic_coefficients_exact", "mahler.characteristic_coefficients_s"),
    ]


def after_traced_round(st: State, outcomes: list[Outcome], spans) -> None:
    """Every span of this workload is recorded during the round itself."""


def extra_layers(st: State, spans) -> None:
    """Every layer metric of this workload is timed in the traced round."""


def peak_rss_mb(st: State) -> float:
    return self_peak_rss_mb()

def _check_entry(orc, entry, a, p, n, b) -> str | None:
    expected = orc.open_set_measure(a, p, n, b)
    if entry.certified_digits != CERTIFIED:
        return f"certified {entry.certified_digits} digits, expected {CERTIFIED}"
    if not orc.congruent(entry.series_sum, expected, p, CERTIFIED):
        return f"series sum {entry.series_sum} differs from closed form {expected} mod {p}^{CERTIFIED}"
    if entry.value.residue(CERTIFIED) != orc.residue(expected, p, CERTIFIED):
        return f"value {entry.value} differs from closed form {expected} mod {p}^{CERTIFIED}"
    return None


def check(st: State, outcomes: list[Outcome]) -> list[Failure]:
    import oracles as orc

    fails = []
    tables = {}
    for o in outcomes:
        name = o.op.name
        if o.error is not None:
            fails.append(Failure(name, f"raised {o.error!r}"))
            continue
        kind, _, rest = name.partition(" ")
        args = dict(kv.split("=") for kv in rest.split())
        args = {k: int(v) for k, v in args.items()}
        if kind == "table":
            a, p, n = args["a"], args["p"], args["n"]
            tables[(a, p, n)] = o.value
            if sorted(o.value) != list(range(p**n)):
                fails.append(Failure(name, "table does not cover every residue"))
                continue
            for b, entry in o.value.items():
                msg = _check_entry(orc, entry, a, p, n, b)
                if msg:
                    fails.append(Failure(name, f"b={b}: {msg}"))
        elif kind == "single":
            msg = _check_entry(orc, o.value, args["a"], args["p"], args["n"], args["b"])
            if msg:
                fails.append(Failure(name, msg))
        elif kind == "from_moments":
            a, p, n, b = args["a"], args["p"], args["n"], args["b"]
            if not orc.congruent(o.value, orc.open_set_measure(a, p, n, b), p, CERTIFIED):
                fails.append(Failure(name, f"{o.value} differs from the closed form mod {p}^{CERTIFIED}"))
        elif kind == "moment":
            a, r = args["a"], args["r"]
            for k, value in enumerate(o.value):
                expected = (1 - a ** (k + 1)) * r**k * orc.zeta_neg(k)
                if value != expected:
                    fails.append(Failure(name, f"m={k}: {value} != {expected}"))
        elif kind in ("double_moment", "restricted_moment"):
            a, p, q = args["a"], args["p"], args["q"]
            for k, value in enumerate(o.value):
                expected = (1 - a ** (k + 1)) * (1 - q**k) * orc.zeta_neg(k)
                if kind == "restricted_moment":
                    expected *= 1 - p**k
                if value != expected:
                    fails.append(Failure(name, f"m={k}: {value} != {expected}"))
    # additivity: the p classes of level n inside b + p^(n-1) Z_p
    for (a, p, n), table in tables.items():
        coarse = tables.get((a, p, n - 1))
        if n == 0 or coarse is None:
            continue
        step = p ** (n - 1)
        for b, entry in coarse.items():
            total = sum(table[b + j * step].series_sum for j in range(p))
            if not orc.congruent(total, entry.series_sum, p, CERTIFIED):
                fails.append(Failure(f"table a={a} p={p} n={n}", f"not additive over b={b} mod {p}^{n - 1}"))
    return fails
