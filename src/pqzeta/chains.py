"""Layered Markov chains on N x N: the p-adic, q-deformed and real beta
families, gamma/basic chains, exact forward propagation (no Monte Carlo),
the rising-factorial closed form for real-beta layers, limit verification
between the q world and its two boundary worlds, difference operators with
their ladder relation, finite orthogonal bases, and q-number scalars.

Kernels keep exact rationals whenever parameters allow (rational base,
integer exponents); reparametrized real limits force float mode, where row
sums are only required to hold within 1e-12.  Every power a kernel forms
goes through ``_pow``, which refuses an exact one of more than
PRINTABLE_DIGITS digits (Python's str() limit) and a float one that
overflows with ValueError, and ``propagate`` refuses an exact layer with a
weight of more digits, so every weight a layer returns can be printed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isfinite
from sys import float_info

from .padics import PRINTABLE_DIGITS, Record, require_primes, require_tolerance
from .rationals import binomial, rising_factorial

FLOAT_TOL = 1e-12
_LIMIT = 10**PRINTABLE_DIGITS
_LIMIT_BITS = _LIMIT.bit_length() - 1  # 14 284: a power of 2^(bits + 1) or more passes _LIMIT


def _too_long(x: Fraction) -> bool:
    """x has a numerator or denominator of more than PRINTABLE_DIGITS digits."""
    return max(abs(x.numerator), x.denominator) >= _LIMIT


def _pow(base, exponent, exact: bool = True):
    """Exact power when exact is true, base is rational and the exponent
    integral, else a float one.  An exact power of more than PRINTABLE_DIGITS
    digits, or a float one that overflows, raises ValueError; the exact one
    is refused before it is formed when |exponent| * (bit length - 1) of the
    base's larger part already passes _LIMIT_BITS."""
    if exact and isinstance(base, (int, Fraction)) and (
        isinstance(exponent, int) or isinstance(exponent, Fraction) and exponent.denominator == 1
    ):
        base, exponent = Fraction(base), int(exponent)
        bits = abs(exponent) * (max(abs(base.numerator), base.denominator).bit_length() - 1)
        if bits > _LIMIT_BITS or _too_long(power := base**exponent):
            raise ValueError(f"the exact power {base}^{exponent} has more than {PRINTABLE_DIGITS} digits")
        return power
    try:
        return float(base) ** float(exponent)
    except OverflowError:
        raise ValueError(f"the power {base}^{exponent} overflows a float") from None


def _divisor(den, family: str, state):
    """den, the denominator of the family's row at state; 0 raises ValueError."""
    if not den:
        raise ValueError(f"the {family} row at state {state} divides by zero")
    return den


class ChainKernel(Record):
    """A chain from ``root``: ``step`` maps a state to its list of (state, probability)."""

    __slots__ = ("family", "params", "step", "root", "exact")
    _defaults = {"root": (0, 0), "exact": True}

    def is_row_stochastic(self, depth: int) -> bool:
        """Every row reachable within depth steps has weights in [0, 1] (so
        none is nan) that sum to 1."""
        for state in reachable_states(self, depth):
            row = [pr for _, pr in self.step(state)]
            if not all(0 <= pr <= 1 for pr in row) or abs(sum(row) - 1) > (0 if self.exact else FLOAT_TOL):
                return False
        return True


def reachable_states(kernel: ChainKernel, depth: int) -> list:
    seen = {kernel.root}
    frontier = [kernel.root]
    for _ in range(depth):
        nxt = []
        for st in frontier:
            for child, _ in kernel.step(st):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return sorted(seen)


def kernel_padic_beta(p: int, alpha, beta) -> ChainKernel:
    """The six-case p-adic beta kernel on layers {(i, j): i + j = n}: exact
    when alpha and beta are ints, else every power of p is a float."""
    require_primes(p)
    exact = isinstance(alpha, int) and isinstance(beta, int)
    pb = _pow(p, -beta, exact)
    pa = _pow(p, -alpha, exact)
    pab = _pow(p, -(alpha + beta), exact)

    def step(state):
        i, j = state
        if (i, j) == (0, 0):
            den = _divisor(1 - pab, "p-beta", state)
            return [((0, 1), (1 - pb) / den), ((1, 0), (1 - pa) * pb / den)]
        if j == 0:
            return [((i + 1, 0), pb), ((i, 1), 1 - pb)]
        one = Fraction(1) if exact else 1.0
        return [((i, j + 1), one)]

    return ChainKernel(
        family="p-beta", params={"p": p, "alpha": alpha, "beta": beta}, step=step, exact=exact
    )


def kernel_q_beta(q, alpha, beta) -> ChainKernel:
    """Two-case q-beta kernel; the two numerators sum to the denominator."""
    exact = isinstance(q, (int, Fraction)) and isinstance(alpha, int) and isinstance(beta, int)

    def step(state):
        i, j = state
        den = _divisor(1 - _pow(q, alpha + beta + i + j), "q-beta", state)
        qb = _pow(q, beta + j)
        return [((i, j + 1), (1 - qb) / den), ((i + 1, j), (1 - _pow(q, alpha + i)) * qb / den)]

    return ChainKernel(
        family="q-beta", params={"q": q, "alpha": alpha, "beta": beta}, step=step, exact=exact
    )


def kernel_real_beta(alpha, beta) -> ChainKernel:
    """Up with weight beta + 2j, right with weight alpha + 2i."""
    exact = isinstance(alpha, (int, Fraction)) and isinstance(beta, (int, Fraction))
    cast = Fraction if exact else float

    def step(state):
        i, j = state
        den = _divisor(cast(alpha + beta + 2 * (i + j)), "real-beta", state)
        return [((i, j + 1), cast(beta + 2 * j) / den), ((i + 1, j), cast(alpha + 2 * i) / den)]

    return ChainKernel(
        family="real-beta", params={"alpha": alpha, "beta": beta}, step=step, exact=exact
    )


def kernel_q_gamma(q, beta) -> ChainKernel:
    """Gamma chain on layers {(n, j): j <= n}: keep j with q^(beta+j), else raise it."""
    exact = isinstance(q, (int, Fraction)) and isinstance(beta, int)

    def step(state):
        i, j = state
        stay = _pow(q, beta + j)
        return [((i + 1, j), stay), ((i + 1, j + 1), 1 - stay)]

    return ChainKernel(
        family="q-gamma", params={"q": q, "beta": beta}, step=step, exact=exact
    )


def kernel_basic(q, beta) -> ChainKernel:
    """The basic chain on N: stay with q^(beta+i), advance with the rest."""
    exact = isinstance(q, (int, Fraction)) and isinstance(beta, int)

    def step(i):
        stay = _pow(q, beta + i)
        return [(i, stay), (i + 1, 1 - stay)]

    return ChainKernel(
        family="basic", params={"q": q, "beta": beta}, step=step, root=0, exact=exact
    )


def kernel_u_gamma(u: int, beta: int) -> ChainKernel:
    """Gamma chain driven by a composite base u (the CRT stand-in for a
    generic prime): u^(-beta) keeps j = 0, otherwise j locks upward."""
    if not (isinstance(u, int) and isinstance(beta, int)) or u < 2 or beta < 1:
        raise ValueError("need u >= 2 and integer beta >= 1")
    w = _pow(u, -beta)

    def step(state):
        i, j = state
        if j == 0:
            return [((i + 1, 0), w), ((i + 1, 1), 1 - w)]
        return [((i + 1, j + 1), Fraction(1))]

    return ChainKernel(family="u-gamma", params={"u": u, "beta": beta}, step=step)


class LayerDistribution(Record):
    """The law after ``n`` steps: ``weights`` maps a state to its probability."""

    __slots__ = ("n", "weights")


def propagate(kernel: ChainKernel, n: int) -> LayerDistribution:
    """Exact law of the chain after n steps from the root.  An exact kernel's
    layer with a weight of more than PRINTABLE_DIGITS digits raises ValueError."""
    if n < 0:
        raise ValueError("layer index must be >= 0")
    one = Fraction(1) if kernel.exact else 1.0
    current = {kernel.root: one}
    for layer in range(1, n + 1):
        nxt: dict = {}
        for state, mass in current.items():
            for child, pr in kernel.step(state):
                if pr:
                    nxt[child] = nxt.get(child, 0) + mass * pr
        if kernel.exact and any(map(_too_long, nxt.values())):
            raise ValueError(f"layer {layer} has a weight of more than {PRINTABLE_DIGITS} digits")
        current = nxt
    return LayerDistribution(n=n, weights=current)


def real_beta_layer_closed_form(alpha, beta, n: int) -> LayerDistribution:
    """tau(i, j) = C(n, i) (alpha/2)_i (beta/2)_j / ((alpha+beta)/2)_n on layer n."""
    a2, b2 = Fraction(alpha, 2), Fraction(beta, 2)
    den = rising_factorial(a2 + b2, n)
    weights = {}
    for i in range(n + 1):
        j = n - i
        weights[(i, j)] = binomial(n, i) * rising_factorial(a2, i) * rising_factorial(b2, j) / den
    return LayerDistribution(n=n, weights=weights)


class LimitReport(Record):
    __slots__ = ("target", "schedule", "residuals", "tol")

    @property
    def decreasing(self) -> bool:
        """Each residual below the one before, or both exactly 0 (exact agreement)."""
        return all(b < a or a == b == 0 for a, b in zip(self.residuals, self.residuals[1:]))

    @property
    def final_ok(self) -> bool:
        return self.residuals[-1] <= self.tol

    @property
    def ok(self) -> bool:
        return self.decreasing and self.final_ok


def limit_check(
    target: str,
    p: int | None,
    alpha,
    beta,
    schedule: list[int],
    tol: float,
    depth: int = 6,
) -> LimitReport:
    """Sup-norm distance between the reparametrized q-beta kernel and a target,
    both read through their kernels' rows.

    p-adic target: q = p^-N, parameters divided by N (exact rationals, the
    distance decays geometrically in N).  Real target: q = 0.5^(2/N) with
    halved parameters (float mode, first-order decay in 1/N).  Every N >= 1;
    the sup runs over the states i + j <= depth, so depth >= 0.  A row that
    divides by zero, or a power that ``_pow`` refuses, raises ValueError.
    """
    if target not in ("p-adic-beta", "real-beta"):
        raise ValueError("target must be 'p-adic-beta' or 'real-beta'")
    require_tolerance(tol)
    if not schedule or min(schedule) < 1:
        raise ValueError(f"a limit schedule needs every N >= 1, got {list(schedule)}")
    if depth < 0:
        raise ValueError(f"the state depth must be >= 0, got {depth}")
    if target == "p-adic-beta":
        if p is None:
            raise ValueError("p-adic target needs a prime")
        goal = kernel_padic_beta(p, alpha, beta)
        # (p^-N)^(x/N + k) = (1/p)^(x + N k): q-beta at q = p^-N with parameters alpha/N and
        # beta/N has at state (i, j) the weights of q-beta at q = 1/p at state (N i, N j)
        q_beta = kernel_q_beta(Fraction(1, p), alpha, beta)
        approx = [(q_beta, N) for N in schedule]
    else:
        goal = kernel_real_beta(alpha, beta)
        approx = [(kernel_q_beta(_pow(0.5, Fraction(2, N)), alpha / 2, beta / 2), 1) for N in schedule]
    rows = {(i, j): dict(goal.step((i, j))) for i in range(depth + 1) for j in range(depth + 1 - i)}
    residuals = []
    for kernel, n in approx:
        sup = 0.0
        for (i, j), row in rows.items():
            near = dict(kernel.step((n * i, n * j)))
            sup = max(sup, abs(float(near[n * i, n * j + 1] - row.get((i, j + 1), 0))),
                      abs(float(near[n * i + 1, n * j] - row.get((i + 1, j), 0))))
        residuals.append(sup)
    return LimitReport(target=target, schedule=list(schedule), residuals=residuals, tol=tol)


# -- difference operators and bases on real-beta layers -----------------------


def lowering_operator(phi: dict, n: int, alpha, beta) -> dict:
    """D_n: functions on layer n (family alpha,beta) to layer n-1 (alpha+2,beta+2).

    D_n phi(i,j) = ((alpha+beta)/2 + n)(phi(i, j+1) - phi(i+1, j)); kills
    constants.
    """
    c = Fraction(alpha + beta, 2) + n
    return {
        (i, n - 1 - i): c * (phi[(i, n - i)] - phi[(i + 1, n - 1 - i)]) for i in range(n)
    }


def raising_operator(phi: dict, n: int, alpha, beta) -> dict:
    """D_n^+: functions on layer n-1 (family alpha+2,beta+2) to layer n (alpha,beta)."""
    c = Fraction(alpha + beta, 2) + n
    out = {}
    for i in range(n + 1):
        j = n - i
        acc = Fraction(0)
        if j >= 1:
            acc += j * (Fraction(alpha, 2) + i) * phi[(i, j - 1)]
        if i >= 1:
            acc -= i * (Fraction(beta, 2) + j) * phi[(i - 1, j)]
        out[(i, j)] = acc / c
    return out


def heisenberg_check(alpha, beta, n: int) -> Fraction:
    """Max residual of D_n D_n^+ - D_{n-1}^+ D_{n-1} - ((alpha+beta)/2) id
    on the basis of layer n-1 (family alpha+2, beta+2), the indicators of the
    states (k, n-1-k); exactly 0, so by linearity 0 on every function."""
    if n < 1:
        raise ValueError("n must be >= 1")
    worst = Fraction(0)
    half = Fraction(alpha + beta, 2)
    for k in range(n):
        phi = {(i, n - 1 - i): Fraction(1 if i == k else 0) for i in range(n)}
        down_up = lowering_operator(raising_operator(phi, n, alpha, beta), n, alpha, beta)
        if n >= 2:
            up_down = raising_operator(
                lowering_operator(phi, n - 1, alpha + 2, beta + 2), n - 1, alpha + 2, beta + 2
            )
        else:
            up_down = dict.fromkeys(phi, Fraction(0))
        for key in phi:
            r = abs(down_up[key] - up_down[key] - half * phi[key])
            worst = max(worst, r)
    return worst


def hahn_basis(alpha, beta, n: int) -> list[dict]:
    """phi_m = (-1)^m/m! (D^+)^m 1 for m = 0..n, an orthogonal family on layer n.

    The m-th vector starts from the constant function on layer n-m in the
    (alpha+2m, beta+2m) family and rides the raising ladder down to (alpha,
    beta); orthogonality is with respect to the closed-form layer law.
    """
    out = []
    for m in range(n + 1):
        phi = {(i, n - m - i): Fraction(1) for i in range(n - m + 1)}
        for step in range(m):
            layer = n - m + step + 1
            a_shift = alpha + 2 * (m - step - 1)
            b_shift = beta + 2 * (m - step - 1)
            phi = raising_operator(phi, layer, a_shift, b_shift)
        scale = Fraction((-1) ** m, factorial(m))
        out.append({k: scale * v for k, v in phi.items()})
    return out


def layer_inner_product(f: dict, g: dict, law: LayerDistribution) -> Fraction:
    return sum(law.weights[k] * f[k] * g[k] for k in law.weights)


# -- q-number scalars ----------------------------------------------------------


def q_integer(s, q):
    """[s]_q = (1 - q^s)/(1 - q); exact for integer s and rational q."""
    if q == 1:
        raise ZeroDivisionError("q = 1 is the classical limit")
    return (1 - _pow(q, s)) / (1 - q)


def q_zeta(s: float, q: float) -> float:
    """prod_{n>=0} (1 - q^(s+n))^(-1), truncated once the multiplicative tail
    is below 1e-14.

    Both refusals of reach come before the loop.  At a non-positive integer
    s the factor n = -s is 1/(1 - 1): a pole.  The tail test q^(s+n)/(1 - q)
    < 1e-14 gets easier as n grows, so when it fails at n = 10^6 it fails at
    every n below, and the product would need more than 10^6 factors.  A
    product that leaves the normal floats is refused after the loop.
    """
    if not 0 < q < 1:
        raise ValueError("need 0 < q < 1")
    if not isfinite(s):
        raise ValueError("need a finite s")
    try:
        q**s  # the largest factor's power
    except OverflowError:
        raise ValueError(f"q^s overflows a float at s = {s}, q = {q}") from None
    if s <= 0 and s == int(s):
        raise ValueError(f"the q-zeta product has a pole at the non-positive integer s = {s}")
    if not q ** (s + 10**6) / (1.0 - q) < 1e-14:
        raise ValueError(f"the q-zeta product needs more than 10^6 factors at s = {s}, q = {q}")
    prod = 1.0
    n = 0
    while True:
        term = q ** (s + n)
        if term / (1.0 - q) < 1e-14:
            break
        prod /= 1.0 - term
        n += 1
    if not (isfinite(prod) and abs(prod) >= float_info.min):
        raise ValueError(f"the q-zeta product leaves the normal floats at s = {s}, q = {q}: {prod}")
    return prod


# -- kernel spec parsing -------------------------------------------------------


def parse_kernel_spec(spec: str) -> ChainKernel:
    """Build a kernel from a flag string "family:key=value,..." .

    Families: p-beta, q-beta, real-beta, q-gamma, basic, u-gamma; "p-gamma"
    is accepted as the q-gamma chain at q = 1/p.  Values parse as Fractions
    when possible, else floats.
    """
    family, _, raw = spec.partition(":")
    params = {}
    if raw:
        for item in raw.split(","):
            key, _, val = item.partition("=")
            try:
                f = Fraction(val)
                params[key.strip()] = int(f) if f.denominator == 1 else f
            except ValueError:
                params[key.strip()] = float(val)
    family = family.strip()

    def param(key: str):
        if key not in params:
            raise ValueError(f"chain family {family!r} needs the parameter {key!r}")
        return params[key]

    if family == "p-beta":
        return kernel_padic_beta(param("p"), param("alpha"), param("beta"))
    if family == "q-beta":
        return kernel_q_beta(param("q"), param("alpha"), param("beta"))
    if family == "real-beta":
        return kernel_real_beta(param("alpha"), param("beta"))
    if family == "q-gamma":
        return kernel_q_gamma(param("q"), param("beta"))
    if family == "p-gamma":
        require_primes(param("p"))
        return kernel_q_gamma(Fraction(1, param("p")), param("beta"))
    if family == "basic":
        return kernel_basic(param("q"), param("beta"))
    if family == "u-gamma":
        return kernel_u_gamma(param("u"), param("beta"))
    raise ValueError(f"unknown chain family {family!r}")
