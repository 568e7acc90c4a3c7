"""Morita p-adic gamma function and the two-prime triviality apparatus.

The gamma function here is the signed restricted factorial
Gamma_p(n) = (-1)^n * prod_{1 <= j < n, p does not divide j} j, with
Gamma_p(0) = 1 and Gamma_p(1) = -1.  The second half of the module deals
with chains of modular inverses: explicit inverse formulas for residues of
the shape (m p^r + t)/v, and the search for integers j whose inverses mod
p^r avoid divisibility by q (and symmetrically).
"""

from __future__ import annotations

from .padics import Record, require_primes


def _unit_product(n: int, p: int, mod: int | None = None) -> int:
    """prod_{1 <= j < n, p does not divide j} j, reduced mod `mod` when given."""
    prod = 1
    for j in range(1, n):
        if j % p:
            prod = prod * j % mod if mod else prod * j
    return prod


def morita_gamma_exact(n: int, p: int) -> int:
    """Gamma_p(n) as an exact integer."""
    require_primes(p)
    if p == 2:
        raise ValueError("p = 2 is excluded")
    if n < 0:
        raise ValueError("n must be >= 0")
    prod = _unit_product(n, p)
    return -prod if n % 2 else prod


def morita_gamma(n: int, p: int, modulus_exp: int) -> int:
    """Gamma_p(n) reduced mod p^modulus_exp, as a residue in [0, p^s)."""
    require_primes(p)
    if p == 2:
        raise ValueError("p = 2 is excluded")
    if modulus_exp < 1:
        raise ValueError("modulus exponent must be >= 1")
    mod = p**modulus_exp
    prod = _unit_product(n, p, mod)
    if n % 2:
        prod = -prod
    return prod % mod


def gamma_functional_step(n: int, p: int) -> int:
    """Multiplier h_p(n) with Gamma_p(n+1) = h_p(n) * Gamma_p(n): -n off pZ, else -1."""
    require_primes(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return -1 if n % p == 0 else -n


class ContinuityReport(Record):
    __slots__ = ("p", "s", "upto", "ok", "first_failure")

    def __init__(self, p: int, s: int, upto: int, ok: bool, first_failure: int | None = None):
        self.p = p
        self.s = s
        self.upto = upto
        self.ok = ok
        self.first_failure = first_failure


def gamma_continuity_check(p: int, s: int, upto: int, restricted: bool = True) -> ContinuityReport:
    """Check a_{n + p^s} = -a_n mod p^s for the (un)restricted factorial.

    a_n is the running product of 1 <= k < n with p not dividing k (the
    unrestricted variant keeps multiples of p and is expected to fail: the
    sign congruence breaks as soon as one side picks up p-divisibility the
    other side lacks).  It needs s >= 1, upto >= 0 and p^s + upto <= 10^6; an
    s >= 20 is refused without forming p^s, since 2^20 > 10^6 already.
    """
    require_primes(p)
    if p == 2:
        raise ValueError("p = 2 is excluded")
    if s < 1 or upto < 0 or s >= 20 or p**s + upto > 10**6:
        raise ValueError(f"need s >= 1, upto >= 0 and p^s + upto <= 10^6, got s = {s}, upto = {upto}")
    mod = p**s
    span = upto + p**s + 1
    a = [1] * (span + 1)
    for n in range(1, span + 1):
        k = n - 1
        if k == 0 or (restricted and k % p == 0):
            keep = 1
        else:
            keep = k
        a[n] = a[n - 1] * keep % mod
    for n in range(upto + 1):
        if (a[n + p**s] + a[n]) % mod != 0:
            return ContinuityReport(p=p, s=s, upto=upto, ok=False, first_failure=n)
    return ContinuityReport(p=p, s=s, upto=upto, ok=True)


# -- inverse formulas ---------------------------------------------------------


def inverse_of_half_pr_plus_one(p: int, r: int, s: int) -> int:
    """Inverse of (p^r + 1)/2 mod p^s by the alternating geometric formula.

    x = 2 * sum_{m=0}^{n} (-1)^m p^(mr) with n maximal under nr < s, plus p^s
    when n is odd; the result lies in (0, p^s).
    """
    require_primes(p)
    if p == 2:
        raise ValueError("p = 2 is excluded")
    if not (r >= 1 and s > r):
        raise ValueError("need 1 <= r < s")
    n = (s - 1) // r
    x = 2 * sum((-1) ** m * p ** (m * r) for m in range(n + 1))
    if n % 2 == 1:
        x += p**s
    return x


def inverse_general(m: int, r: int, t: int, v: int, p: int, s: int) -> int:
    """Inverse of (m p^r + t)/v mod p^s via one inverse of t and a geometric tail.

    x = v * sum_{l=0}^{n} (-1)^l t_s^(l+1) (m p^r)^l (+ p^s when n is odd),
    reduced into [0, p^s); t_s is the inverse of t mod p^s and n is maximal
    under nr < s.
    """
    require_primes(p)
    if (m * p**r + t) % v != 0:
        raise ValueError("v must divide m*p^r + t")
    if t % p == 0:
        raise ValueError("t must be coprime to p")
    if not (r >= 1 and s > r):
        raise ValueError("need 1 <= r < s")
    ts = pow(t, -1, p**s)
    n = (s - 1) // r
    x = v * sum((-1) ** l * ts ** (l + 1) * (m * p**r) ** l for l in range(n + 1))
    if n % 2 == 1:
        x += p**s
    return x % p**s


# -- the inverse-chain membership search --------------------------------------


class ExclusionWitness(Record):
    __slots__ = ("side", "exponent", "inverse", "divisor")

    def __init__(self, side: str, exponent: int, inverse: int, divisor: int):
        self.side = side  # "p-side" or "q-side"
        self.exponent = exponent
        self.inverse = inverse
        self.divisor = divisor


def s_pq_membership(j: int, p: int, q: int, depth: int = 12):
    """Search for an exclusion witness for j along the chain of inverses.

    Walks r = 1..depth looking for q dividing the inverse of j mod p^r, then
    symmetrically for p dividing the inverse of j mod q^s.  Returns an
    ExclusionWitness, or None when undecided at this depth.  No claim of
    membership is ever made.
    """
    require_primes(p, q)
    if depth < 1:
        raise ValueError(f"the search depth must be >= 1, got {depth}")
    if j < 2:
        raise ValueError("j must be >= 2 (1 is its own inverse everywhere)")
    if j % p == 0 or j % q == 0:
        raise ValueError("j must be coprime to pq")
    for r in range(1, depth + 1):
        x = pow(j, -1, p**r)
        if x % q == 0:
            return ExclusionWitness("p-side", r, x, q)
    for s in range(1, depth + 1):
        x = pow(j, -1, q**s)
        if x % p == 0:
            return ExclusionWitness("q-side", s, x, p)
    return None


class TrivialityReport(Record):
    __slots__ = ("p", "q", "j_bound", "depth", "witnesses", "undecided")

    def __init__(self, p: int, q: int, j_bound: int, depth: int):
        self.p = p
        self.q = q
        self.j_bound = j_bound
        self.depth = depth
        self.witnesses: dict[int, ExclusionWitness] = {}
        self.undecided: list[int] = []

    @property
    def all_excluded(self) -> bool:
        return not self.undecided


def verify_triviality_theorem(p: int, q: int, j_bound: int, depth: int = 12) -> TrivialityReport:
    """Sweep 2 <= j <= j_bound coprime to pq for exclusion witnesses; a
    j_bound below 2 sweeps nothing and is refused.

    An undecided j is reported as such (prompting a deeper search); the sweep
    never asserts membership.  Nothing is cached: each j is searched afresh,
    so the report depends only on the arguments.
    """
    require_primes(p, q)
    if depth < 1:
        raise ValueError(f"the search depth must be >= 1, got {depth}")
    if j_bound < 2:
        raise ValueError(f"the sweep needs j_bound >= 2, got {j_bound}")
    report = TrivialityReport(p=p, q=q, j_bound=j_bound, depth=depth)
    for j in range(2, j_bound + 1):
        if j % p == 0 or j % q == 0:
            continue
        w = s_pq_membership(j, p, q, depth)
        if w is None:
            report.undecided.append(j)
        else:
            report.witnesses[j] = w
    return report
