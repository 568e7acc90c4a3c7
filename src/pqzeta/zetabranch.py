"""Zeta branches: single-prime interpolation of zeta_neg(n - 1, (p,)) along
congruence classes mod (p-1), the two-prime analogue zeta_neg(n - 1, (p, q))
along classes mod (p-1)(q-1), one Kummer congruence verifier for one or two
primes, the everywhere-interpolable power function, and the two-prime
Hurwitz values.

The two-prime branch values and the Kummer valuations are read from the
unreduced integer pairs of ``rationals.zeta_neg_ratio``, and reduced mod p^N
by ``padics.reduce_relative`` with no gcd and one big-integer reduction
per modulus, as is the ``Fraction`` of a KL-branch value from ``kl_value``;
each entry checks its primes once, the core never.  A Kummer pair of odd
indices is answered (+inf) once its hypotheses hold, before any table read.
A Hurwitz sum is read mod l^K from its first K/v_l(F) + 1 terms, which by
von Staudt-Clausen are the only ones nonzero mod l^K.
A two-prime branch value goes to the core as the pair of zeta(-k) with its
Euler factors, (num, den, k, (p, q)), so (1 - p^k)(1 - q^k) is never
multiplied out: each factor is reduced mod p^N on its own.  The Kummer
checks read the same factored pairs mod l^K through
``padics.factored_numerator`` and never form l^m or a cross product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .padics import (
    INFINITY,
    PadicNumber,
    Record,
    angle_bracket,
    factored_numerator,
    padic_valuation,
    reduce_relative,
    require_primes,
)
from .rationals import zeta_neg, zeta_neg_ratio


def kl_value(p: int, n: int) -> Fraction:
    """zeta_p(1-n) = -(1 - p^(n-1)) B_n / n for n >= 1."""
    require_primes(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    return zeta_neg(n - 1, (p,))


def double_value(p: int, q: int, n: int) -> Fraction:
    """zeta_{p,q}(1-n) = (1 - p^(n-1))(1 - q^(n-1)) * (-B_n/n) for n >= 2."""
    require_primes(p, q)
    if n < 2:
        raise ValueError("n must be >= 2")
    return zeta_neg(n - 1, (p, q))


class HypothesisError(ValueError):
    """A congruence-check precondition failed (not a congruence failure)."""


class CongruenceResult(Record):
    """``valuation`` is an int, or +inf when the difference is exactly 0."""

    __slots__ = ("ok", "required", "valuation")


def kummer_check(p: int, i: int, j: int, n: int) -> CongruenceResult:
    """v_p of (1-p^(i-1))B_i/i - (1-p^(j-1))B_j/j must be >= n+1.

    Hypotheses: n >= 0, (p-1) does not divide i, and i = j mod p^n (p-1); violations
    raise HypothesisError so they cannot masquerade as congruence failures.
    """
    return _kummer((p,), i, j, n)[p]


def extended_kummer_check(p: int, q: int, i: int, j: int, n: int) -> dict[int, CongruenceResult]:
    """Two-prime congruence on (1-p^(.-1))(1-q^(.-1))B_./., mod p^(n+1) and q^(n+1)."""
    return _kummer((p, q), i, j, n)


def _kummer(primes: tuple[int, ...], i: int, j: int, n: int) -> dict[int, CongruenceResult]:
    """v_l of zeta_neg(i-1, primes) - zeta_neg(j-1, primes) against n+1, per l
    in primes, under the hypotheses i, j >= 2, then n >= 0, then (l-1) not dividing
    i for every l, then i = j mod l^n (l-1) for every l (else HypothesisError).

    Under the hypotheses every l is odd (2 - 1 divides i), so l - 1 is even
    and i = j mod 2.  For odd i and j, B_i = B_j = 0, so every valuation is
    +inf, answered before any table read.  Otherwise the two sides are the
    factored pairs (a, b, m, primes) and (c, d, k, primes) of
    zeta_neg(m, primes) = a prod (1 - l'^m) / b and of zeta_neg(k, primes),
    m >= k >= 1 (the larger index is read first), with a and c not 0.  With A
    and C the Euler-factored numerators, the difference is X / (b d),
    X = A d - b C, and per l the residue r = X mod l^K is read from
    ``factored_numerator`` with K = n + 2 + v_l(b d) first:

    - r != 0: v_l(X) = v_l(r) < K exactly, and the valuation is v_l(r) - v_l(b d);
    - r = 0: K doubles, until l^K >= 2^bits, where bits bounds |X|.  Since
      m >= 1, |1 - l'^m| < l'^m < 2^(m bitlen(l')), so
      |A d| < 2^(bitlen(a) + m sum bitlen(l') + bitlen(d)), likewise |b C|, and
      |X| <= |A d| + |b C| < 2^bits with bits one more than the larger exponent.
      Then l^K divides X and exceeds |X|, so X = 0 and the valuation is +inf.
    """
    require_primes(*primes)
    if i < 2 or j < 2:
        raise HypothesisError("need i, j >= 2")
    if n < 0:
        raise HypothesisError(f"need n >= 0, got n = {n}")
    for ell in primes:
        if i % (ell - 1) == 0:
            raise HypothesisError(f"{ell} - 1 divides i = {i}")
    for ell in primes:
        if (i - j) % (ell**n * (ell - 1)) != 0:
            raise HypothesisError(f"i != j mod {ell}^{n} ({ell} - 1)")
    if i % 2:
        return {ell: CongruenceResult(ok=True, required=n + 1, valuation=INFINITY) for ell in primes}
    # the larger index first, so that a growing table is built once; the
    # valuation of the difference does not depend on its sign
    m, k = max(i, j) - 1, min(i, j) - 1
    a, b = zeta_neg_ratio(m)
    c, d = zeta_neg_ratio(k)
    width = sum(ell.bit_length() for ell in primes)
    bits = 1 + max(a.bit_length() + m * width + d.bit_length(), c.bit_length() + k * width + b.bit_length())
    out = {}
    for ell in primes:
        w = padic_valuation(b * d, ell)
        K = n + 2 + w
        while True:
            mod = ell**K
            r = (factored_numerator(a, m, primes, mod) * d - b * factored_numerator(c, k, primes, mod)) % mod
            if r:
                v = padic_valuation(r, ell) - w
                break
            if mod.bit_length() > bits:
                v = INFINITY
                break
            K *= 2
        out[ell] = CongruenceResult(ok=v >= n + 1, required=n + 1, valuation=v)
    return out


class KLBranch(Record):
    """One branch of the p-adic zeta function: indices n = s0 + (p-1)t.

    For p >= 5 any s0 in {0..p-2} is allowed; for p in {2, 3} the only
    congruence class is s0 = 0.  Branches with s0 != 0 satisfy the Kummer
    hypotheses, so representative-independence is certified at one extra
    digit and outputs are reduced at precision N.  The s0 = 0 branch carries
    the pole at s = 0: its outputs are the canonical representative's values
    reduced at N-1 (where representatives still agree for p >= 5); for
    p in {2, 3} representative-independence is not certified at all.
    """

    __slots__ = ("p", "s0", "precision")

    def __init__(self, p: int, s0: int, precision: int):
        require_primes(p)
        if p in (2, 3):
            if s0 != 0:
                raise ValueError("for p in {2, 3} the only branch is s0 = 0")
        elif not 0 <= s0 <= p - 2:
            raise ValueError("s0 must lie in {0..p-2}")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.s0 = s0
        self.precision = precision

    @property
    def certified_precision(self) -> int:
        return self.precision if self.s0 != 0 else max(self.precision - 1, 1)


def kl_branch_eval(branch: KLBranch, s) -> PadicNumber:
    """Evaluate the branch at a p-adic integer s.

    The smallest non-negative representative t of s mod p^N with
    n = s0 + (p-1)t >= 1 is used; Kummer makes any other representative
    congruent mod p^(N+1) on branches with s0 != 0, so the output is
    conservatively certified at precision N (N-1 on the pole branch).
    """
    p, N = branch.p, branch.precision
    if isinstance(s, PadicNumber):
        if s.p != p:
            raise ValueError("mixed primes")
        if s.is_exact_zero:
            t = 0
            exact_zero = True
        else:
            if s.valuation < 0:
                raise ValueError("s must be a p-adic integer")
            t = s.residue(min(N, s.abs_precision))
            exact_zero = False
    else:
        t = int(s) % p**N
        exact_zero = int(s) == 0
    if branch.s0 == 0 and exact_zero:
        raise ZeroDivisionError("the branch s0 = 0 has its pole at s = 0")
    if branch.s0 + (p - 1) * t < 1:
        t += p**N
    n = branch.s0 + (p - 1) * t
    return reduce_relative(kl_value(p, n), p, branch.certified_precision)


class DoubleBranch(Record):
    """A branch of the two-prime zeta: Bernoulli indices s0 + sigma(p-1)(q-1) + 1.

    Regular branches must keep both Kummer hypotheses alive, so s0 = -1 (the
    pole branch) and every s0 with s0 = -1 mod (p-1) or mod (q-1) are
    rejected, alongside the positive multiples of (p-1) and (q-1).  Use
    ``pole=True`` to construct the pole branch explicitly.
    """

    __slots__ = ("p", "q", "sigma0", "pole")

    def __init__(self, p: int, q: int, sigma0: int, pole: bool = False):
        require_primes(p, q)
        if p < 5 or q < 5:
            raise ValueError("double branches need p, q >= 5")
        top = (p - 1) * (q - 1) - 2
        if not -1 <= sigma0 <= top:
            raise ValueError(f"sigma0 must lie in [-1, {top}]")
        if pole:
            if sigma0 != -1:
                raise ValueError("only sigma0 = -1 is the pole branch")
        elif _is_excluded(sigma0, p, q):
            raise ValueError(f"sigma0 = {sigma0} is excluded for (p, q) = ({p}, {q})")
        self.p = p
        self.q = q
        self.sigma0 = sigma0
        self.pole = pole


def excluded_sigma0(p: int, q: int) -> set[int]:
    """sigma0 values with no regular branch.

    Contains -1, the listed multiples k(p-1) (k = 1..q-2) and k(q-1)
    (k = 1..p-2) from both sides, and every class with sigma0 = -1 mod (p-1)
    or mod (q-1), where the index s0 + sigma(p-1)(q-1) + 1 falls out of the
    Kummer hypotheses.  p and q are checked as ``DoubleBranch`` checks them.
    """
    require_primes(p, q)
    if p < 5 or q < 5:
        raise ValueError("double branches need p, q >= 5")
    return {s0 for s0 in range(-1, (p - 1) * (q - 1) - 1) if _is_excluded(s0, p, q)}


def _is_excluded(sigma0: int, p: int, q: int) -> bool:
    """sigma0 in excluded_sigma0(p, q), for sigma0 in [-1, (p-1)(q-1) - 2]."""
    return (
        sigma0 == -1
        or (sigma0 > 0 and (sigma0 % (p - 1) == 0 or sigma0 % (q - 1) == 0))
        or (sigma0 >= 0 and ((sigma0 + 1) % (p - 1) == 0 or (sigma0 + 1) % (q - 1) == 0))
    )


def double_branch_eval(
    branch: DoubleBranch, sigma: int, precision: int
) -> tuple[PadicNumber, PadicNumber]:
    """Value -(1-p^k)(1-q^k) B_{k+1}/(k+1) at k = sigma0 + sigma(p-1)(q-1),
    reduced mod p^N and q^N simultaneously.

    The core takes zeta(-k) = (-1)^k B_{k+1}/(k+1) with its Euler factors,
    (num, den, k, (p, q)), and reduces each factor on its own: the values
    are those of the product pair ``zeta_neg_ratio(k, (p, q))``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if branch.pole and sigma == 0:
        raise ZeroDivisionError("pole branch at sigma = 0")
    p, q = branch.p, branch.q
    k = branch.sigma0 + sigma * (p - 1) * (q - 1)
    value = (*zeta_neg_ratio(k), k, (p, q))
    return reduce_relative(value, p, precision), reduce_relative(value, q, precision)


def universal_power(
    n: int, s: int, primes: tuple[int, ...], precision: int
) -> dict[int, PadicNumber]:
    """n^s for n = 1 mod prod(primes), via the binomial series per prime.

    The series sum_k C(s,k)(n-1)^k is truncated per prime as soon as
    |(n-1)^k|_p < p^-precision; for s >= 0 the partial sum is congruent to
    the exact power mod p^precision.
    """
    require_primes(*primes)
    P = 1
    for p in primes:
        P *= p
    if (n - 1) % P != 0:
        raise ValueError("need n = 1 mod the product of the primes")
    out = {}
    for p in primes:
        cutoff = precision // padic_valuation(n - 1, p) + 1 if n != 1 else 0
        acc = 0
        c = 1  # C(s, k), carried as C(s, k) = C(s, k-1)(s-k+1)/k
        for k in range(cutoff + 1):
            acc += c * (n - 1) ** k
            c = c * (s - k) // (k + 1)
        out[p] = reduce_relative(acc, p, precision)
    return out


def pq_hurwitz(
    n: int, b: int, F: int, p: int, q: int, precision: int
) -> tuple[PadicNumber, PadicNumber]:
    """Two-prime Hurwitz value at a non-positive integer n.

    -(1/m) (1/F) <b>^m S, S = sum_{k=0}^{m} C(m, k) B_k (F/b)^k, m = 1 - n,
    with the angle bracket and the whole expression taken per prime l.  By
    von Staudt-Clausen v_l(B_k) >= -1, so with f = v_l(F) >= 1 a term has
    v_l >= k f - 1: l S mod l^(K+1) is the sum of the terms with k f <= K,
    at most K + 1, each read from B_k mod l^(K+1) with C(m, k) carried from
    k - 1, and S mod l^K holds v_l(S) and N more digits once v_l(S) + N <= K.
    A B_k read whose denominator l divides twice has lost integrality
    (ArithmeticError).  For odd l, S = 1 mod l (B_1 = -1/2 is a unit), so
    the first K = N + 1 holds.  At l = 2 K doubles, until it holds or until
    l^(K+1) passes l 2^bits: the numerator X of S over L b^m, L | (m + 1)!
    the lcm of the denominators, has |X| <= (m + 1)! m! (F + b)^m < 2^bits
    since |B_k| <= k!, and l^K divides X, so then X = 0 and S is exactly 0.
    """
    require_primes(p, q)
    if n > 0:
        raise ValueError("n must be <= 0 (n = 1 is the pole)")
    if not 0 < b < F:
        raise ValueError("need 0 < b < F")
    if F % (p * q) != 0:
        raise ValueError("pq must divide F")
    if gcd(b, p * q) != 1:
        raise ValueError("b must be coprime to pq")
    m = 1 - n
    bp, bq = angle_bracket(b, p, q, precision, precision)
    bits = (m + 1) * (2 * (m + 1).bit_length() + F.bit_length() + 1)
    out = []
    for ell, bracket in ((p, bp), (q, bq)):
        f, K = padic_valuation(F, ell), precision + 1
        while True:
            mod = ell ** (K + 1)
            y = F * pow(b, -1, mod) % mod
            total, c, yk = ell, 1, 1  # l B_0
            for k in range(1, min(m, K // f) + 1):
                c, yk = c * (m - k + 1) // k, yk * y % mod
                a, d = zeta_neg_ratio(k - 1)  # ((-1)^(k-1) B_k.numerator, k B_k.denominator)
                e = padic_valuation(d // k, ell)
                if e > 1:
                    raise ArithmeticError("binomial Bernoulli sum lost integrality")
                total += c * (a if k % 2 else -a) * ell ** (1 - e) * pow(d // k // ell**e, -1, mod) * yk
            r = total % mod // ell  # S mod l^K
            w = padic_valuation(r, ell)  # +inf for r = 0
            if w + precision <= K or w == INFINITY and mod.bit_length() > bits + ell.bit_length():
                break
            K *= 2
        out.append(reduce_relative((-1, m * F), ell, precision) * bracket**m * reduce_relative(r, ell, precision))
    return out[0], out[1]
