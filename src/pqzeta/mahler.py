"""Mahler interpolation on a finite window.

Functions N -> Q_p are supplied as exact values (int/Fraction) or
``PadicNumber``s on a window [0, L].  Coefficients are the iterated forward
differences at 0; a continuous function is recovered as
f(x) = sum_n C(x, n) a_n.  Decay certificates record the bound
|a_n|_p <= p^(-s) for n >= s * p^t coming from a uniform-continuity modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .padics import PadicNumber, PrecisionError, padic_reduce_abs, padic_valuation

Exact = Fraction | int


def _window(f, upto: int) -> list:
    if callable(f):
        return [f(k) for k in range(upto + 1)]
    vals = list(f)
    if len(vals) < upto + 1:
        raise ValueError(f"window too short: need values on [0, {upto}]")
    return vals[: upto + 1]


def binomial_inversion(b: list) -> list:
    """a_n = sum_k C(n,k) (-1)^(n-k) b_k; inverse of the forward transform."""
    out = []
    for n in range(len(b)):
        acc = None
        for k in range(n + 1):
            term = comb(n, k) * b[k] if (n - k) % 2 == 0 else -(comb(n, k) * b[k])
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def forward_binomial_sum(a: list) -> list:
    """b_n = sum_k C(n,k) a_k, the transform inverted by binomial_inversion."""
    out = []
    for n in range(len(a)):
        acc = None
        for k in range(n + 1):
            term = comb(n, k) * a[k]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def difference_operator(f, n: int, x: int = 0):
    """D^n f(x) = sum_k C(n,k)(-1)^(n-k) f(x+k); D^n f(0) is the n-th coefficient."""
    if n < 0 or x < 0:
        raise ValueError("difference_operator needs n, x >= 0")
    vals = _window(f, x + n)
    acc = None
    for k in range(n + 1):
        term = comb(n, k) * vals[x + k]
        if (n - k) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


@dataclass
class MahlerSeries:
    """Coefficients a_0..a_L of a Mahler expansion, all known mod p^precision.

    ``decay`` is an optional certificate (s, t): |a_n|_p <= p^(-sigma) for
    n >= sigma * p^t, for every sigma <= s.
    """

    p: int
    precision: int
    coeffs: list[PadicNumber]
    decay: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self.coeffs)

    def tail_bound_exponent(self) -> int | None:
        """Largest sigma with certified tail |a_n|_p <= p^(-sigma) beyond the window."""
        if self.decay is None:
            return None
        s, t = self.decay
        return min(s, len(self.coeffs) // self.p**t)

    def serialize(self) -> str:
        lines = [f"{self.p} {self.precision} {len(self.coeffs)}"]
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero:
                lines.append(f"{i} inf 0")
            elif c.unit == 0:
                lines.append(f"{i} {c.valuation} 0")
            else:
                lines.append(f"{i} {c.valuation} {c.unit}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "MahlerSeries":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        p, precision, length = (int(x) for x in lines[0].split())
        coeffs = []
        for ln in lines[1 : length + 1]:
            idx, v, unit = ln.split()
            if v == "inf":
                coeffs.append(PadicNumber.exact_zero(p))
            elif unit == "0":
                coeffs.append(PadicNumber.zero_mod(p, int(v)))
            else:
                v = int(v)
                coeffs.append(PadicNumber(p, v, int(unit), precision - v))
        if len(coeffs) != length:
            raise ValueError("truncated serialization")
        return cls(p=p, precision=precision, coeffs=coeffs)


def _to_padic_mod(value, p: int, abs_prec: int) -> PadicNumber:
    """Reduce an exact value (or compatible PadicNumber) mod p^abs_prec."""
    if isinstance(value, PadicNumber):
        return value
    return padic_reduce_abs(value, p, abs_prec)


def mahler_coefficients(f, upto: int, p: int, precision: int) -> MahlerSeries:
    """Coefficients a_0..a_upto of f, each reduced mod p^precision.

    Computed by the forward-difference recurrence (one row of pairwise
    differences per index) rather than the explicit alternating sum; equality
    with the alternating sum is a test, not an assumption.  Exact windows are
    differenced exactly and reduced at the end; PadicNumber windows propagate
    tracked precision, with full cancellation representable as an inexact zero.
    """
    vals = _window(f, upto)
    exact = all(isinstance(x, (int, Fraction)) for x in vals)
    coeffs: list[PadicNumber] = []
    row = list(vals)
    if exact:
        for _ in range(upto + 1):
            coeffs.append(_to_padic_mod(row[0], p, precision))
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    else:
        row = [x if isinstance(x, PadicNumber) else _to_padic_mod(x, p, precision) for x in row]
        for _ in range(upto + 1):
            coeffs.append(row[0])
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return MahlerSeries(p=p, precision=precision, coeffs=coeffs)


@dataclass
class DecayReport:
    ok: bool
    s: int
    t: int
    upto: int
    violation: tuple[int, int, int] | None = None  # (index, sigma, actual valuation)

    @property
    def certificate(self) -> tuple[int, int] | None:
        return (self.s, self.t) if self.ok else None


def verify_decay(f, p: int, s: int, t: int, upto: int) -> DecayReport:
    """Check |a_n(f)|_p <= p^(-sigma) for n >= sigma*p^t, for every sigma <= s.

    A violation is a legitimate return value: it signals that f does not have
    the claimed uniform-continuity modulus (s, t).
    """
    vals = _window(f, upto)
    if not all(isinstance(x, (int, Fraction)) for x in vals):
        raise TypeError("verify_decay needs an exact-valued window")
    row = [Fraction(x) for x in vals]
    pt = p**t
    for n in range(upto + 1):
        a_n = row[0]
        v = padic_valuation(a_n, p)
        for sigma in range(1, s + 1):
            if n >= sigma * pt and v < sigma:
                return DecayReport(ok=False, s=s, t=t, upto=upto, violation=(n, sigma, int(v)))
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return DecayReport(ok=True, s=s, t=t, upto=upto)


class InsufficientTailError(PrecisionError):
    """Evaluation requested without a certificate and with a non-null tail."""


def evaluate_mahler(series: MahlerSeries, x, heuristic: bool = False):
    """Evaluate sum_n C(x, n) a_n.

    For an integer x >= 0 the sum is finite (binomials vanish past x) and is
    computed exactly from the stored residues.  For a PadicNumber x with
    v >= 0 the series is truncated where the decay certificate puts the tail
    below the working precision; without a certificate the call fails unless
    ``heuristic=True`` and the last ceil(log_p L) coefficients vanish at the
    working precision.
    """
    p, n_prec = series.p, series.precision
    if isinstance(x, int):
        if x < 0:
            raise ValueError("integer evaluation needs x >= 0")
        if x >= len(series.coeffs):
            raise InsufficientTailError(f"window of {len(series.coeffs)} ends before x={x}")
        acc = PadicNumber.exact_zero(p)
        for n in range(x + 1):
            c = comb(x, n)
            if c % p**n_prec == 0:
                continue
            acc = acc + series.coeffs[n] * _to_padic_mod(c, p, n_prec)
        return acc

    if not isinstance(x, PadicNumber) or x.p != p:
        raise TypeError("x must be an int or a PadicNumber over the same prime")
    if x.valuation < 0:
        raise ValueError("evaluation needs a p-adic integer")
    sigma = series.tail_bound_exponent()
    if sigma is None:
        guard = 1
        while p**guard < len(series.coeffs):
            guard += 1
        tail = series.coeffs[-guard:]
        flat = all(
            c.is_exact_zero or (c.unit == 0 and c.valuation >= n_prec) or c.valuation >= n_prec
            for c in tail
        )
        if not (heuristic and flat):
            raise InsufficientTailError(
                "no decay certificate; pass heuristic=True once trailing "
                "coefficients vanish at working precision"
            )
        sigma = n_prec
    out_prec = min(n_prec, sigma)
    r = x.residue(min(x.abs_precision, n_prec))
    acc = PadicNumber.exact_zero(p)
    for n, a_n in enumerate(series.coeffs):
        if a_n.is_exact_zero:
            continue
        c = comb(r, n)  # C(x, n) mod p^(N - v_p(n!)) via any representative
        red = _to_padic_mod(c, p, n_prec)
        if red.is_exact_zero or (red.unit == 0 and red.valuation >= n_prec):
            continue
        acc = acc + a_n * red
    if acc.is_exact_zero:
        return PadicNumber.zero_mod(p, out_prec)
    if acc.unit == 0:
        return PadicNumber.zero_mod(p, min(acc.valuation, out_prec))
    digits_kept = out_prec - acc.valuation
    if digits_kept <= 0:
        return PadicNumber.zero_mod(p, out_prec)
    return PadicNumber(p, acc.valuation, acc.unit, min(acc.precision, digits_kept))


def characteristic_rows(p: int, n: int, upto: int):
    """Yield, for k = 0..upto, the Mahler coefficients a_k(b) of the indicators
    of all classes b mod p^n at once, as one list indexed by b.

    a_k(b) = sum over j <= k with j = b mod p^n of (-1)^(k-j) C(k, j).  Pascal's
    rule C(k, j) = C(k-1, j-1) + C(k-1, j), summed over a class and folded mod
    p^n, gives a_k(b) = a_(k-1)(b-1) - a_(k-1)(b) with b - 1 taken mod p^n,
    starting from a_0 = the indicator of b = 0.  Each row is therefore O(p^n)
    exact integer operations instead of a Pascal row of length k.  No class
    b > upto holds a j <= upto, so when p^n > upto + 1 a row stops after
    b = upto (the entries past it are all zero) and the fold reads a zero.
    Every yielded row is a fresh list.
    """
    width = min(p**n, upto + 1)
    row = [1] + [0] * (width - 1)
    yield row
    for _ in range(upto):
        row = [row[b - 1] - row[b] for b in range(width)]
        yield row


def characteristic_coefficients_exact(b: int, n: int, p: int, upto: int) -> list[int]:
    """Integer Mahler coefficients of the indicator of b mod p^n, for all k <= upto:
    column b of ``characteristic_rows``."""
    if not 0 <= b < p**n:
        raise ValueError("need 0 <= b < p^n")
    if b > upto:
        return [0] * (upto + 1)
    return [row[b] for row in characteristic_rows(p, n, upto)]


def characteristic_mahler(b: int, n: int, p: int, upto: int) -> MahlerSeries:
    """Mahler coefficients of the indicator of the class b mod p^n.

    The exact coefficients of ``characteristic_coefficients_exact``, reduced.
    The indicator is locally constant of modulus p^n, so the decay certificate
    (upto // p^n, n) holds for every sigma up to the window's reach.
    """
    pn = p**n
    coeffs = characteristic_coefficients_exact(b, n, p, upto)
    # reduce at a precision wide enough to keep every certified digit exact
    precision = max(1, upto // pn + 2)
    reduced = [_to_padic_mod(c, p, precision) for c in coeffs]
    return MahlerSeries(p=p, precision=precision, coeffs=reduced, decay=(upto // pn, n))


def binomial_coefficient_padic(x: PadicNumber, n: int) -> PadicNumber:
    """C(x, n) for a p-adic integer x, via an integer representative.

    Well defined mod p^(A - v_p(n!)) when x is known mod p^A; always a p-adic
    integer (|C(x,n)|_p <= 1).
    """
    if x.valuation < 0:
        raise ValueError("binomial symbol needs a p-adic integer")
    A = x.abs_precision
    r = x.residue(A)
    value = comb(r, n)
    loss = padic_valuation(Fraction(factorial(n)), x.p)
    keep = int(A - loss)
    if keep <= 0:
        raise PrecisionError("binomial loses all tracked digits")
    return _to_padic_mod(value, x.p, keep)
