"""Mahler interpolation on a finite window.

Functions N -> Q_p are supplied as exact values (int/Fraction) or
``PadicNumber``s on a window [0, L].  By Mahler's theorem the coefficients
are the forward differences a_n = D^n f(0) and a continuous function is
recovered as f(x) = sum_n C(x, n) a_n.  Both directions work on exact
rational representatives (``_representative``), each paired with the
absolute precision it is known to, and reduce once at the end:
``_differences`` is the one difference loop (coefficients, decay checks)
and ``_pair`` the one binomial pairing (evaluation at any point), reduced by
``padics.reduce_absolute`` for a p each entry point checks once.  At the
integers 0, 1, 2, ... in turn a series is evaluated by walking its
difference table back up instead (``_walked``): the module table ``_WALK``
holds the walk of the last series walked from x = 0, and only ``_walked``
reads or writes it.  The indicator coefficients of a class mod p^n come from
one fold over every class, and the module table ``_COLUMNS`` keeps the fold's
columns keyed by (min(p^n, upto + 1), upto), at most ``_COLUMN_LIMIT`` = 4096
integers in all; only ``characteristic_coefficients_exact`` reads or writes
it.  Decay certificates record the bound
|a_n|_p <= p^(-s) for n >= s * p^t coming from a uniform-continuity modulus.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice

from .padics import (
    INFINITY,
    PRINTABLE_DIGITS,
    PadicNumber,
    PrecisionError,
    Record,
    is_prime,
    padic_valuation,
    reduce_absolute,
    require_primes,
)


def _window(f, upto: int) -> list:
    vals = list(f)
    if len(vals) < upto + 1:
        raise ValueError(f"window too short: need values on [0, {upto}]")
    return vals[: upto + 1]


class MahlerSeries(Record):
    """Coefficients a_0..a_L of a Mahler expansion at working precision
    p^precision; each coefficient carries the absolute precision it is known to.

    ``decay`` is an optional certificate (s, t): |a_n|_p <= p^(-sigma) for
    n >= sigma * p^t, for every sigma <= s.
    """

    __slots__ = ("p", "precision", "coeffs", "decay")
    _defaults = {"decay": None}

    def __len__(self) -> int:
        return len(self.coeffs)

    def tail_bound_exponent(self) -> int | None:
        """Largest sigma with certified tail |a_n|_p <= p^(-sigma) beyond the window."""
        if self.decay is None:
            return None
        s, t = self.decay
        return min(s, len(self.coeffs) // self.p**t)

    def serialize(self) -> str:
        """A header 'p precision length', then one line 'i valuation unit' per
        coefficient; a nonzero coefficient known mod p^A with A != precision
        adds A as a fourth field."""
        lines = [f"{self.p} {self.precision} {len(self.coeffs)}"]
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero:
                lines.append(f"{i} inf 0")
            elif c.unit == 0:
                lines.append(f"{i} {c.valuation} 0")
            elif c.abs_precision != self.precision:
                lines.append(f"{i} {c.valuation} {c.unit} {c.abs_precision}")
            else:
                lines.append(f"{i} {c.valuation} {c.unit}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "MahlerSeries":
        """Read ``serialize`` output back; anything else raises ValueError.

        No field is read into a number past what ``mahler-coeffs`` can
        print: a field of more than PRINTABLE_DIGITS digits, and a
        precision, valuation or abs precision n whose power p^|n| has more,
        is refused by ``_field``, naming its line and field, before anything
        is formed from it."""
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines or len(lines[0]) != 3:
            raise ValueError("a Mahler series starts with the line 'p precision length'")
        p, precision, length = (_field("the header", name, x)
                                for name, x in zip(("p", "precision", "length"), lines[0]))
        if not is_prime(p) or precision < 1 or len(lines) != length + 1:
            raise ValueError(f"header '{p} {precision} {length}' needs a prime, precision >= 1 "
                             f"and {length} coefficient lines after it; {len(lines) - 1} follow")
        top = _printable_exponent(p)
        _field("the header", "precision", lines[0][1], p, top)
        coeffs = []
        for i, fields in enumerate(lines[1:]):
            where = f"coefficient line {i}"
            if (len(fields) not in (3, 4) or _field(where, "index", fields[0]) != i
                    or len(fields) == 4 and fields[2] == "0"):
                raise ValueError(f"coefficient line {i} must read '{i} valuation unit [abs_precision]', "
                                 "with abs_precision only after a nonzero unit")
            v, unit = fields[1], fields[2]
            if v == "inf" and unit == "0":
                coeffs.append(PadicNumber.exact_zero(p))
            elif unit == "0":
                coeffs.append(PadicNumber.zero_mod(p, _field(where, "valuation", v, p, top)))
            else:
                v = _field(where, "valuation", v, p, top)
                known = _field(where, "abs precision", fields[3], p, top) if len(fields) == 4 else precision
                coeffs.append(PadicNumber(p, v, _field(where, "unit", unit), known - v))
        return cls(p=p, precision=precision, coeffs=coeffs)


_PRINTABLE = 10**PRINTABLE_DIGITS


def _printable_exponent(p: int) -> int:
    """The largest n with p^n of at most PRINTABLE_DIGITS digits, for p >= 2."""
    n = int(PRINTABLE_DIGITS / math.log10(p))  # off by at most one either way
    while p ** (n + 1) < _PRINTABLE:
        n += 1
    while p**n >= _PRINTABLE:
        n -= 1
    return n


def _field(where: str, name: str, text: str, p: int | None = None, top: int = 0) -> int:
    """int(text), the field name of where; ValueError naming both when text
    is not an integer, has more than PRINTABLE_DIGITS digits, or, for an
    exponent of p, when |int(text)| > top, so that p^|int(text)| would."""
    if len(text.lstrip("+-")) > PRINTABLE_DIGITS:
        raise ValueError(f"{where}: the {name} has more than {PRINTABLE_DIGITS} digits")
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"{where}: the {name} {text!r} is not an integer") from None
    if p is not None and abs(n) > top:
        raise ValueError(f"{where}: the {name} makes a power of {p} of more than {PRINTABLE_DIGITS} digits")
    return n


def _differences(values: list) -> list:
    """The leading diagonal D^n v(0), n = 0..L, of exact values v(0..L).

    The one forward-difference loop: after pass n, row[i] holds D^n v(i - n)
    for i >= n, so row[n] is finished and never touched again.
    """
    row = list(values)
    for n in range(1, len(row)):
        for i in range(len(row) - 1, n - 1, -1):
            row[i] -= row[i - 1]
    return row


def _representative(x):
    """An exact rational in the class of x: x itself when it is exact, 0 for
    either kind of PadicNumber zero."""
    if not isinstance(x, PadicNumber):
        return x
    if x.unit == 0:
        return 0
    if x.valuation >= 0:
        return x.unit * x.p**x.valuation
    return Fraction(x.unit, x.p**-x.valuation)


def mahler_coefficients(f, upto: int, p: int, precision: int) -> MahlerSeries:
    """Coefficients a_0..a_upto of f, a_n = D^n f(0).

    Each entry is an exact representative with an absolute precision: ints
    and Fractions of an exact window are exact; otherwise a PadicNumber
    carries its own and an exact entry is reduced mod p^precision first.
    a_n is reduced at the least precision of entries 0..n (at precision
    when all are exact); a difference that cancels every tracked digit is
    an inexact zero, and an exact zero entry or difference stays exact.
    """
    require_primes(p)
    vals = _window(f, upto)
    if not all(isinstance(x, (int, Fraction)) for x in vals):
        for i, x in enumerate(vals):
            if not isinstance(x, PadicNumber):
                x = Fraction(x)
                vals[i] = reduce_absolute(x, p, precision) if x else PadicNumber.exact_zero(p)
        if any(x.p != p for x in vals):
            raise ValueError(f"window entries must be {p}-adic")
    coeffs, known = [], INFINITY
    for d, x in zip(_differences([_representative(x) for x in vals]), vals):
        if isinstance(x, PadicNumber):
            known = min(known, x.abs_precision)
        if known == INFINITY:  # every entry so far is exact, and so is d
            coeffs.append(reduce_absolute(d, p, precision) if d else PadicNumber.exact_zero(p))
        else:
            coeffs.append(reduce_absolute(d, p, known))
    return MahlerSeries(p=p, precision=precision, coeffs=coeffs)


class DecayReport(Record):
    """``violation`` is None, or the first (index, sigma, actual valuation) that fails."""

    __slots__ = ("ok", "s", "t", "upto", "violation")
    _defaults = {"violation": None}


def verify_decay(f, p: int, s: int, t: int, upto: int) -> DecayReport:
    """Check |a_n(f)|_p <= p^(-sigma) for n >= sigma*p^t, for every sigma <= s.

    A violation is a legitimate return value: it signals that f does not have
    the claimed uniform-continuity modulus (s, t).  It needs s >= 1 and t >= 0.
    """
    require_primes(p)
    if s < 1 or t < 0:
        raise ValueError(f"a decay modulus needs s >= 1 and t >= 0, got s = {s}, t = {t}")
    vals = _window(f, upto)
    if not all(isinstance(x, (int, Fraction)) for x in vals):
        raise TypeError("verify_decay needs an exact-valued window")
    for n, a_n in enumerate(_differences(vals)):
        v = padic_valuation(a_n, p)
        sigma = max(1, v + 1)  # the least sigma with v < sigma; n is bound for sigma <= n // p^t
        if sigma <= min(s, n // p**t):
            return DecayReport(ok=False, s=s, t=t, upto=upto, violation=(n, sigma, int(v)))
    return DecayReport(ok=True, s=s, t=t, upto=upto)


class InsufficientTailError(PrecisionError):
    """Evaluation requested without a certificate and with a non-null tail."""


def _log_floor(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1 (0 below): the digits C(x, n) loses to x's precision.

    By Vandermonde, C(x + y, n) - C(x, n) = sum_{j >= 1} C(x, n - j) C(y, j),
    and |C(y, j)|_p <= |y / j|_p <= |y|_p p^floor(log_p n) for j <= n.
    """
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def _pair(series: MahlerSeries, r: int, top: int, digits=INFINITY):
    """sum_{n <= top} C(r, n) a_n on exact representatives, and the absolute
    precision it is known to: the one binomial pairing.

    Term n is known mod p^(abs(a_n) + v_p(C)) and, as C enters only mod
    p^precision, mod p^(precision + v(a_n)); no term is skipped, since with
    v(a_n) < 0 one with v_p(C) >= precision still counts.  When r stands for
    every x = r mod p^digits, term n >= 1 is known only mod
    p^(v(a_n) + digits - floor(log_p n)), even where C(r, n) = 0.

    C(r, n) is carried from C(r, n - 1) by C(r, n) = C(r, n - 1)(r - n + 1)/n,
    an exact division.  Each a_n is read once through its slots: an exact
    zero (valuation +inf) is skipped, abs(a_n) = v + precision, and the
    representative u p^v (a ``Fraction`` when v < 0) is added only for
    u != 0.  v_p(C) >= 0, so it is computed only for a term with abs(a_n)
    below the precision known so far: no other term can lower it.
    At an integer, ``evaluate_mahler`` reads ``_walked`` first.
    """
    p, prec = series.p, series.precision
    coeffs = series.coeffs
    total, known = 0, INFINITY
    c = 1
    for n in range(top + 1):
        if n:
            c = c * (r - n + 1) // n
        a = coeffs[n]
        v = a.valuation
        if v == INFINITY:
            continue
        if n and digits != INFINITY:
            known = min(known, v + digits - _log_floor(n, p))
        if c:
            t = prec + v
            if t < known:
                known = t
            t = v + a.precision
            if t < known:
                t += padic_valuation(c, p)
                if t < known:
                    known = t
            u = a.unit
            if u:
                total += u * p**v * c if v >= 0 else Fraction(u, p**-v) * c
    return total, known


# The walk of ``_walked`` for the last series walked from x = 0, or []:
# [p, precision, a_0..a_X as read, f(0..X), D_X..D_0, then the least
# precision + v(a_n) and the least abs(a_n) over n < x, for x = 0..X + 1].
_WALK: list = []


def _walked(series: MahlerSeries, x: int):
    """``_pair(series, x, x)``, value and type, for 0 <= x < len(series),
    from the walk of the difference table; None when the walk neither holds
    x nor reaches it next, and any such x is left to ``_pair``, since a table
    built up to a far x would cost O(x^2) adds of growing numbers.

    The walk keeps f(0..X) and D_k = D^k f(X - k), k <= X, exact sums of the
    representatives.  C(y, X + 1) = 0 for y <= X, so a_(X+1) changes no f(y)
    there, and D^k f(X + 1 - k) = D^k f(X - k) + D^(k+1) f(X - k) gives
    D'_(X+1) = a_(X+1) and D'_k = D_k + D'_(k+1): f(X + 1) = D'_0 in X + 1 adds.
    known is ``_pair``'s min over n <= x of precision + v(a_n) and
    abs(a_n) + v_p(C(x, n)), exact zeros (v = abs = +inf) aside: the prefix
    minima of the two terms without the binomial, and only when the second
    is below the first, v_p(C(x, n)) from Legendre's v_p(m!) = (m - s_p(m))/(p - 1),
    s_p the base-p digit sum: (s_p(n) + s_p(x - n) - s_p(x))/(p - 1) (Kummer).

    The walk reads only p, the precision and the slots of a_0..a_X, so it
    serves any series with the same p and precision whose coefficients 0..X
    are the ones read or equal to them slot for slot (list ==, identity
    first); otherwise it restarts at x = 0.  It holds those coefficients and
    two lists of at most len(series) exact values.  A walk starts only at a p
    that ``require_primes`` passes, so a call served from a walk held at p
    needs no check of its own.
    """
    p, prec, coeffs = series.p, series.precision, series.coeffs
    walk = _WALK
    if not (walk and walk[0] == p and walk[1] == prec and walk[2] == coeffs[: len(walk[2])]):
        if x:
            return None
        require_primes(p)
        walk[:] = p, prec, coeffs[:0], [], [], [INFINITY], [INFINITY]
    values, diagonal, least_v, least_abs = walk[3:]
    if x == len(values):
        walk[2] = coeffs[: x + 1]
        a = coeffs[x]
        diagonal[:] = accumulate(diagonal, initial=_representative(a))
        values.append(diagonal[-1])
        least_v.append(min(least_v[-1], prec + a.valuation))
        least_abs.append(min(least_abs[-1], a.valuation + a.precision))
    elif x > len(values):
        return None
    known = least_v[x + 1]
    if least_abs[x + 1] < known:
        s = _digit_sum(x, p)
        for n, a in enumerate(islice(coeffs, x + 1)):
            t = a.valuation + a.precision
            if t < known:
                t += (_digit_sum(n, p) + _digit_sum(x - n, p) - s) // (p - 1)
                if t < known:
                    known = t
    return values[x], known


def _digit_sum(n: int, p: int) -> int:
    """s_p(n), the sum of the base-p digits of n >= 0."""
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def evaluate_mahler(series: MahlerSeries, x):
    """Evaluate sum_n C(x, n) a_n.

    For an integer x >= 0 the sum is finite (binomials vanish past x) and is
    computed exactly from the stored residues, by ``_walked`` when x is at
    most one past its walk and by ``_pair`` otherwise.  For a PadicNumber x with
    v >= 0 the series is truncated where the decay certificate puts the tail
    below the working precision; without a certificate the call fails.  The
    value also claims no digit that another representative of x could change
    (see ``_log_floor``), and a value left with no digit raises PrecisionError.
    p is checked first, except at a point served from a walk held at p,
    which checked p when it began.
    """
    p, n_prec = series.p, series.precision
    if isinstance(x, int):
        walked = _walked(series, x) if 0 <= x < len(series.coeffs) else None
        if walked is None:
            require_primes(p)
            if x < 0:
                raise ValueError("integer evaluation needs x >= 0")
            if x >= len(series.coeffs):
                raise InsufficientTailError(f"window of {len(series.coeffs)} ends before x={x}")
            walked = _pair(series, x, x)
        total, known = walked
        return PadicNumber.exact_zero(p) if known == INFINITY else reduce_absolute(total, p, known)

    require_primes(p)
    if not isinstance(x, PadicNumber) or x.p != p:
        raise TypeError("x must be an int or a PadicNumber over the same prime")
    if x.valuation < 0:
        raise ValueError("evaluation needs a p-adic integer")
    sigma = series.tail_bound_exponent()
    if sigma is None:
        raise InsufficientTailError("no decay certificate bounds the tail of the series")
    digits = min(x.abs_precision, n_prec)
    total, known = _pair(series, x.residue(digits), len(series.coeffs) - 1, digits)
    known = min(known, n_prec, sigma)
    if known < 1:
        raise PrecisionError(f"no {p}-adic digit of the value is certified")
    return reduce_absolute(total, p, known)


# The columns of the indicator fold of ``characteristic_coefficients_exact``,
# keyed by (width, upto) with width = min(p^n, upto + 1): column c is the
# tuple a_0(c)..a_upto(c).  The folds held store at most _COLUMN_LIMIT
# integers in all.
_COLUMNS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
_COLUMN_LIMIT = 2**12


def characteristic_coefficients_exact(b: int, n: int, p: int, upto: int) -> list[int]:
    """Integer Mahler coefficients a_k(b), k = 0..upto, of the indicator of
    the class b mod p^n, as a new list.

    a_k(b) = sum over j <= k with j = b mod p^n of (-1)^(k-j) C(k, j).  Pascal's
    rule C(k, j) = C(k-1, j-1) + C(k-1, j), summed over a class and folded mod
    p^n, gives a_k(c) = a_(k-1)(c-1) - a_(k-1)(c) with c - 1 taken mod p^n,
    starting from a_0 = the indicator of c = 0.  Each row of all classes c is
    therefore O(p^n) exact integer operations instead of a Pascal row of
    length k.  No class c > upto holds a j <= upto, so when p^n > upto + 1 a
    row stops after c = upto (the entries past it are all zero) and the fold
    reads a zero.  A class needs n >= 0.

    The fold is the same for every class and depends on p^n only through
    width = min(p^n, upto + 1), so the module table ``_COLUMNS`` keeps its
    columns per (width, upto), and a call at a key already folded reads its
    column.  A fold stores width (upto + 1) integers, and the table holds at
    most ``_COLUMN_LIMIT`` = 4096 in all: a fold that would take it past the
    limit clears it first, and a fold larger than the limit stores nothing
    and keeps one row at a time.  The limit bounds the memory too, since
    |a_k(c)| <= sum_j C(k, j) = 2^k: entry k has at most k bits, and
    width >= 2 (width 1 holds only 1 and 0s) gives upto <= 2047, so the
    entries hold at most 4096 * 2047 / 2 bits, 0.5 MB, and the table stays
    under 1 MB.  An ``open-set`` round needs (5, 35) and (7, 49), 530
    integers; the ``mahler-coeffs --char`` cap, (2121, 2120), would need 4.5
    million.
    """
    if n < 0:
        raise ValueError(f"need a class exponent n >= 0, got n = {n}")
    if not 0 <= b < p**n:
        raise ValueError("need 0 <= b < p^n")
    if b > upto:
        return [0] * (upto + 1)
    width = min(p**n, upto + 1)
    key = width, upto
    columns = _COLUMNS.get(key)
    if columns is None:
        size = width * (upto + 1)
        store = size <= _COLUMN_LIMIT
        row = [1] + [0] * (width - 1)
        kept = [row if store else row[b]]
        for _ in range(upto):
            row = [row[c - 1] - row[c] for c in range(width)]
            kept.append(row if store else row[b])
        if not store:
            return kept
        if size + sum([w * (u + 1) for w, u in _COLUMNS]) > _COLUMN_LIMIT:
            _COLUMNS.clear()
        columns = _COLUMNS[key] = tuple(zip(*kept))
    return list(columns[b])


def characteristic_mahler(b: int, n: int, p: int, upto: int) -> MahlerSeries:
    """Mahler coefficients of the indicator of the class b mod p^n.

    The exact coefficients of ``characteristic_coefficients_exact``, reduced.
    The indicator is locally constant of modulus p^n, so the decay certificate
    (upto // p^n, n) holds for every sigma up to the window's reach.
    """
    require_primes(p)
    pn = p**n
    coeffs = characteristic_coefficients_exact(b, n, p, upto)
    # reduce at a precision wide enough to keep every certified digit exact
    precision = max(1, upto // pn + 2)
    reduced = [reduce_absolute(c, p, precision) if c else PadicNumber.exact_zero(p) for c in coeffs]
    return MahlerSeries(p=p, precision=precision, coeffs=reduced, decay=(upto // pn, n))
