"""Truncated p-adic arithmetic.

A ``PadicNumber`` is the finite-precision surrogate of a p-adic value: it
carries a prime ``p``, a valuation ``v``, a unit residue ``unit`` coprime to
``p``, and a relative precision ``precision`` (the value is known modulo
p^(v + precision) up to the stated unit).  Exact zero has infinite valuation.
A fully cancelled sum is representable as an *inexact zero*: ``unit == 0``
with finite ``valuation`` M, meaning only "congruent to 0 mod p^M" is known.

Subtraction of nearly equal values loses relative precision; every operation
propagates the minimum guaranteed absolute precision of its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITY = math.inf


class PrecisionError(ArithmeticError):
    """Raised when an operation needs digits that are not tracked."""


def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """v_p(x) for a rational x, an int or a ``Fraction``; +inf for x = 0.

    Reads ``numerator`` and ``denominator``, which ints have too, so an int
    is never converted.  Only p >= 2 is checked: that p is a prime is left
    to the public entry points, which call ``require_primes``.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    num = x.numerator
    if num == 0:
        return INFINITY
    return _split(num, x.denominator, p)[0]


def _split(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(v, a, b) with num/den = p^v a/b and p dividing neither a nor b, for
    num != 0 and p >= 2."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime (only an int can be): trial division below 10^5, then the
    strong probable-prime test to the 13 prime bases 2..41, which no composite below
    PSI_13 passes (Sorenson and Webster, Math. Comp. 86, 2017); from PSI_13 up, ValueError."""
    if not isinstance(n, int) or n < 2:
        return False
    if n < 10**5:
        if n % 2 == 0:
            return n == 2
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    if n >= PSI_13:
        raise ValueError(f"cannot decide whether {n} is a prime: the primality test is "
                         f"proven only below {PSI_13}")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """With n - 1 = 2^s d, d odd: for each base b in 2..41, b^d = 1 or
    b^(2^r d) = -1 mod n for some r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))


def require_primes(*primes: int) -> None:
    """The one prime check of every entry point: ValueError unless each
    argument is an int prime and no prime repeats."""
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
    if len(primes) > 1 and len(set(primes)) < len(primes):
        raise ValueError("the primes must be distinct, got " + ", ".join(map(str, primes)))


def require_tolerance(tol: float) -> None:
    """The one tolerance check: ValueError unless tol is a finite number >= 0,
    so that a nan or negative tolerance is a usage error, not a failed check."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"a tolerance must be a finite number >= 0, got {tol}")


class Record:
    """Base of the library's plain records: field-wise ``==`` and a
    ``Name(field=value, ...)`` repr, both over the subclass's ``__slots__``.

    A record equals only an instance of its own class, and is unhashable.
    """

    __slots__ = ()

    def _fields(self) -> list:
        # a list, not tuple(generator): the tuple would be resized, and the
        # resized tuples pile up in the interpreter's tuple free list
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class PadicNumber:
    """p^valuation * unit, the unit known mod p^precision.

    Only p >= 2 is checked: that p is a prime is left to the public entry
    points, which call ``require_primes``, since a check per construction
    would be paid on every arithmetic result.
    """

    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p: int, valuation, unit: int, precision) -> None:
        if p < 2:
            raise ValueError("p must be >= 2")
        self.p = p
        if valuation is INFINITY or valuation == INFINITY:
            # exact zero
            self.valuation = INFINITY
            self.unit = 0
            self.precision = INFINITY
            return
        valuation = int(valuation)
        if unit == 0:
            # inexact zero: only "v >= valuation" is known
            self.valuation = valuation
            self.unit = 0
            self.precision = 0
            return
        if precision is INFINITY or precision < 1:
            raise ValueError("nonzero values need relative precision >= 1")
        precision = int(precision)
        unit %= p**precision
        if unit % p == 0:
            raise ValueError("unit must be coprime to p")
        self.valuation = valuation
        self.unit = unit
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        return cls(p, INFINITY, 0, INFINITY)

    @classmethod
    def zero_mod(cls, p: int, abs_precision: int) -> "PadicNumber":
        """The class of values congruent to 0 mod p^abs_precision."""
        return cls(p, abs_precision, 0, 0)

    # -- inspection --------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.valuation is INFINITY or self.valuation == INFINITY

    @property
    def abs_precision(self):
        """Exponent A such that the value is known modulo p^A."""
        if self.is_exact_zero:
            return INFINITY
        return self.valuation + self.precision

    def residue(self, abs_prec: int) -> int:
        """The integer representative of the value mod p^abs_prec (needs v >= 0)."""
        if self.is_exact_zero:
            return 0
        if abs_prec > self.abs_precision:
            raise PrecisionError(
                f"residue mod {self.p}^{abs_prec} exceeds tracked precision "
                f"{self.p}^{self.abs_precision}"
            )
        if self.valuation < 0:
            raise PrecisionError("residue undefined for negative valuation")
        if self.unit == 0:
            return 0
        return self.unit * self.p**self.valuation % self.p**abs_prec

    def congruent_mod(self, other: "PadicNumber", abs_prec: int) -> bool:
        """True when (self - other) has valuation >= abs_prec."""
        diff = self - other
        if diff.is_exact_zero:
            return True
        if diff.unit == 0:
            if diff.valuation < abs_prec:
                raise PrecisionError("congruence undecidable at this precision")
            return True
        return diff.valuation >= abs_prec

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber):
            raise TypeError("expected PadicNumber")
        if other.p != self.p:
            raise ValueError("mixed primes")

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
        return PadicNumber(self.p, self.valuation, -self.unit, self.precision)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        p = self.p
        abs_prec = min(self.abs_precision, other.abs_precision)
        vmin = min(self.valuation, other.valuation)
        digits = abs_prec - vmin
        if digits <= 0:
            # both terms are 0 mod p^abs_prec and nothing finer is known
            return PadicNumber.zero_mod(p, abs_prec)
        mod = p**digits
        a = self.unit * p ** (self.valuation - vmin) % mod
        b = other.unit * p ** (other.valuation - vmin) % mod
        r = (a + b) % mod
        if r == 0:
            return PadicNumber.zero_mod(p, abs_prec)
        shift = 0
        while r % p == 0:
            r //= p
            shift += 1
        return PadicNumber(p, vmin + shift, r, digits - shift)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.exact_zero(self.p)
        if self.unit == 0 or other.unit == 0:
            # product of "0 mod p^M" with anything of valuation v: 0 mod p^(M+v)
            return PadicNumber.zero_mod(self.p, self.valuation + other.valuation)
        prec = min(self.precision, other.precision)
        return PadicNumber(
            self.p, self.valuation + other.valuation, self.unit * other.unit, prec
        )

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if other.is_exact_zero or other.unit == 0:
            raise ZeroDivisionError("division by (approximate) zero")
        if other.valuation != 0:
            raise PrecisionError(
                "division by a non-unit; rescale through the rational constructor"
            )
        if self.is_exact_zero:
            return self
        prec = min(self.precision, other.precision) if self.unit else other.precision
        if self.unit == 0:
            return PadicNumber.zero_mod(self.p, self.valuation)
        inv = pow(other.unit, -1, self.p**prec)
        return PadicNumber(self.p, self.valuation, self.unit * inv, prec)

    def __pow__(self, e: int) -> "PadicNumber":
        if not isinstance(e, int):
            raise TypeError("integer exponents only")
        if e < 0:
            if self.valuation != 0 or self.unit == 0:
                raise PrecisionError("negative power of a non-unit")
            inv = pow(self.unit, -1, self.p**self.precision)
            return PadicNumber(self.p, 0, inv, self.precision) ** (-e)
        if self.is_exact_zero:
            return self if e else PadicNumber(self.p, 0, 1, 1)
        if self.unit == 0:
            if e == 0:
                raise PrecisionError("0^0 undetermined for approximate zero")
            return PadicNumber.zero_mod(self.p, self.valuation * e)
        if e == 0:
            return PadicNumber(self.p, 0, 1, self.precision)
        u = pow(self.unit, e, self.p**self.precision)
        return PadicNumber(self.p, self.valuation * e, u, self.precision)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicNumber)
            and self.p == other.p
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.p, self.valuation, self.unit, self.precision))

    # -- p-adic structure --------------------------------------------------

    def norm(self) -> Fraction:
        """|x|_p = p^(-v); 0 for exact zero."""
        if self.is_exact_zero:
            return Fraction(0)
        if self.unit == 0:
            raise PrecisionError("norm undetermined: value only known to be small")
        return Fraction(1, self.p) ** self.valuation

    def digits(self, count: int) -> list[int]:
        """Digits a_0..a_{count-1} of the expansion sum a_i p^i (needs v >= 0)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if self.is_exact_zero:
            return [0] * count
        if self.valuation < 0:
            raise ValueError("digit expansion needs valuation >= 0")
        if count > self.abs_precision:
            raise PrecisionError(
                f"requested {count} digits but only {self.abs_precision} tracked"
            )
        r = self.residue(count)
        out = []
        for _ in range(count):
            r, d = divmod(r, self.p)
            out.append(d)
        return out

    # -- text forms ----------------------------------------------------------

    def to_triple_string(self) -> str:
        if self.is_exact_zero:
            return "(inf, 0, inf)"
        return f"({self.valuation}, {self.unit}, {self.precision})"

    def to_digit_string(self) -> str:
        """Render as "a0 + a1*p + a2*p^2 + ... + O(p^A)"."""
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return f"O({self.p}^{self.valuation})"
        terms = []
        u = self.unit
        for i in range(self.precision):
            u, d = divmod(u, self.p)
            if d:
                e = self.valuation + i
                if e == 0:
                    terms.append(f"{d}")
                elif e == 1:
                    terms.append(f"{d}*{self.p}")
                else:
                    terms.append(f"{d}*{self.p}^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({self.p}^{self.abs_precision})"

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return f"PadicNumber(p={self.p}, 0)"
        return f"PadicNumber(p={self.p}, v={self.valuation}, unit={self.unit}, N={self.precision})"


# -- module-level operations -------------------------------------------------


def _padic_unit(p: int, v: int, num: int, den: int, precision: int) -> PadicNumber:
    """p^v num/den, num and den prime to p, truncated to relative precision."""
    mod = p**precision
    unit = num % mod if den == 1 else num * pow(den, -1, mod) % mod
    return PadicNumber(p, v, unit, precision)


def factored_numerator(num: int, m: int, primes: tuple[int, ...], mod: int) -> int:
    """The numerator of a factored pair (num, den, m, primes) modulo mod = p^K:
    num prod_{l in primes} (1 - l^m) mod p^K, each factor read through
    pow(l, m, p^K), so neither l^m nor the product is ever formed.  At m = 0
    a factor, and so the result, is 0."""
    r = num % mod
    for ell in primes:
        r = r * (1 - pow(ell, m, mod)) % mod
    return r


def reduce_relative(x, p: int, precision: int) -> PadicNumber:
    """The unchecked core of ``padic_of_rational``, for a p passed through
    ``require_primes``: x = p^v u with u mod p^precision, and exact_zero for
    x = 0.  x is an int, a ``Fraction``, an unreduced int pair (num, den)
    with den != 0, taken with no gcd, or such a pair with its Euler factors,
    (num, den, m, primes) for num/den prod_{l in primes} (1 - l^m), m >= 0.

    No Euler factor is multiplied out: 1 - l^m is 0 at m = 0, and otherwise
    ``factored_numerator`` reads the unit of num/den times the factors mod
    p^K, K doubling from N + 1 until the product holds its valuation w and
    N more digits (it is not 0, so K stops)."""
    if isinstance(x, tuple) and len(x) == 4:
        num, den, m, primes = x
        if m == 0 and primes:
            num = 0
    else:
        num, den = x if isinstance(x, tuple) else (x.numerator, x.denominator)
        primes = ()
    if num == 0:
        return PadicNumber.exact_zero(p)
    if not isinstance(precision, int) or precision < 0:
        raise ValueError(f"precision must be an int >= 0, got {precision}")
    v, num, den = _split(num, den, p)
    K = precision + 1
    while primes:  # left by the break once p^K holds the product's valuation and N digits
        r = factored_numerator(num, m, primes, p**K)
        if r:
            w, r, _ = _split(r, 1, p)
            if w + precision <= K:
                v, num = v + w, r
                break
        K *= 2
    return _padic_unit(p, v, num, den, precision)


def reduce_absolute(x, p: int, abs_precision: int) -> PadicNumber:
    """The unchecked core of ``padic_reduce_abs``: x, an int, a ``Fraction``
    or an unreduced pair as for ``reduce_relative``, mod p^abs_precision.
    The one zero rule: v_p(x) >= abs_precision gives ``zero_mod(p,
    abs_precision)``, and 0 counts, since v_p(0) = +inf; only an exact 0
    passed to the public ``padic_reduce_abs`` stays exact_zero."""
    num, den = x if isinstance(x, tuple) else (x.numerator, x.denominator)
    if num:
        v, num, den = _split(num, den, p)
        if v < abs_precision:
            return _padic_unit(p, v, num, den, int(abs_precision - v))
    return PadicNumber.zero_mod(p, abs_precision)


def padic_of_rational(x: Fraction | int, p: int, precision: int) -> PadicNumber:
    """Truncate a rational to valuation + unit mod p^precision (relative
    precision); x is an int, a ``Fraction`` or else read by ``Fraction``,
    which takes no unreduced pair."""
    require_primes(p)
    return reduce_relative(x if isinstance(x, (int, Fraction)) else Fraction(x), p, precision)


def padic_reduce_abs(x: Fraction | int, p: int, abs_precision: int) -> PadicNumber:
    """Reduce an exact rational, x as for ``padic_of_rational``, modulo
    p^abs_precision (absolute precision), which is an int and may be negative."""
    require_primes(p)
    if not isinstance(abs_precision, int):
        raise ValueError(f"abs_precision must be an int, got {abs_precision!r}")
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return reduce_absolute(x, p, abs_precision) if x else PadicNumber.exact_zero(p)


def teichmuller(n: int, p: int, precision: int) -> PadicNumber:
    """The (p-1)-st root of unity congruent to n mod p, mod p^N.

    It is the root of x^(p-1) = 1 that Hensel's lemma lifts from n mod p;
    ``_teichmuller_unit`` finds it by Newton's method, and the fixed point
    of x -> x^p is asserted.
    """
    require_primes(p)
    if n % p == 0:
        raise ValueError("teichmuller needs gcd(n, p) = 1")
    return PadicNumber(p, 0, _teichmuller_unit(n, p, precision), precision)


# (p, n mod p) -> (k, the Teichmuller root mod p^k): at most p - 1 roots per prime
_ROOTS: dict[tuple[int, int], tuple[int, int]] = {}


def _teichmuller_unit(n: int, p: int, precision: int) -> int:
    """The lift of ``teichmuller`` as an int, for a prime p checked by the caller.

    The root of each class lives in the module table ``_ROOTS``, which only
    grows and holds no lock (the package starts no threads).  It keeps the
    root mod p^k at the largest k asked for: a request for N <= k is the
    residue mod p^N, and one for N > k goes on from it to N by Newton's method.

    Newton's method on f(x) = x^(p-1) - 1, from x = n mod p or from the
    stored root mod p^k.  The step
    x - f/f' is x - (x^p - x)/((p-1) x^(p-1)).  At a root mod p^k both
    x^p - x = 0 and x^(p-1) = 1 hold mod p^k, so dropping x^(p-1) moves
    the step only mod p^2k: x + (x - x^p)/(p - 1) is a root mod p^2k.  The
    precision doubles per step.  No inverse is taken: (p - 1) times
    (p^k - 1)/(p - 1) = 1 + p + ... + p^(k-1) is p^k - 1 = -1 mod p^k, so
    1/(p - 1) = -(p^k - 1)/(p - 1) mod p^k.  The result is n^(p^(N-1))
    mod p^N, the one root in the class of n.
    """
    if precision < 1:
        raise ValueError("teichmuller needs precision >= 1")
    if not isinstance(n, int) or not isinstance(precision, int):
        # pow(x, p, m) refuses them too, but a table residue would not
        raise TypeError("teichmuller needs an int n and precision")
    key = (p, n % p)
    k, x = _ROOTS.get(key, (1, key[1]))
    if k >= precision:
        return x % p**precision
    while k < precision:
        k = min(2 * k, precision)
        m = p**k
        x = (x - (x - pow(x, p, m)) * ((m - 1) // (p - 1))) % m
    mod = p**precision
    if pow(x, p, mod) != x:
        raise ArithmeticError("teichmuller lift is not a fixed point of x -> x^p")
    _ROOTS[key] = (precision, x)
    return x


def crt_pair(a: int, modulus_a: int, b: int, modulus_b: int) -> int:
    """The unique x mod (modulus_a * modulus_b) with x = a, b in the two moduli."""
    if math.gcd(modulus_a, modulus_b) != 1:
        raise ValueError("moduli must be coprime")
    inv = pow(modulus_a, -1, modulus_b)
    x = a + modulus_a * ((b - a) * inv % modulus_b)
    return x % (modulus_a * modulus_b)


def double_teichmuller(n: int, p: int, q: int, prec_p: int, prec_q: int) -> int:
    """CRT lift of the two Teichmuller representatives, mod p^prec_p * q^prec_q.

    Satisfies x = n mod p and mod q, x^(p-1) = 1 mod p^prec_p and
    x^(q-1) = 1 mod q^prec_q.  Any other lift is congruent at this precision.
    """
    require_primes(p, q)
    if n % p == 0 or n % q == 0:
        raise ValueError("double_teichmuller needs gcd(n, pq) = 1")
    wp = _teichmuller_unit(n, p, prec_p)
    wq = _teichmuller_unit(n, q, prec_q)
    return crt_pair(wp, p**prec_p, wq, q**prec_q)


def angle_bracket(
    b: int, p: int, q: int, prec_p: int, prec_q: int
) -> tuple[PadicNumber, PadicNumber]:
    """<b> = b / omega_{p,q}(b), reduced mod p^prec_p and mod q^prec_q.

    Each prime on its own, with no CRT: omega_p(b)^(-1) is the root of unity
    in the class of b^(-1) mod p, so mod p^prec_p
    <b> = b omega_p(b^(-1) mod p), one lift and an inverse mod p only
    (likewise at q).  Each component lies in 1 + pZ_p resp. 1 + qZ_q.
    """
    require_primes(p, q)
    if b % p == 0 or b % q == 0:
        raise ValueError("angle_bracket needs gcd(b, pq) = 1")
    out = []
    for prime, prec in ((p, prec_p), (q, prec_q)):
        w = _teichmuller_unit(pow(b, -1, prime), prime, prec)
        mod = prime**prec
        out.append(PadicNumber(prime, 0, b * w % mod, prec))
    return out[0], out[1]


def ideal_shadow(m: int, p: int) -> int:
    """Exponent r with the reduction of the ideal mZ landing on p^r Z_p."""
    require_primes(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    return padic_valuation(m, p)
