"""Exact arithmetic: rationals, quadratic fields, prime ideals, valuations.

Everything in this module is exact.  Elements of a quadratic field Q(sqrt(d0))
are stored as a + b*sqrt(d0) with rational a, b; the rational field itself is
the degenerate case d0 = 1.  Prime ideals come with enough data to compute
valuations, and so congruences mod the ideal, without ever building a p-adic
completion.

The arbitrary-precision numeric carrier (BigReal / BigComplex) is mpmath at a
per-call working precision; `workdps` adds the guard digits used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

#: Guard digits added on top of every requested decimal precision P.
GUARD_DIGITS = 15


class ExactError(ValueError):
    """Base class for errors raised by the exact-arithmetic layer."""


class FieldMismatch(ExactError):
    """Two elements live in quadratic fields with no common quadratic home."""


class NotIntegral(ExactError):
    """Reduction mod a prime ideal was asked for a non-integral element."""

    def __init__(self, valuation: int):
        self.valuation = valuation
        super().__init__(f"element has valuation {valuation} < 0 at the ideal")


def workdps(P: int) -> "mpmath.ctx_base.StandardBaseContext":
    """Context manager setting mpmath to P decimal digits plus guard digits."""
    return mpmath.workdps(P + GUARD_DIGITS)


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def _factor_trial(n: int) -> dict[int, int]:
    """Factor |n| by trial division.  Intended for the small integers that
    appear as levels, discriminants and radicands."""
    assert n != 0
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def quad_normalize(d: int) -> tuple[int, int]:
    """Write d = d0 * f^2 with d0 squarefree, so Q(sqrt(d)) = Q(sqrt(d0))."""
    if d == 0:
        raise ExactError("radicand must be nonzero")
    sign = -1 if d < 0 else 1
    d0, f = 1, 1
    for p, e in _factor_trial(d).items():
        f *= p ** (e // 2)
        if e % 2:
            d0 *= p
    return sign * d0, f


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    acc = 1
    if n < 0:
        n = -n
        if a < 0:
            acc = -acc
    # peel off factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and (a % 8) in (3, 5):
            acc = -acc
    # now n is odd and positive: Jacobi symbol
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                acc = -acc
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            acc = -acc
        a %= n
    return acc if n == 1 else 0


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational; +inf for 0."""
    if p < 2:
        raise ExactError(f"valuation at p = {p}: p must be at least 2")
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# quadratic fields and their elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(d0)) for squarefree d0; d0 = 1 is the rational field itself."""

    d0: int

    def __post_init__(self):
        if self.d0 != 1:
            s, f = quad_normalize(self.d0)
            if f != 1 or s != self.d0:
                raise ExactError(f"{self.d0} is not squarefree")

    @property
    def is_rational(self) -> bool:
        return self.d0 == 1

    @property
    def disc(self) -> int:
        if self.is_rational:
            return 1
        return self.d0 if self.d0 % 4 == 1 else 4 * self.d0

    def __repr__(self):
        return "Q" if self.is_rational else f"Q(sqrt({self.d0}))"


RATIONAL = QuadField(1)


def compositum(F: QuadField, G: QuadField) -> QuadField:
    """Smallest common quadratic field, or raise if it would have degree > 2."""
    if F == G or G.is_rational:
        return F
    if F.is_rational:
        return G
    raise FieldMismatch(f"no quadratic compositum of {F} and {G}")


@dataclass(frozen=True)
class AlgNum:
    """a + b*sqrt(d0) with rational a, b, in the field `field`."""

    field: QuadField
    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.field.is_rational and self.b != 0:
            raise ExactError("rational field has no sqrt part")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def rational(x: Fraction | int) -> "AlgNum":
        return AlgNum(RATIONAL, Fraction(x))

    def promote(self, F: QuadField) -> "AlgNum":
        """View this element inside the (larger or equal) field F."""
        if self.field == F:
            return self
        if self.field.is_rational:
            return AlgNum(F, self.a)
        raise FieldMismatch(f"cannot promote {self.field} element into {F}")

    # -- arithmetic --------------------------------------------------------
    def _pair(self, other) -> tuple["AlgNum", "AlgNum"]:
        if isinstance(other, (int, Fraction)):
            other = AlgNum.rational(other)
        if not isinstance(other, AlgNum):
            return NotImplemented, NotImplemented
        F = compositum(self.field, other.field)
        return self.promote(F), other.promote(F)

    def __add__(self, other):
        x, y = self._pair(other)
        if x is NotImplemented:
            return NotImplemented
        return AlgNum(x.field, x.a + y.a, x.b + y.b)

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, -self.a, -self.b)

    def __sub__(self, other):
        x, y = self._pair(other)
        if x is NotImplemented:
            return NotImplemented
        return x + (-y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        x, y = self._pair(other)
        if x is NotImplemented:
            return NotImplemented
        d0 = x.field.d0
        if x.field.is_rational:
            return AlgNum(x.field, x.a * y.a)
        return AlgNum(x.field, x.a * y.a + d0 * x.b * y.b, x.a * y.b + x.b * y.a)

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        c = self.conj()
        return AlgNum(self.field, c.a / n, c.b / n)

    def __truediv__(self, other):
        x, y = self._pair(other)
        if x is NotImplemented:
            return NotImplemented
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, AlgNum):
            try:
                x, y = self._pair(other)
            except FieldMismatch:
                return False
            return x.a == y.a and x.b == y.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b if self.b else 0))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- field-theoretic maps ----------------------------------------------
    def conj(self) -> "AlgNum":
        return AlgNum(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.d0 * self.b * self.b

    def embed(self, P: int = 30) -> mpmath.mpc:
        """Complex embedding sending sqrt(d0) to the principal square root."""
        with workdps(P):
            val = mpmath.mpc(mpmath.mpf(self.a.numerator) / self.a.denominator)
            if not self.b:
                return val
            root = mpmath.sqrt(mpmath.mpf(self.field.d0))
            return val + root * mpmath.mpf(self.b.numerator) / self.b.denominator

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.field.d0}))"


# ---------------------------------------------------------------------------
# prime ideals
# ---------------------------------------------------------------------------

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of O_E above the rational prime l, with reduction data.

    For a split prime, `root` is a residue r with r^2 = d0 (mod l) selecting
    which of the two primes this is; sqrt(d0) reduces to r.
    """

    field: QuadField
    l: int
    kind: str
    generator2: AlgNum
    residue_degree: int
    root: int = 0

    def __repr__(self):
        if self.field.is_rational:
            return f"({self.l})"
        return f"({self.l}, {self.generator2})[{self.kind}]"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return _factor_trial(n) == {n: 1}


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a mod p (p odd prime, a a QR). Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _hensel_sqrt(d0: int, p: int, prec: int) -> int:
    """Lift a root of x^2 = d0 to mod p^prec (p odd, d0 a unit square mod p;
    for p = 2 requires d0 = 1 mod 8)."""
    if p == 2:
        r = 1  # any odd square is 1 mod 8; lift mod 2^k
        mod = 8
        while mod < 2 ** prec:
            mod *= 2
            if (r * r - d0) % mod:
                r += mod // 4
        return r % 2 ** prec
    r = _sqrt_mod_p(d0, p)
    mod = p
    while mod < p ** prec:
        mod *= p
        # Newton step: r <- r - (r^2 - d0) / (2r)
        r = (r - (r * r - d0) * pow(2 * r, -1, mod)) % mod
    return r % p ** prec


def factor_rational_prime(l: int, F: QuadField) -> list[PrimeIdeal]:
    """Primes of O_F above l, classified by the Kronecker symbol (disc|l)."""
    if not is_prime(l):
        raise ExactError(f"{l} is not prime")
    if F.is_rational:
        return [PrimeIdeal(F, l, SPLIT, AlgNum.rational(l), 1)]
    sym = kronecker(F.disc, l)
    if sym == 1:
        r = _hensel_sqrt(F.d0, l, 1) % l
        ideals = []
        for root in (r, (l - r) % l):
            gen2 = AlgNum(F, Fraction(-root), Fraction(1))  # sqrt(d0) - root
            ideals.append(PrimeIdeal(F, l, SPLIT, gen2, 1, root))
        return ideals
    if sym == -1:
        return [PrimeIdeal(F, l, INERT, AlgNum.rational(l).promote(F), 2)]
    # ramified
    if l == 2 and F.d0 % 2 == 1:  # d0 = 3 mod 4
        gen2 = AlgNum(F, Fraction(1), Fraction(1))
    else:
        gen2 = AlgNum(F, Fraction(0), Fraction(1))
    return [PrimeIdeal(F, l, RAMIFIED, gen2, 1)]


def valuation(x: AlgNum | Fraction | int, P: PrimeIdeal) -> int | float:
    """Valuation at P, normalized so a uniformizer has valuation 1.

    Rational x at a ramified P therefore has v_P(x) = 2 * v_l(x).
    Returns +inf for x = 0.
    """
    if isinstance(x, (int, Fraction)):
        x = AlgNum.rational(x)
    x = x.promote(P.field)
    if not x:
        return math.inf
    l = P.l
    if P.field.is_rational:
        return vp(x.a, l)
    if P.kind == INERT:
        v2 = vp(x.norm(), l)
        assert v2 % 2 == 0
        return v2 // 2
    if P.kind == RAMIFIED:
        # v_P(x) = v_l(norm x) since norm multiplies the two equal valuations
        # and v_P = 2 v_l on Q.
        return vp(x.norm(), l)
    # split: valuation of a + b*root in Z_l, capped by v_l(norm)
    cap = int(vp(x.norm(), l))
    r = _hensel_sqrt(P.field.d0, l, cap + 2)
    if P.root != r % l:
        r = l ** (cap + 2) - r
    y = x.a + x.b * r
    v = vp(y, l)
    return min(v, cap)  # beyond the cap the lift precision is exhausted
