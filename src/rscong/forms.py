"""Dirichlet characters, newform q-expansion data, built-in generators.

`NewformData` keeps a(n) = (x_n + y_n sqrt(d0)) / D as integer coordinates
and one denominator, as `rankin.RankinSeries` keeps b_n, so rational and
quadratic eigenforms share one code path downstream; `from_values` is the one
conversion from exact values.  Every Eisenstein-type expansion (E_k(chi) with
its exact constant term, the level-1 E_{k-12} below, the fixture generator's
weight-1 and weight-3 series) is one integer divisor sum, `divisor_sum`.
Every product of integer q-series (here and in the fixture generator) is
`series_mul`, two packed half-size multiplies at 2^b and -2^b (KS2), whose
slots hold the factors and the caller's bound on the kept product
coefficients (by default the worst case).
The one-dimensional level-1 cuspform family Delta * E_{k-12} has integer
coefficients, the coordinates with D = 1: Delta = q * (eta^3)^8 squares
Jacobi's series for eta^3 three times, and each other member is one product
Delta * E_{k-12}.  Each is a normalized eigenform, so Deligne's bound
|a(n)| <= d(n) n^((k-1)/2) <= 2 n^(k/2) sizes the slot of that product and
of the last squaring, which gives Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import (AlgNum, ExactError, QuadField, RATIONAL, compositum,
                       kronecker, quad_normalize, workdps)

import mpmath


# ---------------------------------------------------------------------------
# integer q-series helpers (index = exponent of q)
# ---------------------------------------------------------------------------

def series_mul(f, g, n_max: int, bound: int | None = None) -> list[int]:
    """The coefficients c_0 .. c_n_max of the product of two integer
    q-series, by KS2 (D. Harvey, J. Symbolic Comput. 44, 2009): with
    F(q) = E(q^2) + q O(q^2), F(+-2^b) = E(2^2b) +- 2^b O(2^2b), and of
    H+- = F(+-2^b) G(+-2^b), (H+ + H-) / 2 holds the even-index product
    coefficients at 2^(2bj) and (H+ - H-) / 2^(b+1) the odd-index ones: two
    multiplies of half the size of one Kronecker product, about 0.67 of its
    cost under CPython's Karatsuba.  f * f squares both, faster still.

    E, O and both halves go through slots of an even w bytes, b = 4w: each
    coefficient is stored as c + h, h = 2^(8w - 1), so a series packs and
    unpacks through one `from_bytes`/`to_bytes`, and the packed offsets
    sum_j h 2^(8wj) are taken off as one integer.  A value fits when
    bits(|c|) < 8w, so w is the least even number of bytes above
    bits(max(max|f|, max|g|, bound)): every factor coefficient and, for
    `bound` >= |c_n| for every n <= n_max, every kept coefficient.  The
    slots above q^n_max need not fit: they add a multiple of 2^(8wk) to a
    half of k kept slots, which the mask drops.  Without a bound it is the
    worst case, min(len f, len g) max|f| max|g|, as a coefficient is a sum
    of at most that many products."""
    m = n_max + 1
    square = f is g
    f, g = f[:m], g[:m]
    if not f or not g:
        return [0] * m
    mf, mg = max(map(abs, f)), max(map(abs, g))
    if bound is None:
        bound = min(len(f), len(g)) * mf * mg
    w = 2 * (max(mf, mg, bound).bit_length() // 16 + 1)
    b, h = 4 * w, 1 << (8 * w - 1)

    def offset(n: int) -> int:  # sum_{j<n} h 2^(8wj)
        return int.from_bytes(h.to_bytes(w, "little") * n, "little")

    def pack(cs) -> int:  # sum_j c_j 2^(8wj)
        slots = b"".join((c + h).to_bytes(w, "little") for c in cs)
        return int.from_bytes(slots, "little") - offset(len(cs))

    def unpack(x: int, n: int) -> list[int]:  # c_0 .. c_{n-1} of x = sum_j c_j 2^(8wj)
        raw = ((x + offset(n)) & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
        return [int.from_bytes(raw[w * j:w * (j + 1)], "little") - h for j in range(n)]

    def at(cs) -> tuple[int, int]:  # F(2^b), F(-2^b)
        e, o = pack(cs[0::2]), pack(cs[1::2]) << b
        return e + o, e - o

    fp, fm = at(f)
    gp, gm = (fp, fm) if square else at(g)
    hp, hm = fp * gp, fm * gm
    out = [0] * m
    out[0::2] = unpack((hp + hm) >> 1, (m + 1) // 2)
    out[1::2] = unpack((hp - hm) >> (b + 1), m // 2)
    return out


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, fl in enumerate(sieve) if fl]


# ---------------------------------------------------------------------------
# Bernoulli numbers, generalized Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum C(n,k) B_k x^(n-k)."""
    return sum(math.comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# Dirichlet characters (stored by full value table; moduli here are tiny)
# ---------------------------------------------------------------------------

EVEN, ODD = "even", "odd"


@dataclass(frozen=True)
class DirichletChar:
    modulus: int
    values: tuple  # values[r] for r in range(modulus), AlgNum; 0 off units

    def __post_init__(self):
        if len(self.values) != max(self.modulus, 1):
            raise ExactError(f"a character mod {self.modulus} needs {max(self.modulus, 1)} "
                             f"values, got {len(self.values)}")

    def __call__(self, n: int) -> AlgNum:
        if self.modulus == 1:
            return AlgNum.rational(1)
        return self.values[n % self.modulus]

    @property
    def parity(self) -> str:
        return EVEN if self(-1) == 1 else ODD

    @property
    def field(self) -> QuadField:
        F = RATIONAL
        for v in self.values:
            if isinstance(v, AlgNum):
                F = compositum(F, v.field)
        return F

    def times(self, other: "DirichletChar", modulus: int) -> "DirichletChar":
        """Product character viewed at the given modulus (lcm of the two)."""
        if modulus % self.modulus or modulus % other.modulus:
            raise ExactError(f"character moduli {self.modulus} and {other.modulus} "
                             f"must both divide {modulus}")
        vals = []
        for r in range(max(modulus, 1)):
            if modulus > 1 and math.gcd(r, modulus) != 1:
                vals.append(AlgNum.rational(0))
            else:
                vals.append(self(r) * other(r))
        return DirichletChar(modulus, tuple(vals))


def trivial_char(modulus: int = 1) -> DirichletChar:
    vals = tuple(
        AlgNum.rational(1 if (modulus == 1 or math.gcd(r, modulus) == 1) else 0)
        for r in range(max(modulus, 1))
    )
    return DirichletChar(modulus, vals)


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return quad_normalize(D)[1] == 1
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and quad_normalize(m)[1] == 1
    return False


def char_from_kronecker(D: int) -> DirichletChar:
    """The quadratic character a -> (D|a), of modulus |D|."""
    if not is_fundamental_discriminant(D):
        raise ExactError(f"{D} is not a fundamental discriminant")
    N = abs(D)
    vals = tuple(AlgNum.rational(kronecker(D, r)) for r in range(max(N, 1)))
    return DirichletChar(N, vals)


def bernoulli_chi(k: int, chi: DirichletChar) -> AlgNum:
    """Generalized Bernoulli number B_{k,chi} (values of chi must be exact)."""
    f = chi.modulus
    if f == 1:
        b = bernoulli(k)
        if k == 1:
            b = Fraction(1, 2)  # convention: B_{1,triv} = +1/2 for L(0) bookkeeping
        return AlgNum.rational(b)
    acc = AlgNum.rational(0)
    for a in range(1, f + 1):
        acc = acc + chi(a) * bernoulli_poly(k, Fraction(a, f))
    return acc * Fraction(f) ** (k - 1)


# ---------------------------------------------------------------------------
# q-expansion containers
# ---------------------------------------------------------------------------

def quad(c: AlgNum) -> tuple[int, int, int, int]:
    """(a_num, a_den, b_num, b_den) of c = a + b sqrt(d0)."""
    return c.a.numerator, c.a.denominator, c.b.numerator, c.b.denominator


def coordinates(quads) -> tuple[list[int], list[int], int]:
    """Integers x, y and the least denominator D > 0 with each
    a_num/a_den + (b_num/b_den) sqrt(d0) equal to (x + y sqrt(d0)) / D."""
    quads = list(quads)
    D = 1
    for an, ad, bn, bd in quads:
        D = math.lcm(D, ad // math.gcd(an, ad), bd // math.gcd(bn, bd))
    # D is a multiple of each reduced denominator, so the divisions are exact
    return [an * D // ad for an, ad, _, _ in quads], [bn * D // bd for _, _, bn, bd in quads], D


@dataclass(frozen=True)
class NewformData:
    """Primitive-form data: a(1..n_max) plus level, weight, nebentypus."""

    level: int
    weight: int
    char: DirichletChar
    #: a(n) = (x[n] + y[n] sqrt(d0)) / D for 0 <= n <= n_max, d0 that of
    #: `field`, the field of the character values and the coefficients;
    #: x[0] = y[0] = 0 and y is all zero over Q
    x: tuple[int, ...]
    y: tuple[int, ...]
    D: int
    field: QuadField
    label: str = ""
    is_eigenform: bool = True

    def __post_init__(self):
        name = self.label or "form"
        if len(self.x) != len(self.y) or not self.x or self.x[0] or self.y[0] or self.D < 1:
            raise ExactError(f"{name}: x, y need one length and x[0] = y[0] = 0, D > 0")
        if self.field.is_rational and any(self.y):
            raise ExactError(f"{name}: irrational coefficient in a rational field")
        if self.n_max >= 1 and self.is_eigenform and (self.x[1], self.y[1]) != (self.D, 0):
            raise ExactError(f"{name}: a(1) must be 1")

    @classmethod
    def from_values(cls, level: int, weight: int, char: DirichletChar, values,
                    **fields) -> "NewformData":
        """The form with a(n) = values[n], exact AlgNums, for n >= 1, over the
        compositum of the character and value fields; `fields` by name."""
        F = char.field
        for c in values[1:]:
            F = compositum(F, c.field)
        x, y, D = coordinates(map(quad, values[1:]))
        return cls(level, weight, char, (0, *x), (0, *y), D, F, **fields)

    @property
    def n_max(self) -> int:
        return len(self.x) - 1

    def a(self, n: int) -> AlgNum:
        if not 1 <= n <= self.n_max:
            raise ExactError(f"coefficient a({n}) not available (n_max={self.n_max})")
        return AlgNum(self.field, Fraction(self.x[n], self.D), Fraction(self.y[n], self.D))

    def check_hecke_multiplicativity(self, pairs: list[tuple[int, int]]) -> bool:
        for m, n in pairs:
            if math.gcd(m, n) == 1 and m * n <= self.n_max:
                if self.a(m * n) != self.a(m) * self.a(n):
                    return False
        return True

    def check_deligne_bound(self, P: int = 30) -> bool:
        """|a(p)| <= 2 p^((k-1)/2) under the complex embedding."""
        with workdps(P):
            for p in primes_upto(min(self.n_max, 200)):
                bound = 2 * mpmath.mpf(p) ** (Fraction(self.weight - 1, 2))
                if abs(self.a(p).embed(P)) > bound * (1 + mpmath.mpf(10) ** (-P // 2)):
                    return False
        return True


@dataclass(frozen=True)
class EisensteinData(NewformData):
    constant_term: AlgNum = AlgNum.rational(0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def divisor_sum(k: int, outer: DirichletChar, inner: DirichletChar,
                n_max: int) -> tuple[tuple[int, ...], tuple[int, ...], int, QuadField]:
    """a(n) = sum_{d|n} outer(n/d) inner(d) d^(k-1) for n <= n_max, as
    (x, y, D, F): a(n) = (x[n] + y[n] sqrt(d0)) / D over the compositum F of
    the character fields, x[0] = y[0] = 0 and D least."""
    F = compositum(outer.field, inner.field)
    d0, mo, mi = F.d0, outer.modulus, inner.modulus
    xo, yo, Do = coordinates(quad(outer(r)) for r in range(mo))
    xi, yi, Di = coordinates(quad(inner(r)) for r in range(mi))
    # inner(d) d^(k-1) = (wx[d] + wy[d] sqrt(d0)) / Di; times outer(e), x
    # takes xo wx + d0 yo wy and y takes xo wy + yo wx, over Do Di
    powers = [d ** (k - 1) for d in range(n_max + 1)]
    wx = [xi[d % mi] * p for d, p in enumerate(powers)]
    wy = [yi[d % mi] * p for d, p in enumerate(powers)]
    x = [0] * (n_max + 1)
    y = [0] * (n_max + 1)
    for acc, oc, w in ((x, xo, wx), (x, [d0 * t for t in yo], wy), (y, xo, wy), (y, yo, wx)):
        if not any(w):
            continue
        for r in range(1, mo + 1):  # n = d e with e = r (mod mo)
            a = oc[r % mo]
            if a:
                for d in range(1, n_max // r + 1):
                    c = a * w[d]
                    if c:
                        for n in range(d * r, n_max + 1, d * mo):
                            acc[n] += c
    g = math.gcd(Do * Di, *x, *y)
    return tuple(t // g for t in x), tuple(t // g for t in y), Do * Di // g, F


def eisenstein_qexp(k: int, chi: DirichletChar, n_max: int) -> EisensteinData:
    """E_k(chi) = L(1-k, chi)/2 + sum_n (sum_{d|n} chi(d) d^(k-1)) q^n."""
    if k < 1:
        raise ExactError("weight must be >= 1")
    want = ODD if k % 2 else EVEN
    if chi.parity != want:
        raise ExactError(f"parity mismatch: weight {k} needs an {want} character")
    # L(1-k, chi) = -B_{k,chi}/k
    const = -bernoulli_chi(k, chi) / Fraction(2 * k)
    x, y, D, F = divisor_sum(k, trivial_char(), chi, n_max)
    return EisensteinData(chi.modulus, k, chi, x, y, D, F, label=f"eis-{k}-{chi.modulus}",
                          is_eigenform=False, constant_term=const)


DELTA_WEIGHTS = (12, 16, 18, 20, 22, 26)


def _deligne_bound(k: int, n_max: int) -> int:
    """2 n_max^(k/2), for even k: at least |a(n)| for every n <= n_max of a
    normalized level-1 eigenform of weight k.  Deligne gives |a(n)| <=
    d(n) n^((k-1)/2), and d(n) <= 2 sqrt(n), as the divisors of n pair off
    d <-> n/d with one of each pair at most sqrt(n)."""
    return 2 * n_max ** (k // 2)


@lru_cache(maxsize=1)
def _delta_int(n_max: int) -> tuple[int, ...]:
    """tau(0..n_max) of Delta = q * eta^24, kept for the last n_max asked
    for: every weight of the family at one n_max shares it.

    eta^3 = prod (1 - q^m)^3 = sum_m (-1)^m (2m + 1) q^(m(m+1)/2) (Jacobi),
    squared three times to q^(n_max - 1).  The eta^6 and eta^12 squarings
    take `series_mul`'s worst-case slot; the last one gives tau(n + 1) at
    q^n, at most 2 n_max^6 by Deligne's bound at k = 12.
    """
    e = [0] * n_max
    m = 0
    while m * (m + 1) // 2 < n_max:
        e[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    for _ in range(2):
        e = series_mul(e, e, n_max - 1)
    return (0, *series_mul(e, e, n_max - 1, _deligne_bound(12, n_max)))


def delta_family_qexp(k: int, n_max: int) -> NewformData:
    """The unique normalized cuspform of level 1 and weight k, for the
    weights where the space is one-dimensional: Delta * E_{k-12}."""
    if k not in DELTA_WEIGHTS:
        raise ExactError(f"weight {k} is not in the one-dimensional family {DELTA_WEIGHTS}")
    if n_max < 0:
        raise ExactError(f"delta_family_qexp: n_max must be >= 0, got {n_max}")
    tau = _delta_int(n_max)
    if k == 12:
        coeffs = tau
    else:
        # E_r = 1 - (2r / B_r) sum_n sigma_{r-1}(n) q^n, integral at these r
        r = k - 12
        c = int(-2 * r / bernoulli(r))
        one = trivial_char()
        e = [1] + [c * s for s in divisor_sum(r, one, one, n_max)[0][1:]]
        coeffs = tuple(series_mul(tau, e, n_max, _deligne_bound(k, n_max)))
    return NewformData(level=1, weight=k, char=trivial_char(1), x=coeffs,
                       y=(0,) * (n_max + 1), D=1, field=RATIONAL, label=f"1.{k}.a")
