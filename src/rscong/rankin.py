"""The Rankin-Selberg object: Dirichlet coefficients with the imprimitive
Dirichlet-L correction, Euler factors, archimedean factor, critical set and
the twist-range bookkeeping.

Conventions: the pair is stored with weights k < k2.  The finite part is

    sum_n b_n n^(-s)  =  L^(M)(2s - (k + k2 - 2), chi*chi2) * sum_n a_n(h) a_n(h2) n^(-s),

i.e. the correction enters with its argument shifted so that away from M the
series has a degree-4 Euler product; coefficientwise this is the convolution
b_n = sum_{m^2 d = n, gcd(m, M) = 1} (chi*chi2)(m) m^(k+k2-2) a_d(h) a_d(h2).
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exactnum import AlgNum, ExactError, QuadField, compositum, workdps
from .forms import DirichletChar, NewformData, primes_upto


class Unsupported(ExactError):
    """Local situation outside the implemented ramification shapes."""


class PoleError(ExactError):
    pass


@dataclass(frozen=True)
class LocalFactorGlobal:
    """Inverse local factor: poly(t) with t = p^(-s), constant term 1."""

    p: int
    poly: tuple  # AlgNum coefficients, degree <= 4

    def degree(self) -> int:
        return len(self.poly) - 1

    def eval_alg(self, t: AlgNum | Fraction) -> AlgNum:
        acc = AlgNum.rational(0)
        for c in reversed(self.poly):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class RankinSeries:
    h: NewformData
    h2: NewformData
    b: tuple  # b[n] for 0 <= n <= n_max, AlgNum; b[0] unused
    M: int
    char_prod: DirichletChar
    gamma: tuple[int, int]  # (k, k2) with k < k2
    Q: Fraction
    swapped: bool = False
    #: L-value engines by precision, filled by `lvalue.get_engine`
    engines: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    @property
    def n_max(self) -> int:
        return len(self.b) - 1

    @property
    def k(self) -> int:
        return self.gamma[0]

    @property
    def k2(self) -> int:
        return self.gamma[1]

    @property
    def field(self) -> QuadField:
        return compositum(self.h.field, self.h2.field)

    def conjugate_pair(self) -> "RankinSeries":
        from .forms import conjugate_form

        return rs_coefficients(conjugate_form(self.h), conjugate_form(self.h2),
                               self.n_max)


def rs_coefficients(h: NewformData, h2: NewformData, n_max: int) -> RankinSeries:
    """Build the Rankin-Selberg Dirichlet coefficients b_1..b_n_max."""
    if h.weight == h2.weight:
        raise ExactError("weights must differ (k2 > k)")
    swapped = h.weight > h2.weight
    if swapped:
        h, h2 = h2, h
    if h.n_max < n_max or h2.n_max < n_max:
        need = max(n_max, 1)
        raise ExactError(
            f"insufficient coefficients: need a(n) to n_max={need}, have "
            f"{h.n_max} and {h2.n_max}")
    M = math.lcm(h.level, h2.level)
    chi_prod = h.char.times(h2.char, M)
    k, k2 = h.weight, h2.weight
    w = k + k2 - 2
    zero = AlgNum.rational(0)
    b = [zero] * (n_max + 1)
    raw = [zero] * (n_max + 1)
    for n in range(1, n_max + 1):
        raw[n] = h.a(n) * h2.a(n)
    for m in range(1, int(math.isqrt(n_max)) + 1):
        if M > 1 and math.gcd(m, M) != 1:
            continue
        cm = chi_prod(m) * (Fraction(m) ** w) if m > 1 else AlgNum.rational(1)
        if not cm:
            continue
        m2 = m * m
        for d in range(1, n_max // m2 + 1):
            if raw[d]:
                b[m2 * d] = b[m2 * d] + cm * raw[d]
    return RankinSeries(h=h, h2=h2, b=tuple(b), M=M, char_prod=chi_prod,
                        gamma=(k, k2), Q=Fraction(M) ** 2, swapped=swapped)


def euler_factor(h: NewformData, h2: NewformData, p: int) -> LocalFactorGlobal:
    """Inverse local factor of the Rankin-Selberg L-function at p.

    Away from the levels this is the degree-4 factor written in the symmetric
    functions of the Hecke parameters, so no square roots appear.  At p
    dividing exactly one square-free level the factor has degree 2; other
    ramified shapes are not implemented.
    """
    if h.weight > h2.weight:
        h, h2 = h2, h
    one = AlgNum.rational(1)
    N, N2 = h.level, h2.level
    if N % p and N2 % p:
        A1, A2 = h.a(p), h.char(p) * (Fraction(p) ** (h.weight - 1))
        B1, B2 = h2.a(p), h2.char(p) * (Fraction(p) ** (h2.weight - 1))
        c1 = -(A1 * B1)
        c2 = A2 * B1 * B1 + B2 * A1 * A1 - 2 * A2 * B2
        c3 = -(A1 * B1 * A2 * B2)
        c4 = A2 * A2 * B2 * B2
        return LocalFactorGlobal(p, (one, c1, c2, c3, c4))
    # ramified side: require square-free, coprime levels
    if math.gcd(N, N2) % p == 0 or N % (p * p) == 0 or N2 % (p * p) == 0:
        raise Unsupported(
            f"local factor at {p}: levels must be square-free and relatively prime")
    g, f = (h, h2) if N % p == 0 else (h2, h)  # g carries the level at p
    ap = g.a(p)
    B1, B2 = f.a(p), f.char(p) * (Fraction(p) ** (f.weight - 1))
    c1 = -(ap * B1)
    c2 = ap * ap * B2
    return LocalFactorGlobal(p, (one, c1, c2))


def euler_expand(factors: list[LocalFactorGlobal], n_max: int) -> list[AlgNum]:
    """Dirichlet coefficients of prod_p 1/poly_p(p^(-s)) up to n_max."""
    zero, one = AlgNum.rational(0), AlgNum.rational(1)
    out = [zero] * (n_max + 1)
    out[1] = one
    for loc in factors:
        p = loc.p
        # local expansion 1/poly(t) as a power series in t
        depth = 0
        pk = 1
        while pk <= n_max:
            pk *= p
            depth += 1
        inv = [one] + [zero] * depth
        for i in range(1, depth + 1):
            acc = zero
            for j in range(1, min(i, loc.degree()) + 1):
                acc = acc + loc.poly[j] * inv[i - j]
            inv[i] = -acc
        new = out[:]
        for e in range(1, depth + 1):
            pe = p ** e
            if pe > n_max:
                break
            if not inv[e]:
                continue
            for n in range(1, n_max // pe + 1):
                if out[n] and n % p:
                    new[n * pe] = new[n * pe] + inv[e] * out[n]
        # merge: out had only p-free support updated multiplicatively
        out = new
    return out


def archimedean_factor(s, k: int, P: int = 50):
    """(2 pi)^(-2s) Gamma(s) Gamma(s + 1 - k) at working precision P."""
    with workdps(P):
        s = mpmath.mpc(s)
        for arg in (s, s + 1 - k):
            if abs(arg.imag) < mpmath.mpf(10) ** (-P) and arg.real <= 0 \
                    and abs(arg.real - mpmath.nint(arg.real)) < mpmath.mpf(10) ** (-P):
                raise PoleError(f"gamma pole at argument {arg}")
        val = (2 * mpmath.pi) ** (-2 * s) * mpmath.gamma(s) * mpmath.gamma(s + 1 - k)
        return val


def gamma_ratio(m: int, k: int) -> Fraction:
    """Exact rational part of L_inf(m)/L_inf(m+1) * (2 pi)^(-2) = 1/(m(m+1-k))."""
    if m == 0 or m + 1 - k == 0:
        raise PoleError(f"gamma ratio undefined at m={m}, k={k}")
    return Fraction(1, m * (m + 1 - k))


def critical_set(k: int, k2: int) -> list[int]:
    """Integers m with k <= m <= k2 - 1 (empty when k2 <= k)."""
    if k2 <= k:
        import warnings

        warnings.warn(f"no critical points for weights ({k}, {k2})", stacklevel=2)
        return []
    return list(range(k, k2))


@dataclass(frozen=True)
class TheoremRanges:
    right_twists: tuple[int, ...]
    right_pairs: tuple[tuple[int, int], ...]
    left_twists: tuple[int, ...]
    left_pairs: tuple[tuple[int, int], ...]
    lower_weight_twists: tuple[int, ...]
    lower_weight_pairs: tuple[tuple[int, int], ...]
    ratio_checks_possible: bool


def translate_argument(m: int, k2: int) -> tuple[int, int]:
    """Classical arguments corresponding to the two evaluation points."""
    return (k2 - m - 3, k2 - m - 2)


def theorem_ranges(k: int, k2: int) -> TheoremRanges:
    """Twist ranges covered by the congruence theorems.

    Right of the unitary axis: integers -1 <= m <= (k2-k)/2 - 2, covering the
    classical pairs (k2-m-3, k2-m-2) from the rightmost inward.  Left of the
    axis: (k2-k)/2 - 1 <= m <= k2-k-3, valid only under the extra unit
    hypothesis.  The lower-weight orientation (congruent forms of weight k,
    auxiliary of weight k2) covers (k2-k)/2 + 1 < m <= k2-k+1 with pairs
    (k + m - 3, k + m - 2).
    """
    possible = k2 - k >= 2
    right = []
    if possible:
        top = math.floor(Fraction(k2 - k, 2) - 2)
        right = list(range(-1, top + 1))
    right_pairs = tuple(translate_argument(m, k2) for m in right)
    left = []
    if possible:
        lo = math.ceil(Fraction(k2 - k, 2) - 1)
        left = [m for m in range(lo, k2 - k - 2)]
    left_pairs = tuple(translate_argument(m, k2) for m in left)
    lw = []
    if possible:
        lo = Fraction(k2 - k, 2) + 1
        lw = [m for m in range(math.floor(lo) + 1, k2 - k + 2) if m > lo]
    lw_pairs = tuple((k + m - 3, k + m - 2) for m in lw)
    return TheoremRanges(
        right_twists=tuple(right), right_pairs=right_pairs,
        left_twists=tuple(left), left_pairs=left_pairs,
        lower_weight_twists=tuple(lw), lower_weight_pairs=lw_pairs,
        ratio_checks_possible=possible,
    )
