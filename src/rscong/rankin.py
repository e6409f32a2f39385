"""The Rankin-Selberg object: Dirichlet coefficients with the imprimitive
Dirichlet-L correction, the exact root number, archimedean factor, critical
set and the twist-range bookkeeping.  The Euler product the coefficients are checked against lives
in the tests.

Lambda(s) = L_inf(s) L(s) has L_inf(s) = (2 pi)^(-2s) Gamma(s) Gamma(s+1-k),
as factorials at the integer s the pipeline reads, and conductor Q = M^2 for
the squarefree M = lcm of the levels that `root_number` accepts; the series
keeps M alone.

Conventions: the pair is stored with weights k < k2.  The finite part is

    sum_n b_n n^(-s)  =  L^(M)(2s - (k + k2 - 2), chi*chi2) * sum_n a_n(h) a_n(h2) n^(-s),

i.e. the correction enters with its argument shifted so that away from M the
series has a degree-4 Euler product; coefficientwise this is the convolution
b_n = sum_{m^2 d = n, gcd(m, M) = 1} (chi*chi2)(m) m^(k+k2-2) a_d(h) a_d(h2).

The convolution runs on the integer coordinates the forms keep, and its
result is what the series keeps: b_n = (x_n + y_n sqrt(d0)) / D with one
denominator D for all n, d0 that of the coefficient field.  Both L-value
sums read those integers; no a_n or b_n is an `AlgNum`.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exactnum import AlgNum, ExactError, QuadField, _factor_trial, compositum, workdps
from .forms import DirichletChar, NewformData, coordinates, quad


class PoleError(ExactError):
    pass


class NormalizationError(ExactError):
    """The root number is not given by a local type this code covers."""


@dataclass(frozen=True)
class RankinSeries:
    h: NewformData
    h2: NewformData
    #: b_n = (x[n] + y[n] sqrt(d0)) / D for 0 <= n <= n_max, d0 that of
    #: `field`; x[0] = y[0] = 0 and y is all zero over Q
    x: tuple[int, ...]
    y: tuple[int, ...]
    D: int
    M: int  # the lcm of the levels; the conductor is M^2
    k: int  # the weights, k < k2
    k2: int
    #: L-value engines by precision, filled by `lvalue.get_engine`
    engines: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    @property
    def n_max(self) -> int:
        return len(self.x) - 1

    @property
    def field(self) -> QuadField:
        return compositum(self.h.field, self.h2.field)


def rs_coefficients(h: NewformData, h2: NewformData, n_max: int) -> RankinSeries:
    """Build the Rankin-Selberg Dirichlet coefficients b_1..b_n_max."""
    if h.weight == h2.weight:
        raise ExactError("weights must differ (k2 > k)")
    if h.weight > h2.weight:
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
    d0 = compositum(h.field, h2.field).d0  # holds the character values too
    # a_d(h) a_d(h2) = (rx[d] + ry[d] sqrt(d0)) / (h.D h2.D)
    cut = slice(n_max + 1)
    rx = [a * c + d0 * b * e for a, b, c, e in zip(h.x[cut], h.y[cut], h2.x[cut], h2.y[cut])]
    ry = [a * e + b * c for a, b, c, e in zip(h.x[cut], h.y[cut], h2.x[cut], h2.y[cut])]
    # (chi*chi2)(m) = (cu + cv sqrt(d0)) / Dc
    ms = [m for m in range(1, math.isqrt(n_max) + 1) if M == 1 or math.gcd(m, M) == 1]
    cu, cv, Dc = coordinates(quad(chi_prod(m)) if m > 1 else (1, 1, 0, 1) for m in ms)
    # b_n = (bx[n] + by[n] sqrt(d0)) / (Dc h.D h2.D)
    bx = [0] * (n_max + 1)
    by = [0] * (n_max + 1)
    for m, u, v in zip(ms, cu, cv):
        if not (u or v):
            continue
        u, v = u * m ** w, v * m ** w
        m2 = m * m
        for d in range(1, n_max // m2 + 1):
            X, Y = rx[d], ry[d]
            if X or Y:
                n = m2 * d
                bx[n] += u * X + d0 * v * Y
                by[n] += u * Y + v * X
    return RankinSeries(h=h, h2=h2, x=tuple(bx), y=tuple(by), D=Dc * h.D * h2.D, M=M,
                        k=k, k2=k2)


def root_number(rs: RankinSeries) -> AlgNum:
    """The root number eps of Lambda(s) = eps Q^((k+k2-1)/2 - s) Lambda~(k+k2-1-s),
    Q = M^2, exactly, as the product of local factors eps_p over p | M
    (eps_inf = 1).

    Each p | M must divide exactly one level, once; call that form f and the
    p-part of its nebentypus chi_p.  For trivial chi_p (a Steinberg twist,
    a_p(f) = +-p^((k_f-2)/2)) eps_p = 1.  For quadratic chi_p (a ramified
    principal series) eps_p = chi_p(-1) conj(a_p(f))^2 / p^(k_f-1), the sign
    coming from tau(chi_p)^2 = chi_p(-1) p (W. Li, "L-series of Rankin type
    and their functional equations", Math. Ann. 244, 1979).  Any other local
    type raises NormalizationError.
    """
    eps = AlgNum.rational(1).promote(rs.field)
    for p in sorted(_factor_trial(rs.M)):
        owners = [g for g in (rs.h, rs.h2) if g.level % p == 0]
        if len(owners) > 1:
            raise NormalizationError(
                f"p = {p} divides both levels {rs.h.level} and {rs.h2.level}")
        f = owners[0]
        if f.level % (p * p) == 0:
            raise NormalizationError(f"p = {p}: p^2 divides the level {f.level}")
        chi_p = _local_char(f.char, p)
        if any(v * v != 1 for v in chi_p.values()):
            raise NormalizationError(f"p = {p}: nebentypus of order greater than 2 at p")
        if any(v != 1 for v in chi_p.values()):
            ap = f.a(p).conj()
            sign = chi_p[max(chi_p)]  # chi_p(-1): -1 is the largest unit residue
            eps = eps * sign * ap * ap / Fraction(p) ** (f.weight - 1)
    return eps


def _local_char(chi: DirichletChar, p: int) -> dict[int, AlgNum]:
    """chi_p on the units r mod p^e, p^e the p-part of chi's modulus."""
    pe = p ** _factor_trial(chi.modulus).get(p, 0)
    rest = chi.modulus // pe
    # chi at the residue that is r mod p^e and 1 mod the rest of the modulus
    return {r: chi(r * rest * pow(rest, -1, pe) + pe * pow(pe, -1, rest))
            for r in range(1, pe) if r % p}


def archimedean_factor(s: int, k: int, P: int = 50):
    """L_inf(s) = (2 pi)^(-2s) (s - 1)! (s - k)! at an integer s, an mpf at
    working precision P; Gamma has a pole at s < 1 or s < k."""
    if s < 1 or s < k:
        raise PoleError(f"gamma pole at s = {s}, k = {k}")
    with workdps(P):
        return (2 * mpmath.pi) ** (-2 * s) * mpmath.factorial(s - 1) * mpmath.factorial(s - k)


def gamma_ratio(m: int, k: int) -> Fraction:
    """Exact rational part of L_inf(m)/L_inf(m+1) * (2 pi)^(-2) = 1/(m(m+1-k))."""
    if m == 0 or m + 1 - k == 0:
        raise PoleError(f"gamma ratio undefined at m={m}, k={k}")
    return Fraction(1, m * (m + 1 - k))


def critical_set(k: int, k2: int) -> list[int]:
    """Integers m with k <= m <= k2 - 1 (empty when k2 <= k)."""
    return list(range(k, k2))


@dataclass(frozen=True)
class TheoremRanges:
    right_twists: tuple[int, ...]
    right_pairs: tuple[tuple[int, int], ...]
    left_twists: tuple[int, ...]
    left_pairs: tuple[tuple[int, int], ...]
    lower_weight_twists: tuple[int, ...]
    lower_weight_pairs: tuple[tuple[int, int], ...]


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
    d = k2 - k
    right = range(-1, d // 2 - 1)
    left = range(-(-d // 2) - 1, d - 2)
    lw = range(d // 2 + 2, d + 2) if d >= 2 else ()  # not [2] at d = 1
    right_pairs = tuple(translate_argument(m, k2) for m in right)
    left_pairs = tuple(translate_argument(m, k2) for m in left)
    lw_pairs = tuple((k + m - 3, k + m - 2) for m in lw)
    return TheoremRanges(
        right_twists=tuple(right), right_pairs=right_pairs,
        left_twists=tuple(left), left_pairs=left_pairs,
        lower_weight_twists=tuple(lw), lower_weight_pairs=lw_pairs,
    )
