"""Numerical evaluation of the completed Rankin-Selberg L-function.

A smoothed two-sided approximate functional equation in the critical window
k <= s <= k2 - 1, and direct summation outside it, with enough coefficients
to certify the tail below 10^-P: the certified tail bound below holds for
sigma = s - w/2 > 1, and only the n_max estimate `_tail_beyond` needs
sigma > 2, for which a direct sum is refused at 2s <= k + k2 + 2.  A window
point whose AFE the coefficients cannot certify falls back to the direct
sum: near the right edge of the window, at level 3 and weights 13 and 26
for one, the AFE can need more coefficients than the direct sum.
The direct tail is bounded by sum_{n>N} d4(n) n^(w/2 - s), which is
zeta(s - w/2)^4 less its first N terms: an upper bound of zeta from
Borwein's algorithm, to the fourth power, less N floored terms, all integers
scaled by one power of two and converted rounding up, so the bound is never
below the tail it bounds and exceeds it only by those roundings.  A direct
sum stops at the least N <= n_max whose bound is below 10^-P, found by one
upward pass over the head terms (`_direct_cut`), and raises
InsufficientCoefficients before any term is summed when no such N exists.
The cut reads no coefficient: it depends only on (sigma, n_max, precision),
sigma = s - w/2, and is computed once per key per process, whichever series
asks.  The direct finite part is an exact integer sum too: with the series'
b_n = (x_n + y_n sqrt(d0)) / D, each nonzero integer coordinate of n <= N
is summed as the floor of x_n 2^B / (D n^s), and each sum is converted
once.  What the N floors and the conversions lose is charged to the
returned tail, rounding up, so the bound covers the rounding of the finite
part as well.  The smoothing kernel

    G_s(x) = (1/2 pi i) int_(c) L_inf(s + w) x^(-w) dw / w

is the inverse Mellin transform of the archimedean factor divided by w; for
integer s in the critical window it reduces exactly to an incomplete
Bessel-K moment, computed by a stable three-term ladder from two Bessel
values per summation point (`KernelLadder`), times a prefactor the ladder
keeps per s.  A trapezoidal contour quadrature kept in the tests is an
independent reference for this kernel.

The Bessel pair K_nu, K_{nu+1} (`besselk_pair`) comes from the expansion in
1/x where that reaches the digits asked for, and otherwise from the
ascending series for K_0 and K_1 and the upward recurrence.  Both branches
add Python integers scaled by 2^-p, as the direct sum does, and make two
raw libmp values once, at the end: at these sizes a libmp operation costs
several integer ones.  The expansion stops by the DLMF 10.40(ii) remainder
bound, and the series only where its tail is geometric with ratio at most
1/2, so each omitted tail is at most a small multiple of a term computed;
the guard digits of each branch hold what the fixed-point floors lose.

The AFE has one smoothed sum per s, on the one grid x_n = n / M, M the
square root of the conductor Q = M^2:

    A(s) = sum_{n<=N} c_n n^(-s) G_s(n / M),

computed once per s; the grid is one raw value, the engine's `scale` = 1/M,
which the terms and the tail bound both read.  N is the least multiple of
64, or n_max, at which `_afe_tail_bound` certifies the tail, found before
any term is summed by `_least_n`, the one search that also gives the direct
sum's n_max estimate.  N reads no coefficient, so each cutoff is planned
once on the kernel ladder, for every engine of one k and precision with the
same (k2, scale, n_max): f1 x aux and f2 x aux share their cutoffs.  A new
cutoff is first tried at the N planned for the nearest s, which it often
equals, and searched in full only when that N is not the least that
passes.  The terms are real: x_n / (D n^s) and y_n / (D n^s),
each one correctly rounded division of integers, times G_s, and the two
coordinates are summed apart (`libmp.mpf_sum`): A(s) = Sx + sqrt(d0) Sy.
Neither sum embeds a coefficient; only the root number is embedded, once
per s.  The dual series has the complex-conjugate coefficients, so its sum
at s^ = k + k2 - 1 - s is conj(A(s^)), and Lambda(s) = A(s) +
eps Q^alpha(s) conj(A(s^)), Q^alpha(s) = M^(k + k2 - 1 - 2s), with the
bound tail(s) + |Q^alpha(s)| tail(s^).  The root number is exact:
`rankin.root_number` takes it from the local types of the pair, and
`LEngine.solve_root_number` returns that element of the coefficient field,
computed once per engine.
Only its embedding enters the AFE, so `LValueResult.err_bound` is the
certified tails alone, and a central value forced to vanish by root number
-1 is an exact fact (`certified_zero`).

Each `RankinSeries` owns its engines, one per precision (`get_engine`), so
an engine lives as long as its series.  Engines of the same weight k and
working precision share one `KernelLadder` while any of them is alive; the
ladder is freed with the last of them.

Precision per term.  The engine works at dps = P + 60 digits, but a kernel
point is evaluated only to the digits its term needs: a term at most 10^-m
of the kernel mass, in a sum of at most n_max terms, gets about
P + 8 + log10(n_max) - m digits, rounded up to a band of 10 and clamped
between a floor of 20 and dps.  Each term is then in error by at most
target / n_max, target = 10^-(P + 8) mass, and every smoothed sum adds that
rounding budget to its tail, so `LValueResult.err_bound` stays certified.
Ladder entries are keyed by the exact bits of x and the digits: an entry is
never upgraded in place, so no value depends on which calls ran first.

The per-term path runs on integer (mantissa, exponent) pairs, and on raw
libmp values only where libmp is called, at precisions the code names and
never mpmath's working precision.  The grid point, the two coordinates, the
digit choice, the term products and the final sums of a smoothed sum are at
the engine's `prec`; pi, rounded once per ladder as 4 pi, the point
a = 4 pi sqrt(x), the prefactor and `KernelLadder.G` at the ladder's, which
is the same; a^(nu+1) and the rungs at the point's digits plus a guard; the
scaling sqrt(pi/2x) e^(-x) of the asymptotic Bessel branch and log(x/2) of
the series at the branch's own.  Each libmp call on (sign, man, exp, bc)
tuples rounds as the mpf operator it replaces did at that precision, down
to the rounding of -x before the exponential.  The products and sums of the
rungs, G's product by the prefactor, the coordinates x_n / (D n^s) and
y_n / (D n^s), the grid point n * scale and the term products c G are exact
integer operations, each rounded once to nearest, ties to even, by
`_round`: a correctly rounded result is unique, so each has the bits of the
libmp call it stands for, without that call's normalisation.  A term's
digits follow the magnitude (the bit position) of |c| g_bound as libmp
rounds it (`_term_mag`); over an imaginary quadratic field,
c = cx + cy sqrt(d0), it is read from the exact integer
(cx^2 + |d0| cy^2) g_bound^2, with no square root, unless that lies so near
a power of two that the roundings could move it across, where the libmp
path decides.  So every value keeps the bits the mpf operators gave.  The
grid point goes to `G` raw, since it keys the ladder's points, and `G`'s
value comes back a pair.  The tail bound `_afe_tail_bound` is raw libmp
calls, each the one its mpf operator made; mpf objects exist only at the
returned sums and bounds.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import mpmath
from mpmath import libmp, mp
from mpmath.libmp import (fone, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div, mpf_exp,
                          mpf_hypot, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pi,
                          mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_shift, mpf_sqrt, mpf_sub,
                          mpf_sum)

from .exactnum import GUARD_DIGITS, AlgNum, ExactError
from .rankin import RankinSeries, archimedean_factor, root_number

#: extra digits on top of P + GUARD_DIGITS for kernel ladders and summation
LADDER_GUARD = 45
#: fewest digits a kernel point is evaluated at
KERNEL_FLOOR_DIGITS = 20
#: a term's digits are rounded up to a multiple of this, so that uses of one
#: point at nearby magnitudes share a ladder entry
KERNEL_DIGIT_BAND = 10
#: digits on top of what a term needs
TERM_GUARD = 2
#: digits on top of an entry's own for the arithmetic of its ladder
ENTRY_GUARD = 10
#: a smoothed sum may stop at every multiple of this n, and at n_max
TAIL_CHECK_EVERY = 64


class InsufficientCoefficients(ExactError):
    def __init__(self, n_needed: int, message: str = ""):
        self.n_needed = n_needed
        super().__init__(message or f"need Dirichlet coefficients up to n = {n_needed}")


@dataclass(frozen=True)
class LValueResult:
    s: int
    value: object  # mpc
    err_bound: object  # mpf (absolute)
    method: str


# ---------------------------------------------------------------------------
# fast Bessel K for integer order, real argument
# ---------------------------------------------------------------------------

#: bits on top of digits + 12 for the fixed-point asymptotic sums
ASYMPTOTIC_GUARD_BITS = 20


def _asymptotic_sum(nu: int, X: int, p: int, digits: int):
    """S = sqrt(2x/pi) e^x K_nu(x) from its expansion in 1/x, as an integer
    at scale 2^p, for x = X 2^-p; or None when the expansion cannot reach
    `digits`.

    Term j is term j-1 times (4 nu^2 - (2j - 1)^2) / (8 x j), one floor;
    both factors are kept up to date from one j to the next, and each
    term's absolute value is taken once.
    The terms may grow while 2j - 1 < 2 nu; past that they fall until they
    turn and grow for good, so only a rise there ends the expansion.  Once
    j >= nu - 1/2 terms are summed, the remainder is smaller than the first
    term omitted (DLMF 10.40(ii), real nu and x > 0), and the sum is accepted
    when that term times 10^digits is below the sum, compared as integers.
    """
    ten = 10 ** digits
    term = acc = size = 1 << p  # size = |term|
    num, den = 4 * nu * nu - 1, 8 * X  # 4 nu^2 - (2j - 1)^2 and 8 j X
    j = 1
    while True:
        nxt = (term * num << p) // den
        mag = abs(nxt)
        if j >= nu and mag * ten < abs(acc):  # 2j >= 2 nu - 1
            return acc
        if j > nu and mag >= size:  # 2j - 1 > 2 nu: divergence point reached
            return None
        acc += nxt
        term, size = nxt, mag
        num -= 8 * j
        den += 8 * X
        j += 1


def _besselk_series(nu: int, x, p: int):
    """(K_nu(x), K_{nu+1}(x)) as integers at scale 2^p for a raw x, from the
    ascending series for K_0 and K_1 and the upward recurrence
    K_{n+1} = K_{n-1} + (2n/x) K_n.

    With z = x^2/4, H_j the harmonic numbers, t_j = z^j / (j!)^2 and
    u_j = t_j / (j + 1):

        K_0 = -(log(x/2) + gamma) sum_j t_j + sum_{j>=1} H_j t_j
        K_1 = 1/x + (x/2) log(x/2) sum_j u_j
              - (x/4) sum_j (H_j + H_{j+1} - 2 gamma) u_j

    The sums cancel to about e^(-2x) of their size; `besselk_pair` picks p
    for that.  They stop after a term j > 4 with (j + 1)^2 >= 2z,
    t_j < 2^(3-p) sum t and u_j < 2^(3-p) sum u.
    """
    one = 1 << p
    X = libmp.to_fixed(x, p)
    inv = (one << p) // X  # 1/x
    half = X >> 1
    z = X * X >> (p + 2)
    # m_geom >= x / sqrt(2): from term m_geom - 1 on, each ratio is <= 1/2
    m_geom = (math.isqrt((X + 1) ** 2 >> 1) >> p) + 1
    lh = libmp.to_fixed(mpf_log(mpf_div(x, from_int(2), p, "n"), p, "n"), p)  # log(x/2)
    gamma = libmp.euler_fixed(p)
    t = i0 = i1 = one
    s0 = 0
    w = one - 2 * gamma  # H_j + H_{j+1} - 2 gamma at j = 0
    c1 = w
    h = 0
    j = 0
    while True:
        j += 1
        t = (t * z >> p) // (j * j)
        u = t // (j + 1)
        h += one // j
        w += one // j + one // (j + 1)
        i0 += t
        i1 += u
        s0 += t * h >> p
        c1 += u * w >> p
        if j > 4 and j + 1 >= m_geom and t << (p - 3) < i0 and u << (p - 3) < i1:
            break
    km = (-(lh + gamma) * i0 >> p) + s0
    kc = inv + (lh * (half * i1 >> p) >> p) - (half * c1 >> (p + 1))
    for n in range(1, nu + 1):
        km, kc = kc, km + (2 * n * kc * inv >> p)
    return km, kc


def besselk_pair(nu: int, x, digits: int):
    """(K_nu(x), K_{nu+1}(x)) as raw libmp values, for integer nu >= 0 and a
    raw real x > 0, each with a relative error below 10^-digits.

    Both branches add integers at scale 2^p, where every step is a floor
    that loses under one unit 2^-p; the pair becomes two raw values once,
    at the end, each rounded to nearest at the precision the branch names.

    Asymptotic branch, p = the bits of digits + 12 digits plus
    ASYMPTOTIC_GUARD_BITS: the expansions in 1/x (`_asymptotic_sum`) of
    K_nu and K_{nu+1}, each stopped by the DLMF 10.40(ii) remainder bound
    (the omitted sum is below the first omitted term, itself below
    10^-digits of the sum), then multiplied by sqrt(pi/2x) e^(-x) at
    digits + 12 digits.  Floors: term j is one floor from the exact product
    of its predecessor, so it is off by at most j units or j 2^-p of
    itself, whichever is more (the rounding of x adds 2^-p / x a term); a
    sum of J terms is off by under J^2 units and J (1 + 1/x) 2^-p of the
    terms' absolute sum.  For J < 2^10 the guard bits keep both under one
    unit of digits + 12 digits.

    Series branch, where either expansion cannot reach `digits`: K_0 and
    K_1 by the ascending series at p = the bits of digits + 0.8686x + 30
    digits, since the sums cancel to about e^(-2x) of their size, then the
    stable upward recurrence, one floor a step (`_besselk_series`); log(x/2)
    is rounded to nearest at p bits, x/2 first.
      Truncation: a sum stops after term j only once (j + 1)^2 >= 2z, so
    every later ratio t_{i+1}/t_i (and u_{i+1}/u_i) is at most 1/2, and
    H_{j+m} <= H_j + m/(j+1).  The omitted tails are then at most t_j of
    sum t, (H_j + 2/(j+1)) t_j of sum H t, u_j of sum u and
    (H_j + H_{j+1} + 2 gamma + 4/(j+1)) u_j of sum (H + H' - 2 gamma) u,
    where t_j and u_j are below 2^(3-p) of their sums.  K_0 and K_1
    therefore lose at most (|log(x/2)| + 2 H_{j+1} + 2 gamma + 2) 2^(3-p)
    of the size of sum t (of (x/2) sum u).
      Floors: t_j is two floors from the exact product of its predecessor
    (the product by z, the division) and u_j one more; z is within
    x/2 + 1 units.  So t_j is off by at most 3j units or 3j 2^-p of itself,
    whichever is more, plus j times the relative error of z; H_j holds j
    floors, and each weighted product one more.  Each of the four sums of
    J terms is then off by under 3 (1 + H_J)(J + 1)^2 units and
    3 (1 + H_J)(J + 1)(1 + (x + 2)/z) 2^-p of its size.  With the 30 guard
    digits (about 100 bits) both stay more than 20 digits below
    10^-digits of K_0 and K_1 for J < 2^10 and x > 10^-2, and so do the nu
    floors of the recurrence.
    """
    prec = libmp.dps_to_prec(digits + 12)
    p = prec + ASYMPTOTIC_GUARD_BITS
    X = libmp.to_fixed(x, p)
    a = _asymptotic_sum(nu, X, p, digits)
    if a is not None:
        b = _asymptotic_sum(nu + 1, X, p, digits)
        if b is not None:
            # sqrt(pi / (2x)) e^(-x), every step rounded to nearest at
            # digits + 12 digits, -x included
            half = mpf_div(mpf_pi(prec, "n"), mpf_mul_int(x, 2, prec, "n"), prec, "n")
            fac = mpf_mul(mpf_sqrt(half, prec, "n"),
                          mpf_exp(mpf_neg(x, prec, "n"), prec, "n"), prec, "n")
            return (mpf_mul(fac, libmp.from_man_exp(a, -p), prec, "n"),
                    mpf_mul(fac, libmp.from_man_exp(b, -p), prec, "n"))
    p = libmp.dps_to_prec(digits + int(0.8686 * libmp.to_float(x, rnd="n")) + 30)
    km, kc = _besselk_series(nu, x, p)
    return libmp.from_man_exp(km, -p, p, "n"), libmp.from_man_exp(kc, -p, p, "n")


# ---------------------------------------------------------------------------
# correctly rounded arithmetic on integers
# ---------------------------------------------------------------------------

def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp rounded to nearest at prec bits, ties to even, as a pair
    (m, e) of a signed mantissa of at most prec bits (prec + 1 when the
    rounding carries into a power of two) and an exponent.

    A correctly rounded value is unique, so an exact product or sum passed
    here has the bits `libmp.mpf_mul`, `mpf_mul_int` and `mpf_add` give at
    prec, "n".  (mpf_add's shortcut for operands far apart, a sticky bit in
    place of the smaller, rounds correctly when both have at most prec bits,
    as every operand here does.)  Only libmp's stripping of trailing zero
    bits is left out; `_raw` does it once, where a raw value is needed."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    m = -man if man < 0 else man
    q = m >> (n - 1)  # prec bits and the rounding bit
    if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)):
        q += 1
    q >>= 1
    return (-q if man < 0 else q), exp + n


def _add(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """The sum of two (mantissa, exponent) pairs, taken exactly and rounded
    by `_round`."""
    (m, e), (n, f) = x, y
    if e < f:
        m, e, n, f = n, f, m, e
    return _round((m << (e - f)) + n, f, prec)


def _pair(raw) -> tuple[int, int]:
    """A raw libmp value as a (signed mantissa, exponent) pair."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _raw(man: int, exp: int):
    """man 2^exp as a raw libmp value: trailing zero bits stripped, as
    libmp's normalisation does, in a few integer operations."""
    if not man:
        return libmp.fzero
    sign = int(man < 0)
    if sign:
        man = -man
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _rational(p: int, q: int, prec: int) -> tuple[int, int]:
    """p / q for integers p and q > 0 as a (mantissa, exponent) pair, rounded
    to nearest at prec bits by `_round`: the value of `libmp.from_rational`,
    since a correctly rounded quotient is unique, from one integer division
    with a sticky bit."""
    if not p:
        return 0, 0
    a = abs(p)
    extra = prec + q.bit_length() - a.bit_length() + 5  # the quotient keeps prec + 4 bits
    quot, rem = divmod(a << extra, q) if extra >= 0 else divmod(a, q << -extra)
    if rem:
        quot = quot << 1 | 1
        extra += 1
    return _round(-quot if p < 0 else quot, -extra, prec)


def _term_mag(cx, cy, r, d0: int, gm: int, ge: int, prec: int) -> int:
    """mag(|c| g) = e + bc of |c| g as libmp gives it, which sets a term's
    digits: c = cx + cy sqrt(d0) for (mantissa, exponent) pairs cx and cy,
    r = sqrt|d0| raw, and g = gm 2^ge > 0.  The libmp path takes cy sqrt(d0)
    as r cy, then |c| as mpf_hypot of cx and r cy for d0 < 0 and as
    |cx + r cy| for d0 > 0, and rounds |c| g by `_round`, every step at prec
    bits; for cy = 0 both paths give |cx|, and |cx| g is rounded once.

    For d0 < 0 and cy != 0 the magnitude is read from the exact integer
    V^2 = (cx^2 + |d0| cy^2) g^2 instead.  The libmp path has five
    roundings, r, r cy, the square sum at prec + 4 bits (toward zero), its
    root and the product by g, each off by at most 2^-prec relatively, so
    its value squared is within 9 2^-prec of V^2.  When V^2 is more than
    2^-(prec - 8) of itself away from every power of two, both therefore lie
    strictly between the same two powers of two, and mag(V) =
    floor(log2 V) + 1 is the libmp magnitude.  Otherwise the libmp path
    decides, on raw values.  A real quadratic field keeps the libmp sum,
    whose cancellation the magnitude must see."""
    (xm, xe), (ym, ye) = cx, cy
    if not ym:
        cm, ce = abs(xm), xe
    elif d0 < 0:
        f = min(xe, ye)
        v2 = ((xm * xm << 2 * (xe - f)) - d0 * (ym * ym << 2 * (ye - f))) * gm * gm
        t = v2.bit_length()  # V^2 = v2 2^(2f + 2ge), with 2^(t-1) <= v2 < 2^t
        if min(v2 - (1 << t - 1), (1 << t) - v2) << prec - 8 > v2:
            return (t - 1) // 2 + f + ge + 1
        _, cm, ce, _ = mpf_hypot(_raw(*cx), mpf_mul(r, _raw(*cy), prec, "n"), prec, "n")
    else:
        _, cm, ce, _ = mpf_abs(mpf_add(_raw(*cx), mpf_mul(r, _raw(*cy), prec, "n"), prec, "n"),
                               prec, "n")
    m, e = _round(cm * gm, ce + ge, prec)
    return e + m.bit_length()


# ---------------------------------------------------------------------------
# the AFE kernel: exact Bessel ladder
# ---------------------------------------------------------------------------

class _Point:
    """One kernel point of a `KernelLadder`: a = 4 pi sqrt(x), the Bessel
    pair K_nu(a), K_{nu+1}(a), the rungs J(mu) up to the top one and
    a^(top+1), every value a (mantissa, exponent) pair, and `prec`, the bits
    of the rungs."""

    __slots__ = ("a", "k0", "k1", "prec", "J", "power")


class KernelLadder:
    """G_s(x) for one archimedean factor (2 pi)^(-2s) Gamma(s) Gamma(s+1-k).

    With nu = k - 1, a = 4 pi sqrt(x) and J(mu; a) = int_a^inf v^mu K_nu dv:

        G_s(x) = (2 pi)^(-2s) 2^(k+1-2s) J(2s - k; a),

    J(nu+1; a) = a^(nu+1) K_{nu+1}(a) exactly, and the ladder

        J(mu+2) = ((mu+1)^2 - nu^2) J(mu) + (mu+1-nu) a^(mu+1) K_nu(a)
                  + a^(mu+2) K_{nu+1}(a)

    reaches every integer s >= k with all terms positive (no cancellation),
    so J has the relative accuracy of the two Bessel values.

    x comes in raw and `G` returns a (mantissa, exponent) pair; `bessel_at`
    and `prefactor`, which the tail bound reads, return raw values.  A point
    is keyed by the raw bits of x and the digits asked for; it holds a, the
    Bessel pair, its rungs J and a^(mu+1) for its top rung mu, which each
    new rung multiplies by a twice, all as integer (mantissa, exponent)
    pairs.  `prec`, the bits of the `digits` the ladder is made with, is the
    precision of `four_pi`, pi rounded once, of a, of the prefactor
    (2 pi)^(-2s) 2^(k+1-2s), kept raw per s, and of G; the rungs and
    a^(nu+1) are at the point's digits + ENTRY_GUARD digits.  a, a^(nu+1)
    and the pair come from libmp calls; every product and sum of the rungs
    and G's product by the prefactor is exact on integers and rounded once
    by `_round`, so each value has the bits of the libmp operation it
    stands for: every operation rounds to nearest.
    """

    def __init__(self, k: int, digits: int):
        self.k = k
        self.nu = k - 1
        self.prec = libmp.dps_to_prec(digits)
        self.four_pi = mpf_mul_int(mpf_pi(self.prec, "n"), 4, self.prec, "n")
        self._cache: dict = {}
        self._pref: dict = {}
        #: the cutoffs (mass, target, N, tail) of the smoothed sums of the
        #: engines on this ladder, by (k2, scale, n_max), then by s
        self.cutoffs: dict = {}

    def _entry(self, x, digits: int) -> _Point:
        pt = self._cache.get((x, digits))
        if pt is None:
            prec, eprec = self.prec, libmp.dps_to_prec(digits + ENTRY_GUARD)
            a = mpf_mul(self.four_pi, mpf_sqrt(x, prec, "n"), prec, "n")  # 4 pi sqrt(x)
            k0, k1 = besselk_pair(self.nu, a, digits)
            pt = self._cache[x, digits] = _Point()
            pt.a, pt.k0, pt.k1, pt.prec = _pair(a), _pair(k0), _pair(k1), eprec
            (am, ae), (k1m, k1e) = pt.a, pt.k1
            pm, pe = _pair(mpf_pow_int(a, self.nu + 1, eprec, "n"))  # a^(nu+1)
            pt.J = {self.nu + 1: _round(pm * k1m, pe + k1e, eprec)}
            pt.power = _round(pm * am, pe + ae, eprec)
        return pt

    def bessel_at(self, x, digits: int):
        """(a, K_nu(a), K_{nu+1}(a)) at a = 4 pi sqrt(x), raw."""
        pt = self._entry(x, digits)
        return _raw(*pt.a), _raw(*pt.k0), _raw(*pt.k1)

    def prefactor(self, s: int):
        """(2 pi)^(-2s) 2^(k+1-2s), raw, computed once per s; 2 pi, half of
        `four_pi`, and the power of two are exact."""
        pref = self._pref.get(s)
        if pref is None:
            two_pi = mpf_shift(self.four_pi, -1)  # exact: both are pi shifted
            pref = self._pref[s] = mpf_shift(mpf_pow_int(two_pi, -2 * s, self.prec, "n"),
                                             self.k + 1 - 2 * s)
        return pref

    def G(self, s: int, x, digits: int):
        """G_s(x) for s >= k with a relative error below about 10^-digits:
        the rungs of the point of x climbed to mu = 2s - k, which keeps
        mu - nu odd, times the prefactor: a (mantissa, exponent) pair
        rounded by `_round` at the ladder's prec."""
        mu = 2 * s - self.k
        pt = self._entry(x, digits)
        if mu not in pt.J:  # mu - nu is odd, as every rung's
            self._climb(pt, mu)
        jm, je = pt.J[mu]
        _, pm, pe, _ = self.prefactor(s)  # positive
        return _round(pm * jm, pe + je, self.prec)

    def _climb(self, pt: _Point, mu: int) -> None:
        """Rungs of `pt` up to mu, each operation rounded at the point's
        precision in the order of the ladder formula."""
        nu, prec, J = self.nu, pt.prec, pt.J
        top = max(J)
        (am, ae), (k0m, k0e), (k1m, k1e), (pm, pe) = pt.a, pt.k0, pt.k1, pt.power
        while top < mu:
            hm, he = _round(pm * am, pe + ae, prec)  # a^(top+2)
            jm, je = J[top]
            tm, te = _round(pm * (top + 1 - nu), pe, prec)
            J[top + 2] = _add(
                _add(_round(jm * ((top + 1) ** 2 - nu * nu), je, prec),
                     _round(tm * k0m, te + k0e, prec), prec),
                _round(hm * k1m, he + k1e, prec), prec)
            pm, pe = _round(hm * am, he + ae, prec)
            top += 2
        pt.power = pm, pe


# ---------------------------------------------------------------------------
# divisor bound helpers for rigorous tails
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def d4_upto(n: int) -> list[int]:
    """d_4(m) for m <= n: number of ordered factorizations into 4 parts.

    d_4 is multiplicative with d_4(p^e) = C(e + 3, 3), so over a sieve of
    smallest prime factors d_4(m) = d_4(m / p) times 4 when p, the least
    prime of m, divides m once, and times (e + 3) / e when p^e, e > 1, is
    its exact power: C(e + 3, 3) / C(e + 2, 3)."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    d4, power = [0] * (n + 1), [0] * (n + 1)  # power[m]: the exponent of spf[m] in m
    if n:
        d4[1] = 1
    for m in range(2, n + 1):
        p = spf[m]
        r = m // p
        if spf[r] == p:
            e = power[m] = power[r] + 1
            d4[m] = d4[r] * (e + 3) // e
        else:
            power[m] = 1
            d4[m] = 4 * d4[r]
    return d4


def _scaled_quotient(m: int, n: int, two_sigma: int, C: int, up: bool) -> int:
    """m 2^C / n^sigma for m >= 0 and sigma = two_sigma / 2, rounded up when
    `up` and down otherwise.  For half-integer sigma it is the root of
    m^2 4^C / n^(2 sigma): the floor of that root is the floor of the root of
    the floored quotient, and the ceiling is one more unless both are exact."""
    if two_sigma % 2 == 0:
        q, r = divmod(m << C, n ** (two_sigma // 2))
        return q + (up and r > 0)
    q, r = divmod(m * m << 2 * C, n ** two_sigma)
    root = math.isqrt(q)
    return root + (up and (r > 0 or root * root < q))


def _borwein_d(n: int) -> list[int]:
    """d_0..d_n of Borwein's Algorithm 2 with n terms (`_zeta_scaled_up`):
    the partial sums of the integers n (n + i - 1)! 4^i / ((n - i)! (2i)!),
    each term the one before times 2 (n + i)(n - i) / ((i + 1)(2i + 1)) for
    i = 0, 1, ..., a division that is exact because the next term is an
    integer."""
    d, t, acc = [], 1, 0
    for i in range(n + 1):
        acc += t
        d.append(acc)
        t = t * 2 * (n + i) * (n - i) // ((i + 1) * (2 * i + 1))
    return d


def _zeta_scaled_up(two_sigma: int, C: int) -> int:
    """An integer Z >= zeta(sigma) 2^C for real sigma = two_sigma / 2 > 1,
    at most 1 + (zeta(sigma) + 0.05) / (1 - 2^(1 - sigma)) above it.

    Borwein's Algorithm 2 (P. Borwein, "An efficient algorithm for the
    Riemann zeta function", CMS Conf. Proc. 27, 2000): with
    d_k = n sum_{i<=k} (n + i - 1)! 4^i / ((n - i)! (2i)!),

        zeta(sigma) = S / (d_n (1 - 2^(1 - sigma))) + gamma,
        S = sum_{k<n} (-1)^k (d_n - d_k) / (k + 1)^sigma,

    and |gamma| <= 3 (3 + sqrt 8)^-n / (1 - 2^(1 - sigma)) for real
    sigma >= 1/2.  The terms of d_k are the absolute values of the
    coefficients of the Chebyshev polynomial T_n(1 - 2x), whose signs
    alternate, so they are integers and d_n = T_n(3) =
    ((3 + sqrt 8)^n + (3 - sqrt 8)^n) / 2 <= (3 + sqrt 8)^n; hence
    zeta(sigma) <= (S + 3) / (d_n (1 - 2^(1 - sigma))).
    Each term of S is taken at scale 2^C rounded up where it is added and
    down where it is subtracted, 1 - 2^(1 - sigma) at 2^C is rounded down,
    and the quotient up.  With n = ceil((C + 8) / log2(3 + sqrt 8)), 3 / d_n
    is below 2^-(C + 5), and what the n terms of S lose is smaller still: the
    excess of Z is the ceiling's unit and the rounding of 1 - 2^(1 - sigma).
    """
    n = math.ceil((C + 8) / math.log2(3 + math.sqrt(8)))
    d = _borwein_d(n)
    dn = d[n]
    S = 0
    for k in range(0, n, 2):
        S += _scaled_quotient(dn - d[k], k + 1, two_sigma, C, True)
    for k in range(1, n, 2):
        S -= _scaled_quotient(dn - d[k], k + 1, two_sigma, C, False)
    eta_factor = (1 << C) - _scaled_quotient(2, 2, two_sigma, C, True)  # 1 - 2^(1 - sigma)
    return -(-(S + (3 << C) << C) // (dn * eta_factor))


@functools.lru_cache(maxsize=256)  # bounded: 256 entries hold at most about 200 kB at P = 120
def _direct_cut(two_sigma: int, n_max: int, prec: int, target):
    """(N, tail, certified) for the direct tail sum_{n>N} d4(n) n^(-sigma),
    sigma = two_sigma / 2 > 1: N is the least N <= n_max whose raw upper
    bound `tail`, at prec bits, is below the raw `target` >= 0, and
    certified is True; when no such N exists, as for a zero target, it is
    (n_max, the bound at n_max, False).  It depends only on its four
    arguments, so it is memoised on them: computed once per key per process,
    and its bits do not depend on which caller asked first.

    Since zeta^4 is the Dirichlet series of d4, the tail is zeta(sigma)^4
    less the head sum_{n<=N} d4(n) n^(-sigma); the same identity is why
    |b_n| <= d4(n) n^(w/2).  Both are taken at scale 2^C, with
    C = prec + 40 + ceil(sigma log2(n_max + 1)): Z = `_zeta_scaled_up` is at
    least zeta(sigma) 2^C, so the ceiling of Z^4 / 2^(3C) is at least
    zeta(sigma)^4 2^C, and each head term is floored, so the head is at most
    its true value.  One upward pass adds the head terms and stops at the
    first N whose difference times 2^-C, rounded up to prec bits, is below
    `target`; so the bound is never below the tail, and the rounded bounds
    fall with N, which makes the first N that passes the least.

    For sigma >= 5/2 the bound at N is above the tail by at most N + 32
    units of 2^-C (N floors, and Z at most 3.2 units high) and one unit in
    the last place.  The tail is at least (N + 1)^(-sigma), at least
    2^(prec + 40) of those units, so the bound is within
    (N + 32) 2^-(prec + 40) of the tail, relatively.
    """
    C = prec + 40 + math.ceil(two_sigma * math.log2(n_max + 1) / 2)
    t = -(-_zeta_scaled_up(two_sigma, C) ** 4 >> 3 * C)  # ceil(Z^4 / 2^(3C)), less the head
    _, man, exp, _ = target
    # the exact bound t 2^-C is below target exactly when the integer t is
    # below `limit`; only then can the rounded one be
    limit = man << (exp + C) if exp + C >= 0 else -(-man >> -(exp + C))
    d4 = d4_upto(n_max)
    if two_sigma % 2 == 0:
        sigma = two_sigma // 2
        terms = ((d4[n] << C) // n ** sigma for n in range(1, n_max + 1))
    else:
        terms = (_scaled_quotient(d4[n], n, two_sigma, C, False) for n in range(1, n_max + 1))
    for N, term in enumerate(terms, 1):
        t -= term
        if t < limit and libmp.mpf_lt(tail := libmp.from_man_exp(t, -C, prec, "c"), target):
            return N, tail, True
    return n_max, libmp.from_man_exp(t, -C, prec, "c"), False


def _least_n(bound, target, n_max: int, step: int, above: int = 0, hint: int = 0):
    """(N, bound(N)) for the least N > `above` with bound(N) < target, N on
    the grid of the multiples of `step` and n_max; past 2^40, (2^40, bound).
    `bound` must fail up to some N and pass from there on, as a tail bound
    that is +inf below its guards and does not grow past them: the search
    doubles over the multiples of `step`, bisects, and tries n_max between
    the last multiple that fails and the first that passes.  A grid point
    `hint` > `above` is tried first: it is the answer when the bound passes
    there and fails at the grid point below it, if that is above `above`.
    Otherwise a hint that fails starts the doubling, and a grid point below
    it that passes ends the bisection."""
    hi = 0
    if hint:
        below = max(step * ((hint - 1) // step), n_max if n_max < hint else 0)
        if not (b := bound(hint)) < target:
            above = hint
        elif below <= above or not (m := bound(below)) < target:
            return hint, b
        else:  # a below of n_max off the multiples of `step` is returned last
            hi, b = -(-below // step), m
    top = (1 << 40) // step  # the one cap of every truncated sum
    lo = above // step  # grid indices; step * lo is not an answer
    if not hi:
        hi = min(lo + 1, top)
        while not (b := bound(step * hi)) < target:
            if hi == top:
                return step * hi, b
            lo, hi = hi, min(2 * hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (m := bound(step * mid)) < target:
            hi, b = mid, m
        else:
            lo = mid
    if max(above, step * lo) < n_max < step * hi and (m := bound(n_max)) < target:
        return n_max, m
    return step * hi, b


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

#: the live kernel ladders by (k, digits); an entry goes with its last engine
_ladders: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class LEngine:
    """Evaluator for one Rankin-Selberg series at working precision P digits.

    Tolerances quoted by callers are relative to the returned magnitudes;
    the engine itself targets absolute truncation error below
    10^-(P + 8) times the kernel mass scale of each sum.
    """

    def __init__(self, rs: RankinSeries, P: int):
        if P < 1:
            raise ExactError(f"precision P = {P}: at least 1 digit is needed")
        self.rs = rs
        self.P = P
        self.dps = P + GUARD_DIGITS + LADDER_GUARD
        self.k, self.k2 = rs.k, rs.k2
        self.w = self.k + self.k2 - 2
        self.prec = libmp.dps_to_prec(self.dps)  # the ladder's precision too
        ladder = _ladders.get((self.k, self.dps))
        if ladder is None:
            ladder = _ladders[self.k, self.dps] = KernelLadder(self.k, self.dps)
        self.ladder = ladder
        self._sums: dict = {}  # s -> (A(s), its bound)
        self._eps: AlgNum | None = None  # the root number, once solved
        self.scale = _raw(*_rational(1, rs.M, self.prec))  # the grid x_n = n / M, raw

    # -- rigorous tail bound for the smoothed sums ---------------------------
    def _afe_tail_bound(self, s: int, N: int):
        """Bound on sum_{n>N} d4(n) n^(w/2 - s) G_s((q sqrt(n)/4pi)^2),
        q = 4 pi sqrt(scale), with mu = 2s - k: 1 + w/2 - s = (k2 - mu)/2.

        Uses |b_n| <= d4(n) n^(w/2) <= 8 n^(1 + w/2), the log-convexity bound
        K_nu(a) <= K_nu(a0) e^(a0 - a), and an incomplete-gamma estimate.
        It is +inf below the two guards and does not grow with N past them, so
        `_least_n` finds the least N that passes; correctness needs only that
        the N a sum stops at passes, which the search guarantees.

        Every step is the raw libmp call an mpf operator makes at the
        engine's prec and rounding to nearest, in the operators' order (the
        mpf-operator form is `afe_tail_bound_mpf` in `tests/oracles.py`), so
        the bound has their bits; only the result is made an mpf.
        """
        k2, mu, prec = self.k2, 2 * s - self.k, self.prec

        def mul(*xs):  # left to right, each product rounded at prec
            out = xs[0]
            for x in xs[1:]:
                out = mpf_mul(out, x, prec, "n")
            return out

        def sqrt_int(n: int):
            return mpf_sqrt(from_int(n), prec, "n")

        four_pi = self.ladder.four_pi  # at the ladder's precision, which is prec
        q = mul(four_pi, mpf_sqrt(self.scale, prec, "n"))
        aN = mul(q, sqrt_int(N + 1))
        if mpf_lt(aN, from_int(2 * mu + 8)) or mpf_lt(mul(q, sqrt_int(N)), from_int(k2 + 8)):
            return mp.inf
        xN = mpf_pow_int(mpf_div(aN, four_pi, prec, "n"), 2, prec, "n")
        # only a constant of the bound: the floor precision, inflated by its error
        a0, k0, _ = self.ladder.bessel_at(xN, KERNEL_FLOOR_DIGITS)
        inflate = mpf_add(mpf_pow_int(from_int(10), -KERNEL_FLOOR_DIGITS, prec, "n"), fone,
                          prec, "n")
        CK = mul(k0, inflate, mpf_exp(a0, prec, "n"))
        decay = mpf_exp(mpf_neg(aN, prec, "n"), prec, "n")
        pref = mpf_shift(self.ladder.prefactor(s), 4)  # 8 pref 2, exact
        growth = mpf_pow(from_int(N + 1), from_man_exp(k2 - mu, -1), prec, "n")
        term = mul(growth, pref, CK, mpf_pow_int(aN, mu, prec, "n"), decay)
        integral = mpf_div(
            mul(mpf_rdiv_int(2, mpf_pow_int(q, k2 + 2, prec, "n"), prec, "n"),
                mpf_pow_int(aN, k2 + 1, prec, "n"), decay),
            mpf_sub(fone, mpf_rdiv_int(k2 + 1, aN, prec, "n"), prec, "n"), prec, "n")
        integral = mul(integral, mul(pref, CK, mpf_pow_int(q, mu, prec, "n")))
        return mp.make_mpf(mpf_add(term, integral, prec, "n"))

    def _smoothed_sum(self, s: int):
        """A(s) = sum_{n<=N} c_n n^(-s) G_s(n * scale), N from `_cutoff`
        before any term is summed; an N above n_max raises
        InsufficientCoefficients with the larger of the N of A(s) and A(s^).

        Returns (sum, bound): the bound covers the truncated tail and the
        rounding budget of the terms, each evaluated at the digits it needs
        (see the module docstring).  G_s falls as x grows, so the mass bounds
        the first G and each G computed bounds the next.  Those digits
        follow mag(|c_n| g_bound), which `_term_mag` takes from integers
        over an imaginary quadratic field, falling back to mpf_hypot only
        where V^2 lies within 2^-(prec - 8) of a power of two: the libmp
        path is within 9 2^-prec of V^2, so elsewhere both have one
        magnitude.
        """
        rs = self.rs
        d0, n_max = rs.field.d0, rs.n_max
        prec = self.prec
        with mp.workdps(self.dps):
            root = mpmath.sqrt(abs(d0))
            mass, target, N, tail = self._cutoff(s)
            if N > n_max:
                est = max(N, self._cutoff(self.k + self.k2 - 1 - s)[2])
                raise InsufficientCoefficients(
                    est, f"AFE at s={s} needs roughly n_max >= {est}, have {n_max}")
            # term n gets need = base + log10(|c_n| n^-s g_bound) digits, which
            # keeps its error below target / (2 n_max 10^TERM_GUARD)
            base = (self.P + 8 + TERM_GUARD + math.log10(2 * n_max)
                    - float(mpmath.log10(mass)))
            # integer (mantissa, exponent) pairs from here on, each rounded
            # to nearest at prec by `_round` as the libmp operation it stands
            # for: the coordinates, n * scale, G and the term products.  Raw
            # values are made only for libmp: the grid point, which keys the
            # ladder, and the terms, which `mpf_sum` adds
            (sm, se), r = _pair(self.scale), root._mpf_
            gm, ge = _pair(mass._mpf_)  # g_bound: the mass, then the last G
            excess = 0.0  # digits a term needed above the working precision
            sx, sy = [], []  # the nonzero terms of each coordinate
            for n in range(1, N + 1):
                X, Y = rs.x[n], rs.y[n]
                if X or Y:
                    x = _raw(*_round(sm * n, se, prec))  # n * scale
                    den = rs.D * n ** s
                    cx, cy = _rational(X, den, prec), _rational(Y, den, prec)
                    need = base + math.log10(2) * _term_mag(cx, cy, r, d0, gm, ge, prec)
                    band = KERNEL_DIGIT_BAND * math.ceil(need / KERNEL_DIGIT_BAND)
                    digits = min(max(band, KERNEL_FLOOR_DIGITS), self.dps)
                    excess = max(excess, need - digits)
                    gm, ge = self.ladder.G(s, x, digits)
                    (xm, xe), (ym, ye) = cx, cy
                    if X:
                        sx.append(_raw(*_round(xm * gm, xe + ge, prec)))
                    if Y:
                        sy.append(_raw(*_round(ym * gm, ye + ge, prec)))
            Sx = mp.make_mpf(mpf_sum(sx, prec, "n"))
            Sy = root * mp.make_mpf(mpf_sum(sy, prec, "n"))
            A = mpmath.mpc(Sx, Sy) if d0 < 0 else mpmath.mpc(Sx + Sy)
            return A, tail + target * mp.mpf(10) ** excess

    def _cutoff(self, s: int):
        """(mass, target, N, tail) of A(s): its kernel mass, which bounds the
        first G_s, its truncation target, and where it stops (`_least_n`).

        None of it reads a coefficient: it depends on the ladder's k and
        precision and on (k2, scale, n_max, s), so it is planned once on the
        ladder, for every engine that shares it.  A new search first tries
        the N planned for the nearest s of the same (k2, scale, n_max), where
        the cutoffs of neighbouring s are often equal."""
        plan = self.ladder.cutoffs.setdefault((self.k2, self.scale, self.rs.n_max), {})
        if s not in plan:
            mass = abs(archimedean_factor(s, self.k, self.dps))
            target = mass * mp.mpf(10) ** (-(self.P + 8))
            hint = plan[min(plan, key=lambda t: abs(t - s))][2] if plan else 0
            plan[s] = mass, target, *_least_n(functools.partial(self._afe_tail_bound, s),
                                              target, self.rs.n_max, TAIL_CHECK_EVERY,
                                              hint=hint)
        return plan[s]

    # -- the two-sided AFE ---------------------------------------------------
    def _alpha_pow(self, s: int):
        # Q^((k + k2 - 1)/2 - s) = M^(k + k2 - 1 - 2s)
        return mp.mpf(self.rs.M) ** (self.k + self.k2 - 1 - 2 * s)

    def solve_root_number(self) -> AlgNum:
        """The exact root number of the series (`rankin.root_number`),
        computed once per engine."""
        if self._eps is None:
            self._eps = root_number(self.rs)
        return self._eps

    def is_self_dual(self) -> bool:
        """Every coefficient is real, so Lambda-tilde = Lambda: the field is
        real, or no coefficient has a sqrt(d0) part."""
        return self.rs.field.d0 > 0 or not any(self.rs.y)

    def certified_zero(self, s: int) -> bool:
        """True when Lambda(s) = 0 exactly: the self-dual functional equation
        with root number -1 forces the value at the centre 2s = k + k2 - 1 to
        vanish."""
        if 2 * s != self.k + self.k2 - 1 or not self.is_self_dual():
            return False
        return self.solve_root_number() == -1

    def lambda_afe(self, s: int):
        """(Lambda(s), bound) with Lambda(s) = A(s) + eps Q^alpha(s) conj(A(s^)),
        s^ = k + k2 - 1 - s: the dual series has the complex-conjugate
        coefficients.  The bound is tail(s) + |Q^alpha(s)| tail(s^)."""
        eps = self.solve_root_number()
        shat = self.k + self.k2 - 1 - s
        if not self.k <= s <= self.k2 - 1:
            raise ExactError(f"AFE window is {self.k} <= s <= {self.k2 - 1}")
        with mp.workdps(self.dps):
            for t in (s, shat):
                if t not in self._sums:
                    self._sums[t] = self._smoothed_sum(t)
            (A, tail_a), (B, tail_b) = self._sums[s], self._sums[shat]
            alpha = self._alpha_pow(s)
            return A + eps.embed(self.dps) * alpha * B.conjugate(), tail_a + abs(alpha) * tail_b

    # -- direct summation -----------------------------------------------------
    def _tail_beyond(self, s, N: int):
        """8 N^(2 - sigma) / (sigma - 2), sigma = s - w/2: a cruder bound of
        the direct tail, from d4(n) <= 8n and an integral comparison; it only
        estimates the n_max a direct sum needs."""
        two_sigma = 2 * s - self.w
        return 16 * mp.mpf(N) ** (mp.mpf(4 - two_sigma) / 2) / (two_sigma - 4)

    def _direct_sum(self, s, certify: bool = False):
        """(finite part, certified absolute tail) by direct summation up to
        the cut N of `_direct_cut` at sigma = s - w/2, n_max, self.prec and
        the raw 10^-P: the least N whose tail bound is below 10^-P, or n_max
        when none is.  The cut reads no coefficient and is shared by every
        engine; no coefficient past N is read.  With `certify`, a tail that
        no N <= n_max certifies raises InsufficientCoefficients before any
        term is summed, with the least n_max above the one given at which
        `_tail_beyond` passes.

        With b_n = (x_n + y_n sqrt(d0)) / D as the series keeps it, each
        coordinate is one exact integer sum at scale 2^B, B = self.prec + 20 +
        bitlen(n_max), of the floors of x_n 2^B / (D n^s) for n <= N, a
        coordinate divided only where it is nonzero.  Each sum is converted
        to an mpf once, and the sqrt(d0) one multiplied by sqrt(d0), imaginary
        for d0 < 0.  The floors lose under N 2^-B (1 + ceil|sqrt(d0)|), and
        the conversions, the root and the two operations after them at most
        2^(3 - self.prec) of the two sums' magnitudes; both are added to the
        tail, rounding up.
        """
        if 2 * s <= self.k + self.k2 + 2:  # `_tail_beyond` needs s - w/2 - 2 > 0
            raise ExactError(
                f"certified direct summation needs s > {(self.k + self.k2) / 2 + 1}")
        rs = self.rs
        with mp.workdps(self.dps):
            target = mp.mpf(10) ** (-self.P)
            N, tail, certified = _direct_cut(2 * s - self.w, rs.n_max, self.prec, target._mpf_)
            if certify and not certified:
                need = _least_n(functools.partial(self._tail_beyond, s), target, rs.n_max, 1,
                                above=rs.n_max)[0]
                raise InsufficientCoefficients(
                    need, f"direct sum at s={s}, P={self.P} needs n_max ~ {need}; "
                    f"certified tail with n_max={rs.n_max} is "
                    f"{mpmath.nstr(mp.make_mpf(tail), 3)}")
            B = self.prec + 20 + rs.n_max.bit_length()
            D, X, Y = rs.D, rs.x, rs.y
            sx = sy = 0
            for n in range(1, N + 1):
                x, y = X[n], Y[n]
                if x or y:
                    den = D * n ** s
                    if x:
                        sx += (x << B) // den
                    if y:
                        sy += (y << B) // den
            d0 = rs.field.d0
            root = math.isqrt(abs(d0) - 1) + 1  # |sqrt(d0)| rounded up
            val = mpmath.mpc(mpmath.ldexp(sx, -B))
            if sy:
                val += mpmath.ldexp(sy, -B) * mpmath.sqrt(d0)
            units = N * (1 + root) + ((abs(sx) + root * abs(sy)) >> (self.prec - 3)) + 1
            charge = libmp.from_man_exp(units, -B, self.prec, "c")
            return val, mp.make_mpf(libmp.mpf_add(tail, charge, self.prec, "c"))

    def direct_lambda(self, s):
        """(Lambda(s), bound) by direct summation, the tail of the finite part
        certified below 10^-P."""
        with mp.workdps(self.dps):
            fin, tail = self._direct_sum(s, certify=True)
            linf = archimedean_factor(s, self.k, self.dps)
            return fin * linf, tail * abs(linf)

    # -- public entry ----------------------------------------------------------
    def L_at(self, s: int) -> LValueResult:
        """Completed Lambda(s) at an integer s: the AFE in the critical window
        k <= s <= k2 - 1, the direct sum outside it.  A window point whose
        AFE the coefficients cannot certify takes the direct sum if that
        certifies, and raises the AFE's error if not."""
        if self.k <= s <= self.k2 - 1:
            try:
                val, err = self.lambda_afe(s)
                return LValueResult(s=s, value=val, err_bound=err, method="afe")
            except InsufficientCoefficients as short:
                try:
                    val, err = self.direct_lambda(s)
                except ExactError:
                    raise short from None
        else:
            val, err = self.direct_lambda(s)
        return LValueResult(s=s, value=val, err_bound=err, method="direct")


# ---------------------------------------------------------------------------
# module-level wrappers
# ---------------------------------------------------------------------------

def get_engine(rs: RankinSeries, P: int) -> LEngine:
    """The engine of `rs` at precision P, kept by the series itself."""
    eng = rs.engines.get(P)
    if eng is None:
        eng = rs.engines[P] = LEngine(rs, P)
    return eng


def L_at(rs: RankinSeries, s: int, P: int) -> LValueResult:
    return get_engine(rs, P).L_at(s)
