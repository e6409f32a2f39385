"""Independent checks the tests compare the library against.

Nothing in `rscong` calls these: they restate a result of the paper in a
second way (the root number solved numerically from the approximate
functional equation, the Rankin-Selberg coefficients convolved one AlgNum at
a time, the direct sum embedded and summed in mpmath, the Bessel K series
and asymptotic expansion in mpf arithmetic, the smoothed sum, its kernel
ladder and its tail bound in mpf operators, the cutoff of a smoothed sum by
a linear scan, the archimedean factor through complex Gamma, the Euler
product of the Rankin-Selberg series, the eta product by the pentagonal
number theorem, the printed Kostant and w6 identities, the support claims
behind the closed-form local constant, the local constant as a product of
two geometric factors, the successive ratios of level-1 pairs in closed form
from the unfolding) so the pipeline's version can be checked against them.
A level-1 eigenform with real quadratic coefficients is built here too.
Shared by several test modules; pytest does not collect this file.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from rscong import lvalue
from rscong.coset import PadicMat, _diag, reduce_unipotent, unipotent, xi
from rscong.exactnum import AlgNum, ExactError, QuadField, vp, workdps
from rscong.forms import (DirichletChar, NewformData, bernoulli, delta_family_qexp,
                          trivial_char)
from rscong.localint import (EVAL_TWIST_HALF, ConvergenceViolation, HalfPower,
                             SteinbergTwist, UnramifiedPS)
from rscong.lvalue import LEngine
from rscong.rankin import RankinSeries, archimedean_factor, rs_coefficients


# ---------------------------------------------------------------------------
# closed-form successive ratios (Rankin-Selberg unfolding)
# ---------------------------------------------------------------------------

def zeta_star(n: int) -> Fraction:
    """zeta(n) / pi^n for even n >= 2: (-1)^(n/2+1) B_n 2^n / (2 n!)."""
    return (-1) ** (n // 2 + 1) * bernoulli(n) * 2 ** n / (2 * math.factorial(n))


def delta_family_ratio(k: int, k1: int, m: int) -> Fraction:
    """Lambda(m)/Lambda(m+1) for f x g, f of level 1 and weight k with
    dim S_k = 1, g of level 1 and weight k1 < k, where 2m + 2 - k - k1 >= 4.

    The bracket [g, E_{k2}]_nu of weight k = k1 + k2 + 2 nu is a multiple of
    f, and unfolding its Petersson product with f makes the plain Dirichlet
    series agree at m and m + 1 (Zagier, LNM 627, 1977, Prop. 6); with the
    zeta factor and the archimedean factor that is

        4 zeta*(2m+2-k-k1) / (zeta*(2m+4-k-k1) m (m+1-k1)).
    """
    n = 2 * m + 2 - k - k1
    if n < 4:
        raise ValueError(f"the closed form needs 2m + 2 - k - k1 >= 4, got {n}")
    return 4 * zeta_star(n) / (zeta_star(n + 2) * m * (m + 1 - k1))


# ---------------------------------------------------------------------------
# conjugate forms
# ---------------------------------------------------------------------------

def complex_conj(c: AlgNum) -> AlgNum:
    """The complex conjugate under `AlgNum.embed`: the Galois conjugate in an
    imaginary quadratic field, and c itself in Q or a real quadratic field."""
    return c.conj() if c.field.d0 < 0 else c


def char_inverse(chi: DirichletChar) -> DirichletChar:
    """The inverse character: its values are roots of unity, so conjugates."""
    vals = tuple(complex_conj(v) if v else v for v in chi.values)
    return DirichletChar(chi.modulus, vals)


def conjugate_form(h: NewformData) -> NewformData:
    """h^rho: complex-conjugate coefficients, nebentypus replaced by its
    inverse.  Conjugation negates the sqrt(d0) coordinates when d0 < 0."""
    y = tuple(-v for v in h.y) if h.field.d0 < 0 else h.y
    return replace(h, y=y, char=char_inverse(h.char),
                   label=h.label + "-rho" if h.label else "")


def conjugate_pair(rs: RankinSeries) -> RankinSeries:
    """The Rankin-Selberg series of the conjugate pair, the dual side of the
    functional equation."""
    return rs_coefficients(conjugate_form(rs.h), conjugate_form(rs.h2), rs.n_max)


# ---------------------------------------------------------------------------
# Bessel K in mpf arithmetic
# ---------------------------------------------------------------------------

def besselk01_series(x):
    """(K_0(x), K_1(x)) by the ascending series, in mpf arithmetic at the
    working precision.

    The series has cancellation of order e^(2x); callers must already have
    raised mp.dps accordingly.  With z = x^2/4 and H_j the harmonic numbers:

        K_0 = -(log(x/2) + gamma) I_0(x) + sum_{j>=1} H_j z^j / (j!)^2
        K_1 = 1/x + log(x/2) I_1(x)
              - (x/4) sum_{j>=0} (H_j + H_{j+1} - 2 gamma) z^j / (j! (j+1)!)
    """
    half = x / 2
    lh = mpmath.log(half)
    z = half * half
    tol = mpmath.eps * 4
    term = mp.mpf(1)
    i0 = mp.mpf(1)
    s0 = mp.mpf(0)
    h = mp.mpf(0)
    j = 0
    while True:
        j += 1
        term = term * z / (j * j)
        h += mp.mpf(1) / j
        i0 += term
        s0 += term * h
        if term < tol * i0 and j > 4:
            break
    k0 = -(lh + mpmath.euler) * i0 + s0
    term = mp.mpf(1)  # z^j / (j! (j+1)!), starting at j = 0
    i1s = term
    comp = term * (0 + 1 - 2 * mpmath.euler)  # H_0 + H_1 - 2 gamma
    hj, hj1 = mp.mpf(0), mp.mpf(1)
    j = 0
    while True:
        j += 1
        term = term * z / (j * (j + 1))
        hj += mp.mpf(1) / j
        hj1 += mp.mpf(1) / (j + 1)
        i1s += term
        comp += term * (hj + hj1 - 2 * mpmath.euler)
        if term < tol * i1s and j > 4:
            break
    i1 = half * i1s
    k1 = 1 / x + lh * i1 - half / 2 * comp
    return k0, k1


def besselk_asymptotic(nu: int, x, digits: int):
    """K_nu(x) from its asymptotic expansion in 1/x, in mpf arithmetic at
    the working precision, or None when the expansion cannot reach `digits`.

    The terms may grow while 2j - 1 < 2 nu; past that they fall until they
    turn and grow for good, so only a rise there ends the expansion.  Once
    j >= nu - 1/2 terms are summed, the remainder is smaller than the first
    term omitted (DLMF 10.40(ii), real nu and x > 0), and the sum is accepted
    when that term is below 10^-digits of it.
    """
    mu4 = 4 * nu * nu
    eps = mp.mpf(10) ** (-digits)
    term = acc = mp.mpf(1)
    j = 0
    while True:
        j += 1
        nxt = term * (mu4 - (2 * j - 1) ** 2) / (8 * x * j)
        if 2 * j >= 2 * nu - 1 and abs(nxt) < eps * abs(acc):
            return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x) * acc
        if 2 * j - 1 > 2 * nu and abs(nxt) >= abs(term):
            return None  # divergence point reached
        acc += nxt
        term = nxt


# ---------------------------------------------------------------------------
# the smoothed sum and its kernel in mpf operators
# ---------------------------------------------------------------------------

def besselk_pair_mpf(nu: int, x, digits: int):
    """`lvalue.besselk_pair` on an mpf x, with the scaling of its asymptotic
    branch, sqrt(pi/2x) e^(-x), in mpf operators at digits + 12 digits.  The
    fixed-point sums are the library's; the series branch, whose one
    operation outside the integer sums is log(x/2), is the library's as a
    whole, its raw pair made mpf values."""
    x = mp.mpf(x)
    with mp.workdps(digits + 12):
        p = mp.prec + lvalue.ASYMPTOTIC_GUARD_BITS
        X = libmp.to_fixed(x._mpf_, p)
        a = lvalue._asymptotic_sum(nu, X, p, digits)
        b = None if a is None else lvalue._asymptotic_sum(nu + 1, X, p, digits)
        if b is not None:
            fac = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x)
            return (fac * mp.make_mpf(libmp.from_man_exp(a, -p)),
                    fac * mp.make_mpf(libmp.from_man_exp(b, -p)))
    return tuple(map(mp.make_mpf, lvalue.besselk_pair(nu, x._mpf_, digits)))


class KernelLadderMpf:
    """`lvalue.KernelLadder` in mpf operators: every rung, power and
    product a new mpf at a precision set by `mp.workdps`.  `bessel_at` and
    `prefactor`, which `LEngine._afe_tail_bound` reads, take and return raw
    values as the library's do."""

    def __init__(self, k: int, digits: int):
        self.k = k
        self.nu = k - 1
        self.digits = digits
        self._cache: dict = {}
        self._pref: dict = {}

    def _entry(self, x_val, digits: int):
        key = (mpmath.mpf(x_val)._mpf_, digits)
        ent = self._cache.get(key)
        if ent is None:
            with mp.workdps(self.digits):
                a = 4 * mpmath.pi * mpmath.sqrt(x_val)
                k0, k1 = besselk_pair_mpf(self.nu, a, digits)
            with mp.workdps(digits + lvalue.ENTRY_GUARD):
                power = a ** (self.nu + 1)
                J = {self.nu + 1: power * k1}
                ent = {"a": a, "k0": k0, "k1": k1, "J": J, "power": power * a}
            self._cache[key] = ent
        return ent

    def bessel_at(self, x, digits: int):
        ent = self._entry(mp.make_mpf(x), digits)
        return ent["a"]._mpf_, ent["k0"]._mpf_, ent["k1"]._mpf_

    def J(self, mu: int, x_val, digits: int):
        nu = self.nu
        ent = self._entry(x_val, digits)
        J = ent["J"]
        top = max(J)
        a, k0, k1 = ent["a"], ent["k0"], ent["k1"]
        with mp.workdps(digits + lvalue.ENTRY_GUARD):
            while top < mu:
                power = ent["power"]
                higher = power * a
                J[top + 2] = (((top + 1) ** 2 - nu * nu) * J[top]
                              + (top + 1 - nu) * power * k0
                              + higher * k1)
                ent["power"] = higher * a
                top += 2
        return J[mu]

    def prefactor(self, s: int):
        pref = self._pref.get(s)
        if pref is None:
            with mp.workdps(self.digits):
                pref = self._pref[s] = ((2 * mpmath.pi) ** (-2 * s)
                                        * mp.mpf(2) ** (self.k + 1 - 2 * s))._mpf_
        return pref

    def G(self, s: int, x_val, digits: int):
        return mp.make_mpf(self.prefactor(s)) * self.J(2 * s - self.k, x_val, digits)


def with_mpf_ladder(eng: LEngine) -> LEngine:
    """A copy of `eng` whose kernel is a fresh `KernelLadderMpf`, for
    `smoothed_sum_mpf`; its tail bounds read that ladder too."""
    ref = copy.copy(eng)
    ref.ladder = KernelLadderMpf(eng.k, eng.dps)
    return ref


def afe_tail_bound_mpf(eng: LEngine, s: int, N: int):
    """`LEngine._afe_tail_bound` in mpf operators at the working precision,
    which its callers set to the engine's dps; the kernel constants are read
    from the engine's ladder, raw, as the library's bound reads them."""
    k2, mu = eng.k2, 2 * s - eng.k
    q = 4 * mpmath.pi * mpmath.sqrt(mp.make_mpf(eng.scale))
    aN = q * mpmath.sqrt(N + 1)
    if aN < 2 * mu + 8 or q * mpmath.sqrt(N) < k2 + 8:
        return mp.inf
    xN = (aN / (4 * mpmath.pi)) ** 2
    a0, k0, _ = eng.ladder.bessel_at(xN._mpf_, lvalue.KERNEL_FLOOR_DIGITS)
    a0, k0, pref = map(mp.make_mpf, (a0, k0, eng.ladder.prefactor(s)))
    CK = k0 * (1 + mp.mpf(10) ** -lvalue.KERNEL_FLOOR_DIGITS) * mpmath.exp(a0)
    decay = mpmath.exp(-aN)
    term = 8 * mp.mpf(N + 1) ** (mp.mpf(k2 - mu) / 2) * pref * 2 * CK * aN ** mu * decay
    integral = (2 / q ** (k2 + 2)) * aN ** (k2 + 1) * decay / (1 - (k2 + 1) / aN)
    integral *= 8 * pref * 2 * CK * q ** mu
    return term + integral


def smoothed_sum_mpf(eng: LEngine, s: int):
    """`LEngine._smoothed_sum` in mpf operators: (A(s), bound) on the grid
    and kernel of `eng`, each term's coordinates, digits and products new
    mpf values at dps, summed with `mpmath.fsum`, the tail bounded by
    `afe_tail_bound_mpf`."""
    rs = eng.rs
    d0 = rs.field.d0
    scale = mp.make_mpf(eng.scale)
    with mp.workdps(eng.dps):
        root = mpmath.sqrt(abs(d0))
        mass = abs(archimedean_factor(s, eng.k, eng.dps))
        target = mass * mp.mpf(10) ** (-(eng.P + 8))
        base = (eng.P + 8 + lvalue.TERM_GUARD + math.log10(2 * rs.n_max)
                - float(mpmath.log10(mass)))
        g_bound = mass
        excess = 0.0
        sx, sy = [], []
        n = 0
        while True:
            n += 1
            if n > rs.n_max:
                raise lvalue.InsufficientCoefficients(0)
            X, Y = rs.x[n], rs.y[n]
            if X or Y:
                x = mp.mpf(n) * scale
                den = rs.D * n ** s
                cx = mp.make_mpf(libmp.from_rational(X, den, mp.prec, "n"))
                cy = mp.make_mpf(libmp.from_rational(Y, den, mp.prec, "n"))
                c = mpmath.hypot(cx, root * cy) if d0 < 0 else abs(cx + root * cy)
                need = base + math.log10(2) * mpmath.mag(c * g_bound)
                band = lvalue.KERNEL_DIGIT_BAND * math.ceil(need / lvalue.KERNEL_DIGIT_BAND)
                digits = min(max(band, lvalue.KERNEL_FLOOR_DIGITS), eng.dps)
                excess = max(excess, need - digits)
                g = eng.ladder.G(s, x, digits)
                sx.append(cx * g)
                sy.append(cy * g)
                g_bound = g
            if n % 64 == 0 or n == rs.n_max:
                tail = afe_tail_bound_mpf(eng, s, n)
                if tail < target:
                    Sx, Sy = mpmath.fsum(sx), root * mpmath.fsum(sy)
                    A = mpmath.mpc(Sx, Sy) if d0 < 0 else mpmath.mpc(Sx + Sy)
                    return A, tail + target * mp.mpf(10) ** excess


def cutoff_scan(eng: LEngine, s: int):
    """(N, tail): where A(s) stops, by a linear scan of the grid of
    `lvalue._least_n`, every multiple of 64 and n_max in turn, up to the
    first N at which `afe_tail_bound_mpf` is below the target of the sum."""
    n_max = eng.rs.n_max
    with mp.workdps(eng.dps):
        target = abs(archimedean_factor(s, eng.k, eng.dps)) * mp.mpf(10) ** (-(eng.P + 8))
        N = 0
        while True:
            after = N - N % 64 + 64
            N = n_max if N < n_max < after else after
            tail = afe_tail_bound_mpf(eng, s, N)
            if tail < target:
                return N, tail


def archimedean_factor_mpc(s, k: int, P: int):
    """(2 pi)^(-2s) Gamma(s) Gamma(s + 1 - k) through complex Gamma at
    working precision P, s away from the poles."""
    with workdps(P):
        s = mpmath.mpc(s)
        return (2 * mpmath.pi) ** (-2 * s) * mpmath.gamma(s) * mpmath.gamma(s + 1 - k)


# ---------------------------------------------------------------------------
# the root number solved from the AFE at two smoothing scales
# ---------------------------------------------------------------------------

def smoothed_sum_at(eng: LEngine, s: int, scale):
    """sum_n c_n n^(-s) G_s(n * scale) on a grid other than the engine's
    n / M: the engine's own sum, run on a copy with its `scale` replaced."""
    other = copy.copy(eng)
    other.scale = scale._mpf_
    return other._smoothed_sum(s)[0]


def probe_root_number(eng: LEngine):
    """(eps, residual): the root number solved numerically from the AFE.

    Lambda(s) does not depend on the smoothing scale delta: with
    s^ = k + k2 - 1 - s it is A(s) + eps Q^alpha(s) conj(B(s^)), A summed on
    the grid n/delta and B on n delta/Q, Q = M^2.  So at a probe s the sums
    at delta = M (the engine's) and at a second delta give eps; the two
    probes (s = k2 - 1 against 27/20 M, and the next s down, not left of the
    centre, against 16/21 M) disagree by `residual`.
    """
    with mp.workdps(eng.dps):
        M = mp.mpf(eng.rs.M)
        Q = M ** 2
        s_lo = max(eng.k, (eng.k + eng.k2 - 1) // 2 + 1)
        probes = [(eng.k2 - 1, M * mp.mpf(27) / 20),
                  (max(eng.k2 - 2, s_lo), M * mp.mpf(16) / 21)]
        solved = []
        for s0, delta in probes:
            shat = eng.k + eng.k2 - 1 - s0
            A0, B0 = eng._smoothed_sum(s0)[0], eng._smoothed_sum(shat)[0].conjugate()
            A1 = smoothed_sum_at(eng, s0, 1 / delta)
            B1 = smoothed_sum_at(eng, shat, delta / Q).conjugate()
            solved.append(-(A0 - A1) / (B0 - B1) / eng._alpha_pow(s0))
        return solved[0], abs(solved[0] - solved[1])


# ---------------------------------------------------------------------------
# the coefficient path one AlgNum at a time, and the direct sum in mpmath
# ---------------------------------------------------------------------------

def rs_coefficients_algnum(h: NewformData, h2: NewformData, n_max: int) -> tuple:
    """b_0..b_n_max of `rs_coefficients(h, h2, n_max)` by AlgNum arithmetic,
    one element at a time: b_n = sum_{m^2 d = n, gcd(m, M) = 1}
    (chi*chi2)(m) m^(k+k2-2) a_d(h) a_d(h2), an entry no term reaches being
    the rational 0."""
    if h.weight > h2.weight:
        h, h2 = h2, h
    M = math.lcm(h.level, h2.level)
    chi_prod = h.char.times(h2.char, M)
    w = h.weight + h2.weight - 2
    zero = AlgNum.rational(0)
    b = [zero] * (n_max + 1)
    raw = [zero] + [h.a(n) * h2.a(n) for n in range(1, n_max + 1)]
    for m in range(1, math.isqrt(n_max) + 1):
        if M > 1 and math.gcd(m, M) != 1:
            continue
        cm = chi_prod(m) * (Fraction(m) ** w) if m > 1 else AlgNum.rational(1)
        if not cm:
            continue
        m2 = m * m
        for d in range(1, n_max // m2 + 1):
            if raw[d]:
                b[m2 * d] = b[m2 * d] + cm * raw[d]
    return tuple(b)


def coefficients(rs: RankinSeries) -> tuple:
    """b_0..b_n_max of `rs` as elements of its field, from the integer
    coordinates the series keeps: b_n = (x_n + y_n sqrt(d0)) / D."""
    F = rs.field
    return tuple(AlgNum(F, Fraction(x, rs.D), Fraction(y, rs.D)) for x, y in zip(rs.x, rs.y))


def direct_sum_reference(eng: LEngine, s: int, N: int | None = None):
    """sum_{n<=N} b_n n^(-s) over the engine's coefficients, N = n_max by
    default, each b_n embedded and multiplied by n^(-s) as an mpc, and the
    terms summed by `mpmath.fsum`, all at eng.dps + 40 digits."""
    dps = eng.dps + 40
    b = coefficients(eng.rs)[:None if N is None else N + 1]
    with mp.workdps(dps):
        return mpmath.fsum(c.embed(dps) * mp.mpf(n) ** (-s) for n, c in enumerate(b) if n and c)


def d4(n: int) -> int:
    """d_4(n) from the factorisation n = prod p^a: prod C(a + 3, 3)."""
    out, p = 1, 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out *= math.comb(a + 3, 3)
        p += 1
    return out * (4 if n > 1 else 1)


def direct_tail_reference(eng: LEngine, s: int, N: int):
    """The true direct tail sum_{n>N} d4(n) n^(-sigma), sigma = s - w/2, as
    zeta(sigma)^4 less the first N terms, at eng.dps + 40 + sigma log10(N + 1)
    digits, which the cancellation of the head needs."""
    sigma = Fraction(2 * s - eng.w, 2)
    with mp.workdps(eng.dps + 40 + math.ceil(sigma * math.log10(N + 1))):
        sig = mp.mpf(sigma.numerator) / sigma.denominator
        return mpmath.zeta(sig) ** 4 - mpmath.fsum(d4(n) * mp.mpf(n) ** -sig
                                                   for n in range(1, N + 1))


def eta_series(n_max: int) -> list[int]:
    """prod_{n>=1} (1 - q^n) to q^n_max, by the pentagonal number theorem."""
    out = [0] * (n_max + 1)
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n_max and g2 > n_max:
            break
        s = 1 if k % 2 == 0 else -1
        if g1 <= n_max:
            out[g1] += s
        if g2 <= n_max:
            out[g2] += s
        k += 1
    return out


def qmul(f: list[int], g: list[int]) -> list[int]:
    """The product of two q-series with the same last power."""
    out = [0] * len(f)
    for i, a in enumerate(f):
        if a:
            for j in range(len(f) - i):
                out[i + j] += a * g[j]
    return out


def weight24_eigenform(n: int) -> NewformData:
    """A level-1 weight-24 eigenform, whose field is Q(sqrt(144169)).

    g = e1 + t e2 with e1 = Delta E4^3 - a_2(Delta E4^3) Delta^2 and
    e2 = Delta^2 has a_1 = 1 and a_2 = t; a_4 = a_2^2 - 2^23 is the
    quadratic t^2 - a_4(e2) t - (a_4(e1) + 2^23) = 0, of discriminant
    144169 * 24^2."""
    delta = list(delta_family_qexp(12, n).x)
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                for m in range(1, n + 1)]
    e2 = qmul(delta, delta)
    de = qmul(delta, qmul(e4, qmul(e4, e4)))
    e1 = [a - de[2] * b for a, b in zip(de, e2)]
    assert e2[4] ** 2 + 4 * (e1[4] + 2 ** 23) == 144169 * 24 ** 2
    t = AlgNum(QuadField(144169), Fraction(e2[4], 2), 12)
    return NewformData.from_values(1, 24, trivial_char(1), [a + t * b for a, b in zip(e1, e2)],
                                   label="1.24.a.a")


# ---------------------------------------------------------------------------
# Euler product of the Rankin-Selberg series
# ---------------------------------------------------------------------------

class Unsupported(ExactError):
    """Local situation outside the implemented ramification shapes."""


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


# ---------------------------------------------------------------------------
# printed GL4 identities: Kostant representatives, w6, Levi conjugation
# ---------------------------------------------------------------------------

_KOSTANT_PERMS = (
    # images of (row of the 1 in each column) as printed 4x4 permutation mats
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
)


def kostant_reps(p: int = 2) -> list[PadicMat]:
    """The six minimal-length coset representatives for the (2,2) Levi."""
    return [PadicMat.of(m, p) for m in _KOSTANT_PERMS]


def is_kostant(wmat: PadicMat) -> bool:
    """w^{-1} alpha > 0 for the two simple Levi roots e1-e2, e3-e4.

    For a permutation matrix w with w e_j = e_{sigma(j)}, the root e_i - e_j
    pulls back to e_{sigma^{-1}(i)} - e_{sigma^{-1}(j)}, positive iff
    sigma^{-1}(i) < sigma^{-1}(j).
    """
    a = wmat.entries
    sigma_inv = {}
    for j in range(4):
        i = next(i for i in range(4) if a[i][j] == 1)
        sigma_inv[i] = j  # w e_j = e_i  =>  sigma(j) = i
    return sigma_inv[0] < sigma_inv[1] and sigma_inv[2] < sigma_inv[3]


def levi_blocks(g: PadicMat) -> tuple[tuple, tuple]:
    """The two diagonal 2x2 blocks (A, D) of g."""
    a = g.entries
    return ((a[0][0], a[0][1]), (a[1][0], a[1][1])), \
           ((a[2][2], a[2][3]), (a[3][2], a[3][3]))


def _modulus_character(t: PadicMat) -> Fraction:
    """delta_P(t) = |det A|_p^2 / |det D|_p^2 for t = diag(A, D) in the Levi."""
    A, D = levi_blocks(t)
    vA = vp(A[0][0] * A[1][1] - A[0][1] * A[1][0], t.p)
    vD = vp(D[0][0] * D[1][1] - D[0][1] * D[1][0], t.p)
    return Fraction(t.p) ** (2 * (vD - vA))


def _conjugated_box_volume(t: PadicMat, exps: dict) -> Fraction:
    """Haar volume of t B t^-1, for t diagonal and B the box of lower-block
    unipotents whose (i, j) entry lies in p^exps[i, j] Z_p.  Each generator of
    B is conjugated exactly and must stay on its own axis."""
    p = t.p
    tinv = t.inverse()
    vol = Fraction(1)
    for (i, j), e in exps.items():
        rows = [[int(r == c) for c in range(4)] for r in range(4)]
        rows[i][j] = Fraction(p) ** e
        img = t.mul(PadicMat.of(rows, p)).mul(tinv)
        off = [(r, c) for r in range(4) for c in range(4) if r != c and img[r, c] != 0]
        if off != [(i, j)] or any(img[r, r] != 1 for r in range(4)):
            raise ExactError("Levi conjugation moved a generator off its axis")
        vol /= Fraction(p) ** vp(img[i, j], p)
    return vol


def w6_identities_check(p: int = 5) -> dict:
    """Exact verification of the printed ground-truth identities: the
    Kostant-representative relations, the factorization of w6 through the
    distinguished unipotent representative, and the measure-scaling law for
    Levi conjugation of boxes in the opposite unipotent radical.  Any failure
    raises.  The symbolic block identities are checked by a sympy oracle in
    `test_coset`."""
    w = kostant_reps(p)
    k1 = PadicMat.of([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], p)
    k2 = PadicMat.of([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], p)
    results = {}
    results["w4_eq_w6_k"] = w[3].entries == w[5].mul(k1).entries and k1.in_mirahoric(0)
    results["w5_eq_w6_k"] = w[4].entries == w[5].mul(k2).entries and k2.in_mirahoric(0)
    f1 = PadicMat.of([[1, 0, 0, 0], [0, -1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    f2 = xi(0, p)
    f3 = PadicMat.of([[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    f4 = PadicMat.of([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], p)
    results["w6_factorization"] = (
        w[5].entries == f1.mul(f2).mul(f3).mul(f4).entries
        and f1.in_parabolic() and f3.in_gl4_zp() and f4.in_gl4_zp())
    results["kostant_condition"] = all(is_kostant(wi) for wi in w)
    bad = PadicMat.of([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    results["levi_transposition_rejected"] = not is_kostant(bad)
    # Levi conjugation scales the Haar measure of U_P^- by delta_P^(-1):
    # conjugate a sampled box by a sampled diagonal Levi element
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        t = _diag(*(rng.randrange(1, p) * Fraction(p) ** rng.randrange(-3, 4)
                    for _ in range(4)), p)
        exps = {(i, j): rng.randrange(0, 4) for i in (2, 3) for j in (0, 1)}
        vol_before = Fraction(1, p ** sum(exps.values()))
        ok = ok and _conjugated_box_volume(t, exps) == vol_before / _modulus_character(t)
    results["levi_conjugation_measure"] = ok
    failures = [k for k, v in results.items() if not v]
    if failures:
        raise ExactError(f"identity checks failed: {failures}")
    return results


# ---------------------------------------------------------------------------
# the local constant as a product of two geometric factors
# ---------------------------------------------------------------------------

class UnsupportedLocal(ExactError):
    pass


def _rat_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _field_sqrt(x: AlgNum) -> AlgNum | None:
    """A square root of x inside its own quadratic field, if one exists."""
    if x.b == 0:
        r = _rat_sqrt(x.a)
        if r is not None:
            return AlgNum(x.field, r)
        if not x.field.is_rational:
            # maybe x = d0 * square
            r = _rat_sqrt(x.a / x.field.d0)
            if r is not None:
                return AlgNum(x.field, Fraction(0), r)
    return None


def satake_split(ps: UnramifiedPS) -> tuple[HalfPower, HalfPower]:
    """The two values chi'_i(p) individually, when they lie in the
    coefficient field (trace^2 - 4 det has a square root there)."""
    t = ps.trace
    disc = t.alg * t.alg - ps.det * (Fraction(ps.p) ** (-t.half)) * 4
    root = _field_sqrt(disc)
    if root is None:
        raise UnsupportedLocal("Satake parameters are irrational over the field")
    g1 = HalfPower(ps.p, (t.alg + root) / 2, t.half)
    g2 = HalfPower(ps.p, (t.alg - root) / 2, t.half)
    return g1, g2


def steinberg_from_form(g: NewformData, p: int) -> SteinbergTwist:
    if g.level % p != 0 or g.level % (p * p) == 0:
        raise UnsupportedLocal(f"form must have level exactly divisible by {p}")
    return SteinbergTwist(p=p, chi_p_at_p=g.a(p))


def unramified_from_form(f: NewformData, p: int) -> UnramifiedPS:
    if f.level % p == 0:
        raise UnsupportedLocal(f"form must be unramified at {p}")
    K = f.weight
    rho = conjugate_form(f)
    trace = HalfPower(p, rho.a(p), -1)
    det = f.char(p).conj() * (Fraction(p) ** (K - 2))
    return UnramifiedPS(p=p, trace=trace, det=det, weight=K)


@dataclass(frozen=True)
class GeomFactor:
    X: HalfPower
    value: AlgNum


def geometric_factor(X, p: int) -> GeomFactor:
    """(1 - p^(-1) X)/(1 - p^(-2) X), summed from the geometric series
    1 - (p-1) sum_{M>=1} p^(-2M) X^M in closed form."""
    X = HalfPower.of(p, X)
    pinv = Fraction(1, p)
    num = HalfPower.of(p, 1) + HalfPower(p, -pinv * X.alg, X.half)
    den = HalfPower.of(p, 1) + HalfPower(p, -pinv * pinv * X.alg, X.half)
    num_a, den_a = num.fold(), den.fold()
    if not den_a:
        raise ConvergenceViolation("geometric series does not converge: 1 - p^-2 X = 0")
    return GeomFactor(X, num_a / den_a)


def geometric_factor_for(st: SteinbergTwist, ps: UnramifiedPS, which: int) -> GeomFactor:
    """The factor for chi'_1 (which=0) or chi'_2 (which=1); requires the
    Satake values to split over the coefficient field."""
    g = satake_split(ps)[which]
    X = (HalfPower.of(st.p, st.chi_p_at_p) / g) * HalfPower(st.p, AlgNum.rational(1), EVAL_TWIST_HALF)
    return geometric_factor(X, st.p)


# ---------------------------------------------------------------------------
# support and vanishing claims behind the closed-form local constant
# ---------------------------------------------------------------------------

W0 = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def vanishing_checks(p: int = 3, level: int = 1) -> dict:
    """Certify the membership and branch claims used by the closed-form
    evaluation of the intertwining integral, across sampled valuations.

    Raises on any failure; returns the per-claim record otherwise.
    """
    results: dict[str, bool] = {}
    units = [1, 1 + p, 2 * p + 1]
    # (a) integral-parameter branches stay in the level subgroup
    ok = True
    for v in range(0, 4):
        for u in units:
            x3 = Fraction(u * p ** v)
            m = PadicMat.of([[1, 0, 0, 0], [0, 1, x3, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
            ok = ok and m.in_mirahoric(level)
    results["x_integral_branch_in_K"] = ok
    # (b) negative-valuation branches: the printed companion matrices are in K
    ok = True
    for v in range(1, 4):
        for u in units:
            x3 = Fraction(1, u * p ** v)
            m = PadicMat.of([[0, -1, 0, 0], [0, 1 / x3, 1, 0],
                             [1, 0, 0, 0], [0, 0, 0, 1]], p)
            ok = ok and m.in_mirahoric(level) if level == 0 else ok and m.in_gl4_zp()
            # the level condition holds because the last row is exactly (0,0,0,1)
            ok = ok and m.in_mirahoric(level)
            x2 = x3
            m2 = PadicMat.of([[1, 0, 0, 0], [0, 0, -1, 0],
                              [0, 1, 1 / x2, 0], [0, 0, 0, 1]], p)
            ok = ok and m2.in_mirahoric(level)
            m3 = PadicMat.of([[-1, 0, 0, 0], [0, 0, 1, 0],
                              [0, 1, 0, 0], [1 / x2, 0, 0, 1]], p)
            ok = ok and m3.in_mirahoric(level)
    results["x_negative_branch_companions_in_K"] = ok
    # (c) the (3,2)-elementary matrices land in the trivial coset, never in
    # the big cell: reduction gives the full-level class...
    ok = True
    for v in range(0, 3):
        m_u = unipotent(0, Fraction(p ** v), 0, 0, p)
        cls = reduce_unipotent(m_u, level, 0)
        ok = ok and cls.j == level
    results["integral_branch_class_is_trivial"] = ok
    # ... and the big cell is genuinely distinct: xi(0) in P xi(level) K would
    # force the (4,4)-unit condition and the (4,2)-elimination to contradict
    # each other mod p; exhaust the relevant residues.
    ok = True
    for h44 in range(p):
        for h22 in range(p):
            for h24 in range(p):
                h42_mod_p = h44 % p  # h42 = -p h22 + w(h44 + p h24), w = 1
                if h42_mod_p == 0 and (h44 - 1) % p == 0:
                    ok = False
    results["big_cell_distinct_from_trivial"] = ok
    # (d) w0 lies in the big cell P xi(0) K: exact witness
    w0 = PadicMat.of(W0, p)
    h = PadicMat.of([[0, 0, 1, 0], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 0, 1]], p)
    tau = xi(0, p).mul(h).mul(w0.inverse())
    results["w0_in_big_cell"] = (h.in_mirahoric(level) and tau.in_parabolic())
    failures = [k for k, v in results.items() if not v]
    if failures:
        raise ExactError(f"vanishing checks failed: {failures}")
    return results
