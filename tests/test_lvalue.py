from __future__ import annotations

import functools
import gc
import math
import random
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp, mp

from oracles import (KernelLadderMpf, afe_tail_bound_mpf, besselk01_series, besselk_asymptotic,
                     conjugate_pair, cutoff_scan, d4, direct_sum_reference,
                     direct_tail_reference, eta_series, probe_root_number, smoothed_sum_at,
                     smoothed_sum_mpf, weight24_eigenform, with_mpf_ladder)

from rscong import lvalue
from rscong.exactnum import (GUARD_DIGITS, RATIONAL, AlgNum, ExactError, QuadField,
                             factor_rational_prime)
from rscong.forms import DirichletChar, NewformData, delta_family_qexp, trivial_char
from rscong.lvalue import (InsufficientCoefficients, KernelLadder, LEngine, besselk_pair,
                           d4_upto, get_engine)
from rscong.rankin import (NormalizationError, archimedean_factor,
                           root_number, rs_coefficients)
from rscong.ratio import full_report


class KernelSpecError(ValueError):
    """A contour the reference quadrature cannot use."""


@dataclass(frozen=True)
class AfeKernelSpec:
    """Contour parameters for the reference quadrature kernel."""

    c: float = 1.5
    step: float = 0.05
    truncation: float = 60.0
    P: int = 30


def afe_kernel(x, s, spec: AfeKernelSpec, k: int):
    """Reference kernel by trapezoidal quadrature on the vertical contour.

    Deliberately independent of `KernelLadder`: the oracle of its tests.
    """
    if spec.c <= 0:
        raise KernelSpecError("contour must have c > 0 to keep the w = 0 pole left")
    if s + spec.c <= k - 1:
        raise KernelSpecError(f"contour hits a gamma pole: s + c <= {k - 1}")
    with mp.workdps(spec.P + GUARD_DIGITS):
        x = mp.mpf(x)
        c, h = mp.mpf(spec.c), mp.mpf(spec.step)
        n = int(spec.truncation / spec.step)

        def f(t):
            w = mpmath.mpc(c, t)
            return ((2 * mpmath.pi) ** (-2 * (s + w)) * mpmath.gamma(s + w)
                    * mpmath.gamma(s + w + 1 - k) * x ** (-w) / w)

        acc = f(mp.mpf(0))
        for j in range(1, n + 1):
            acc += f(j * h) + f(-j * h)
        return (acc * h / (2 * mpmath.pi)).real


def on_mpf(fn, *args):
    """`fn` on raw libmp values: each mpf argument passed raw, and the raw
    result, or each value of a raw pair or triple, returned as an mpf."""
    out = fn(*(a._mpf_ if isinstance(a, mpmath.mpf) else a for a in args))
    return tuple(map(mp.make_mpf, out)) if isinstance(out[0], tuple) else mp.make_mpf(out)


def kernel_mpf(ladder: KernelLadder, s: int, x, digits: int):
    """`KernelLadder.G` at an mpf x, its (mantissa, exponent) pair made an
    mpf."""
    return mp.make_mpf(lvalue._raw(*ladder.G(s, x._mpf_, digits)))


def cut(eng: LEngine, s: int):
    """`lvalue._direct_cut` as the engine's direct sum at s reads it: at its
    n_max and precision, against its raw 10^-P."""
    with mp.workdps(eng.dps):
        target = (mp.mpf(10) ** -eng.P)._mpf_
    return lvalue._direct_cut(2 * s - eng.w, eng.rs.n_max, eng.prec, target)


def tail_at(eng: LEngine, s: int, N: int):
    """The direct tail bound at N itself, as an mpf: the cut of n_max = N
    against a target of zero, which no N certifies."""
    n, tail, certified = lvalue._direct_cut(2 * s - eng.w, N, eng.prec, libmp.fzero)
    assert (n, certified) == (N, False)
    return mp.make_mpf(tail)


@pytest.fixture(scope="module")
def engine_small(rs_small):
    return LEngine(rs_small, 40)


#: the arguments of the Bessel grid test, and the digits of its reference
BESSEL_GRID = (3, 10, 26, 40, 49, 60, 80, 111, 150, 250)
BESSEL_REF_DPS = 160


@functools.lru_cache(maxsize=None)
def _mpmath_besselk(a) -> list:
    """K_11(a) .. K_26(a): mpmath at orders 11 and 12, then the stable
    upward recurrence, at BESSEL_REF_DPS digits."""
    with mp.workdps(BESSEL_REF_DPS):
        ks = [mpmath.besselk(11, a), mpmath.besselk(12, a)]
        for n in range(12, 26):
            ks.append(ks[-2] + 2 * n / mp.mpf(a) * ks[-1])
    return ks


class TestBesselK:
    def test_against_mpmath(self):
        # mpmath at orders 11 and 12, the stable upward recurrence for the rest
        for a in (0.5, 5, 20, 40, 50, 70, 100, 150, 250):
            with mp.workdps(110):
                ref = [mpmath.besselk(11, a), mpmath.besselk(12, a)]
                for n in range(12, 26):
                    ref.append(ref[-2] + 2 * n / mp.mpf(a) * ref[-1])
            for nu in (11, 12, 15, 21, 25):
                for d in (20, 40, 90):
                    got = on_mpf(besselk_pair, nu, mp.mpf(a), d)
                    with mp.workdps(110):
                        for g, w in zip(got, ref[nu - 11:nu - 9]):
                            assert abs(g - w) <= abs(w) * mp.mpf(10) ** -d, (nu, a, d)

    @pytest.mark.parametrize("a", BESSEL_GRID)
    def test_grid_against_mpmath_and_oracles(self, a):
        # every value within 10^-digits of mpmath; a series-branch value
        # within 10^-(digits + 20) of mpmath and of the mpf series, an
        # asymptotic one within 10^-(digits + 10) of the mpf expansion
        ref = _mpmath_besselk(a)
        for nu in (11, 12, 25):
            for d in (20, 40, 50, 100, 130):
                got = on_mpf(besselk_pair, nu, mp.mpf(a), d)
                with mp.workdps(d + 12):
                    oracle = [besselk_asymptotic(n, mp.mpf(a), d) for n in (nu, nu + 1)]
                series = None in oracle
                if series:
                    with mp.workdps(d + int(0.8686 * a) + 30):
                        km, kc = besselk01_series(mp.mpf(a))
                        for n in range(1, nu + 1):
                            km, kc = kc, km + 2 * n / mp.mpf(a) * kc
                    oracle = [km, kc]
                with mp.workdps(BESSEL_REF_DPS):
                    tol = mp.mpf(10) ** -(d + 20 if series else d)
                    tol_oracle = mp.mpf(10) ** -(d + 20 if series else d + 10)
                    for g, w, o in zip(got, ref[nu - 11:nu - 9], oracle):
                        assert abs(g - w) <= abs(w) * tol, (nu, d, series)
                        assert abs(g - o) <= abs(o) * tol_oracle, (nu, d, series)

    def test_asymptotic_past_growing_terms(self):
        # for nu = 12 and a < 72 the first terms grow before they fall
        with mp.workdps(30 + 12):
            p = mp.prec + lvalue.ASYMPTOTIC_GUARD_BITS
        assert lvalue._asymptotic_sum(12, 50 << p, p, 30) is not None
        assert lvalue._asymptotic_sum(12, 70 << p, p, 30) is not None

    def test_precision_scales(self):
        x = mp.mpf(50)
        lo = on_mpf(besselk_pair, 12, x, 30)[0]
        hi = on_mpf(besselk_pair, 12, x, 90)[0]
        with mp.workdps(95):
            assert abs(lo - hi) / abs(hi) < mp.mpf(10) ** -28


class TestKernel:
    def test_ladder_vs_quadrature(self):
        k = 13
        ladder = KernelLadder(k, 40)
        spec = AfeKernelSpec(c=1.5, step=0.05, truncation=50, P=30)
        with mp.workdps(45):
            for s in (13, 19, 25):
                for x in (mp.mpf(1) / 3, mp.mpf(2), mp.mpf(8)):
                    fast = kernel_mpf(ladder, s, x, 40)
                    ref = afe_kernel(x, s, spec, k)
                    assert abs(fast - ref) / abs(fast) < mp.mpf(10) ** -25

    def test_small_x_limit_is_archimedean_mass(self):
        ladder = KernelLadder(13, 40)
        with mp.workdps(55):
            for s in (13, 20, 25):
                tiny = kernel_mpf(ladder, s, mp.mpf(10) ** -30, 40)
                linf = archimedean_factor(s, 13, 55)
                assert abs(tiny - linf) / abs(linf) < mp.mpf(10) ** -20

    def test_monotone_decay(self):
        ladder = KernelLadder(13, 40)
        with mp.workdps(55):
            vals = [kernel_mpf(ladder, 19, mp.mpf(x), 40) for x in (1, 2, 4, 8, 16, 32)]
            assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_contour_pole_rejected(self):
        with pytest.raises(KernelSpecError):
            afe_kernel(mp.mpf(1), 13, AfeKernelSpec(c=-0.5), 13)
        with pytest.raises(KernelSpecError):
            afe_kernel(mp.mpf(1), 5, AfeKernelSpec(c=1.0), 13)  # s + c <= k - 1

    def test_raw_bits_ignore_the_working_precision(self):
        # a fresh ladder, and both Bessel branches, under three mpmath
        # contexts: the kernel reads only the precisions it names
        x = libmp.from_rational(7, 3, 200, "n")
        seen = set()
        for dps in (15, 60, 400):
            with mp.workdps(dps):
                ladder = KernelLadder(13, 40)
                seen.add((tuple(ladder.G(s, x, d) for s in (13, 19, 25) for d in (20, 40)),
                          besselk_pair(12, libmp.from_int(5), 20),  # the series branch
                          besselk_pair(12, libmp.from_int(150), 20)))  # the expansion
        assert len(seen) == 1


class Unread(tuple):
    """Coordinates that fail the test when a sum reads them."""

    def __iter__(self):
        raise AssertionError("coefficients read")

    def __getitem__(self, _):
        raise AssertionError("coefficients read")


class TestDirect:
    def test_degenerate_series_is_archimedean_factor(self):
        # b_n = 0 beyond n = 1: Lambda(s) = L_inf(s) exactly
        d = delta_family_qexp(12, 8)
        f = delta_family_qexp(16, 8)
        rs = replace(rs_coefficients(d, f, 8), x=(0, 1) + (0,) * 7, y=(0,) * 9, D=1)
        eng = LEngine(rs, 20)
        val, err = eng.direct_lambda(40)
        with mp.workdps(40):
            linf = archimedean_factor(40, 12, 40)
            assert abs(val - linf) / abs(linf) < mp.mpf(10) ** -18

    def test_convergence_precondition(self, engine_small):
        with pytest.raises(Exception):
            engine_small.direct_lambda(14)  # (k + k2)/2 = 14

    def test_insufficient_reports_needed_n(self, rs_small):
        eng = LEngine(rs_small, 80)
        with pytest.raises(InsufficientCoefficients) as err:
            eng.direct_lambda(16)
        assert err.value.n_needed > rs_small.n_max

    def test_in_window_direct_sum_needs_too_many_coefficients(self, monkeypatch):
        # (12,22) at n = 600 cannot certify s = 20 to 10^-30 directly: inside
        # the window a direct tail needs far more coefficients than the AFE.
        # The tail is checked before any coefficient is read.
        n = 600
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(22, n), n)
        rs = replace(rs, x=Unread(rs.x), y=Unread(rs.y))
        with pytest.raises(InsufficientCoefficients) as err:
            LEngine(rs, 30).direct_lambda(20)
        assert err.value.n_needed == 1 << 40

    def test_afe_in_the_window_direct_sum_outside(self):
        # (12,22) at n = 300, P = 8 certifies s = 21 directly too, but the
        # window point takes the AFE; right of the window the direct sum
        n = 300
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(22, n), n)
        eng = LEngine(rs, 8)
        assert eng.L_at(21).method == "afe"
        assert eng.L_at(41).method == "direct"
        with pytest.raises(ExactError) as err:
            eng.L_at(11)  # left of the window, where the direct sum diverges
        assert not isinstance(err.value, InsufficientCoefficients)

    def test_window_point_the_afe_cannot_certify_takes_the_direct_sum(self, h_prime):
        # 3.13.b.a x delta:26 (level 3, weights 13 and 26) at n = 200: the AFE
        # needs more coefficients at s = 24, 25, while the direct tail,
        # ~N^(2 + w/2 - s), certifies 10^-8 there
        rs = rs_coefficients(h_prime, delta_family_qexp(26, 200), 200)
        eng = LEngine(rs, 8)
        wide = LEngine(rs_coefficients(h_prime, delta_family_qexp(26, 400), 400), 8)
        for s in (24, 25):
            with pytest.raises(InsufficientCoefficients):
                eng.lambda_afe(s)
            res = eng.L_at(s)
            assert res.method == "direct" and res.err_bound < abs(res.value) * 1e-8
            afe, afe_bound = wide.lambda_afe(s)  # n = 400 certifies the AFE
            assert abs(res.value - afe) <= res.err_bound + afe_bound, s
        # where neither certifies, the error is the AFE's, with the least
        # multiple of 64 (the sums' grid of tail checks) at which both A(s)
        # and A(s^) certify: A(21) alone needs 320 and A(17) 384; A(25) alone
        # needs 256 and A(13) 448
        def engine(n):
            return LEngine(rs_coefficients(h_prime, delta_family_qexp(26, n), n), 20)

        eng = engine(200)
        for s, need in ((21, 384), (25, 448)):
            with pytest.raises(InsufficientCoefficients) as err:
                eng.L_at(s)
            assert err.value.n_needed == need and "AFE" in str(err.value), s
            engine(need).lambda_afe(s)
            with pytest.raises(InsufficientCoefficients):
                engine(need - 64).lambda_afe(s)

    @pytest.fixture(scope="class")
    def engine_p120(self):
        n = 2000
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        return LEngine(rs, 120)

    @pytest.fixture(scope="class")
    def engine_odd(self, h_prime):
        # 3.13.b.a x delta:16: sigma = s - w/2 is a half-integer
        n = 1200
        return LEngine(rs_coefficients(h_prime, delta_family_qexp(16, n), n), 30)

    @pytest.mark.parametrize("case", ["even", "odd"])
    def test_tail_bound_is_an_upper_bound(self, case, engine_p120, engine_odd):
        # sigma = s - w/2 an integer on (12,16), a half-integer on 3.13.b.a x delta:16
        eng, s, N = (engine_p120, 51, 2000) if case == "even" else (engine_odd, 32, 1200)
        assert (2 * s - eng.w) % 2 == (case == "odd")
        bound = tail_at(eng, s, N)
        ref = direct_tail_reference(eng, s, N)
        with mp.workdps(eng.dps + 40):
            assert bound >= ref
            assert bound <= ref * (1 + mp.mpf(10) ** -(eng.dps - 10))

    @pytest.mark.parametrize("P", [10, 30, 120])
    @pytest.mark.parametrize("N", [1, 7, 600, 1200, 2000])
    @pytest.mark.parametrize("case", ["even", "odd"])
    def test_tail_bound_grid(self, case, N, P, h_prime):
        # the bound reads only w and the precision, so 8 coefficients will do:
        # sigma = 38 on (12,16) at s = 51, sigma = 18.5 on (13,16) at s = 32
        h, s = (delta_family_qexp(12, 8), 51) if case == "even" else (h_prime, 32)
        eng = LEngine(rs_coefficients(h, delta_family_qexp(16, 8), 8), P)
        bound = tail_at(eng, s, N)
        ref = direct_tail_reference(eng, s, N)
        with mp.workdps(eng.dps + 40):
            assert ref <= bound <= ref * (1 + mp.mpf(10) ** -(eng.dps - 10))

    def test_tail_bound_reads_the_engine_precision(self):
        # the bits of the bound do not depend on mpmath's working precision
        n = 200
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        eng = LEngine(rs, 30)
        lvalue._direct_cut.cache_clear()
        with mp.workdps(15):
            low = cut(eng, 40)
        lvalue._direct_cut.cache_clear()
        with mp.workdps(eng.dps):
            assert cut(eng, 40) == low

    def test_tail_bits_ignore_the_memo(self):
        # each bound and err_bound from a cleared memo, from a warm one, and
        # with the points asked in reverse order
        n, points = 200, (30, 40, 50)
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        eng = LEngine(rs, 30)

        def bits(s):
            return cut(eng, s), eng.L_at(s).err_bound._mpf_

        cold = {}
        for s in points:
            lvalue._direct_cut.cache_clear()
            cold[s] = bits(s)
        assert {s: bits(s) for s in points} == cold
        lvalue._direct_cut.cache_clear()
        assert {s: bits(s) for s in reversed(points)} == cold

    def test_engines_of_one_sigma_compute_the_bound_once(self):
        # sigma = s - w/2 = 25 and 30 on four pairs of different weights, at
        # one n_max and precision: 16 reads, 2 keys
        n = 8
        engines = [LEngine(rs_coefficients(delta_family_qexp(k, n), delta_family_qexp(k2, n), n),
                           30) for k, k2 in ((12, 16), (12, 22), (16, 26), (18, 20))]
        lvalue._direct_cut.cache_clear()
        for sigma in (25, 30):
            for eng in engines:
                s = sigma + eng.w // 2
                _, tail = eng._direct_sum(s)
                assert mp.make_mpf(cut(eng, s)[1]) <= tail
        info = lvalue._direct_cut.cache_info()
        assert (info.misses, info.hits) == (2, 14)

    def test_tail_memo_is_bounded(self):
        assert isinstance(lvalue._direct_cut.cache_info().maxsize, int)

    @pytest.mark.parametrize("two_sigma", [5, 6, 27, 37, 44, 76, 90, 120])
    @pytest.mark.parametrize("C", [64, 700])
    def test_zeta_upper_bound(self, two_sigma, C):
        Z = lvalue._zeta_scaled_up(two_sigma, C)
        with mp.workdps(C // 3 + 40):
            sigma = mp.mpf(two_sigma) / 2
            zeta = mpmath.zeta(sigma)
            excess = Z - zeta * mp.mpf(2) ** C
            assert 0 <= excess <= 1 + (zeta + mp.mpf("0.05")) / (1 - mp.mpf(2) ** (1 - sigma))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 29, 60, 301])
    def test_borwein_d_is_chebyshev(self, n):
        # d_n = T_n(3) <= (3 + sqrt 8)^n is what the error bound of zeta uses
        d = lvalue._borwein_d(n)
        t0, t1 = 1, 3
        for _ in range(n - 1):
            t0, t1 = t1, 6 * t1 - t0
        assert d[n] == t1
        if n <= 29:  # every partial sum against its closed form
            f = math.factorial
            assert d == [sum(Fraction(n * f(n + i - 1) * 4 ** i, f(n - i) * f(2 * i))
                             for i in range(k + 1)) for k in range(n + 1)]

    def test_needed_n_max_is_estimated_from_the_one_given(self):
        # s = 40 on (12,16) at P = 10 certifies with n_max = 2 or 4; the
        # estimate starts from the n_max given, not from a fixed 4096
        def engine(n):
            rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
            return LEngine(rs, 10)

        with pytest.raises(InsufficientCoefficients) as err:
            engine(1).direct_lambda(40)
        need = err.value.n_needed
        assert 1 < need < 4096
        assert engine(need).L_at(40).method == "direct"

    def test_direct_estimate_is_the_least_n_max_that_certifies(self):
        # s = 40 on (12,16) at P = 10: `_tail_beyond` fails at 2 and passes
        # at 3, so n_max = 1 is told 3
        rs = rs_coefficients(delta_family_qexp(12, 1), delta_family_qexp(16, 1), 1)
        eng = LEngine(rs, 10)
        with pytest.raises(InsufficientCoefficients) as err:
            eng.direct_lambda(40)
        assert err.value.n_needed == 3
        with mp.workdps(eng.dps):
            assert not eng._tail_beyond(40, 2) < mp.mpf(10) ** -10
            assert eng._tail_beyond(40, 3) < mp.mpf(10) ** -10

    def test_afe_needed_n_max_is_estimated_from_the_one_given(self):
        # s = 13 on (12,16) at P = 30: n_max = 64 falls short, and 128, the
        # next multiple of 64, certifies A(13) and A(14); the estimate starts
        # from the n_max given, not from a fixed 1024
        def engine(n):
            rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
            return LEngine(rs, 30)

        with pytest.raises(InsufficientCoefficients) as err:
            engine(64).L_at(13)
        assert err.value.n_needed == 128 and "AFE" in str(err.value)
        assert engine(128).L_at(13).method == "afe"

    @pytest.mark.parametrize("case", ["even", "odd"])
    def test_sum_is_within_its_charged_rounding(self, case, engine_p120, h_dprime):
        # sigma = s - w/2 an integer on (12,16); on 3.13.b.b x delta:16 a
        # half-integer, with imaginary sqrt(-26) parts; the exact sum is the
        # one to the cut N
        if case == "even":
            eng, points = engine_p120, (51,)
        else:
            n = 1200
            eng = LEngine(rs_coefficients(h_dprime, delta_family_qexp(16, n), n), 30)
            points = (32, 33)
        for s in points:
            val, tail = eng._direct_sum(s)
            N, bound, certified = cut(eng, s)
            assert certified and N < eng.rs.n_max, s
            ref = direct_sum_reference(eng, s, N)
            with mp.workdps(eng.dps + 40):
                budget = tail - mp.make_mpf(bound)
                assert (val.imag != 0) == (case == "odd"), s
                assert abs(val - ref) <= budget, s
                assert budget <= abs(ref) * mp.mpf(10) ** -(eng.dps - 2), s

    def test_direct_sum_embeds_no_coefficient(self, engine_p120, monkeypatch):
        def no_embedding(*_):
            raise AssertionError("coefficients embedded for a direct sum")

        monkeypatch.setattr(AlgNum, "embed", no_embedding)
        assert engine_p120.L_at(51).method == "direct"

    def test_tail_bound_value_is_pinned(self, engine_p120):
        # the value the rounded mpf sum of the sieve stretch gave, at N = 2000
        bound = tail_at(engine_p120, 51, 2000)
        with mp.workdps(engine_p120.dps):
            pinned = mp.mpf("3.080765016350320682313274139546132729654e-122")
            assert abs(bound / pinned - 1) < mp.mpf(10) ** -30

    def test_no_coefficient_past_the_cut_is_read(self, engine_p120):
        # x_n = 10^50 past the cut of each s leaves its value and err_bound
        rs = engine_p120.rs
        for s in (51, 52, 53):
            N = cut(engine_p120, s)[0]
            assert N < rs.n_max
            wild = replace(rs, x=rs.x[:N + 1] + (10 ** 50,) * (rs.n_max - N))
            got, want = LEngine(wild, 120).L_at(s), engine_p120.L_at(s)
            assert (got.value, got.err_bound) == (want.value, want.err_bound), s

    @pytest.mark.parametrize("case", ["even", "odd"])
    def test_cut_is_the_least_n_that_certifies(self, case, engine_p120, engine_odd):
        # sigma = 38 at P = 120 on (12,16); sigma = 18.5 at P = 30 on
        # 3.13.b.a x delta:16: the true tail at N - 1 is not below 10^-P
        eng, s = (engine_p120, 51) if case == "even" else (engine_odd, 32)
        N, tail, certified = cut(eng, s)
        assert certified and 1 < N < eng.rs.n_max
        if case == "even":
            assert N == 1820
        with mp.workdps(eng.dps):
            target = mp.mpf(10) ** -eng.P
            assert mp.make_mpf(tail) < target
        assert not direct_tail_reference(eng, s, N - 1) < target
        assert direct_tail_reference(eng, s, N) < target

    def test_cut_sum_agrees_with_the_full_sum(self):
        # the 12 points of the benchmark's lvalue_direct_p120 workload: three
        # from the least s whose direct sum certifies 10^-120 with n = 2000
        n = 2000
        forms = {k: delta_family_qexp(k, n) for k in (12, 16, 18, 20, 22, 26)}
        for (k, k2), edge in {(12, 16): 51, (12, 22): 54, (16, 26): 58, (18, 20): 56}.items():
            eng = LEngine(rs_coefficients(forms[k], forms[k2], n), 120)
            for s in range(edge, edge + 3):
                val, bound = eng._direct_sum(s)
                full, full_bound = direct_sum_reference(eng, s), tail_at(eng, s, n)
                res = eng.L_at(s)
                with mp.workdps(eng.dps + 40):
                    assert abs(val - full) <= bound + full_bound, (k, k2, s)
                    linf = archimedean_factor(s, k, eng.dps)
                    assert res.method == "direct", (k, k2, s)
                    assert res.err_bound < mp.mpf(10) ** -120 * abs(linf), (k, k2, s)

    def test_edge_point_even_weight_sum_uses_afe(self, engine_small):
        # s = (k + k2)/2 + 1 = 15 on (12,16): no certified direct tail there
        res = engine_small.L_at(15)
        assert res.method == "afe"
        assert res.value == engine_small.lambda_afe(15)[0]

    def test_edge_point_odd_weight_sum_claims_no_n_max(self, h_prime):
        # (13,16) at s = 15: 2s = 30 <= k + k2 + 2, so no n_max certifies the tail
        rs = rs_coefficients(h_prime, delta_family_qexp(16, 400), 400)
        with pytest.raises(ExactError) as err:
            LEngine(rs, 30).direct_lambda(15)
        assert not isinstance(err.value, InsufficientCoefficients)

    def test_edge_point_outside_window_is_typed(self):
        n = 30
        rs = rs_coefficients(delta_family_qexp(18, n), delta_family_qexp(20, n), n)
        with pytest.raises(ExactError):
            LEngine(rs, 30).L_at(20)  # right of the window (18..19), at the direct edge


def test_precision_below_one_is_rejected(rs_small):
    for P in (0, -5):
        with pytest.raises(ExactError, match=f"precision P = {P}"):
            LEngine(rs_small, P)


class TestEngineLifetime:
    def test_series_owns_engines_and_engines_share_ladders(self):
        n, P = 40, 23  # a precision no other test keeps an engine at
        d12 = delta_family_qexp(12, n)
        rs_a = rs_coefficients(d12, delta_family_qexp(16, n), n)
        rs_b = rs_coefficients(d12, delta_family_qexp(22, n), n)
        eng = get_engine(rs_a, P)
        assert get_engine(rs_a, P) is eng
        assert get_engine(rs_b, P).ladder is eng.ladder
        assert eng.L_at(60).method == "direct"  # the memoised tail holds no engine
        refs = [weakref.ref(eng), weakref.ref(eng.ladder)]
        del eng, rs_a, rs_b
        gc.collect()
        assert [r() for r in refs] == [None, None]


def afe_pieces(eng, s):
    """(A(s), A(s^), tail(s) + |Q^alpha(s)| tail(s^)): the smoothed sums
    behind `lambda_afe(s)` and its bound, s^ = k + k2 - 1 - s."""
    eng.lambda_afe(s)
    (A, tail_a), (B, tail_b) = eng._sums[s], eng._sums[eng.k + eng.k2 - 1 - s]
    return A, B, tail_a + abs(eng._alpha_pow(s)) * tail_b


class TestTaperedKernel:
    """Kernel points evaluated at the digits their terms need."""

    def test_values_do_not_depend_on_call_order(self, monkeypatch):
        # (12,16) and (12,22) share the weight-12 ladder, so each order asks
        # for the points at other digits first
        n, P = 600, 30
        forms = {k: delta_family_qexp(k, n) for k in (12, 16, 22)}
        ops = [(k2, s) for k2 in (16, 22) for s in range(12, k2)]
        runs = []
        for order in (ops, ops[::-1]):
            # a fresh ladder map: no ladder of another run or test is shared
            monkeypatch.setattr(lvalue, "_ladders", weakref.WeakValueDictionary())
            series = {k2: rs_coefficients(forms[12], forms[k2], n) for k2 in (16, 22)}
            runs.append({(k2, s): lvalue.L_at(series[k2], s, P).value for k2, s in order})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("k2", [16, 22])
    def test_err_bound_covers_the_rounding(self, k2):
        # the P + 30 value stands in for the exact one; the smoothed sums
        # alone (no root-number term) check the charged rounding budget
        n, P = 600, 30
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(k2, n), n)
        lo, hi = get_engine(rs, P), get_engine(rs, P + 30)
        for s in range(12, k2):
            res = lo.L_at(s)
            exact = hi.L_at(s).value
            A, B, bound = afe_pieces(lo, s)
            A2, B2, _ = afe_pieces(hi, s)
            with mp.workdps(hi.dps):
                assert abs(res.value - exact) <= res.err_bound, s
                assert abs(A - A2) + abs(B - B2) <= bound, s


class TestRawPathBits:
    """The smoothed sums on raw libmp values and integer pairs keep the bits
    of the same sums in mpf operators (`oracles.smoothed_sum_mpf`): A(s) and
    its bound.  So do their parts, each against its libmp or mpf-operator
    form: the integer rounding, the kernel ladder and the tail bound."""

    @staticmethod
    def assert_same_bits(eng, ref, s):
        A, bound = eng._smoothed_sum(s)
        A_ref, bound_ref = smoothed_sum_mpf(ref, s)
        assert (A._mpc_, bound._mpf_) == (A_ref._mpc_, bound_ref._mpf_), s

    def test_quotient_is_from_rational(self):
        # halfway cases among them: an odd integer times a power of two
        rng = random.Random(17)
        for _ in range(20000):
            q = rng.randrange(1, 1 << rng.randrange(1, 300))
            p = rng.randrange(-(1 << 400), 1 << 400) >> rng.randrange(0, 400)
            if rng.random() < 0.2:
                p = q * (2 * rng.randrange(-99, 99) + 1) << rng.randrange(0, 9)
            prec = rng.randrange(2, 320)
            assert lvalue._raw(*lvalue._rational(p, q, prec)) == libmp.from_rational(
                p, q, prec, "n"), (p, q, prec)
        # quotients that round up to a signed power of two: 1 - 1/q times
        # 2^j, 1/q a half (a tie), a sixth and a quarter of the last unit
        # below 1, where `_round` carries into a mantissa of prec + 1 bits;
        # and the magnitude of |c| g for such a c with y_n = 0, against
        # libmp's |c| times g
        for prec in (2, 3, 53, 200, 601):
            for den in (1 << prec + 1, 3 << prec + 1, 1 << prec + 2):
                for j, sign in ((0, 1), (-7, -1), (40, 1)):
                    p, q = sign * (den - 1) << max(j, 0), den << max(-j, 0)
                    cx = lvalue._rational(p, q, prec)
                    want = libmp.from_rational(p, q, prec, "n")
                    assert (lvalue._raw(*cx), abs(cx[0]).bit_length()) == (want, prec + 1), (p, q)
                    assert want[1] == 1  # a power of two
                    for gm, ge in ((1, 0), ((1 << prec) - 1, -prec), (5 << prec - 2 | 1, 3)):
                        _, _, e, bc = libmp.mpf_mul(libmp.mpf_abs(want),
                                                    libmp.from_man_exp(gm, ge), prec, "n")
                        assert lvalue._term_mag(cx, (0, 0), None, -26, gm, ge, prec) == e + bc

    def test_integer_rounding_is_libmp(self):
        # `_round` of an exact product or sum against mpf_mul, mpf_mul_int and
        # mpf_add at "n", on signed operands of at most prec bits: halfway
        # cases among them, and exponent gaps past prec + 4, where mpf_add
        # puts a sticky bit in place of the smaller operand
        rng = random.Random(23)
        sign = functools.partial(rng.choice, (1, -1))
        for _ in range(20000):
            prec = rng.randrange(2, 320)
            m, n = (rng.randrange(-(1 << prec), 1 << prec) >> rng.randrange(0, prec)
                    for _ in range(2))
            e = rng.randrange(-500, 500)
            gap = rng.randrange(prec + 5, 4000) if rng.random() < 0.3 else rng.randrange(prec + 5)
            f = e - gap - n.bit_length() if rng.random() < 0.5 else e + gap + m.bit_length()
            tie = rng.random()
            if tie < 0.2 and prec >= 4:  # m n is an odd number of prec + 1 bits
                n = rng.choice((3, 5, 7))
                u = rng.randrange(-(-(1 << prec) // n), (2 << prec) // n) | 1
                m, n = sign() * u << rng.randrange(9), sign() * n << rng.randrange(9)
            elif tie < 0.4:  # m has prec bits and n 2^f is half its last unit
                m = sign() * (1 << prec - 1 | rng.getrandbits(prec - 1))
                n, f = sign(), e - 1
            x, y = libmp.from_man_exp(m, e), libmp.from_man_exp(n, f)
            case = (m, e, n, f, prec)
            assert lvalue._raw(*lvalue._round(m * n, e + f, prec)) == libmp.mpf_mul(
                x, y, prec, "n"), case
            assert lvalue._raw(*lvalue._round(m * n, e, prec)) == libmp.mpf_mul_int(
                x, n, prec, "n"), case
            assert lvalue._raw(*lvalue._add((m, e), (n, f), prec)) == libmp.mpf_add(
                x, y, prec, "n"), case

    @pytest.mark.parametrize("k, top", [(12, 30), (13, 37)])
    def test_ladder_is_the_mpf_ladder(self, k, top, monkeypatch):
        # G = prefactor times J(mu) at every mu up to top, at three digits,
        # on points in both Bessel branches, with mu asked for in rising and
        # in falling order of fresh ladders
        series = []
        monkeypatch.setattr(lvalue, "_besselk_series",
                            lambda *args, f=lvalue._besselk_series: series.append(args) or f(*args))
        dps = 150
        xs = [libmp.from_rational(p, q, libmp.dps_to_prec(dps), "n")
              for p, q in ((1, 3), (7, 3), (40, 1), (200, 1), (2401, 3))]
        points = [(x, digits) for x in xs for digits in (20, 40, 130)]
        mus = range(k, top + 1, 2)  # mu = 2s - k
        for order in (mus, mus[::-1]):
            ladder, ref = KernelLadder(k, dps), KernelLadderMpf(k, dps)
            for x, digits in points:
                for mu in order:
                    s = (mu + k) // 2
                    with mp.workdps(dps):
                        want = ref.G(s, mp.make_mpf(x), digits)._mpf_
                    assert lvalue._raw(*ladder.G(s, x, digits)) == want, (x, digits, mu)
        assert 0 < len(series) < 2 * len(points)  # each branch ran

    @pytest.mark.parametrize("case", ["(12,16)", "(12,22)", "rs_74_prime"])
    def test_tail_bound_is_the_mpf_bound(self, case, rs_74_prime):
        # the bound at every N the full cutoff search visits, which a planned
        # cutoff or a hint would skip; on the level-3 series, 4 pi sqrt(N / 3)
        # falls below a guard at small N
        if case == "rs_74_prime":
            eng, points = LEngine(rs_74_prime, 120), (14, 25)
        else:
            n, k2 = 600, int(case[4:6])
            eng = LEngine(rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(k2, n), n),
                          30)
            points = range(12, k2)
        seen = []

        def pinned(s, N):
            got = eng._afe_tail_bound(s, N)
            assert got._mpf_ == afe_tail_bound_mpf(eng, s, N)._mpf_, (s, N)
            seen.append(got == mp.inf)
            return got

        for s in points:
            with mp.workdps(eng.dps):
                target = eng._cutoff(s)[1]
                lvalue._least_n(functools.partial(pinned, s), target, eng.rs.n_max,
                                lvalue.TAIL_CHECK_EVERY)
        assert not all(seen) and any(seen) == (case == "rs_74_prime")

    @staticmethod
    def libmp_mag(cx, cy, d0, g, prec):
        """mag(|cx + cy sqrt(d0)| g) for d0 < 0 as the libmp path rounds it:
        r = sqrt|d0|, r cy, mpf_hypot, then the product by g, each at prec
        bits."""
        ry = libmp.mpf_mul(libmp.mpf_sqrt(libmp.from_int(-d0), prec, "n"), cy, prec, "n")
        c = libmp.mpf_hypot(cx, ry, prec, "n")
        _, _, e, bc = libmp.mpf_mul(c, libmp.from_man_exp(*g), prec, "n")
        return e + bc

    @pytest.fixture
    def hypot_calls(self, monkeypatch):
        """The calls of `lvalue.mpf_hypot`, one per term that takes the libmp
        fallback over an imaginary quadratic field."""
        calls = []
        monkeypatch.setattr(lvalue, "mpf_hypot",
                            lambda *args, f=lvalue.mpf_hypot: calls.append(args) or f(*args))
        return calls

    @pytest.mark.parametrize("k2, n, P, terms", [(16, 1200, 30, 768), (26, 6000, 60, 9680)])
    def test_term_magnitude_is_libmp(self, k2, n, P, terms, h_dprime, rs_74_dprime,
                                     hypot_calls, monkeypatch):
        # every term with y_n != 0 of 3.13.b.b x delta:k2 over the critical
        # window: the magnitude read from the integer V^2 is the libmp one
        rs = (rs_74_dprime if k2 == 26
              else rs_coefficients(h_dprime, delta_family_qexp(k2, n), n))
        eng, seen = LEngine(rs, P), []

        def checked(cx, cy, r, d0, gm, ge, prec, f=lvalue._term_mag):
            got = f(cx, cy, r, d0, gm, ge, prec)
            if cy[0]:
                want = self.libmp_mag(lvalue._raw(*cx), lvalue._raw(*cy), d0, (gm, ge), prec)
                assert got == want, (cx, cy, gm, ge)
                seen.append(got)
            return got

        monkeypatch.setattr(lvalue, "_term_mag", checked)
        for s in range(eng.k, eng.k2):
            eng._smoothed_sum(s)
        assert (len(seen), len(hypot_calls)) == (terms, 0)

    @pytest.mark.parametrize("prec", [200, 601])
    def test_term_magnitude_near_a_power_of_two(self, prec, hypot_calls):
        # (cx, cy, g) with V^2 = (cx^2 + 26 cy^2) g^2 near 1, x_n = 0 among
        # them: g steps by units of its last place around 1 / sqrt(cx^2 +
        # 26 cy^2).  A V^2 within 2^-(prec - 8) of 1 takes the libmp fallback
        # and one farther off does not, and the magnitude is libmp's on both,
        # also where the libmp roundings carry the value across 1
        d0, r = -26, libmp.mpf_sqrt(libmp.from_int(26), prec, "n")
        rng, crossed, near = random.Random(29), 0, 0
        top = 1 << prec - 1
        for cx in (libmp.fzero, libmp.from_man_exp(top | rng.getrandbits(prec - 1), -prec - 3)):
            for _ in range(48):
                cy = libmp.from_man_exp(top | rng.getrandbits(prec - 1), -prec)
                norm = libmp.mpf_add(libmp.mpf_mul(cx, cx),
                                     libmp.mpf_mul(libmp.mpf_mul(cy, cy), libmp.from_int(26)))
                g0 = libmp.mpf_rdiv_int(1, libmp.mpf_sqrt(norm, prec + 20, "n"), prec, "n")
                for dg in (-1000, -200, -3, -2, -1, 0, 1, 2, 3, 200, 1000):
                    _, gm, ge, _ = g = libmp.mpf_add(
                        g0, libmp.from_man_exp(dg, g0[2] + g0[3] - prec))  # exact
                    _, vm, ve, _ = libmp.mpf_mul(libmp.mpf_mul(norm, g), g)  # V^2, exact
                    calls = len(hypot_calls)
                    want = self.libmp_mag(cx, cy, d0, (gm, ge), prec)
                    got = lvalue._term_mag(lvalue._pair(cx), lvalue._pair(cy), r, d0, gm, ge, prec)
                    assert got == want, (cx, cy, g)
                    gap = min(abs(vm - (1 << k)) for k in (vm.bit_length() - 1, vm.bit_length()))
                    assert (len(hypot_calls) > calls) == (gap << prec - 8 <= vm), (cx, cy, g)
                    near += len(hypot_calls) > calls
                    # mag(V) = floor(log2 V) + 1, from the exact V^2 = vm 2^ve
                    crossed += math.isqrt(vm << (ve & 1)).bit_length() + (ve >> 1) != want
        assert 0 < crossed < near < 96 * 11

    @pytest.mark.parametrize("k2", [16, 22])
    def test_every_critical_point_p30(self, k2):
        n = 600
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(k2, n), n)
        eng = LEngine(rs, 30)
        ref = with_mpf_ladder(eng)
        for s in range(12, k2):
            self.assert_same_bits(eng, ref, s)

    def test_level3_pair_p120(self, rs_74_prime):
        eng = LEngine(rs_74_prime, 120)
        ref = with_mpf_ladder(eng)
        for s in (14, 25):
            self.assert_same_bits(eng, ref, s)

    def test_off_grid(self):
        # `smoothed_sum_at` on the second smoothing scale of `probe_root_number`
        n = 600
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        eng = LEngine(rs, 30)
        ref = with_mpf_ladder(eng)
        with mp.workdps(eng.dps):
            scale = mp.mpf(21) / (16 * eng.rs.M)
        ref.scale = scale._mpf_
        assert smoothed_sum_at(eng, 14, scale)._mpc_ == smoothed_sum_mpf(ref, 14)[0]._mpc_

    def test_grid_points_are_libmp(self, h_prime, monkeypatch):
        # the raw grid point keys a kernel point, so its bits decide which
        # sums share one: n * scale as mpf_mul_int rounds it, at M = 3, where
        # the product is inexact
        n = 1200
        rs = rs_coefficients(h_prime, delta_family_qexp(16, n), n)
        eng, seen = LEngine(rs, 30), []
        G = KernelLadder.G
        monkeypatch.setattr(KernelLadder, "G", lambda self, s, x, d: seen.append(x) or G(self, s, x, d))
        eng._smoothed_sum(14)
        grid = [libmp.mpf_mul_int(eng.scale, m, eng.prec, "n") for m in range(1, n + 1)
                if rs.x[m] or rs.y[m]]
        assert seen and seen == grid[:len(seen)]


class TestCutoffSearch:
    """`lvalue._least_n` decides where every sum stops: the N a linear scan
    of the same grid gives, before any kernel point is read, with a number
    of tail bounds that grows as log N."""

    @pytest.mark.parametrize("step, above", [(64, 0), (1, 0), (1, 5), (64, 100)])
    def test_least_n_on_a_step_bound(self, step, above):
        # a bound that fails below t and passes from t on; the answer is the
        # least grid point past `above` and t, and nothing off the grid is read
        for n_max in (1, 63, 64, 100, 127, 640, 1000):
            grid = {n_max} if n_max > above else set()
            for t in (1, 2, 63, 64, 65, 100, 127, 128, 500, 4097, 10 ** 6, 1 << 41):
                seen = []

                def bound(N):
                    seen.append(N)
                    return 0 if N >= t else mp.inf

                least = step * -(-max(t, above + 1) // step)  # first multiple past both
                want = min({least} | {N for N in grid if N >= t})
                want = (want, 0) if want <= 1 << 40 else (1 << 40, mp.inf)
                assert lvalue._least_n(bound, 1, n_max, step, above) == want, (n_max, t)
                assert all(N > above and (N % step == 0 or N == n_max) for N in seen)

    @pytest.mark.parametrize("step, above", [(64, 0), (1, 5)])
    def test_hint_never_moves_the_answer(self, step, above):
        # the full search's answer, whichever grid point past `above` is
        # tried first: the first one, the answer, its neighbours, n_max, the cap
        for n_max in (1, 63, 64, 100, 127, 640):
            for t in (1, 2, 64, 65, 100, 128, 500, 1 << 41):
                def bound(N):
                    return 0 if N >= t else mp.inf

                want = lvalue._least_n(bound, 1, n_max, step, above)
                N = want[0]
                for hint in {step * (above // step + 1), step * ((N - 1) // step), N,
                             step * (N // step + 1), n_max, 1 << 40}:
                    if above < hint <= 1 << 40:
                        got = lvalue._least_n(bound, 1, n_max, step, above, hint)
                        assert got == want, (n_max, t, hint)

    @pytest.mark.parametrize("t", [2752, 2944, 3008])
    def test_a_hint_one_step_off_brackets_the_search(self, t):
        # the P = 120 flagship's misses: a hint one grid step low fails and
        # starts the doubling at the answer; one step high passes with the
        # answer below it, which ends a bisection from the first grid point
        step, n_max = 64, 6000
        seen = []

        def bound(N):
            seen.append(N)
            return 0 if N >= t else mp.inf

        want = lvalue._least_n(bound, 1, n_max, step)
        full = len(seen)
        counts = []
        for hint in (t - step, t + step):
            seen.clear()
            assert lvalue._least_n(bound, 1, n_max, step, hint=hint) == want == (t, 0)
            counts.append(len(seen))
        assert full == 12 and counts[0] == 2
        assert counts[1] == 2 + math.ceil(math.log2(t // step)) < full

    @pytest.mark.parametrize("h, k2, n, P", [
        *((12, k2, 600, P) for k2 in (16, 26) for P in (8, 30, 120)),
        (12, 16, 127, 30),  # every cutoff is n_max itself, no multiple of 64
        ("3.13.b.a", 26, 1200, 30)])
    def test_search_matches_a_scan(self, h, k2, n, P, h_prime):
        h = h_prime if h == "3.13.b.a" else delta_family_qexp(h, n)
        eng = LEngine(rs_coefficients(h, delta_family_qexp(k2, n), n), P)
        cutoffs = set()
        for s in range(eng.k, eng.k2):
            with mp.workdps(eng.dps):
                N, tail = eng._cutoff(s)[2:]
            ref_N, ref_tail = cutoff_scan(eng, s)
            assert (N, tail._mpf_) == (ref_N, ref_tail._mpf_), s
            cutoffs.add(N)
        if n == 127:
            assert cutoffs == {127}

    def test_pair_plans_its_cutoffs_once(self, rs_74_prime, rs_74_dprime, monkeypatch):
        # f1 x aux and f2 x aux of the flagship share a ladder and their
        # cutoffs: the second series evaluates no tail bound of its own
        monkeypatch.setattr(lvalue, "_ladders", weakref.WeakValueDictionary())
        engines = [LEngine(rs, 120) for rs in (rs_74_prime, rs_74_dprime)]
        calls = []
        bound = LEngine._afe_tail_bound
        monkeypatch.setattr(LEngine, "_afe_tail_bound",
                            lambda self, s, N: calls.append((s, N)) or bound(self, s, N))
        counts = []
        for eng in engines:
            for s in (13, 14, 19, 25):
                with mp.workdps(eng.dps):
                    N, tail = eng._cutoff(s)[2:]
                ref_N, ref_tail = cutoff_scan(eng, s)
                assert (N, tail._mpf_) == (ref_N, ref_tail._mpf_), s
            counts.append(len(calls))
        assert engines[0].ladder is engines[1].ladder and counts[0] == counts[1] > 0

    def test_short_sum_reads_no_kernel_point(self, monkeypatch):
        # (12,16) at s = 13, P = 30: n_max = 64 falls short of 128, which the
        # search finds before a term is summed
        def no_kernel(*_):
            raise AssertionError("kernel point evaluated")

        n = 64
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        monkeypatch.setattr(KernelLadder, "G", no_kernel)
        with pytest.raises(InsufficientCoefficients) as err:
            LEngine(rs, 30).L_at(13)
        assert err.value.n_needed == 128

    @pytest.mark.parametrize("s", [13, 25])
    def test_tail_bounds_grow_as_log_n(self, s, h_prime, h_aux26, monkeypatch):
        # 3.13.b.a x delta:26 at n = 4000, P = 120: a scan every 64 terms
        # would bound the tail N / 64 times
        eng = LEngine(rs_coefficients(h_prime, h_aux26, 4000), 120)
        calls = []
        bound = LEngine._afe_tail_bound

        def counted(self, *args):
            calls.append(args)
            return bound(self, *args)

        monkeypatch.setattr(LEngine, "_afe_tail_bound", counted)
        eng._smoothed_sum(s)
        count = len(calls)
        with mp.workdps(eng.dps):
            N = eng._cutoff(s)[2]
        assert count <= 2 * math.ceil(math.log2(N / 64)) + 2, (N, count)


class TestEngineSmallPair:
    def test_root_number_real_unitary(self, engine_small):
        assert engine_small.solve_root_number() == 1

    def test_direct_vs_afe_cross_method(self):
        # rightmost critical point of (12,22), inside the certified direct
        # range s > 18; the (12,16) window ends before that range starts
        rs = rs_coefficients(delta_family_qexp(12, 300), delta_family_qexp(22, 300), 300)
        eng = LEngine(rs, 20)
        s = 21
        with mp.workdps(60):
            afe, _ = eng.lambda_afe(s)
            fin, tail = eng._direct_sum(s)
            linf = archimedean_factor(s, eng.k, eng.dps)
            direct, bound = fin * linf, tail * abs(linf)
            assert bound < abs(afe) * mp.mpf(10) ** -8
            assert abs(afe - direct) <= 2 * bound + abs(afe) * mp.mpf(10) ** -20

    def test_functional_equation_residual(self, engine_small, rs_small):
        eps = engine_small.solve_root_number().embed(60)
        conj = LEngine(conjugate_pair(rs_small), 40)
        k, k2 = rs_small.k, rs_small.k2
        with mp.workdps(60):
            for s in range(k, k2):
                lhs = engine_small.lambda_afe(s)[0]
                rhs = eps * engine_small._alpha_pow(s) * conj.lambda_afe(k + k2 - 1 - s)[0]
                scale = abs(archimedean_factor(s, k, 60))
                assert abs(lhs - rhs) <= scale * mp.mpf(10) ** -(40 // 3)

    def test_precision_monotonicity(self, rs_small, engine_small):
        hi = LEngine(rs_small, 70)
        with mp.workdps(80):
            a = engine_small.L_at(14).value
            b = hi.L_at(14).value
            assert abs(a - b) <= abs(b) * mp.mpf(10) ** -15

    def test_method_fields(self, engine_small, rs_small):
        assert engine_small.L_at(14).method == "afe"
        eng80 = LEngine(rs_small, 12)
        assert eng80.L_at(40).method == "direct"


def eta_quotient(N: int, r: int, n: int) -> NewformData:
    """q prod_m (1 - q^m)^r (1 - q^(N m))^r to q^n: for (N, r) = (5, 4) and
    (3, 6) the newform of level N, weight r and trivial character."""
    eta = [(j, c) for j, c in enumerate(eta_series(n)) if c]
    g = [1] + [0] * (n - 1)  # coefficients of q^0 .. q^(n-1) of the product
    for step in [1] * r + [N] * r:
        new = [0] * n
        for j, c in eta:
            for i in range(n - j * step):
                new[i + j * step] += c * g[i]
        g = new
    return NewformData(level=N, weight=r, char=trivial_char(N), x=(0, *g), y=(0,) * (n + 1),
                       D=1, field=RATIONAL, label=f"eta-{N}.{r}")


@pytest.fixture(scope="module")
def root_number_forms(h_prime, h_dprime):
    forms = {f"delta:{k}": delta_family_qexp(k, 800) for k in (12, 16, 22)}
    forms["eta5"], forms["eta3"] = eta_quotient(5, 4, 2000), eta_quotient(3, 6, 800)
    forms["3.13.b.a"], forms["3.13.b.b"] = h_prime, h_dprime
    return forms


#: eps of 3.13.b.b against a form of level prime to 3: -conj(a_3)^2 / 3^12
#: with a_3 = -675 - 54 sqrt(-26)
EPS_3_13_B_B = AlgNum(QuadField(-26), Fraction(-521, 729), Fraction(100, 729))


class TestRootNumber:
    """The exact root number against the two-probe AFE solve (`oracles`)."""

    def test_eta_quotients_are_the_newforms(self, root_number_forms):
        assert root_number_forms["eta5"].a(5) == -5
        assert root_number_forms["eta3"].a(3) == 9

    @pytest.mark.parametrize("pair, n, expected", [
        (("delta:12", "delta:16"), 800, 1),
        (("delta:12", "delta:22"), 800, 1),
        (("eta5", "delta:12"), 800, 1),
        (("eta5", "delta:16"), 800, 1),
        (("eta3", "delta:12"), 800, 1),
        (("eta3", "delta:16"), 800, 1),
        (("3.13.b.a", "delta:16"), 800, -1),
        (("3.13.b.b", "delta:16"), 800, EPS_3_13_B_B),
        (("3.13.b.a", "eta5"), 2000, -1),
        (("3.13.b.b", "eta5"), 2000, EPS_3_13_B_B),
    ])
    def test_matches_the_probe_solve(self, root_number_forms, pair, n, expected):
        rs = rs_coefficients(*(root_number_forms[name] for name in pair), n)
        eps = root_number(rs)
        assert eps == expected and eps.field == rs.field
        probe, residual = probe_root_number(LEngine(rs, 20))
        with mp.workdps(40):
            assert abs(probe - eps.embed(40)) < mp.mpf(10) ** -25
            assert residual < mp.mpf(10) ** -25

    @pytest.mark.parametrize("shape, message", [
        ("shared level", "p = 3 divides both levels"),
        ("square level", "p = 3: p\\^2 divides"),
        ("quartic character", "p = 5: nebentypus of order greater than 2"),
    ])
    def test_uncovered_local_types_are_typed(self, root_number_forms, shape, message):
        forms = root_number_forms
        if shape == "shared level":
            pair = forms["eta3"], forms["3.13.b.a"]
        elif shape == "square level":
            pair = replace(forms["eta3"], level=9, char=trivial_char(9)), forms["delta:12"]
        else:
            i = AlgNum(QuadField(-1), 0, 1)
            quartic = DirichletChar(5, (AlgNum.rational(0), AlgNum.rational(1), i, -i,
                                        AlgNum.rational(-1)))
            pair = replace(forms["eta5"], char=quartic), forms["delta:12"]
        with pytest.raises(NormalizationError, match=message):
            root_number(rs_coefficients(*pair, 100))

    def test_certified_zero_needs_no_bessel(self, h_prime, monkeypatch):
        # (13,16) has centre 14; 3.13.b.a x delta:16 is self-dual with eps = -1
        def no_bessel(*_):
            raise AssertionError("Bessel pair computed for an exact root number")

        monkeypatch.setattr(lvalue, "besselk_pair", no_bessel)
        monkeypatch.setattr(lvalue, "_ladders", weakref.WeakValueDictionary())
        rs = rs_coefficients(h_prime, delta_family_qexp(16, 200), 200)
        assert get_engine(rs, 12).certified_zero(14)

    def test_solved_once_per_engine(self, h_prime, h_dprime, monkeypatch):
        # the verify_aux16_p30 report: two engines, each asked for its root
        # number by every ratio and certified-zero check
        calls = []
        monkeypatch.setattr(lvalue, "root_number",
                            lambda rs, f=lvalue.root_number: calls.append(rs) or f(rs))
        aux = delta_family_qexp(16, 1200)
        ideal = factor_rational_prime(13, QuadField(-26))[0]
        full_report(aux, h_prime, h_dprime, ideal, P=30)
        assert len(calls) == len({id(rs) for rs in calls}) == 2

    def test_self_duality_is_read_from_the_exact_coefficients(self, h_prime, h_dprime,
                                                              monkeypatch):
        def no_embedding(*_):
            raise AssertionError("coefficients embedded to decide self-duality")

        monkeypatch.setattr(AlgNum, "embed", no_embedding)
        rs = rs_coefficients(h_prime, delta_family_qexp(16, 200), 200)
        assert LEngine(rs, 12).certified_zero(14)
        rs = rs_coefficients(h_dprime, delta_family_qexp(16, 200), 200)
        assert not LEngine(rs, 12).is_self_dual()


class TestDualSide:
    """The dual side of the AFE is the complex conjugate of the direct side."""

    def test_real_quadratic_coefficients(self):
        # Galois conjugation is not complex conjugation in a real field: a
        # dual sum over Galois conjugates misses the direct sum by 7e-4
        n = 300
        g = weight24_eigenform(n)
        assert g.a(9) == g.a(3) * g.a(3) - 3 ** 23 and g.a(6) == g.a(2) * g.a(3)
        eng = LEngine(rs_coefficients(delta_family_qexp(12, n), g, n), 20)
        for s in (22, 23):
            afe, afe_bound = eng.lambda_afe(s)
            fin, tail = eng._direct_sum(s)
            with mp.workdps(eng.dps):
                linf = archimedean_factor(s, eng.k, eng.dps)
                assert abs(afe - fin * linf) <= afe_bound + tail * abs(linf), s
        assert eng.is_self_dual()

    def test_one_embedding_and_one_sum_per_point(self, monkeypatch):
        # every critical s of (12,16) needs A(s) and A(s^), both in the window
        n = 120
        rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
        monkeypatch.setattr(lvalue, "_ladders", weakref.WeakValueDictionary())
        calls = {"embed": 0, "sum": 0}
        embed, smoothed_sum = AlgNum.embed, LEngine._smoothed_sum

        def counted_embed(self, *args):
            calls["embed"] += 1
            return embed(self, *args)

        def counted_sum(self, *args, **kwargs):
            calls["sum"] += 1
            return smoothed_sum(self, *args, **kwargs)

        monkeypatch.setattr(AlgNum, "embed", counted_embed)
        monkeypatch.setattr(LEngine, "_smoothed_sum", counted_sum)
        eng = get_engine(rs, 20)
        for s in range(12, 16):
            assert eng.L_at(s).method == "afe"
        assert calls["embed"] <= 4  # eps once per s; no coefficient
        assert calls["sum"] == 4

    def test_non_self_dual_values_are_pinned(self, h_dprime):
        # the values the second smoothed sum over Galois conjugates gave
        n = 1200
        eng = get_engine(rs_coefficients(h_dprime, delta_family_qexp(16, n), n), 30)
        pinned = {
            13: ("-3.03983847758522231422257740932392274706019977e-13",
                 "2.08915681381171385614473516011463882258119936e-12",
                 "2.627920391120654402999338201787101821223e-50"),
            14: ("1.71816957428729956890841331831352155268619973e-13",
                 "4.21200970526555212932406282281177181972016001e-13",
                 "5.581738130286769264374116243865541796109e-51"),
            15: ("1.86502167465373542949887599509245501872775527e-13",
                 "1.42272327822303094146057233126086514799436513e-13",
                 "2.919911545689616003332598001985668690248e-51"),
        }
        for s, (re, im, err) in pinned.items():
            res = eng.L_at(s)
            with mp.workdps(eng.dps):
                assert res.method == "afe"
                assert abs(res.value - mpmath.mpc(re, im)) <= abs(res.value) * mp.mpf(10) ** -40
                assert abs(res.err_bound / mp.mpf(err) - 1) < mp.mpf(10) ** -30


class TestHelpers:
    def test_d4_matches_the_factorisation(self):
        table = [0] + [d4(n) for n in range(1, 3001)]
        assert d4_upto(3000) == table
        for n in (0, 1, 2, 3, 4, 8):
            assert d4_upto(n) == table[:n + 1]

    def test_d4_values(self):
        d4 = d4_upto(16)
        assert d4[1] == 1 and d4[2] == 4 and d4[4] == 10 and d4[6] == 16
        assert d4[16] == 35  # C(4+3-1... ordered factorizations of 2^4
