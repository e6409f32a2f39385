from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from rscong.exactnum import GUARD_DIGITS, AlgNum, ExactError
from rscong.forms import delta_family_qexp, trivial_char
from rscong.lvalue import (InsufficientCoefficients, KernelLadder, KernelSpecError,
                           LEngine, NormalizationError, besselk_pair, d4_upto,
                           get_engine, tree_sum)
from rscong.rankin import RankinSeries, archimedean_factor, rs_coefficients


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


@pytest.fixture(scope="module")
def engine_small(rs_small):
    return LEngine(rs_small, 40)


class TestBesselK:
    def test_against_mpmath(self):
        with mp.workdps(40):
            for nu in (11, 12):
                for x in (0.3, 2.0, 9.0, 33.0, 120.0, 260.0):
                    got = besselk_pair(nu, mp.mpf(x), 40)
                    want = (mpmath.besselk(nu, mp.mpf(x)),
                            mpmath.besselk(nu + 1, mp.mpf(x)))
                    for g, w in zip(got, want):
                        assert abs(g - w) / abs(w) < mp.mpf(10) ** -38

    def test_precision_scales(self):
        x = mp.mpf(50)
        lo = besselk_pair(12, x, 30)[0]
        hi = besselk_pair(12, x, 90)[0]
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
                    fast = ladder.G(s, x)
                    ref = afe_kernel(x, s, spec, k)
                    assert abs(fast - ref) / abs(fast) < mp.mpf(10) ** -25

    def test_small_x_limit_is_archimedean_mass(self):
        ladder = KernelLadder(13, 40)
        with mp.workdps(55):
            for s in (13, 20, 25):
                tiny = ladder.G(s, mp.mpf(10) ** -30)
                linf = ladder.G_zero_limit(s)
                assert abs(tiny - linf) / abs(linf) < mp.mpf(10) ** -20

    def test_monotone_decay(self):
        ladder = KernelLadder(13, 40)
        with mp.workdps(55):
            vals = [ladder.G(19, mp.mpf(x)) for x in (1, 2, 4, 8, 16, 32)]
            assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_contour_pole_rejected(self):
        with pytest.raises(KernelSpecError):
            afe_kernel(mp.mpf(1), 13, AfeKernelSpec(c=-0.5), 13)
        with pytest.raises(KernelSpecError):
            afe_kernel(mp.mpf(1), 5, AfeKernelSpec(c=1.0), 13)  # s + c <= k - 1

    def test_ladder_parity_guard(self):
        ladder = KernelLadder(13, 30)
        with pytest.raises(KernelSpecError):
            ladder.J(14, mp.mpf(2))  # even offset from nu = 12


class TestDirect:
    def test_degenerate_series_is_archimedean_factor(self):
        # b_n = 0 beyond n = 1: Lambda(s) = L_inf(s) exactly
        one = AlgNum.rational(1)
        zero = AlgNum.rational(0)
        d = delta_family_qexp(12, 8)
        f = delta_family_qexp(16, 8)
        rs = rs_coefficients(d, f, 8)
        rs = RankinSeries(h=rs.h, h2=rs.h2, b=(zero, one) + (zero,) * 7,
                          M=1, char_prod=rs.char_prod, gamma=rs.gamma, Q=rs.Q)
        eng = LEngine(rs, 20)
        val, err = eng.direct_lambda(40)
        with mp.workdps(40):
            linf = archimedean_factor(40, 12, 40)
            assert abs(val - linf) / abs(linf) < mp.mpf(10) ** -18

    def test_convergence_precondition(self, engine_small):
        with pytest.raises(Exception):
            engine_small.direct_finite(14)  # (k + k2)/2 = 14

    def test_insufficient_reports_needed_n(self, rs_small):
        eng = LEngine(rs_small, 80)
        with pytest.raises(InsufficientCoefficients) as err:
            eng.direct_lambda(16)
        assert err.value.n_needed > rs_small.n_max

    def test_edge_point_even_weight_sum_uses_afe(self, engine_small):
        # s = (k + k2)/2 + 1 = 15 on (12,16): no certified direct tail there
        res = engine_small.L_at(15)
        assert res.method == "afe"
        assert res.value == engine_small.lambda_afe(15)[0]

    def test_edge_point_odd_weight_sum_claims_no_n_max(self, h_prime):
        # (13,16) at s = 15: 2s = 30 <= k + k2 + 2, so no n_max certifies the tail
        rs = rs_coefficients(h_prime, delta_family_qexp(16, 400), 400)
        with pytest.raises(ExactError) as err:
            LEngine(rs, 30).direct_finite(15)
        assert not isinstance(err.value, InsufficientCoefficients)

    def test_edge_point_outside_window_is_typed(self):
        n = 30
        rs = rs_coefficients(delta_family_qexp(18, n), delta_family_qexp(20, n), n)
        with pytest.raises(ExactError):
            LEngine(rs, 30).L_at(20)  # right of the window (18..19), at the direct edge


class TestEngineLifetime:
    def test_series_owns_engines_and_engines_share_ladders(self):
        n, P = 40, 23  # a precision no other test keeps an engine at
        d12 = delta_family_qexp(12, n)
        rs_a = rs_coefficients(d12, delta_family_qexp(16, n), n)
        rs_b = rs_coefficients(d12, delta_family_qexp(22, n), n)
        eng = get_engine(rs_a, P)
        assert get_engine(rs_a, P) is eng
        assert get_engine(rs_b, P).ladder is eng.ladder
        refs = [weakref.ref(eng), weakref.ref(eng.ladder)]
        del eng, rs_a, rs_b
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestEngineSmallPair:
    def test_root_number_real_unitary(self, engine_small):
        root = engine_small.solve_root_number()
        with mp.workdps(50):
            assert abs(abs(root.eps) - 1) < mp.mpf(10) ** -14
            assert abs(root.eps.imag) < mp.mpf(10) ** -14
            assert root.residual < mp.mpf(10) ** -14

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
        root = engine_small.solve_root_number()
        conj = LEngine(rs_small.conjugate_pair(), 40)
        k, k2 = rs_small.gamma
        with mp.workdps(60):
            for s in range(k, k2):
                lhs = engine_small.lambda_afe(s)[0]
                rhs = root.eps * engine_small._alpha_pow(s) * conj.lambda_afe(k + k2 - 1 - s)[0]
                scale = abs(engine_small.ladder.G_zero_limit(s))
                assert abs(lhs - rhs) <= scale * mp.mpf(10) ** -(40 // 3)

    def test_precision_monotonicity(self, rs_small, engine_small):
        hi = LEngine(rs_small, 70)
        with mp.workdps(80):
            a = engine_small.L_at(14).value
            b = hi.L_at(14).value
            assert abs(a - b) <= abs(b) * mp.mpf(10) ** -15

    def test_wrong_conductor_fails_unitarity(self, rs_small):
        bad = RankinSeries(h=rs_small.h, h2=rs_small.h2, b=rs_small.b,
                           M=rs_small.M, char_prod=rs_small.char_prod,
                           gamma=rs_small.gamma, Q=rs_small.Q * 4)
        eng = LEngine(bad, 40)
        with pytest.raises(NormalizationError):
            eng.solve_root_number()

    def test_method_fields(self, engine_small, rs_small):
        assert engine_small.L_at(14).method == "afe"
        eng80 = LEngine(rs_small, 12)
        assert eng80.L_at(40).method == "direct"


class TestHelpers:
    def test_tree_sum_deterministic(self):
        with mp.workdps(30):
            vals = [mp.mpf(1) / (i + 1) for i in range(101)]
            assert tree_sum(vals) == tree_sum(vals)
            assert abs(tree_sum(vals) - sum(vals)) < mp.mpf(10) ** -25
        assert tree_sum([]) == 0

    def test_d4_values(self):
        d4 = d4_upto(16)
        assert d4[1] == 1 and d4[2] == 4 and d4[4] == 10 and d4[6] == 16
        assert d4[16] == 35  # C(4+3-1... ordered factorizations of 2^4
