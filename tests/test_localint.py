from __future__ import annotations

import random
from fractions import Fraction

import pytest

from localint import (ConvergenceViolation, HalfPower, HalfPowerParity,
                      SteinbergTwist, UnramifiedPS, local_constant)
from oracles import (UnsupportedLocal, euler_factor, geometric_factor,
                     geometric_factor_for, steinberg_from_form,
                     unramified_from_form, vanishing_checks)

from rscong.exactnum import AlgNum, QuadField
from rscong.forms import delta_family_qexp


def random_split_sample(rng):
    """(p, K, chi, alpha'_1, alpha'_2, a_p) with rational Satake parameters
    and nonvanishing geometric denominators."""
    while True:
        p = rng.choice([2, 3, 5, 7, 11])
        K = rng.choice([6, 8, 13, 26])
        chi = rng.choice([1, -1])
        a1 = Fraction(rng.randrange(1, 50), rng.randrange(1, 20)) * rng.choice([1, -1])
        a2 = Fraction(chi) * Fraction(p) ** (K - 1) / a1
        ap = Fraction(rng.randrange(1, 60), rng.randrange(1, 9)) * rng.choice([1, -1])

        def poly(t):
            return (1 - ap * a1 * t) * (1 - ap * a2 * t)

        if poly(Fraction(p) ** (-(K - 1))) and poly(Fraction(p) ** (-(K - 2))):
            return p, K, chi, a1, a2, ap, poly


def make_reps(p, K, chi, a1, a2, ap):
    trace = HalfPower(p, AlgNum.rational(Fraction(chi) * (a1 + a2)), -1)
    det = AlgNum.rational(Fraction(chi) * Fraction(p) ** (K - 2))
    return (SteinbergTwist(p=p, chi_p_at_p=AlgNum.rational(ap)),
            UnramifiedPS(p=p, trace=trace, det=det, weight=K))


class TestHalfPower:
    def test_fold_even(self):
        h = HalfPower(5, AlgNum.rational(3), 4)
        assert h.fold() == 75

    def test_fold_odd_raises(self):
        with pytest.raises(HalfPowerParity):
            HalfPower(5, AlgNum.rational(3), 1).fold()

    def test_product_tracks_exponent(self):
        a = HalfPower(5, AlgNum.rational(2), 1)
        b = HalfPower(5, AlgNum.rational(3), -3)
        assert (a * b).half == -2 and (a * b).fold() == Fraction(6, 5)

    def test_mixed_parity_addition_raises(self):
        with pytest.raises(HalfPowerParity):
            HalfPower(5, AlgNum.rational(1), 0) + HalfPower(5, AlgNum.rational(1), 1)


class TestGeometricFactor:
    def test_empty_tail(self):
        assert geometric_factor(Fraction(0), 7).value == 1

    def test_pinned_numeric(self):
        assert geometric_factor(Fraction(1), 5).value == Fraction(4, 5) / Fraction(24, 25)
        assert geometric_factor(Fraction(1), 5).value == Fraction(5, 6)

    def test_symbolic_shape_random(self):
        rng = random.Random(4)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            X = Fraction(rng.randrange(-20, 20), rng.randrange(1, 7))
            if X == p * p:
                continue
            got = geometric_factor(X, p).value
            want = (1 - Fraction(1, p) * X) / (1 - Fraction(1, p * p) * X)
            assert got == want

    def test_divergent(self):
        with pytest.raises(ConvergenceViolation):
            geometric_factor(Fraction(25), 5)


class TestLocalConstant:
    def test_triple_identity_200_random(self):
        rng = random.Random(99)
        for _ in range(200):
            p, K, chi, a1, a2, ap, poly = random_split_sample(rng)
            st, ps = make_reps(p, K, chi, a1, a2, ap)
            c = local_constant(st, ps, p)
            prod = geometric_factor_for(st, ps, 0).value * geometric_factor_for(st, ps, 1).value
            ratio = AlgNum.rational(
                poly(Fraction(p) ** (-(K - 2))) / poly(Fraction(p) ** (-(K - 1))))
            assert c == prod == ratio

    def test_degenerate_twist(self):
        st = SteinbergTwist(3, AlgNum.rational(0))
        ps = UnramifiedPS(3, HalfPower(3, AlgNum.rational(2), -1),
                          AlgNum.rational(Fraction(3) ** 24), 26)
        assert local_constant(st, ps, 3) == 1

    def test_74_cross_module(self, h_prime, h_aux26):
        st = steinberg_from_form(h_prime, 3)
        ps = unramified_from_form(h_aux26, 3)
        c3 = local_constant(st, ps, 3)
        loc = euler_factor(h_prime, h_aux26, 3)
        t_hi = AlgNum.rational(Fraction(3) ** (-24))
        t_lo = AlgNum.rational(Fraction(3) ** (-25))
        assert c3 == loc.eval_alg(t_hi) / loc.eval_alg(t_lo)

    def test_74_quadratic_cross_module(self, h_dprime, h_aux26):
        st = steinberg_from_form(h_dprime, 3)
        ps = unramified_from_form(h_aux26, 3)
        c3 = local_constant(st, ps, 3)
        loc = euler_factor(h_dprime, h_aux26, 3)
        t_hi = AlgNum.rational(Fraction(3) ** (-24)).promote(QuadField(-26))
        t_lo = AlgNum.rational(Fraction(3) ** (-25)).promote(QuadField(-26))
        assert c3 == loc.eval_alg(t_hi) / loc.eval_alg(t_lo)

    def test_mirrored_orientation_by_swapping(self, h_prime):
        # Steinberg at the other level: same machinery with arguments swapped
        f = delta_family_qexp(26, 10)
        st = steinberg_from_form(h_prime, 3)  # h_prime carries the level
        ps = unramified_from_form(f, 3)
        assert local_constant(st, ps, 3) is not None

    def test_evenness_invariant(self):
        rng = random.Random(5)
        for _ in range(50):
            p, K, chi, a1, a2, ap, _ = random_split_sample(rng)
            st, ps = make_reps(p, K, chi, a1, a2, ap)
            twist = HalfPower(p, AlgNum.rational(1), 3)
            det_hp = HalfPower.of(p, ps.det)
            a = HalfPower.of(p, st.chi_p_at_p)
            for hp in (a * ps.trace / det_hp * twist, a * a / det_hp * twist * twist):
                assert hp.half % 2 == 0 or not hp.alg

    def test_wrong_level_rejected(self, h_prime):
        with pytest.raises(UnsupportedLocal):
            steinberg_from_form(h_prime, 5)
        with pytest.raises(UnsupportedLocal):
            unramified_from_form(h_prime, 3)


class TestVanishing:
    def test_all_claims(self):
        for p in (2, 3, 5):
            out = vanishing_checks(p, 1)
            assert all(out.values())
