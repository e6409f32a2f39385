from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from oracles import (Unsupported, archimedean_factor_mpc, coefficients, euler_expand,
                     euler_factor, rs_coefficients_algnum, weight24_eigenform)

from rscong.exactnum import GUARD_DIGITS, AlgNum, ExactError
from rscong.forms import NewformData, char_from_kronecker, delta_family_qexp, primes_upto
from rscong.rankin import (PoleError, archimedean_factor, critical_set,
                           gamma_ratio, rs_coefficients, theorem_ranges,
                           translate_argument)


class TestCoefficients:
    def test_b1_is_one(self, rs_small):
        assert coefficients(rs_small)[1] == 1

    def test_b2_matches_local_factor(self, rs_small):
        # level-1 pair: b_{2^r} generating function is the inverse degree-4 factor
        loc = euler_factor(rs_small.h, rs_small.h2, 2)
        exp = euler_expand([loc], 4)
        b = coefficients(rs_small)
        assert exp[2] == b[2] and exp[4] == b[4]

    def test_level_prime_contributes_products_only(self, rs_74_prime):
        # at p | M the correction factor is empty: b_{3^r} = a_{3^r} a'_{3^r}
        rs = rs_74_prime
        b = coefficients(rs)
        for r in (1, 2, 3):
            n = 3 ** r
            assert b[n] == rs.h.a(n) * rs.h2.a(n)

    def test_euler_product_identity_74(self, rs_74_prime, rs_74_dprime):
        for rs in (rs_74_prime, rs_74_dprime):
            facs = [euler_factor(rs.h, rs.h2, p) for p in primes_upto(1000)]
            exp = euler_expand(facs, 1000)
            b = coefficients(rs)
            assert all(exp[n] == b[n] for n in range(1, 1001))

    def test_euler_product_identity_level1(self, rs_small):
        facs = [euler_factor(rs_small.h, rs_small.h2, p) for p in primes_upto(500)]
        exp = euler_expand(facs, 500)
        b = coefficients(rs_small)
        assert all(exp[n] == b[n] for n in range(1, 501))

    @pytest.mark.parametrize("case", ["12,22", "3.13.b.a", "3.13.b.b", "24,12"])
    def test_integer_convolution_matches_algnum(self, case, h_prime, h_dprime):
        # entry by entry, coordinate by coordinate.  The weight-24 eigenform has
        # integer coordinates in Q(sqrt(144169)); scaled by the integer
        # (1 + sqrt(144169))/2 its coordinates are half-integers
        if case == "12,22":
            n = 600
            h, h2 = delta_family_qexp(12, n), delta_family_qexp(22, n)
        elif case == "24,12":
            n = 300
            g = weight24_eigenform(n)
            half = AlgNum(g.field, Fraction(1, 2), Fraction(1, 2))
            h = NewformData.from_values(g.level, g.weight, g.char,
                                        [0] + [g.a(m) * half for m in range(1, n + 1)],
                                        label=g.label, is_eigenform=False)
            h2 = delta_family_qexp(12, n)
        else:
            n = 1200
            h, h2 = {"3.13.b.a": h_prime, "3.13.b.b": h_dprime}[case], delta_family_qexp(16, n)
        got = coefficients(rs_coefficients(h, h2, n))
        want = rs_coefficients_algnum(h, h2, n)
        assert [(c.a, c.b) for c in got] == [(c.a, c.b) for c in want]
        assert any(c.a.denominator == 2 for c in got) == (case == "24,12")

    def test_insufficient_coefficients(self):
        d = delta_family_qexp(12, 10)
        f = delta_family_qexp(16, 10)
        with pytest.raises(Exception) as err:
            rs_coefficients(d, f, 50)
        assert "50" in str(err.value)

    def test_weight_ordering_normalized(self, h_prime, h_aux26):
        rs = rs_coefficients(h_aux26, h_prime, 100)
        assert (rs.k, rs.k2) == (13, 26) and rs.h is h_prime

    def test_character_modulus_must_divide_the_level(self):
        # delta:12 given chi_-4 at level 1: the modulus 4 does not divide
        # lcm(1, 1), a typed error rather than an assert that -O removes
        h = replace(delta_family_qexp(12, 8), char=char_from_kronecker(-4))
        with pytest.raises(ExactError, match="moduli 4 and 1"):
            rs_coefficients(h, delta_family_qexp(16, 8), 8)


class TestEulerFactor:
    def test_linear_coefficient(self, rs_small):
        loc = euler_factor(rs_small.h, rs_small.h2, 5)
        assert loc.poly[1] == -(rs_small.h.a(5) * rs_small.h2.a(5))

    def test_top_coefficient_norm_term(self, rs_small):
        k, k2 = rs_small.k, rs_small.k2
        loc = euler_factor(rs_small.h, rs_small.h2, 7)
        expected = Fraction(7) ** (2 * (k - 1)) * Fraction(7) ** (2 * (k2 - 1))
        assert loc.poly[4] == expected

    def test_steinberg_side_degree_two(self, h_prime, h_aux26):
        loc = euler_factor(h_prime, h_aux26, 3)
        assert loc.degree() == 2
        assert loc.poly[1] == -(h_prime.a(3) * h_aux26.a(3))
        assert loc.poly[2] == h_prime.a(3) * h_prime.a(3) * Fraction(3) ** 25

    def test_shared_level_prime_unsupported(self, h_prime):
        with pytest.raises(Unsupported) as err:
            euler_factor(h_prime, h_prime, 3)
        assert "square-free" in str(err.value)


class TestArchimedean:
    def test_pole_locations(self):
        with pytest.raises(PoleError):
            archimedean_factor(12, 13, 30)  # s + 1 - k = 0
        archimedean_factor(13, 13, 30)  # finite

    @pytest.mark.parametrize("k", [0, 1, 13, 26])
    def test_poles_left_of_k_and_at_zero(self, k):
        for s in range(-3, max(k, 1)):
            with pytest.raises(PoleError):
                archimedean_factor(s, k, 30)

    @pytest.mark.parametrize("P", [8, 30, 60, 135])
    def test_factorials_match_complex_gamma(self, P):
        # within a few units in the last place of the working precision
        prec = mpmath.libmp.dps_to_prec(P + GUARD_DIGITS)
        for k in range(1, 31):
            for s in range(k, k + 45):
                got = archimedean_factor(s, k, P)
                want = archimedean_factor_mpc(s, k, P)
                assert want.imag == 0
                with mpmath.workdps(P + 40):
                    assert abs(got - want.real) <= 4 * abs(want.real) * mpmath.ldexp(1, -prec)

    def test_gamma_ratio_examples(self):
        assert gamma_ratio(25, 13) == Fraction(1, 25 * 13)
        with pytest.raises(PoleError):
            gamma_ratio(12, 13)

    def test_gamma_ratio_exact_identity(self):
        for k in (4, 13, 26):
            for m in range(k, k + 20):
                assert gamma_ratio(m, k) * (m * (m + 1 - k)) == 1

    def test_gamma_ratio_matches_numeric(self):
        import mpmath

        k, m = 13, 20
        with mpmath.workdps(40):
            num = archimedean_factor(m, k, 40)
            den = archimedean_factor(m + 1, k, 40)
            lhs = num / den * (2 * mpmath.pi) ** (-2)
            rhs = mpmath.mpf(1) / (m * (m + 1 - k))
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -35


class TestRanges:
    def test_critical_set_74(self):
        cs = critical_set(13, 26)
        assert cs == list(range(13, 26)) and len(cs) == 26 - 13

    def test_critical_examples(self):
        assert critical_set(4, 8) == [4, 5, 6, 7]
        assert critical_set(4, 5) == [4]
        assert critical_set(8, 4) == []

    def test_right_range_74(self):
        tr = theorem_ranges(13, 26)
        assert tr.right_twists == (-1, 0, 1, 2, 3, 4)
        assert tr.right_pairs[0] == (24, 25)

    def test_boundary_cases(self):
        assert theorem_ranges(10, 12).right_twists == (-1,)
        assert theorem_ranges(10, 12).right_pairs == ((10, 11),)
        assert theorem_ranges(10, 13).right_twists == (-1,)

    def test_translate(self):
        assert translate_argument(-1, 26) == (24, 25)
        assert translate_argument(0, 26) == (23, 24)
        for m in range(-1, 5):
            a, b = translate_argument(m, 26)
            assert b - a == 1

    def test_all_covered_pairs_critical(self):
        for (k, k2) in [(13, 26), (4, 8), (10, 12), (11, 26), (4, 30)]:
            tr = theorem_ranges(k, k2)
            cs = set(critical_set(k, k2))
            for a, b in tr.right_pairs + tr.left_pairs + tr.lower_weight_pairs:
                assert a in cs and b in cs, (k, k2, a, b)
