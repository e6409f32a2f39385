from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscong.exactnum import (AlgNum, ExactError, FieldMismatch, PrimeIdeal,
                             QuadField, RAMIFIED, RATIONAL, SPLIT, compositum,
                             factor_rational_prime, kronecker,
                             quad_normalize, valuation, vp)

F26 = QuadField(-26)
L13 = factor_rational_prime(13, F26)[0]


def sqrt26(b=1):
    return AlgNum(F26, Fraction(0), Fraction(b))


class TestQuadNormalize:
    def test_paper_radicand(self):
        assert quad_normalize(-8424) == (-26, 18)

    def test_already_squarefree(self):
        assert quad_normalize(5) == (5, 1)

    def test_square_factor(self):
        assert quad_normalize(12) == (3, 2)

    def test_zero_rejected(self):
        with pytest.raises(ExactError):
            quad_normalize(0)


class TestKronecker:
    def test_small_values(self):
        assert kronecker(-3, 2) == -1
        assert kronecker(-4, 3) == -1
        assert kronecker(5, 5) == 0
        assert kronecker(-3, 1) == 1

    def test_matches_euler_criterion(self):
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                expected = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                assert kronecker(a, p) == expected


class TestFactorPrime:
    def test_ramified_above_13(self):
        ideals = factor_rational_prime(13, F26)
        assert len(ideals) == 1 and ideals[0].kind == RAMIFIED
        assert ideals[0].residue_degree == 1

    def test_split_above_5(self):
        ideals = factor_rational_prime(5, F26)
        assert len(ideals) == 2 and all(i.kind == SPLIT for i in ideals)
        for i in ideals:
            assert i.generator2.norm() % 5 == 0

    def test_rational_field(self):
        ideals = factor_rational_prime(7, RATIONAL)
        assert len(ideals) == 1 and ideals[0].residue_degree == 1

    def test_non_prime_rejected(self):
        with pytest.raises(ExactError):
            factor_rational_prime(15, F26)

    def test_degree_accounting(self):
        # sum over ideals of e * f equals the field degree 2
        rng = random.Random(11)
        fields = []
        while len(fields) < 20:
            d = rng.randrange(-80, 80)
            if d in (0, 1):
                continue
            fields.append(QuadField(quad_normalize(d)[0]))
        for F in fields:
            for l in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
                ideals = factor_rational_prime(l, F)
                total = sum((2 if i.kind == RAMIFIED else 1) * i.residue_degree
                            for i in ideals)
                assert total == 2, (F, l)


class TestValuation:
    def test_ramified_examples(self):
        assert valuation(AlgNum.rational(13), L13) == 2
        assert valuation(AlgNum.rational(1), L13) == 0
        assert valuation(sqrt26(), L13) == 1

    def test_split_example(self):
        P5 = factor_rational_prime(5, F26)[0]
        assert valuation(AlgNum.rational(26), P5) == 0

    def test_zero_sentinel(self):
        assert valuation(AlgNum.rational(0), L13) == math.inf

    def test_additive_on_products(self):
        rng = random.Random(3)
        for _ in range(200):
            x = AlgNum(F26, Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)),
                       Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)))
            y = AlgNum(F26, Fraction(rng.randrange(-30, 31)), Fraction(rng.randrange(-30, 31)))
            if not x or not y:
                continue
            assert valuation(x * y, L13) == valuation(x, L13) + valuation(y, L13)

    def test_split_conjugate_sum(self):
        P5a, P5b = factor_rational_prime(5, F26)
        rng = random.Random(5)
        for _ in range(100):
            x = AlgNum(F26, Fraction(rng.randrange(-50, 51)), Fraction(rng.randrange(-50, 51)))
            if not x:
                continue
            assert valuation(x, P5a) + valuation(x, P5b) == vp(x.norm(), 5)

    @pytest.mark.parametrize("p", [1, 0, -1, -3])
    def test_vp_needs_p_at_least_2(self, p):
        # p = 1 and p = -1 divide every numerator: the count would never end
        with pytest.raises(ExactError, match=f"p = {p}"):
            vp(Fraction(6, 5), p)


small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestFieldAxioms:
    @given(small_rats, small_rats, small_rats, small_rats, small_rats, small_rats)
    @settings(max_examples=300, deadline=None)
    def test_ring_axioms(self, a1, b1, a2, b2, a3, b3):
        x = AlgNum(F26, a1, b1)
        y = AlgNum(F26, a2, b2)
        z = AlgNum(F26, a3, b3)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x

    @given(small_rats, small_rats)
    @settings(max_examples=200, deadline=None)
    def test_norm_trace_vs_conjugate(self, a, b):
        x = AlgNum(F26, a, b)
        assert x * x.conj() == x.norm()
        assert x + x.conj() == 2 * x.a

    @given(small_rats, small_rats)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a, b):
        x = AlgNum(F26, a, b)
        if x:
            assert x * x.inverse() == 1


class TestFieldPromotion:
    def test_compositum_rules(self):
        assert compositum(RATIONAL, F26) == F26
        assert compositum(F26, F26) == F26
        with pytest.raises(FieldMismatch):
            compositum(F26, QuadField(5))

    def test_mixed_arithmetic(self):
        x = AlgNum.rational(3)
        y = sqrt26()
        assert (x + y).field == F26
        assert valuation(AlgNum.rational(14).promote(F26) - AlgNum.rational(1), L13) >= 1
