from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from rscong.congruence import (check_congruent, eisenstein_screen,
                               excluded_primes, gamma0_index, sturm_bound)
from rscong.exactnum import (AlgNum, ExactError, NotIntegral, QuadField, RATIONAL,
                             factor_rational_prime)
from rscong.forms import NewformData, char_from_kronecker, delta_family_qexp, primes_upto

F26 = QuadField(-26)
L13 = factor_rational_prime(13, F26)[0]


def rational_prime(l):
    return factor_rational_prime(l, RATIONAL)[0]


class TestSturm:
    def test_paper_cases(self):
        assert sturm_bound(13, 3) == 5
        assert sturm_bound(26, 1) == 3
        assert sturm_bound(12, 1) == 1

    def test_monotone(self):
        # monotone in the weight, and in the level along divisibility
        for N in (1, 2, 3, 6, 10):
            for k in (2, 4, 8, 16):
                assert sturm_bound(k + 2, N) >= sturm_bound(k, N)
                assert sturm_bound(k, 2 * N) >= sturm_bound(k, N)
                assert sturm_bound(k, 3 * N) >= sturm_bound(k, N)


class TestCheckCongruent:
    def test_74_pair(self, h_prime, h_dprime):
        rep = check_congruent(h_prime, h_dprime, L13, n_extra=50)
        assert rep.congruent and rep.first_failure is None
        assert rep.bound_used == 50

    def test_reflexive(self, h_prime):
        assert check_congruent(h_prime, h_prime, L13).congruent

    def test_symmetric(self, h_prime, h_dprime):
        a = check_congruent(h_prime, h_dprime, L13, n_extra=30)
        b = check_congruent(h_dprime, h_prime, L13, n_extra=30)
        assert a.congruent == b.congruent

    def test_constructed_failure(self):
        d = delta_family_qexp(12, 12)
        x = list(d.x)
        x[2] = x[2] + d.D  # a(2) + 1
        tweaked = replace(d, x=tuple(x), is_eigenform=False)
        rep = check_congruent(d, tweaked, rational_prime(5), n_extra=10)
        assert not rep.congruent and rep.first_failure == 2

    def test_integrality_guard(self):
        d = delta_family_qexp(12, 12)
        values = [0] + [d.a(n) for n in range(1, d.n_max + 1)]
        values[3] = AlgNum.rational(Fraction(1, 5))
        bad = NewformData.from_values(d.level, d.weight, d.char, values, is_eigenform=False)
        with pytest.raises(NotIntegral):
            check_congruent(d, bad, rational_prime(5), n_extra=10)


def cut(h: NewformData, n: int) -> NewformData:
    """h with its coefficients a(1..n) only."""
    return replace(h, x=h.x[: n + 1], y=h.y[: n + 1])


class TestSturmRefusal:
    """No comparison stops short of the Sturm bound, 5 for weight 13 at
    level 3: below it the congruence check raises and the screen does not
    run."""

    @pytest.mark.parametrize("l", [5, 7, 13])
    def test_congruence_below_sturm_raises(self, h_prime, h_dprime, l):
        P = factor_rational_prime(l, F26)[0]
        with pytest.raises(ExactError, match=r"3\.13\.b\.a: n_max = 1 is below the bound 5 "):
            check_congruent(cut(h_prime, 1), cut(h_dprime, 1), P, n_extra=50)

    @pytest.mark.parametrize("l", [5, 7, 13])
    def test_screen_below_sturm_is_unchecked(self, h_prime, l):
        P = factor_rational_prime(l, F26)[0]
        alarm = eisenstein_screen(cut(h_prime, 1), P)
        assert alarm == f"unchecked: 3.13.b.a: n_max = 1 is below the bound 6 the " \
                        f"comparison mod {l} needs"

    def test_at_the_bound(self, h_prime, h_dprime):
        # the Sturm bound decides, and n_extra counts only as far as both forms reach
        rep = check_congruent(cut(h_prime, 5), cut(h_dprime, 5), L13, n_extra=50)
        assert rep.congruent and rep.bound_used == 5
        rep = check_congruent(cut(h_prime, 10), h_dprime, L13, n_extra=50)
        assert rep.congruent and rep.bound_used == 10
        assert eisenstein_screen(cut(h_prime, 6), L13) == "eis-13-3"

    @pytest.mark.parametrize("l", [5, 7])
    def test_full_fixtures_differ_at_two(self, h_prime, h_dprime, l):
        rep = check_congruent(h_prime, h_dprime, factor_rational_prime(l, F26)[0])
        assert not rep.congruent and rep.first_failure == 2 and rep.bound_used == 5


class TestEisensteinScreen:
    def test_ramanujan_fires(self):
        d = delta_family_qexp(12, 30)
        assert eisenstein_screen(d, rational_prime(691)) == "eis-12-1"

    def test_small_primes_do_not_fire(self):
        d = delta_family_qexp(12, 30)
        assert eisenstein_screen(d, rational_prime(5)) is None
        assert eisenstein_screen(d, rational_prime(11)) is None

    def test_unchecked_screen_is_not_clear(self):
        # weight 12 with the odd character chi_-4: no E_12(chi_-4) exists to
        # compare with, so the screen reports that it did not run
        d = replace(delta_family_qexp(12, 30), char=char_from_kronecker(-4))
        alarm = eisenstein_screen(d, rational_prime(691))
        assert alarm == "unchecked: parity mismatch: weight 12 needs an even character"

    def test_74_alarm(self, h_prime, h_dprime):
        assert eisenstein_screen(h_prime, L13) == "eis-13-3"
        assert eisenstein_screen(h_dprime, L13) == "eis-13-3"


class TestExcludedPrimes:
    def test_74_sets(self):
        out = excluded_primes(13, 26, 3, 1)
        assert out["S_weight"][-1] == 23 and 13 in out["S_weight"]
        assert out["S_level"] == [3]

    def test_tiny(self):
        out = excluded_primes(2, 2, 1, 1)
        assert out["S_weight"] == [2] and out["S_level"] == []

    def test_level_factorization(self):
        out = excluded_primes(4, 8, 6, 35)
        assert out["S_level"] == [2, 3, 5, 7]

    def test_levels_are_factored_as_the_sieve_finds_them(self):
        # every N, N2 <= 60 against the primes up to N N2 that divide it
        primes = primes_upto(60 * 60)
        for N in range(1, 61):
            mu = N
            for p in (q for q in primes if N % q == 0):
                mu = mu // p * (p + 1)
            assert gamma0_index(N) == mu, N
            for N2 in range(1, 61):
                sieved = [p for p in primes if N * N2 % p == 0]
                assert excluded_primes(2, 4, N, N2)["S_level"] == sieved, (N, N2)

    def test_large_prime_levels(self):
        # a sieve up to N N2 ~ 10^20 cannot run; factoring each level can
        p, q = 10 ** 10 + 19, 10 ** 10 + 33
        assert excluded_primes(2, 4, p, q)["S_level"] == [p, q]
        assert gamma0_index(p) == p + 1
