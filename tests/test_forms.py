from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import char_inverse, conjugate_form, eta_series, qmul, weight24_eigenform

from rscong import forms
from rscong.exactnum import AlgNum, ExactError, QuadField
from rscong.forms import (DELTA_WEIGHTS, DirichletChar, NewformData, bernoulli,
                          bernoulli_chi, char_from_kronecker, delta_family_qexp,
                          divisor_sum, eisenstein_qexp, primes_upto, series_mul,
                          trivial_char)
from rscong.ingest import load_fixture, parse_record, save_fixture

CHI3 = char_from_kronecker(-3)
FIXTURES = Path(__file__).parent / "fixtures"


def is_multiplicative(chi: DirichletChar) -> bool:
    N = chi.modulus
    units = [a for a in range(N) if math.gcd(a, N) == 1]
    return all(chi(a * b) == chi(a) * chi(b) for a in units for b in units)


class TestCharacters:
    def test_kronecker_char_minus3(self):
        assert CHI3(1) == 1 and CHI3(2) == -1 and CHI3(3) == 0
        assert CHI3.parity == "odd"
        assert is_multiplicative(CHI3)

    def test_trivial_modulus_one(self):
        chi = char_from_kronecker(1)
        assert chi.modulus == 1 and chi(17) == 1

    def test_minus4(self):
        chi = char_from_kronecker(-4)
        assert chi(3) == -1 and chi.parity == "odd"

    def test_non_fundamental_rejected(self):
        with pytest.raises(ExactError):
            char_from_kronecker(-6)  # -6 = 2 mod 4

    def test_value_count_must_match_modulus(self):
        with pytest.raises(ExactError, match="mod 4 needs 4 values, got 1"):
            DirichletChar(4, (AlgNum.rational(1),))

    def test_inverse_is_conjugate(self):
        assert char_inverse(CHI3)(2) == CHI3(2)  # real character
        i = AlgNum(QuadField(-1), 0, 1)
        quartic = DirichletChar(5, (AlgNum.rational(0), AlgNum.rational(1), i, -i,
                                    AlgNum.rational(-1)))  # 2 -> i
        assert all(char_inverse(quartic)(r) * quartic(r) == 1 for r in range(1, 5))


class TestBernoulli:
    def test_classical_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_generalized_for_weight_13(self):
        # pinned through the printed Eisenstein constant: L(-12, chi)/2 = 55601/3
        b = bernoulli_chi(13, CHI3)
        assert -b / Fraction(26) == Fraction(55601, 3)


class TestEisenstein:
    def test_printed_expansion(self):
        E = eisenstein_qexp(13, CHI3, 4)
        assert E.constant_term == Fraction(55601, 3)
        assert [E.a(n) for n in (1, 2, 3, 4)] == [1, -4095, 1, 16773121]

    def test_trivial_char_first_coefficient(self):
        E = eisenstein_qexp(12, trivial_char(1), 1)
        assert E.a(1) == 1

    def test_multiplicative_coefficient(self):
        E = eisenstein_qexp(13, CHI3, 6)
        assert E.a(6) == E.a(2) * E.a(3) == -4095

    def test_parity_mismatch(self):
        with pytest.raises(ExactError):
            eisenstein_qexp(12, CHI3, 4)  # even weight, odd character

    def test_multiplicativity_invariant(self):
        E = eisenstein_qexp(13, CHI3, 60)
        for m, n in [(2, 3), (4, 5), (3, 8), (5, 7), (4, 9)]:
            assert E.a(m * n) == E.a(m) * E.a(n)


def _quartic_mod5() -> DirichletChar:
    """2 -> i: values in Q(i), coordinates over D = 1 with y != 0."""
    i = AlgNum(QuadField(-1), 0, 1)
    return DirichletChar(5, (AlgNum.rational(0), AlgNum.rational(1), i, -i,
                             AlgNum.rational(-1)))


def _cubic_mod7() -> DirichletChar:
    """3 -> (-1 + sqrt(-3)) / 2: values in Q(sqrt(-3)) over D = 2."""
    w = AlgNum(QuadField(-3), Fraction(-1, 2), Fraction(1, 2))
    vals, c = [AlgNum.rational(0)] * 7, AlgNum.rational(1)
    for j in range(6):
        vals[pow(3, j, 7)], c = c, c * w
    return DirichletChar(7, tuple(vals))


SUM_CHARS = {"1": trivial_char(), "chi-3": CHI3, "chi-4": char_from_kronecker(-4),
             "quartic5": _quartic_mod5(), "cubic7": _cubic_mod7()}


class TestDivisorSum:
    # each character on either side; Q(i) and Q(sqrt(-3)) have no compositum
    @pytest.mark.parametrize("outer, inner", [(o, i) for o in SUM_CHARS for i in SUM_CHARS
                                              if {o, i} != {"quartic5", "cubic7"}])
    def test_matches_direct_sum(self, outer, inner):
        # a(n) = sum_{d|n} outer(n/d) inner(d) d^(k-1), one AlgNum at a time
        f, g = SUM_CHARS[outer], SUM_CHARS[inner]
        n_max = 60
        for k in (1, 3, 4):
            x, y, D, F = divisor_sum(k, f, g, n_max)
            assert len(x) == len(y) == n_max + 1 and x[0] == y[0] == 0
            assert math.gcd(D, *x, *y) == 1  # D is the least denominator
            for n in range(1, n_max + 1):
                direct = sum((f(n // d) * g(d) * d ** (k - 1)
                              for d in range(1, n + 1) if n % d == 0), AlgNum.rational(0))
                assert AlgNum(F, Fraction(x[n], D), Fraction(y[n], D)) == direct

    def test_coordinates_of_a_quadratic_character(self):
        _, y, D, F = divisor_sum(2, trivial_char(), _cubic_mod7(), 30)
        assert (F.d0, D) == (-3, 2) and any(y)


class TestDeltaFamily:
    def test_tau_values(self):
        d = delta_family_qexp(12, 10)
        assert d.a(2) == -24 and d.a(1) == 1
        assert [d.a(n) for n in range(1, 8)] == [1, -24, 252, -1472, 4830, -6048, -16744]

    #: a(0..3) of each weight; at n = 0 the Jacobi series for eta^3 is empty
    FIRST = {12: (0, 1, -24, 252), 16: (0, 1, 216, -3348), 18: (0, 1, -528, -4284),
             20: (0, 1, 456, 50652), 22: (0, 1, -288, -128844), 26: (0, 1, -48, -195804)}

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", DELTA_WEIGHTS)
    def test_shortest_expansions_are_pinned(self, k, n):
        f = delta_family_qexp(k, n)
        assert (f.x, f.y, f.D) == (self.FIRST[k][:n + 1], (0,) * (n + 1), 1)

    def test_tau_is_computed_once_per_n_max(self):
        forms._delta_int.cache_clear()
        family = [delta_family_qexp(k, 300) for k in DELTA_WEIGHTS]
        info = forms._delta_int.cache_info()
        assert (info.misses, info.hits) == (1, len(DELTA_WEIGHTS) - 1)
        tau = forms._delta_int(300)
        assert isinstance(tau, tuple)  # shared by every weight: immutable
        delta = family[DELTA_WEIGHTS.index(12)]
        assert (delta.x, delta.y, delta.D) == (tau, (0,) * len(tau), 1)

    def test_weight_26_within_deligne(self):
        f = delta_family_qexp(26, 6)
        assert abs(f.a(2).embed(30)) <= 2 * 2 ** 12.5
        assert f.check_deligne_bound()

    def test_unsupported_weight(self):
        with pytest.raises(ExactError):
            delta_family_qexp(14, 4)

    def test_negative_n_max_is_named(self):
        with pytest.raises(ExactError, match=r"n_max must be >= 0, got -1"):
            delta_family_qexp(26, -1)

    #: sha256 of repr(x) at n = 6000: the same coefficients whatever slot the
    #: products take, pinned from series_mul's worst-case slot
    SHA_6000 = {
        12: "800ab2d234ff2878450266b9617b10817b7fff13685b024da6dbcbcd7f251bef",
        16: "358767575b47601a10354c77ab6c58874eb6e05205012518b5d9f39d3067a574",
        18: "c7138b723ae9b399f86a21d6df9b5bcb5bb65feaa695e5d024236b794e030b4c",
        20: "c8466f57786f632dbb6b768711e3badf3d844168ccf516e199da672990b650d0",
        22: "e304c89abe9bd6488c63c743fc41e3535e097d8638982b65d0ba798785575400",
        26: "7287f6eacd27f9b07a37075216cd3142c1f5bad666f7fad46a3e5603153b7a06",
    }

    @pytest.mark.parametrize("k", DELTA_WEIGHTS)
    def test_deligne_slot_keeps_every_coefficient(self, k):
        # the products' slots are sized by 2 N^(k/2); the data must obey it
        N = 6000
        x = delta_family_qexp(k, N).x
        assert hashlib.sha256(repr(x).encode()).hexdigest() == self.SHA_6000[k]
        assert max(map(abs, x)) <= 2 * N ** (k // 2)

    def test_all_weights_multiplicative(self):
        rng = random.Random(2)
        for k in DELTA_WEIGHTS:
            f = delta_family_qexp(k, 120)
            pairs = []
            while len(pairs) < 12:
                m = rng.randrange(2, 12)
                n = rng.randrange(2, 120 // m)
                if math.gcd(m, n) == 1:
                    pairs.append((m, n))
            assert f.check_hecke_multiplicativity(pairs)

    def test_deligne_numeric(self):
        for k in (12, 16, 26):
            assert delta_family_qexp(k, 100).check_deligne_bound(P=30)

    def test_matches_schoolbook_product(self):
        # independent oracle: q * eta^24 * E_{k-12} by schoolbook products,
        # with E_r = 1 - (2r / B_r) sum sigma_{r-1}(n) q^n
        n = 300

        def mul(f, g):
            out = [0] * (n + 1)
            for i, a in enumerate(f):
                if a:
                    for j in range(n + 1 - i):
                        out[i + j] += a * g[j]
            return out

        eta = [1] + [0] * n
        for m in range(1, n + 1):  # prod (1 - q^m)
            eta = [c - (eta[i - m] if i >= m else 0) for i, c in enumerate(eta)]
        eta2 = mul(eta, eta)
        eta8 = mul(mul(eta2, eta2), mul(eta2, eta2))
        delta = [0] + mul(mul(eta8, eta8), eta8)[:n]
        for k in DELTA_WEIGHTS:
            r = k - 12
            ek = [1] + [0] * n
            if r:
                c = -2 * r / bernoulli(r)
                ek = [1] + [int(c * sum(d ** (r - 1) for d in range(1, m + 1) if m % d == 0))
                            for m in range(1, n + 1)]
            expect = mul(delta, ek)
            f = delta_family_qexp(k, n)
            assert (f.x, f.y, f.D) == (tuple(expect), (0,) * (n + 1), 1)


class TestConjugate:
    def test_rational_form_fixed(self):
        d = delta_family_qexp(12, 20)
        rho = conjugate_form(d)
        assert (rho.x, rho.y, rho.D) == (d.x, d.y, d.D)

    def test_quadratic_coefficients_flip(self, h_dprime):
        rho = conjugate_form(h_dprime)
        a2 = h_dprime.a(2)
        assert rho.a(2) == a2.conj() == -a2  # a(2) is purely sqrt(-26)

    def test_char_inverted_relation(self, h_dprime):
        # a(p, h^rho) = chi(p)^(-1) a(p, h) for p prime to the level
        rho = conjugate_form(h_dprime)
        for p in (2, 5, 7, 11, 13):
            lhs = rho.a(p)
            rhs = h_dprime.char(p).conj() * h_dprime.a(p).conj() * h_dprime.char(p) \
                if False else h_dprime.a(p).conj()
            assert lhs == rhs


class TestSeriesHelpers:
    def test_eta_pentagonal(self):
        eta = eta_series(12)
        assert eta[:8] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_primes(self):
        assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]


def schoolbook(f, g, n_max: int) -> list[int]:
    m = n_max + 1
    return qmul(*((list(s) + [0] * m)[:m] for s in (f, g)))


#: signed coefficients of 0 to 400 bits, drawn size first
COEFFS = st.integers(0, 400).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
SERIES = st.one_of(
    st.lists(COEFFS, max_size=40),
    st.lists(st.just(0), max_size=40),  # all zero, or empty
    st.lists(COEFFS, min_size=1, max_size=1),
    st.builds(lambda c, n: [c] * n, COEFFS, st.integers(1, 40)))
#: every coefficient at one extreme: a product coefficient reaches
#: min(len f, len g) max|f| max|g|, the size the slot is chosen for
BIG = (1 << 400) - 1


class TestSeriesMul:
    @settings(max_examples=300, deadline=None)
    @given(SERIES, SERIES, st.integers(0, 44))
    @example([BIG] * 5, [-BIG] * 10, 3)  # below both lengths
    @example([BIG] * 5, [-BIG] * 10, 4)  # equal to the shorter
    @example([-BIG] * 10, [BIG, 0, -BIG, 0, BIG], 9)  # equal to the longer
    @example([-BIG] * 10, [BIG, 0, -BIG, 0, BIG], 12)  # above both
    @example([63] * 7, [127] * 7, 6)  # 7 * 63 * 127 >= 2^15 needs the slot's last bit
    @example([], [3, 4], 2)
    @example([0, 0], [0], 1)
    @example([5], [], -1)  # eta^3 to q^-1 at n_max = 0 is empty
    def test_matches_schoolbook(self, f, g, n_max):
        assert series_mul(f, g, n_max) == schoolbook(f, g, n_max)
        assert series_mul(f, f, n_max) == schoolbook(f, f, n_max)  # one packing, squared

    @settings(max_examples=300, deadline=None)
    @given(SERIES, SERIES, st.integers(0, 44))
    @example([127], [255], 0)  # 32385 < 2^15: the top bit is the slot's last value bit
    @example([1, BIG], [1, BIG], 1)  # q^2 has BIG^2, twice the slot: masked off
    def test_tight_bound_matches_schoolbook(self, f, g, n_max):
        # the bound is the largest kept |c_n|, the least a caller may pass
        for a, b in ((f, g), (f, f)):
            expect = schoolbook(a, b, n_max)
            assert series_mul(a, b, n_max, max(map(abs, expect))) == expect


class TestRepresentation:
    """a(n) = (x[n] + y[n] sqrt(d0)) / D, built by `NewformData.from_values`."""

    @staticmethod
    def _mixed(values, rng):
        """values[n] over a denominator 1..12 chosen per n, so D is the lcm."""
        return [0] + [c / Fraction(rng.randrange(1, 13)) for c in values[1:]]

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt(-26))", "Q(sqrt(144169))"])
    def test_from_values_round_trip(self, field, h_dprime):
        rng = random.Random(15)
        n = 80
        if field == "Q":
            values = [0] + [AlgNum.rational(Fraction(rng.randrange(-99, 100), rng.randrange(1, 9)))
                            for _ in range(n)]
        elif field == "Q(sqrt(-26))":
            values = self._mixed([0] + [h_dprime.a(m) for m in range(1, n + 1)], rng)
        else:
            g = weight24_eigenform(n)
            values = self._mixed([0] + [g.a(m) for m in range(1, n + 1)], rng)
        form = NewformData.from_values(1, 12, trivial_char(1), values, is_eigenform=False)
        assert repr(form.field) == field
        assert form.n_max == n and form.x[0] == form.y[0] == 0
        assert all(form.a(m) == values[m] for m in range(1, n + 1))
        assert form.D == math.lcm(*(v.a.denominator for v in values[1:]),
                                  *(v.b.denominator for v in values[1:]))

    @pytest.mark.parametrize("change, match", [
        ({"y": (0, 0)}, "one length"),
        ({"x": (1, 1, 5)}, r"x\[0\] = y\[0\] = 0"),
        ({"D": 0}, "D > 0"),
        ({"y": (0, 0, 1)}, "irrational coefficient in a rational field"),
        ({"x": (0, 2, 5)}, r"a\(1\) must be 1"),
    ])
    def test_invariants(self, change, match):
        fields = dict(level=1, weight=12, char=trivial_char(1), x=(0, 1, 5), y=(0, 0, 0),
                      D=1, field=QuadField(1), label="t")
        NewformData(**fields)
        with pytest.raises(ExactError, match=match):
            NewformData(**{**fields, **change})

    def test_no_algnum_per_coefficient(self, monkeypatch, tmp_path):
        built = []
        post_init = AlgNum.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(AlgNum, "__post_init__", counting)

        def count(make):
            built.clear()
            make()
            return len(built)

        rec = parse_record(json.loads((FIXTURES / "3.13.b.b.json").read_bytes()))
        loads = []
        for n in (100, 2000):
            path = tmp_path / f"b{n}.json"
            save_fixture(dataclasses.replace(rec, coeffs=rec.coeffs[:n]), path)
            loads.append(count(lambda: load_fixture(path)))
        assert loads[0] == loads[1]
        for k in (12, 16):
            assert count(lambda: delta_family_qexp(k, 100)) == \
                count(lambda: delta_family_qexp(k, 2000))
        assert count(lambda: eisenstein_qexp(13, CHI3, 100)) == \
            count(lambda: eisenstein_qexp(13, CHI3, 2000))


class TestFixtureForms:
    def test_field_and_shape(self, h_prime, h_dprime):
        assert h_prime.field.is_rational
        assert h_dprime.field.d0 == -26
        assert h_prime.weight == h_dprime.weight == 13
        assert h_prime.level == h_dprime.level == 3

    def test_field_is_computed_once_outside_equality_hash_and_repr(self, h_dprime,
                                                                   monkeypatch):
        form = dataclasses.replace(h_dprime)  # a fresh object: no field yet
        before = (repr(form), hash(form))
        assert form.field.d0 == -26

        def rescan(*_):
            raise AssertionError("coefficients rescanned for the field")

        monkeypatch.setattr(forms, "compositum", rescan)
        assert form.field.d0 == -26
        assert (repr(form), hash(form)) == before
        assert form == h_dprime

    def test_a2_values(self, h_prime, h_dprime):
        assert h_prime.a(2) == 0
        assert h_dprime.a(2) == AlgNum(h_dprime.field, Fraction(0), Fraction(18))

    def test_deligne(self, h_prime, h_dprime):
        assert h_prime.check_deligne_bound()
        assert h_dprime.check_deligne_bound()
