from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from oracles import delta_family_ratio

from rscong.exactnum import (AlgNum, QuadField, RATIONAL, factor_rational_prime,
                             valuation, workdps)
from rscong.forms import delta_family_qexp
from rscong.rankin import rs_coefficients
from rscong.ratio import (CONGRUENT, INDETERMINATE, NOT_CONGRUENT, PairVerdict, RatioVerdict,
                          ReconstructionFailed, compare_ratios, height_bits,
                          ratio_at, reconstruct_algebraic)

F26 = QuadField(-26)
L13 = factor_rational_prime(13, F26)[0]
GOLDEN = Path(__file__).parent / "golden"


class TestReconstruct:
    def test_third_from_forty_digits(self):
        with workdps(45):
            x = mpmath.mpf(1) / 3
        y, res = reconstruct_algebraic(x, RATIONAL, P=40)
        assert y == Fraction(1, 3) and res < mp.mpf(10) ** -38

    def test_quadratic_round_trip_sixty_digits(self):
        target = AlgNum(F26, Fraction(2, 5), Fraction(1, 5))
        x = target.embed(60)
        y, res = reconstruct_algebraic(x, F26, P=60)
        assert y == target

    def test_pi_fails_under_cap(self):
        with workdps(60):
            x = +mpmath.pi
        with pytest.raises(ReconstructionFailed):
            reconstruct_algebraic(x, RATIONAL, height_cap=10 ** 6, P=60)

    def test_real_quadratic_branch(self):
        F5 = QuadField(5)
        target = AlgNum(F5, Fraction(-3, 7), Fraction(2, 7))
        y, _ = reconstruct_algebraic(target.embed(80), F5, P=80)
        assert y == target

    def test_imaginary_part_in_rational_field_rejected(self):
        with workdps(50):
            x = mpmath.mpc(1, 1) / 3
        with pytest.raises(ReconstructionFailed):
            reconstruct_algebraic(x, RATIONAL, P=50)

    def test_round_trip_500_random(self):
        rng = random.Random(123)
        fields = [RATIONAL, F26, QuadField(-1), QuadField(3)]
        for _ in range(500):
            F = rng.choice(fields)
            num = lambda: Fraction(rng.randrange(-10 ** 4, 10 ** 4 + 1),
                                   rng.randrange(1, 10 ** 4))
            x = AlgNum(F, num(), num() if not F.is_rational else Fraction(0))
            y, res = reconstruct_algebraic(x.embed(80), F, P=80)
            assert y == x
            assert res <= mp.mpf(10) ** -40 * max(1, abs(x.embed(30)))

    def test_height_bits(self):
        x = AlgNum(F26, Fraction(1023, 7), Fraction(0))
        assert height_bits(x) == 10


def mk_verdict(exact: AlgNum | None, pair=(24, 25)):
    return RatioVerdict(pair, mpmath.mpc(0), exact,
                        mp.mpf(0) if exact is not None else None)


class TestCompare:
    def test_identical(self):
        v = mk_verdict(AlgNum(F26, Fraction(3, 7), Fraction(1)))
        assert compare_ratios(v, mk_verdict(AlgNum(F26, Fraction(3, 7), Fraction(1))), L13) == CONGRUENT

    def test_missing_side_indeterminate(self):
        v1 = mk_verdict(AlgNum.rational(1).promote(F26))
        v2 = mk_verdict(None)
        assert compare_ratios(v1, v2, L13) == INDETERMINATE

    def test_difference_of_thirteen(self):
        v1 = mk_verdict(AlgNum.rational(Fraction(1, 5)).promote(F26))
        v2 = mk_verdict(AlgNum.rational(Fraction(1, 5) + 13).promote(F26))
        assert compare_ratios(v1, v2, L13) == CONGRUENT

    def test_unit_difference(self):
        v1 = mk_verdict(AlgNum.rational(Fraction(1, 5)).promote(F26))
        v2 = mk_verdict(AlgNum.rational(Fraction(2, 5)).promote(F26))
        assert compare_ratios(v1, v2, L13) == NOT_CONGRUENT

    def test_rational_vs_quadratic_promotion(self):
        v1 = mk_verdict(AlgNum.rational(Fraction(1, 2)))
        v2 = mk_verdict(AlgNum(F26, Fraction(1, 2), Fraction(13)))
        assert compare_ratios(v1, v2, L13) == CONGRUENT

    def test_nonintegral_sides_still_decided(self):
        v1 = mk_verdict(AlgNum.rational(Fraction(1, 13)).promote(F26))
        v2 = mk_verdict(AlgNum.rational(Fraction(2, 13)).promote(F26))
        verdict = compare_ratios(v1, v2, L13)
        assert verdict == NOT_CONGRUENT
        doc = PairVerdict((24, 25), "right", verdict, False, v1, v2, L13).to_json_obj()
        assert doc["ratio_1"]["v_l"] == -2

    def test_ultrametric_transitivity(self):
        rng = random.Random(8)
        for _ in range(200):
            vals = [AlgNum(F26, Fraction(rng.randrange(-40, 41), rng.choice([1, 2, 5])),
                           Fraction(rng.randrange(-40, 41))) for _ in range(3)]
            v1, v2, v3 = (mk_verdict(v) for v in vals)
            c12 = compare_ratios(v1, v2, L13) == CONGRUENT
            c23 = compare_ratios(v2, v3, L13) == CONGRUENT
            c13 = compare_ratios(v1, v3, L13) == CONGRUENT
            if c12 and c23:
                assert c13  # v(a-c) >= min(v(a-b), v(b-c))


class TestClosedFormRatios:
    """Every ratio of a level-1 pair that the unfolding gives in closed form
    (2m + 2 - k - k1 >= 4), reconstructed at P = 40, and its mirror
    k + k1 - 2 - m through the functional equation."""

    CASES = [(22, 12, 600, m) for m in (18, 19, 20)] + [(22, 16, 600, 20)] \
        + [(26, 12, 800, m) for m in range(20, 25)] + [(26, 16, 800, m) for m in (22, 23, 24)]

    @pytest.fixture(scope="class")
    def series(self):
        return {(k, k1): rs_coefficients(delta_family_qexp(k, n), delta_family_qexp(k1, n), n)
                for k, k1, n, _ in self.CASES}

    def test_cases_are_every_covered_right_half_ratio(self):
        assert len(self.CASES) == 12
        for k, k1 in {(k, k1) for k, k1, _, _ in self.CASES}:
            covered = [m for m in range(k1, k - 1) if 2 * m + 2 - k - k1 >= 4]
            assert covered == [m for kk, kk1, _, m in self.CASES if (kk, kk1) == (k, k1)]

    def test_printed_values(self):
        assert delta_family_ratio(22, 12, 20) == Fraction(11, 50)
        assert delta_family_ratio(26, 12, 24) == Fraction(691, 5460)
        with pytest.raises(ValueError):
            delta_family_ratio(22, 12, 17)  # next to the centre: E_2 is not modular

    @pytest.mark.parametrize("k, k1, n, m", CASES)
    def test_engine_matches_closed_form(self, series, k, k1, n, m):
        rs = series[(k, k1)]
        expect = delta_family_ratio(k, k1, m)
        assert ratio_at(rs, m, 40).exact == expect
        assert ratio_at(rs, k + k1 - 2 - m, 40).exact == 1 / expect



def mirror(r: tuple, d0: int, M: int) -> tuple:
    """M^2 / conj(r) for r = a + b sqrt(d0), as the pair (a, b) of Fractions;
    conj is complex conjugation, which negates b only when d0 < 0."""
    a, b = r
    if d0 < 0:
        b = -b
    norm = a * a - d0 * b * b  # (a + b sqrt(d0)) (a - b sqrt(d0))
    return M * M * a / norm, -M * M * b / norm


class TestMirrorIdentity:
    """r(k + k2 - 2 - m) = M^2 / conj(r(m)) on both golden reports, where r(m)
    is the ratio at the pair (m, m + 1).  It follows from the functional
    equation Lambda(s) = eps Q^((k + k2 - 1)/2 - s) conj(Lambda(k + k2 - 1 - s))
    with Q = M^2, the root number eps cancelling in a ratio.  The check is
    exact, over Q(sqrt(d0)), on the committed `ratio_exact` values: it reads no
    L-value, and it fails if either side of a mirrored pair was reconstructed
    wrongly."""

    @pytest.mark.parametrize("name, pairs", [("report_flagship_p120.json", 11),
                                             ("report_aux16_p30.json", 1)])
    def test_golden_ratios_are_mirrors(self, name, pairs):
        report = json.loads((GOLDEN / name).read_text())
        inputs = report["inputs"]
        d0 = inputs["prime"]["field_d0"]
        M = math.lcm(*inputs["levels"].values())
        c = inputs["weights"]["aux"] + inputs["weights"]["pair"] - 2
        exact = {}
        for p in report["pairs"]:
            for key in ("ratio_1", "ratio_2"):
                y = p[key]["ratio_exact"]
                if y is not None:
                    exact[key, p["pair"][0]] = (Fraction(y[0], y[1]), Fraction(y[2], y[3]))
        mirrored = [(key, m) for key, m in exact if m <= c - m and (key, c - m) in exact]
        assert len(mirrored) == pairs
        for key, m in mirrored:
            assert exact[key, c - m] == mirror(exact[key, m], d0, M), (key, m)
