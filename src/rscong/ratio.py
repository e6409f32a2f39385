"""Ratios of successive completed critical values: exact reconstruction over
the coefficient field, reduction mod a prime ideal, and verdict assembly.

A ratio Lambda(m)/Lambda(m+1) of completed values is expected to be an exact
element of the (at most quadratic) coefficient field; `reconstruct_algebraic`
recovers it from the numeric value by rational reconstruction on the real and
imaginary parts (or an integer relation for a real quadratic field), and the
verdict machinery reduces differences of reconstructed ratios mod the chosen
prime ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from .congruence import check_congruent, eisenstein_screen, excluded_primes
from .exactnum import (AlgNum, ExactError, GUARD_DIGITS, PrimeIdeal, QuadField,
                       compositum, quad_normalize, valuation, workdps)
from .forms import NewformData
from .lvalue import get_engine
from .rankin import (RankinSeries, archimedean_factor, critical_set, gamma_ratio,
                     rs_coefficients, theorem_ranges)

CONGRUENT, NOT_CONGRUENT, INDETERMINATE = "Congruent", "NotCongruent", "Indeterminate"


class ReconstructionFailed(ExactError):
    def __init__(self, value, message: str = ""):
        self.value = value
        super().__init__(message or f"no small algebraic relation found for {value}")


def _best_rational(x, cap: int) -> Fraction:
    """The fraction of denominator at most `cap` nearest the mpf `x`."""
    return Fraction(*libmp.to_rational(x._mpf_)).limit_denominator(cap)


def height_bits(x: AlgNum) -> int:
    parts = [x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator]
    return max(abs(p).bit_length() for p in parts)


def reconstruct_algebraic(x, F: QuadField, height_cap: int = 10 ** 40,
                          P: int = 120) -> tuple[AlgNum, object]:
    """Find y in F with |iota(y) - x| minimal and small height.

    Returns (y, residual); raises ReconstructionFailed when nothing under the
    height cap reproduces x to the tolerance 10^(-P/2).  P should be generous
    relative to the height cap (around twice its digit count).
    """
    with workdps(P):
        x = mpmath.mpc(x)
        tol = mp.mpf(10) ** (-Fraction(P, 2))

        def finish(y: AlgNum):
            res = abs(y.embed(P + GUARD_DIGITS) - x)
            if res > tol * max(1, abs(x)) or height_bits(y) > height_cap.bit_length():
                raise ReconstructionFailed(x)
            return y, res

        if F.d0 < 0:
            root = mpmath.sqrt(mp.mpf(-F.d0))
            return finish(AlgNum(F, _best_rational(x.real, height_cap),
                                 _best_rational(x.imag / root, height_cap)))
        if abs(x.imag) > tol * max(1, abs(x)):
            raise ReconstructionFailed(x, "value has an imaginary part; field is "
                                       + ("Q" if F.is_rational else "real"))
        if F.is_rational:
            return finish(AlgNum.rational(_best_rational(x.real, height_cap)))
        # real quadratic: one real relation p + q sqrt(d0) - r x = 0
        root = mpmath.sqrt(mp.mpf(F.d0))
        rel = mpmath.pslq([mp.mpf(1), root, -x.real], maxcoeff=height_cap,
                          maxsteps=20000)
        if rel is None or rel[2] == 0:
            raise ReconstructionFailed(x)
        p, q, r = rel
        return finish(AlgNum(F, Fraction(p, r), Fraction(q, r)))


@dataclass(frozen=True)
class RatioVerdict:
    """One successive-ratio record Lambda(m)/Lambda(m+1): its numeric value
    and either the exact ratio with its residual, or why there is none."""

    pair: tuple[int, int]
    numeric: object  # mpc
    exact: AlgNum | None = None
    residual: object = None  # mpf
    reason: str | None = None

    def to_json_obj(self, region: str, v_l: int | None) -> dict:
        y = self.exact
        return {
            "pair": list(self.pair),
            "ratio_re": mpmath.nstr(self.numeric.real, 30),
            "ratio_im": mpmath.nstr(self.numeric.imag, 30),
            "ratio_exact": None if y is None else [
                int(y.a.numerator), int(y.a.denominator),
                int(y.b.numerator), int(y.b.denominator)],
            "residual": None if self.residual is None else mpmath.nstr(self.residual, 5),
            "height_bits": 0 if y is None else height_bits(y),
            "region": region,
            "v_l": v_l,
            "indeterminate_reason": self.reason,
        }


def ratio_at(rs: RankinSeries, m: int, P: int) -> RatioVerdict:
    """Ratio of completed values at (m, m+1), reconstructed over the field.

    A numerator forced to vanish by a self-dual functional equation with
    root number -1 yields the exact ratio 0; an uncertified near-zero on
    either side yields Indeterminate (a possible central zero the engine
    cannot distinguish from a tiny value).
    """
    cs = critical_set(rs.k, rs.k2)
    if m not in cs or m + 1 not in cs:
        raise ExactError(f"({m}, {m + 1}) is not a successive critical pair")
    pair = (m, m + 1)
    eng = get_engine(rs, P)
    if eng.certified_zero(m + 1):
        return RatioVerdict(pair, mpmath.mpc(0), reason="denominator is an exact central "
                            "zero (self-dual, root number -1)")
    den = eng.L_at(m + 1)
    with workdps(P):
        floor = mp.mpf(10) ** (-Fraction(P, 2))
        scale = abs(archimedean_factor(m + 1, eng.k, P))
        if abs(den.value) <= floor * scale:
            return RatioVerdict(pair, mpmath.mpc(0),
                                reason="denominator value vanishes to working precision")
        if eng.certified_zero(m):
            return RatioVerdict(pair, mpmath.mpc(0), AlgNum.rational(0).promote(rs.field),
                                mp.mpf(0))
        num = eng.L_at(m)
        ratio = num.value / den.value
    try:
        exact, res = reconstruct_algebraic(ratio, rs.field, P=P)
    except ReconstructionFailed:
        return RatioVerdict(pair, ratio, reason="reconstruction failed under the height cap")
    if not exact:
        return RatioVerdict(pair, ratio, residual=res, reason="ratio vanishes to working "
                            "precision without a certifying functional equation")
    return RatioVerdict(pair, ratio, exact, res)


def _in_prime_field(v1: RatioVerdict, v2: RatioVerdict,
                    P: PrimeIdeal) -> tuple[AlgNum, AlgNum] | None:
    """Both exact ratios in the field of P, or None if either side has none."""
    if v1.exact is None or v2.exact is None:
        return None
    F = compositum(compositum(v1.exact.field, v2.exact.field), P.field)
    if F != P.field:
        raise ExactError("ratios do not live in the residue field's home")
    return v1.exact.promote(F), v2.exact.promote(F)


def compare_ratios(v1: RatioVerdict, v2: RatioVerdict, P: PrimeIdeal) -> str:
    """Congruent iff v_l(ratio1 - ratio2) >= 1, NotCongruent otherwise;
    Indeterminate when either side could not be pinned down exactly.

    Non-integral sides do not force Indeterminate: the valuation of the
    difference decides either way, and the non-integrality (which the
    theorems' excluded-prime hypotheses rule out) shows in the report's
    v_l fields.
    """
    both = _in_prime_field(v1, v2, P)
    if both is None:
        return INDETERMINATE
    r1, r2 = both
    return CONGRUENT if valuation(r1 - r2, P) >= 1 else NOT_CONGRUENT


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

REPORT_SCHEMA = "rscong-report/v1"

#: coefficients the report's congruence check compares at least
CONGRUENCE_TERMS = 50


@dataclass(frozen=True)
class PairVerdict:
    """The verdict on one critical pair: the two ratio records, the region
    of the pair, and the prime ideal the ratios are compared at."""

    pair: tuple[int, int]
    region: str
    verdict: str
    informational: bool
    v1: RatioVerdict
    v2: RatioVerdict
    prime: PrimeIdeal

    def to_json_obj(self) -> dict:
        # each ratio's valuation, when both are exact; a zero ratio has none
        both = _in_prime_field(self.v1, self.v2, self.prime)
        v_l = [None, None] if both is None else [
            int(valuation(r, self.prime)) if r else None for r in both]
        return {
            "pair": list(self.pair),
            "region": self.region,
            "verdict": self.verdict,
            "informational": self.informational,
            "ratio_1": self.v1.to_json_obj(self.region, v_l[0]),
            "ratio_2": self.v2.to_json_obj(self.region, v_l[1]),
        }


def _squarefree(n: int) -> bool:
    return n == 1 or quad_normalize(n)[1] == 1


def full_report(h: NewformData, h1: NewformData, h2: NewformData,
                P_ideal: PrimeIdeal, P: int = 120,
                ms: list[int] | None = None) -> dict:
    """Run the whole verification pipeline for an auxiliary form h and a
    congruent pair (h1, h2), reporting every critical successive ratio.

    Hypothesis violations never abort: they downgrade the affected verdicts
    to informational status in the returned document.
    """
    if h1.weight != h2.weight or h1.level != h2.level:
        raise ExactError("congruent pair must share weight and level")
    k_pair, k_aux = h1.weight, h.weight
    if abs(k_aux - k_pair) < 2:
        raise ExactError("weights must differ by at least 2 for ratio checks")
    starts = critical_set(min(k_pair, k_aux), max(k_pair, k_aux))[:-1]  # of (m, m + 1)
    if ms is not None and not set(ms) & set(starts):
        raise ExactError(f"m in {sorted(set(ms))} selects no critical pair: "
                         f"m runs over {starts[0]}..{starts[-1]}")
    l = P_ideal.l
    N, N2 = h.level, h1.level

    congruence = check_congruent(h1, h2, P_ideal, n_extra=CONGRUENCE_TERMS)
    alarm = eisenstein_screen(h1, P_ideal) or eisenstein_screen(h2, P_ideal)
    excluded = excluded_primes(min(k_pair, k_aux), max(k_pair, k_aux), N, N2)

    hypotheses = {
        "congruent_pair": congruence.congruent,
        "l_greater_than_pair_weight": l > k_pair,
        "l_prime_to_levels": (N * N2) % l != 0,
        "levels_squarefree_coprime": _squarefree(N) and _squarefree(N2)
        and math.gcd(N, N2) == 1,
        "irreducibility_screen_clear": alarm is None,
        "eisenstein_torsion_primes_assumed_avoided": True,
        "archimedean_constant_primes_assumed_avoided": True,
    }
    checked = ("congruent_pair", "l_greater_than_pair_weight",
               "l_prime_to_levels", "levels_squarefree_coprime",
               "irreducibility_screen_clear")
    violations = [name for name in checked if not hypotheses[name]]

    n_need = min(h.n_max, h1.n_max, h2.n_max)
    rs1 = rs_coefficients(h1, h, n_need)
    rs2 = rs_coefficients(h2, h, n_need)
    tr = theorem_ranges(rs1.k, rs1.k2)
    regions = {**dict.fromkeys(tr.left_pairs, "left"), **dict.fromkeys(tr.right_pairs, "right")}
    lower_orientation = h.weight > h1.weight

    pairs = []
    for m in starts:
        if ms is not None and m not in ms:
            continue
        v1 = ratio_at(rs1, m, P)
        v2 = ratio_at(rs2, m, P)
        region = regions.get((m, m + 1), "central")
        pairs.append(PairVerdict((m, m + 1), region, compare_ratios(v1, v2, P_ideal),
                                 bool(violations) or region != "right", v1, v2, P_ideal))

    report = {
        "schema": REPORT_SCHEMA,
        "inputs": {
            "aux": h.label, "pair": [h1.label, h2.label],
            "weights": {"aux": k_aux, "pair": k_pair},
            "levels": {"aux": N, "pair": N2},
            "prime": {"l": l, "kind": P_ideal.kind, "field_d0": P_ideal.field.d0},
            "precision": P,
            "n_coeffs": n_need,
        },
        "congruence": congruence.to_json_obj(),
        "eisenstein_alarm": alarm,
        "excluded_primes": excluded,
        "hypotheses": hypotheses,
        "hypothesis_violations": violations,
        "lower_weight_orientation": lower_orientation,
        "theorem_ranges": {
            "right_twists": list(tr.right_twists),
            "right_pairs": [list(p) for p in tr.right_pairs],
            "left_twists": list(tr.left_twists),
            "left_pairs": [list(p) for p in tr.left_pairs],
            "lower_weight_twists": list(tr.lower_weight_twists),
            "lower_weight_pairs": [list(p) for p in tr.lower_weight_pairs],
        },
        "pairs": [p.to_json_obj() for p in pairs],
        "gamma_ratio_note": {str(m): list(gamma_ratio(m, rs1.k).as_integer_ratio())
                             for m in starts},
    }
    report["_verdicts"] = pairs  # in-process convenience, stripped on save
    return report


def report_text(report: dict) -> str:
    lines = []
    ins = report["inputs"]
    lines.append(f"pair {ins['pair'][0]} / {ins['pair'][1]}  x  aux {ins['aux']}"
                 f"   mod l={ins['prime']['l']} ({ins['prime']['kind']})")
    lines.append(f"coefficient congruence: {'yes' if report['congruence']['congruent'] else 'NO'}"
                 f" (bound {report['congruence']['bound_used']})")
    lines.append(f"eisenstein alarm: {report['eisenstein_alarm'] or 'none'}")
    if report["hypothesis_violations"]:
        lines.append("hypothesis violations: " + ", ".join(report["hypothesis_violations"]))
    lines.append(f"{'pair':>10} {'region':>8} {'verdict':>14} informational")
    for p in report["pairs"]:
        lines.append(f"{str(tuple(p['pair'])):>10} {p['region']:>8} "
                     f"{p['verdict']:>14} {p['informational']}")
    return "\n".join(lines)
