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
from mpmath import mp

from .congruence import check_congruent, eisenstein_screen, excluded_primes
from .exactnum import (AlgNum, ExactError, GUARD_DIGITS, PrimeIdeal, QuadField,
                       compositum, valuation, workdps)
from .forms import NewformData
from .lvalue import get_engine
from .rankin import (RankinSeries, archimedean_factor, critical_set, gamma_ratio,
                     rs_coefficients, theorem_ranges)

CONGRUENT, NOT_CONGRUENT, INDETERMINATE = "Congruent", "NotCongruent", "Indeterminate"


class ReconstructionFailed(ExactError):
    def __init__(self, value, message: str = ""):
        self.value = value
        super().__init__(message or f"no small algebraic relation found for {value}")


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (man_exp is unsigned; restore the sign)."""
    x = mpmath.mpf(x)
    if x == 0:
        return Fraction(0)
    m, e = x.man_exp
    f = Fraction(int(m)) * (Fraction(2) ** int(e))  # int(): shed gmpy2 types
    return -f if x < 0 else f


def _best_rational(x, cap: int) -> Fraction:
    return _mpf_to_fraction(x).limit_denominator(cap)


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

        if F.is_rational:
            if abs(x.imag) > tol * max(1, abs(x)):
                raise ReconstructionFailed(x, "value has an imaginary part; field is Q")
            return finish(AlgNum.rational(_best_rational(x.real, height_cap)))
        if F.d0 < 0:
            root = mpmath.sqrt(mp.mpf(-F.d0))
            u = _best_rational(x.real, height_cap)
            v = _best_rational(x.imag / root, height_cap)
            return finish(AlgNum(F, u, v))
        # real quadratic: one real relation p + q sqrt(d0) - r x = 0
        root = mpmath.sqrt(mp.mpf(F.d0))
        if abs(x.imag) > tol * max(1, abs(x)):
            raise ReconstructionFailed(x, "value has an imaginary part; field is real")
        rel = mpmath.pslq([mp.mpf(1), root, -x.real], maxcoeff=height_cap,
                          maxsteps=20000)
        if rel is None or rel[2] == 0:
            raise ReconstructionFailed(x)
        p, q, r = rel
        return finish(AlgNum(F, Fraction(p, r), Fraction(q, r)))


@dataclass
class RatioVerdict:
    """One successive-ratio record Lambda(m)/Lambda(m+1)."""

    m_classical: tuple[int, int]
    ratio_numeric: object  # mpc
    ratio_exact: AlgNum | None
    reconstruction_residual: object  # mpf or None
    height: int
    indeterminate_reason: str | None = None
    region: str = ""
    v_l: int | None = None

    @property
    def ok(self) -> bool:
        return self.ratio_exact is not None

    def to_json_obj(self) -> dict:
        ex = None
        if self.ratio_exact is not None:
            y = self.ratio_exact
            ex = [int(y.a.numerator), int(y.a.denominator),
                  int(y.b.numerator), int(y.b.denominator)]
        return {
            "pair": list(self.m_classical),
            "ratio_re": mpmath.nstr(self.ratio_numeric.real, 30),
            "ratio_im": mpmath.nstr(self.ratio_numeric.imag, 30),
            "ratio_exact": ex,
            "residual": None if self.reconstruction_residual is None
            else mpmath.nstr(self.reconstruction_residual, 5),
            "height_bits": self.height,
            "region": self.region,
            "v_l": self.v_l,
            "indeterminate_reason": self.indeterminate_reason,
        }


def ratio_at(rs: RankinSeries, m: int, P: int,
             height_cap: int = 10 ** 40) -> RatioVerdict:
    """Ratio of completed values at (m, m+1), reconstructed over the field.

    A numerator forced to vanish by a self-dual functional equation with
    root number -1 yields the exact ratio 0; an uncertified near-zero on
    either side yields Indeterminate (a possible central zero the engine
    cannot distinguish from a tiny value).
    """
    cs = critical_set(rs.k, rs.k2)
    if m not in cs or m + 1 not in cs:
        raise ExactError(f"({m}, {m + 1}) is not a successive critical pair")
    eng = get_engine(rs, P)
    if eng.certified_zero(m + 1):
        return RatioVerdict((m, m + 1), mpmath.mpc(0), None, None, 0,
                            indeterminate_reason="denominator is an exact central zero "
                            "(self-dual, root number -1)")
    den = eng.L_at(m + 1)
    with workdps(P):
        floor = mp.mpf(10) ** (-Fraction(P, 2))
        scale = abs(archimedean_factor(m + 1, eng.k, P))
        if abs(den.value) <= floor * scale:
            return RatioVerdict((m, m + 1), mpmath.mpc(0), None, None, 0,
                                indeterminate_reason="denominator value vanishes to working precision")
        if eng.certified_zero(m):
            zero = AlgNum.rational(0).promote(rs.field)
            return RatioVerdict((m, m + 1), mpmath.mpc(0), zero, mp.mpf(0), 1)
        num = eng.L_at(m)
        ratio = num.value / den.value
    try:
        exact, res = reconstruct_algebraic(ratio, rs.field, height_cap, P)
    except ReconstructionFailed:
        return RatioVerdict((m, m + 1), ratio, None, None, 0,
                            indeterminate_reason="reconstruction failed under the height cap")
    if not exact:
        return RatioVerdict((m, m + 1), ratio, None, res, 0,
                            indeterminate_reason="ratio vanishes to working precision "
                            "without a certifying functional equation")
    return RatioVerdict((m, m + 1), ratio, exact, res, height_bits(exact))


def compare_ratios(v1: RatioVerdict, v2: RatioVerdict, P: PrimeIdeal) -> str:
    """Congruent iff v_l(ratio1 - ratio2) >= 1, NotCongruent otherwise;
    Indeterminate when either side could not be pinned down exactly.

    Non-integral sides do not force Indeterminate: the valuation of the
    difference decides either way, and the non-integrality (which the
    theorems' excluded-prime hypotheses rule out) is recorded on the
    verdicts' v_l fields for the report.
    """
    if not (v1.ok and v2.ok):
        return INDETERMINATE
    F = compositum(compositum(v1.ratio_exact.field, v2.ratio_exact.field), P.field)
    if F != P.field:
        raise ExactError("ratios do not live in the residue field's home")
    r1 = v1.ratio_exact.promote(F)
    r2 = v2.ratio_exact.promote(F)
    w1, w2 = valuation(r1, P), valuation(r2, P)
    v1.v_l = None if math.isinf(w1) else int(w1)
    v2.v_l = None if math.isinf(w2) else int(w2)
    return CONGRUENT if valuation(r1 - r2, P) >= 1 else NOT_CONGRUENT


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

REPORT_SCHEMA = "rscong-report/v1"

#: coefficients the report's congruence check compares at least
CONGRUENCE_TERMS = 50


@dataclass
class PairVerdict:
    pair: tuple[int, int]
    region: str
    verdict: str
    informational: bool
    v1: RatioVerdict
    v2: RatioVerdict

    def to_json_obj(self) -> dict:
        return {
            "pair": list(self.pair),
            "region": self.region,
            "verdict": self.verdict,
            "informational": self.informational,
            "ratio_1": self.v1.to_json_obj(),
            "ratio_2": self.v2.to_json_obj(),
        }


def _squarefree(n: int) -> bool:
    from .exactnum import quad_normalize

    return n == 1 or quad_normalize(n)[1] == 1


def full_report(h: NewformData, h1: NewformData, h2: NewformData,
                P_ideal: PrimeIdeal, P: int = 120,
                ms: list[int] | None = None,
                series: tuple[RankinSeries, RankinSeries] | None = None) -> dict:
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

    if series is not None:
        rs1, rs2 = series
        n_need = rs1.n_max
    else:
        n_need = min(h.n_max, h1.n_max, h2.n_max)
        rs1 = rs_coefficients(h1, h, n_need)
        rs2 = rs_coefficients(h2, h, n_need)
    tr = theorem_ranges(rs1.k, rs1.k2)
    regions = {}
    for a, b in tr.right_pairs:
        regions[(a, b)] = "right"
    for a, b in tr.left_pairs:
        regions.setdefault((a, b), "left")
    lower_orientation = h.weight > h1.weight

    pairs = []
    for m in starts:
        if ms is not None and m not in ms:
            continue
        v1 = ratio_at(rs1, m, P)
        v2 = ratio_at(rs2, m, P)
        region = regions.get((m, m + 1), "central")
        v1.region = v2.region = region
        verdict = compare_ratios(v1, v2, P_ideal)
        informational = bool(violations) or region != "right"
        pairs.append(PairVerdict((m, m + 1), region, verdict, informational, v1, v2))

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
        "gamma_ratio_note": {
            str(m): [gamma_ratio(m, rs1.k).numerator, gamma_ratio(m, rs1.k).denominator]
            for m in starts
        },
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
