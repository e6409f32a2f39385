"""The benchmark's workloads: inputs from a seed, set-up, and the timed calls.

Each workload is used in three places: the child process times `setup` and
`run`, the parent checks `run`'s outputs against the golden file, and
`make_golden.py` writes that file.  Nothing here imports `rscong` at module
level, so the parent process never loads the package.

An output is a dict with a "key" naming the operation and either the result
fields or "error" (the exception's class name).  The seed only permutes the
order of the L-value operations: the values do not depend on it, but which
call pays for a shared kernel or a root-number solve does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

#: level-1 weight pairs (k, k2) of the L-value workloads
L1_PAIRS = ((12, 16), (12, 22), (16, 26), (18, 20))

#: smallest s at which the direct sum certifies 10^-120 with 2000 coefficients
#: (measured at the seed); `lvalue_direct_p120` evaluates DIRECT_POINTS points
#: from there, so every call is a direct sum that succeeds
DIRECT_EDGE = {(12, 16): 51, (12, 22): 54, (16, 26): 58, (18, 20): 56}
DIRECT_POINTS = 3

#: the ROADMAP flagship: the weight-13 level-3 pair (committed fixtures)
#: modulo the prime above 13 in Q(sqrt(-26)), against a level-1 form from the
#: Delta family (weight 26 for the flagship itself)
VERIFY_PAIR = ("3.13.b.a", "3.13.b.b")
VERIFY_PRIME = 13
VERIFY_FIELD = -26


def value_fields(value, method: str, P: int) -> dict:
    """An L-value as decimal strings with 10 digits beyond the precision."""
    import mpmath

    return {"re": mpmath.nstr(value.real, P + 10),
            "im": mpmath.nstr(value.imag, P + 10),
            "method": method}


def _afe_points(k: int, k2: int) -> list[int]:
    """Every critical s, plus two points right of the window."""
    return list(range(k, k2)) + [k2 + 19, k2 + 39]


@dataclass(frozen=True)
class LValueWorkload:
    """`lvalue.L_at` on level-1 Rankin-Selberg series, one process for all."""

    name: str
    precision: int
    n_max: int
    points: dict  # (k, k2) -> list of s
    #: the workload whose golden file holds this one's operations
    golden: str | None = None

    def ops(self, seed: int) -> list[tuple[int, int, int]]:
        ops = [(k, k2, s) for (k, k2), pts in self.points.items() for s in pts]
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def key(k: int, k2: int, s: int) -> str:
        return f"{k},{k2},{s}"

    def setup(self) -> dict:
        from rscong.forms import delta_family_qexp
        from rscong.rankin import rs_coefficients

        forms = {k: delta_family_qexp(k, self.n_max)
                 for k in sorted({k for pair in self.points for k in pair})}
        return {pair: rs_coefficients(forms[pair[0]], forms[pair[1]], self.n_max)
                for pair in self.points}

    def run(self, series: dict, ops) -> list[dict]:
        from rscong import lvalue

        out = []
        for k, k2, s in ops:
            key = self.key(k, k2, s)
            try:
                res = lvalue.L_at(series[(k, k2)], s, self.precision)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.append({"key": key, "error": type(exc).__name__})
                continue
            out.append({"key": key, **value_fields(res.value, res.method, self.precision)})
        return out


@dataclass(frozen=True)
class VerifyWorkload:
    """`full_report` on the flagship pair and prime against the level-1 form
    `aux`, driven like `cmd_verify`."""

    name: str
    precision: int
    n_max: int
    aux: str  # the auxiliary form, as `rscong verify` takes it

    def ops(self, seed: int) -> list:
        return []  # one full_report call; the seed has nothing to permute

    def setup(self) -> dict:
        from rscong.cli import resolve_form
        from rscong.exactnum import QuadField, factor_rational_prime

        aux, _ = resolve_form(self.aux, str(FIXTURES), self.n_max)
        f1, _ = resolve_form(VERIFY_PAIR[0], str(FIXTURES), self.n_max)
        f2, _ = resolve_form(VERIFY_PAIR[1], str(FIXTURES), self.n_max)
        ideal = factor_rational_prime(VERIFY_PRIME, QuadField(VERIFY_FIELD))[0]
        return {"aux": aux, "f1": f1, "f2": f2, "ideal": ideal}

    def run(self, inputs: dict, ops) -> list[dict]:
        import json

        from rscong.ratio import full_report

        try:
            report = full_report(inputs["aux"], inputs["f1"], inputs["f2"],
                                 inputs["ideal"], P=self.precision)
            report.pop("_verdicts")
            json.dumps(report, indent=1, sort_keys=True)  # what `verify --json-out` writes
        except Exception as exc:  # every verdict of the run fails with it
            return [{"key": "report", "error": type(exc).__name__}]
        out = [{"key": "hypothesis_violations", "value": report["hypothesis_violations"]}]
        for p in report["pairs"]:
            out.append({"key": "{},{}".format(*p["pair"]),
                        "verdict": p["verdict"],
                        "informational": p["informational"],
                        "ratio_1": p["ratio_1"]["ratio_exact"],
                        "ratio_2": p["ratio_2"]["ratio_exact"]})
        return out


WORKLOADS = {
    wl.name: wl for wl in (
        VerifyWorkload("flagship_p60", precision=60, n_max=6000, aux="delta:26"),
        VerifyWorkload("verify_aux16_p30", precision=30, n_max=1200, aux="delta:16"),
        LValueWorkload(
            "lvalue_afe_p30", precision=30, n_max=600,
            points={(k, k2): _afe_points(k, k2) for k, k2 in L1_PAIRS}),
        LValueWorkload(
            "lvalue_afe_k12_p30", precision=30, n_max=600,
            points={(k, k2): _afe_points(k, k2) for k, k2 in L1_PAIRS if k == 12},
            golden="lvalue_afe_p30"),
        LValueWorkload(
            "lvalue_direct_p120", precision=120, n_max=2000,
            points={pair: list(range(edge, edge + DIRECT_POINTS))
                    for pair, edge in DIRECT_EDGE.items()}),
    )
}
