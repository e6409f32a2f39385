"""Compare one trial's outputs with the golden reference.

An operation fails when it raised, when its output is missing, or when it
disagrees with the golden.  L-values must match the golden method and agree
to 10^-(P/2) relative, the tolerance reconstruction accepts; verdicts and
exact ratios must be equal.  A trial is correct when every failed operation
raised the exception its golden entry records as a known defect
(`known_error`).  The parent process never loads mpmath or the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from pathlib import Path

from workloads import WORKLOADS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

VERDICT_FIELDS = ("verdict", "informational", "ratio_1", "ratio_2")


@dataclass
class CheckResult:
    attempted: int
    raised: int  # operations that raised or produced nothing
    known: int  # of those, operations that raised their golden's known_error
    wrong: int  # operations whose output disagrees with the golden
    reasons: dict  # key -> why it failed

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.raised == self.known


def load_golden(name: str) -> dict:
    """The golden of a workload; a workload whose operations are a subset of
    another's takes them from that workload's file."""
    wl = WORKLOADS[name]
    source = getattr(wl, "golden", None)
    if source is None:
        return json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    golden = load_golden(source)
    keys = {wl.key(*op) for op in wl.ops(0)}
    return {**golden, "workload": name,
            "ops": {k: v for k, v in golden["ops"].items() if k in keys}}


def values_agree(got: dict, want: dict, precision: int) -> bool:
    """|got - want| <= 10^-(P/2) |want| for complex values given as strings;
    false for a value that is not a finite number."""
    with localcontext() as ctx:
        ctx.prec = 2 * precision + 40
        try:
            dre = Decimal(got["re"]) - Decimal(want["re"])
            dim = Decimal(got["im"]) - Decimal(want["im"])
            scale = Decimal(want["re"]) ** 2 + Decimal(want["im"]) ** 2
            return dre * dre + dim * dim <= Decimal(10) ** (-precision) * scale
        except InvalidOperation:
            return False


def _mismatch(got: dict, want: dict, precision: int) -> str | None:
    if "method" in want:
        if got.get("method") != want["method"]:
            return f"method {got.get('method')} != {want['method']}"
        if not values_agree(got, want, precision):
            return f"value {got['re']} {got['im']} outside 10^-{precision / 2:g} of golden"
        return None
    for field in VERDICT_FIELDS:
        if got.get(field) != want[field]:
            return f"{field} {got.get(field)} != {want[field]}"
    return None


def check(outputs: list[dict], golden: dict) -> CheckResult:
    expected = golden["ops"]
    precision = golden["precision"]
    by_key = {}
    for out in outputs:
        by_key.setdefault(out["key"], out)
    reasons = {}
    raised = known = wrong = 0
    run_error = by_key.get("report", {}).get("error")
    violations = golden.get("hypothesis_violations")
    bad_violations = (violations is not None and run_error is None
                      and by_key.get("hypothesis_violations", {}).get("value") != violations)
    for key, want in expected.items():
        got = by_key.get(key)
        if run_error is not None:
            reasons[key] = f"raised {run_error}"
            raised += 1
        elif got is None:
            reasons[key] = "no output"
            raised += 1
        elif "error" in got:
            reasons[key] = f"raised {got['error']}"
            raised += 1
            known += got["error"] == want.get("known_error")
        elif bad_violations:
            reasons[key] = "hypothesis violations differ from golden"
            wrong += 1
        else:
            why = _mismatch(got, want, precision)
            if why is not None:
                reasons[key] = why
                wrong += 1
    return CheckResult(attempted=len(expected), raised=raised, known=known, wrong=wrong,
                       reasons=reasons)
