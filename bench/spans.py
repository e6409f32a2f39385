"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps each traced function and puts the wrapper back under
every name the pipeline looks it up by (for example `rscong.ratio.check_congruent`
as well as `rscong.congruence.check_congruent`), so no library file changes.
Spans are kept in memory and written out once, when the traced trial ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (span name, owner objects the name is looked up on, attribute).  Methods are
# patched on their class, which covers calls through the module-level helpers
# (`lvalue.L_at`, `lvalue.solve_root_number`) and through `ratio.ratio_at`.
TRACED = (
    ("forms.delta_family_qexp", ("rscong.forms", "rscong.cli"), "delta_family_qexp"),
    ("ingest.load_fixture", ("rscong.ingest", "rscong.cli"), "load_fixture"),
    ("rankin.rs_coefficients", ("rscong.rankin", "rscong.ratio", "rscong.cli"),
     "rs_coefficients"),
    ("congruence.check_congruent", ("rscong.congruence", "rscong.ratio", "rscong.cli"),
     "check_congruent"),
    ("congruence.eisenstein_screen", ("rscong.congruence", "rscong.ratio"),
     "eisenstein_screen"),
    ("lvalue.besselk_pair", ("rscong.lvalue",), "besselk_pair"),
    ("lvalue.KernelLadder.G", ("rscong.lvalue:KernelLadder",), "G"),
    ("lvalue.KernelLadder.bessel_at", ("rscong.lvalue:KernelLadder",), "bessel_at"),
    ("lvalue.solve_root_number", ("rscong.lvalue:LEngine",), "solve_root_number"),
    ("lvalue.lambda_afe", ("rscong.lvalue:LEngine",), "lambda_afe"),
    ("lvalue.direct_lambda", ("rscong.lvalue:LEngine",), "direct_lambda"),
    ("lvalue.L_at", ("rscong.lvalue:LEngine",), "L_at"),
    ("ratio.full_report", ("rscong.ratio",), "full_report"),
    ("ratio.ratio_at", ("rscong.ratio",), "ratio_at"),
    ("ratio.reconstruct_algebraic", ("rscong.ratio",), "reconstruct_algebraic"),
    ("ratio.compare_ratios", ("rscong.ratio",), "compare_ratios"),
)

# Per-layer metrics in the order they are reported, with their units.
LAYER_METRICS = (
    ("forms.delta_family_qexp.calls", "count"),
    ("forms.delta_family_qexp.s", "s"),
    ("lvalue.besselk_pair.calls", "count"),
    ("lvalue.besselk_pair.s", "s"),
    ("lvalue.besselk_pair.ms_per_call", "ms"),
    ("lvalue.bessel_share", "ratio"),
    ("lvalue.kernel.lookups", "count"),
    ("lvalue.kernel.lookups_per_eval", "ratio"),
    ("lvalue.KernelLadder.G.self_s", "s"),
    ("lvalue.solve_root_number.s", "s"),
    ("lvalue.solve_root_number.self_s", "s"),
    ("lvalue.lambda_afe.calls", "count"),
    ("lvalue.lambda_afe.self_s", "s"),
    ("lvalue.L_at.calls", "count"),
    ("lvalue.L_at.failed", "count"),
    ("lvalue.direct_lambda.calls", "count"),
    ("lvalue.direct_lambda.failed", "count"),
    ("lvalue.direct_lambda.s", "s"),
    ("lvalue.direct_lambda.wasted_s", "s"),
    ("lvalue.direct_lambda.useful_ratio", "ratio"),
    ("ratio.ratio_at.calls", "count"),
    ("ratio.reconstruct_algebraic.calls", "count"),
    ("ratio.reconstruct_algebraic.failed", "count"),
    ("ratio.reconstruct_algebraic.s", "s"),
    ("ratio.compare_ratios.s", "s"),
    ("ingest.load_fixture.calls", "count"),
    ("ingest.load_fixture.s", "s"),
    ("rankin.rs_coefficients.calls", "count"),
    ("rankin.rs_coefficients.s", "s"),
    ("congruence.check_congruent.s", "s"),
    ("congruence.eisenstein_screen.s", "s"),
    ("trace.overhead_s", "s"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records one span per traced call: name, start, end, parent, outcome."""

    def __init__(self, workload: str):
        self.workload = workload
        # [name, start, end, parent index or -1, class name of the exception raised or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owners, attr in TRACED:
            objs = [_resolve(o) for o in owners]
            original = getattr(objs[0], attr)
            wrapper = self.wrap(name, original)
            for obj in objs:
                if getattr(obj, attr) is not original:
                    raise RuntimeError(f"{obj!r}.{attr} is not {name}; update the trace table")
                self._undo.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, calls that raised, inclusive seconds, self
        seconds (duration minus the time covered by direct children; spans of
        one thread nest, so children never overlap), and per exception class
        the calls and seconds that raised it."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0,
                                        "raised": {}, "raised_s": {}})
            dur = end - start
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time[i]
            if raised:
                agg["failed"] += 1
                agg["raised"][raised] = agg["raised"].get(raised, 0) + 1
                agg["raised_s"][raised] = agg["raised_s"].get(raised, 0.0) + dur
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised,
                                     "workload": self.workload}) + "\n")


def layer_metrics(agg: dict[str, dict], run_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced trial, `trace.overhead_s` excepted.

    A direct sum counts as failed (and its time as wasted) when it raises
    InsufficientCoefficients, the doomed sums `L_at` falls back from; it is
    useful when it returns a value.  A reconstruction fails when it raises
    ReconstructionFailed; `L_at` fails on any exception.
    """

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def raised(name, exc, field="raised"):
        return agg.get(name, {}).get(field, {}).get(exc, 0)

    bessel_calls = get("lvalue.besselk_pair", "calls")
    bessel_s = get("lvalue.besselk_pair", "s")
    lookups = get("lvalue.KernelLadder.G", "calls") + get("lvalue.KernelLadder.bessel_at", "calls")
    direct_calls = get("lvalue.direct_lambda", "calls")
    direct_doomed = raised("lvalue.direct_lambda", "InsufficientCoefficients")
    m = {
        "forms.delta_family_qexp.calls": get("forms.delta_family_qexp", "calls"),
        "forms.delta_family_qexp.s": get("forms.delta_family_qexp", "s"),
        "lvalue.besselk_pair.calls": bessel_calls,
        "lvalue.besselk_pair.s": bessel_s,
        "lvalue.besselk_pair.ms_per_call": 1000 * bessel_s / bessel_calls if bessel_calls else 0.0,
        "lvalue.bessel_share": bessel_s / run_s if run_s > 0 else 0.0,
        "lvalue.kernel.lookups": lookups,
        "lvalue.kernel.lookups_per_eval": lookups / bessel_calls if bessel_calls else 0.0,
        "lvalue.KernelLadder.G.self_s": get("lvalue.KernelLadder.G", "self_s"),
        "lvalue.solve_root_number.s": get("lvalue.solve_root_number", "s"),
        "lvalue.solve_root_number.self_s": get("lvalue.solve_root_number", "self_s"),
        "lvalue.lambda_afe.calls": get("lvalue.lambda_afe", "calls"),
        "lvalue.lambda_afe.self_s": get("lvalue.lambda_afe", "self_s"),
        "lvalue.L_at.calls": get("lvalue.L_at", "calls"),
        "lvalue.L_at.failed": get("lvalue.L_at", "failed"),
        "lvalue.direct_lambda.calls": direct_calls,
        "lvalue.direct_lambda.failed": direct_doomed,
        "lvalue.direct_lambda.s": get("lvalue.direct_lambda", "s"),
        "lvalue.direct_lambda.wasted_s":
            raised("lvalue.direct_lambda", "InsufficientCoefficients", "raised_s"),
        "lvalue.direct_lambda.useful_ratio":
            1 - get("lvalue.direct_lambda", "failed") / direct_calls if direct_calls else 0.0,
        "ratio.ratio_at.calls": get("ratio.ratio_at", "calls"),
        "ratio.reconstruct_algebraic.calls": get("ratio.reconstruct_algebraic", "calls"),
        "ratio.reconstruct_algebraic.failed":
            raised("ratio.reconstruct_algebraic", "ReconstructionFailed"),
        "ratio.reconstruct_algebraic.s": get("ratio.reconstruct_algebraic", "s"),
        "ratio.compare_ratios.s": get("ratio.compare_ratios", "s"),
        "ingest.load_fixture.calls": get("ingest.load_fixture", "calls"),
        "ingest.load_fixture.s": get("ingest.load_fixture", "s"),
        "rankin.rs_coefficients.calls": get("rankin.rs_coefficients", "calls"),
        "rankin.rs_coefficients.s": get("rankin.rs_coefficients", "s"),
        "congruence.check_congruent.s": get("congruence.check_congruent", "s"),
        "congruence.eisenstein_screen.s": get("congruence.eisenstein_screen", "s"),
    }
    return m
