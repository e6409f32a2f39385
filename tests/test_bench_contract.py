"""The names the benchmark in `bench/` looks up in the library still resolve.

The benchmark's tracer patches package functions and methods by name; a
rename in the library would make every traced benchmark run fail, so the
tracer is installed and removed here against the real package.
"""

from __future__ import annotations

import sys
import weakref
from pathlib import Path

from mpmath.libmp import from_int

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from spans import TRACED, Tracer, _resolve  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = {(owner, attr): getattr(_resolve(owner), attr)
                 for _, owners, attr in TRACED for owner in owners}
    tracer = Tracer("contract")
    try:
        tracer.install()
        assert len(tracer._undo) == len(originals)
        from rscong import lvalue

        lvalue.besselk_pair(12, from_int(5), 20)
        assert [span[0] for span in tracer.spans] == ["lvalue.besselk_pair"]
    finally:
        tracer.uninstall()
    assert all(getattr(_resolve(owner), attr) is fn for (owner, attr), fn in originals.items())


def test_kernel_spans_are_recorded(monkeypatch):
    # the per-layer kernel metrics read 0, with no error, if the engine
    # reaches the kernel under names the tracer does not patch
    from rscong import lvalue
    from rscong.forms import delta_family_qexp
    from rscong.rankin import rs_coefficients

    monkeypatch.setattr(lvalue, "_ladders", weakref.WeakValueDictionary())  # no warm kernel
    n = 200
    rs = rs_coefficients(delta_family_qexp(12, n), delta_family_qexp(16, n), n)
    tracer = Tracer("contract")
    try:
        tracer.install()
        lvalue.L_at(rs, 13, 10)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"lvalue.L_at", "lvalue.KernelLadder.G", "lvalue.KernelLadder.bessel_at",
            "lvalue.besselk_pair"} <= names


def test_workload_entry_points_resolve():
    from rscong import cli, exactnum, forms, lvalue, rankin, ratio

    for obj, name in ((lvalue, "L_at"), (lvalue, "get_engine"), (lvalue.LEngine, "lambda_afe"),
                      (cli, "resolve_form"), (exactnum, "QuadField"),
                      (exactnum, "factor_rational_prime"), (forms, "delta_family_qexp"),
                      (rankin, "rs_coefficients"), (ratio, "full_report")):
        assert callable(getattr(obj, name)), name

