"""The names the benchmark in `bench/` looks up in the library still resolve.

The benchmark's tracer patches package functions and methods by name; a
rename in the library would make every traced benchmark run fail, so the
tracer is installed and removed here against the real package.
"""

from __future__ import annotations

import sys
from pathlib import Path

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

        lvalue.besselk_pair(12, 5, 20)
        assert [span[0] for span in tracer.spans] == ["lvalue.besselk_pair"]
    finally:
        tracer.uninstall()
    assert all(getattr(_resolve(owner), attr) is fn for (owner, attr), fn in originals.items())


def test_workload_entry_points_resolve():
    from rscong import cli, exactnum, forms, lvalue, rankin, ratio

    for obj, name in ((lvalue, "L_at"), (lvalue, "get_engine"), (lvalue.LEngine, "lambda_afe"),
                      (cli, "resolve_form"), (exactnum, "QuadField"),
                      (exactnum, "factor_rational_prime"), (forms, "delta_family_qexp"),
                      (rankin, "rs_coefficients"), (ratio, "full_report")):
        assert callable(getattr(obj, name)), name
