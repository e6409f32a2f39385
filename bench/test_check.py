"""Tests of the benchmark's checker, tracer and failure handling; no workload is run.

    python3 -m pytest -q bench/test_check.py
"""

from __future__ import annotations

import copy
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check, load_golden  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from speed import INTERVAL_S, REF_UNIT_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, VERIFY_PAIR, VerifyWorkload  # noqa: E402


def outputs_from(golden: dict) -> list[dict]:
    """The outputs a run reproducing the golden exactly would produce."""
    outs = [{"key": key, **copy.deepcopy(want)} for key, want in golden["ops"].items()]
    if "hypothesis_violations" in golden:
        outs.append({"key": "hypothesis_violations", "value": golden["hypothesis_violations"]})
    return outs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_reproduces_itself(name):
    golden = load_golden(name)
    res = check(outputs_from(golden), golden)
    assert (res.attempted, res.failed, res.wrong) == (len(golden["ops"]), 0, 0)
    assert res.correct


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_covers_every_operation(name):
    wl = WORKLOADS[name]
    keys = set(load_golden(name)["ops"])
    if isinstance(wl, VerifyWorkload):
        k, k_aux = int(VERIFY_PAIR[0].split(".")[1]), int(wl.aux.split(":")[1])
        assert keys == {f"{m},{m + 1}" for m in range(k, k_aux - 1)}
    else:
        assert keys == {wl.key(*op) for op in wl.ops(0)}
        assert wl.ops(0) != wl.ops(1) and sorted(wl.ops(0)) == sorted(wl.ops(1))


def test_flipped_verdict_fails():
    golden = load_golden("flagship_p60")
    outs = outputs_from(golden)
    pair = next(o for o in outs if o["key"] == "24,25")
    pair["verdict"] = "Congruent"
    res = check(outs, golden)
    assert (res.failed, res.wrong) == (1, 1) and "24,25" in res.reasons
    assert not res.correct


def test_changed_exact_ratio_fails():
    golden = load_golden("flagship_p60")
    outs = outputs_from(golden)
    pair = next(o for o in outs if o["key"] == "13,14")
    pair["ratio_1"] = [pair["ratio_1"][0] + 1] + pair["ratio_1"][1:]
    assert check(outs, golden).wrong == 1


def test_hypothesis_flags_differing_fail_every_verdict():
    golden = load_golden("flagship_p60")
    outs = outputs_from(golden)
    outs[-1]["value"] = ["l_greater_than_pair_weight"]
    assert check(outs, golden).wrong == 12


def test_report_that_raises_fails_every_verdict():
    golden = load_golden("flagship_p60")
    res = check([{"key": "report", "error": "NormalizationError"}], golden)
    assert (res.attempted, res.failed, res.raised, res.wrong) == (12, 12, 12, 0)
    assert not res.correct


def _scaled(value: str, factor: str) -> str:
    with localcontext() as ctx:
        ctx.prec = 300
        return str(Decimal(value) * Decimal(factor))


@pytest.mark.parametrize("name", ["lvalue_afe_p30", "lvalue_direct_p120"])
def test_lvalue_tolerance_is_half_the_precision(name):
    golden = load_golden(name)
    P = golden["precision"]
    key = next(iter(golden["ops"]))
    inside = outputs_from(golden)
    inside[0]["re"] = _scaled(inside[0]["re"], f"1.{'0' * (P // 2)}5")  # 5e-(P/2+1) off
    assert check(inside, golden).failed == 0
    beyond = outputs_from(golden)
    beyond[0]["re"] = _scaled(beyond[0]["re"], f"1.{'0' * (P // 2 - 2)}1")  # 1e-(P/2-1) off
    res = check(beyond, golden)
    assert res.wrong == 1 and key in res.reasons and not res.correct


def test_lvalue_that_is_not_a_number_fails():
    golden = load_golden("lvalue_afe_p30")
    outs = outputs_from(golden)
    outs[0]["re"], outs[1]["im"] = "nan", "+inf"
    assert check(outs, golden).wrong == 2


def test_lvalue_method_must_match():
    golden = load_golden("lvalue_afe_p30")
    outs = outputs_from(golden)
    outs[0]["method"] = "direct" if outs[0]["method"] == "afe" else "afe"
    assert check(outs, golden).wrong == 1


DEFECTS = ["12,16,15", "12,22,18", "16,26,22"]


def _raising(golden: dict, keys: list[str], error: str) -> list[dict]:
    return [{"key": o["key"], "error": error} if o["key"] in keys else o
            for o in outputs_from(golden)]


def test_raised_and_missing_operations_count_as_failed():
    golden = load_golden("lvalue_afe_p30")
    outs = outputs_from(golden)
    healthy = [o["key"] for o in outs if o["key"] not in DEFECTS]
    outs = _raising(golden, healthy[:1], "ZeroDivisionError")
    outs = [o for o in outs if o["key"] != healthy[1]]
    res = check(outs, golden)
    assert (res.failed, res.raised, res.known, res.wrong) == (2, 2, 0, 0)
    assert not res.correct


def test_known_defect_fails_without_making_the_run_incorrect():
    golden = load_golden("lvalue_afe_p30")
    res = check(_raising(golden, DEFECTS, "ZeroDivisionError"), golden)
    assert (res.attempted, res.failed, res.known, res.wrong) == (34, 3, 3, 0)
    assert res.correct
    small = load_golden("lvalue_afe_k12_p30")
    res = check(_raising(small, DEFECTS, "ZeroDivisionError"), small)
    assert (res.attempted, res.failed, res.known) == (18, 2, 2) and res.correct


def test_known_defect_key_raising_something_else_is_incorrect():
    golden = load_golden("lvalue_afe_p30")
    res = check(_raising(golden, DEFECTS[:1], "NormalizationError"), golden)
    assert (res.failed, res.known) == (1, 0) and not res.correct


def test_every_operation_raising_is_incorrect():
    golden = load_golden("lvalue_afe_p30")
    res = check(_raising(golden, list(golden["ops"]), "ZeroDivisionError"), golden)
    assert (res.failed, res.known) == (34, 3) and not res.correct


def test_defect_goldens_come_from_lambda_afe():
    ops = load_golden("lvalue_afe_p30")["ops"]
    assert sorted(k for k, v in ops.items() if "known_error" in v) == DEFECTS
    assert all(ops[k]["method"] == "afe" and ops[k]["known_error"] == "ZeroDivisionError"
               for k in DEFECTS)


def test_tracer_self_time_and_failures():
    import time

    tracer = Tracer("unit")

    def inner(fail):
        time.sleep(0.01)
        if fail:
            raise ValueError

    inner_t = tracer.wrap("inner", inner)

    def outer():
        inner_t(False)
        try:
            inner_t(True)
        except ValueError:
            pass
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    agg = tracer.aggregate()
    assert agg["inner"]["calls"] == 2 and agg["inner"]["failed"] == 1
    assert agg["inner"]["raised"] == {"ValueError": 1}
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["s"] - agg["inner"]["s"])
    assert 0.009 < agg["outer"]["self_s"] < agg["outer"]["s"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_layer_metrics_without_bessel_calls_are_zero():
    m = layer_metrics({"lvalue.direct_lambda": {
        "calls": 4, "failed": 2, "s": 2.0, "self_s": 2.0,
        "raised": {"InsufficientCoefficients": 1, "ZeroDivisionError": 1},
        "raised_s": {"InsufficientCoefficients": 0.5, "ZeroDivisionError": 0.01}}}, 4.0)
    assert m["lvalue.besselk_pair.calls"] == 0 and m["lvalue.besselk_pair.ms_per_call"] == 0
    assert m["lvalue.direct_lambda.failed"] == 1 and m["lvalue.direct_lambda.wasted_s"] == 0.5
    assert m["lvalue.direct_lambda.useful_ratio"] == 0.5


def test_operation_that_raises_is_recorded_not_fatal(monkeypatch):
    from types import SimpleNamespace

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mpmath
    from rscong import lvalue, ratio

    def fake_L_at(rs, s, P):
        if s == 15:
            raise ZeroDivisionError
        return SimpleNamespace(value=mpmath.mpc(s), method="afe")

    monkeypatch.setattr(lvalue, "L_at", fake_L_at)
    wl = WORKLOADS["lvalue_afe_p30"]
    outs = wl.run({pair: None for pair in wl.points}, [(12, 16, 14), (12, 16, 15), (12, 16, 35)])
    assert [o.get("error") for o in outs] == [None, "ZeroDivisionError", None]
    assert outs[2]["re"] == "35.0"

    def broken_report(*args, **kwargs):
        raise ZeroDivisionError

    monkeypatch.setattr(ratio, "full_report", broken_report)
    outs = WORKLOADS["flagship_p60"].run({"aux": 0, "f1": 0, "f2": 0, "ideal": 0}, [])
    res = check(outs, load_golden("flagship_p60"))
    assert (res.attempted, res.raised) == (12, 12) and not res.correct



def test_subset_workload_takes_its_golden_from_the_full_table():
    small, full = load_golden("lvalue_afe_k12_p30"), load_golden("lvalue_afe_p30")
    assert small["precision"] == full["precision"] and small["n_max"] == full["n_max"]
    assert small["ops"] == {k: v for k, v in full["ops"].items() if k.startswith("12,")}


def test_speed_probe_samples_while_running_and_stops():
    import time

    probe = SpeedProbe()
    t0 = time.perf_counter()
    probe.start()
    while time.perf_counter() - t0 < 10.5 * INTERVAL_S:
        sum(range(1000))
    probe.stop()
    t1 = time.perf_counter()
    n = len(probe.samples)
    assert 5 <= n <= 10
    assert probe.spent(t0, t1) == pytest.approx(sum(d for _, d in probe.samples))
    assert probe.spent(t1, t1 + 1) == 0
    mean = sum(d for _, d in probe.samples) / n
    assert probe.slowdown() == pytest.approx(mean / REF_UNIT_S)
    time.sleep(3 * INTERVAL_S)
    assert len(probe.samples) == n


def test_speed_probe_without_samples_leaves_times_as_they_are():
    assert SpeedProbe().slowdown() == 1.0
