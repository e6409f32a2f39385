"""rscong benchmark: end-to-end and per-layer metrics for each workload.

One run of one workload (the form the BENCHMARK.json command uses):

    python3 bench/run.py --workload lvalue_afe_k12_p30 --seed 1 --seconds 45 --trace 0

Several runs (seeds --seed, --seed + 1, ...) of the named workloads, or of
every workload with --all, then a table of medians and quartiles:

    python3 bench/run.py --all --runs 3
    python3 bench/run.py --workload verify_aux16_p30 --workload lvalue_direct_p120 --runs 10

Each trial is a fresh interpreter (`child.py`), because users pay the cold
costs on every `rscong verify` or `rscong lvalue` call: in one long process
the module-global kernel and engine caches would make repeats nearly free.
Trials run one at a time.  A run repeats trials while another one still fits
in --seconds (always at least one) and reports the median of each metric
over its trials.  Every time is in seconds at the reference speed: the
trial's raw time, less the speed probe's own samples, divided by the
slowdown the probe measured during the trial (see `speed.py`).  The raw
medians are printed on the comment lines.  With --trace 1 each trial is
paired with a traced one and the run reports the per-layer metrics of
`spans.LAYER_METRICS` instead, plus `trace.overhead_s`, the traced minus
the untraced wall time.  Spans of the last traced trial are written to
.bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts operations that raised or
disagree with the golden (failed_frac = failed / attempted).  `correct` is
false when an output disagrees with the golden or an operation raises
anything but the known defect its golden records, so the known defect shows
in `failed` without hiding the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import check, load_golden
from spans import LAYER_METRICS, layer_metrics
from workloads import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("wall_s", "s"),  # interpreter start to checked output, per trial
    ("setup_s", "s"),  # imports plus building the inputs
    ("run_s", "s"),  # the pipeline calls
    ("cpu_s", "s"),  # user plus system CPU time of the trial process
    ("peak_rss_mb", "MB"),  # peak resident memory of the trial process
)
TIMES = ("wall_s", "setup_s", "run_s", "cpu_s")
#: a run must end within this many seconds; the flagship is only run by hand
LIMIT_S = {"flagship_p60": 1800}
DEFAULT_LIMIT_S = 170


class RunError(Exception):
    pass


def trial(name: str, seed: int, mode: str, timeout: float) -> dict:
    """One child process; returns its result with the parent-side wall time,
    the check against the golden, and the child's outputs."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), mode]
    if mode == "traced":
        OUT_DIR.mkdir(exist_ok=True)
        cmd.append(str(OUT_DIR / f"spans_{name}_seed{seed}.jsonl"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(timeout, 1), text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{name} {mode} trial exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{name} {mode} trial exited with {proc.returncode}")
    wall = perf_counter() - t0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["check"] = check(res["outputs"], load_golden(name))
    res["raw"] = {"wall_s": wall - res["probe_s"], "setup_s": res["setup_s"],
                  "run_s": res["run_s"], "cpu_s": res["cpu_s"]}
    for m in TIMES:
        res[m] = res["raw"][m] / res["slowdown"][m]
    return res


def one_run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Trials until the next would overrun `seconds`; medians of their metrics."""
    t0 = perf_counter()
    deadline = t0 + LIMIT_S.get(name, DEFAULT_LIMIT_S)
    plain, with_spans = [], []
    while True:
        plain.append(trial(name, seed, "full", deadline - perf_counter()))
        if traced:
            with_spans.append(trial(name, seed, "traced", deadline - perf_counter()))
        elapsed = perf_counter() - t0
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or t0 + elapsed + 1.5 * per_round > deadline:
            break

    trials = plain + with_spans
    checks = [t["check"] for t in trials]
    if traced:
        units = dict(LAYER_METRICS)
        rows = []
        for t in with_spans:
            row = layer_metrics(t["layers"], t["raw"]["run_s"])
            rows.append({m: v / t["slowdown"]["run_s"] if units[m] in ("s", "ms") else v
                         for m, v in row.items()})
        values = {m: statistics.median(r[m] for r in rows) for m in units
                  if m != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in with_spans)
                                      - statistics.median(t["wall_s"] for t in plain))
    else:
        values = {m: statistics.median(t[m] for t in plain) for m, _ in END_TO_END}
        units = dict(END_TO_END)
    reasons = {}
    for c in checks:
        reasons.update(c.reasons)
    return {
        "correct": all(c.correct for c in checks),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "trials": len(plain),
        "samples": {"wall_s": [round(t["wall_s"], 4) for t in plain],
                    "run_s": [round(t["run_s"], 4) for t in plain],
                    "slowdown": [round(t["slowdown"]["wall_s"], 4) for t in plain]},
        "raw": {m: statistics.median(t["raw"][m] for t in plain) for m in TIMES},
        "reasons": reasons,
        "env": plain[0]["env"],
    }


def print_run(name: str, seed: int, res: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# {name} seed={seed} trials={res['trials']} {env}")
    for m, samples in res["samples"].items():
        print(f"#   {m} per trial: {samples}")
    print("#   raw medians: " + " ".join(f"{m}={v:.4f}" for m, v in res["raw"].items()))
    for m, v in res["metrics"].items():
        print(f"{m:40s} {v['value']:14.6f} {v['unit']}")
    print(f"{'failed_frac':40s} {res['failed'] / res['attempted']:14.6f} "
          f"({res['failed']}/{res['attempted']})")
    for key, why in sorted(res["reasons"].items()):
        print(f"#   failed {key}: {why}")


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def run_all(names: list[str], runs: int, seed: int, seconds: float) -> int:
    """`runs` untraced runs and one traced run of each workload, then a table
    of the end-to-end medians, quartiles and spreads ((q3 - q1) / median)."""
    rows = []
    for name in names:
        results = []
        for i in range(runs):
            res = one_run(name, seed + i, seconds, traced=False)
            print_run(name, seed + i, res)
            results.append(res)
        print_run(name, seed, one_run(name, seed, seconds, traced=True))
        rows.append((name, results))
    print("\nworkload             metric             median          q1          q3  spread unit  n")
    for name, results in rows:
        for m, unit in END_TO_END:
            q1, med, q3 = quartiles([r["metrics"][m]["value"] for r in results])
            print(f"{name:20s} {m:12s} {med:12.4f} {q1:11.4f} {q3:11.4f} "
                  f"{(q3 - q1) / med:7.4f} {unit:4s} {len(results)}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{name:20s} {'failed_frac':12s} {failed / attempted:12.4f} "
              f"({failed}/{attempted})  correct={correct}")
    return 0 if all(r["correct"] for _, results in rows for r in results) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="a workload to run; repeat it to run several")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs of each workload; more than one prints a summary table")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rscong" / "__init__.py").is_file():
        sys.stderr.write(f"no rscong sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    try:
        names = list(WORKLOADS) if args.all else args.workload
        if not names:
            ap.error("give --workload or --all")
        if len(names) > 1 or args.runs > 1:
            return run_all(names, args.runs, args.seed, args.seconds)
        res = one_run(names[0], args.seed, args.seconds, traced=bool(args.trace))
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print_run(names[0], args.seed, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
