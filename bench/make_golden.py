"""Write the golden reference of a workload from the current library.

    PYTHONPATH=src python3 bench/make_golden.py lvalue_afe_p30 lvalue_direct_p120
    PYTHONPATH=src python3 bench/make_golden.py flagship_p60 verify_aux16_p30 --check-p120

Run it only on a commit whose outputs are trusted; the goldens in
bench/golden/ were written at the seed commit.  An L-value operation that
raises gets its golden from `LEngine.lambda_afe` at the same precision (the
value a fixed `L_at` has to return) and records the exception as
`known_error`: the operation counts as failed, without making the run
incorrect, until the library is fixed, and passes afterwards.  A workload
whose operations are a subset of another's has no file of its own.
`--check-p120` also runs a verify workload at P = 120 with the CLI default
n_max and requires identical verdicts and exact ratios before writing (about
8 minutes more for the flagship); the flagship must also give the acceptance
verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

from check import GOLDEN_DIR
from workloads import WORKLOADS, LValueWorkload, VerifyWorkload, value_fields

#: the flagship verdicts and hypothesis flags the acceptance tests expect
FLAGSHIP_EXPECTED = {"24,25": "NotCongruent", "18,19": "Indeterminate"}
FLAGSHIP_VIOLATIONS = ["l_greater_than_pair_weight", "irreducibility_screen_clear"]
#: n_max of the P = 120 reference run: the CLI default
REFERENCE_N_MAX = 6000


def lvalue_golden(wl: LValueWorkload) -> dict:
    from rscong.lvalue import get_engine

    series = wl.setup()
    ops = {}
    for out in wl.run(series, wl.ops(0)):
        key = out.pop("key")
        if "error" in out:
            k, k2, s = (int(x) for x in key.split(","))
            val, _ = get_engine(series[(k, k2)], wl.precision).lambda_afe(s)
            out = {**value_fields(val, "afe", wl.precision),
                   "known_error": out["error"],
                   "source": f"lambda_afe; L_at raises {out['error']} at the seed"}
        ops[key] = out
    return {"workload": wl.name, "precision": wl.precision, "n_max": wl.n_max, "ops": ops}


def verify_golden(wl: VerifyWorkload, check_p120: bool) -> dict:
    outs = wl.run(wl.setup(), [])
    if "error" in outs[0]:
        raise SystemExit(f"{wl.name} raised {outs[0]['error']}")
    violations = outs[0]["value"]
    ops = {o.pop("key"): o for o in outs[1:]}
    problems = []
    if wl.name == "flagship_p60":
        if sorted(violations) != sorted(FLAGSHIP_VIOLATIONS):
            problems.append(f"hypothesis violations {violations}")
        for key, o in ops.items():
            want = FLAGSHIP_EXPECTED.get(key, "Congruent")
            if o["verdict"] != want:
                problems.append(f"{key}: {o['verdict']} != {want}")
    if check_p120:
        ref = VerifyWorkload(wl.name, precision=120, n_max=REFERENCE_N_MAX, aux=wl.aux)
        ref_outs = ref.run(ref.setup(), [])
        if "error" in ref_outs[0]:
            raise SystemExit(f"{wl.name} at P=120 raised {ref_outs[0]['error']}")
        if ref_outs[0]["value"] != violations or len(ref_outs) != len(outs):
            problems.append("P=120 gives other hypothesis violations or pairs")
        for o in ref_outs[1:]:
            got = ops[o["key"]]
            for field in ("verdict", "ratio_1", "ratio_2"):
                if got[field] != o[field]:
                    problems.append(f"{o['key']} {field}: P={wl.precision} {got[field]} "
                                    f"!= P=120 {o[field]}")
    if problems:
        raise SystemExit(f"{wl.name} golden rejected:\n  " + "\n  ".join(problems))
    return {"workload": wl.name, "precision": wl.precision, "n_max": wl.n_max,
            "checked_against_p120": check_p120,
            "hypothesis_violations": violations, "ops": ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    ap.add_argument("--check-p120", action="store_true")
    args = ap.parse_args(argv)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        wl = WORKLOADS[name]
        if getattr(wl, "golden", None) is not None:
            raise SystemExit(f"{name} takes its golden from {wl.golden}")
        if isinstance(wl, VerifyWorkload):
            golden = verify_golden(wl, args.check_p120)
        else:
            golden = lvalue_golden(wl)
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {name}: {len(golden['ops'])} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
