"""One trial of one workload in a fresh interpreter; run by `run.py`.

    python3 bench/child.py <workload> <seed> <mode> [<spans file>]

mode is "full" (set-up and timed calls) or "traced" (the same, with spans
around the package's public functions).  A `speed.SpeedProbe` samples the
machine's speed throughout.  The last line of standard output is a JSON
object with the raw phase and CPU times (the probe's own samples taken
out), the probe's slowdown for each and its total time, this process's
peak resident memory, the outputs and, when traced, the per-layer
aggregates.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    probe = SpeedProbe()
    probe.start()
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    wl = WORKLOADS[name]
    ops = wl.ops(seed)

    import mpmath
    import rscong

    src = (ROOT / "src").resolve()
    if src not in Path(rscong.__file__).resolve().parents:
        sys.stderr.write(f"rscong imported from {rscong.__file__}, not from {src}\n")
        return 2
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer(name)
        tracer.install()
    inputs = wl.setup()
    t_setup = perf_counter()
    outputs = wl.run(inputs, ops)
    t_run = perf_counter()
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": t_setup - T_START - probe.spent(T_START, t_setup),
        "run_s": t_run - t_setup - probe.spent(t_setup, t_run),
        "cpu_s": ru.ru_utime + ru.ru_stime - probe.spent(T_START, t_run),
        "slowdown": {"wall_s": probe.slowdown(), "setup_s": probe.slowdown(T_START, t_setup),
                     "run_s": probe.slowdown(t_setup, t_run), "cpu_s": probe.slowdown()},
        "probe_s": probe.spent(T_START, t_run),
        "peak_rss_mb": ru.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "outputs": outputs,
        "env": {"python": sys.version.split()[0], "nproc": os.cpu_count(),
                "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND},
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        if len(argv) > 3:
            tracer.write(argv[3])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
