"""The machine's speed, sampled throughout a trial, to normalise its times.

The benchmark runs on a few cores of a shared virtual machine whose speed
drifts by 10-50 % over seconds and minutes, because of other guests.  Raw
times of the same code then spread more between runs than a regression
bound can tolerate.  So every trial also measures how fast the machine is
while it runs: a timer interrupts the trial every INTERVAL_S and times one
fixed unit of work, `unit()`, made of the same low-level mpmath arithmetic
(python backend) the program spends its time in.  The unit's mean duration
over a phase of the trial, divided by REF_UNIT_S, is that phase's slowdown;
the harness divides the phase's time by it.  The result is seconds at the
reference speed: what the phase would have taken on the machine of
bench/BASELINE.md while the unit took REF_UNIT_S there.

The unit's functions are bound when this module is imported, before the
package is, so nothing the package does to mpmath can change the unit.
"""

from __future__ import annotations

import signal
from time import perf_counter

from mpmath import MPContext

#: seconds between two samples
INTERVAL_S = 0.04
#: mean seconds of one unit on the reference machine (bench/BASELINE.md)
REF_UNIT_S = 0.0013
#: a context of the unit's own, at about the 30 digits of the P=30 workloads
_CTX = MPContext()
_CTX.prec = 110


def unit():
    """A fixed amount of high-level mpmath arithmetic on mpf objects: a power
    series with 40 terms of products, quotients, sums and square roots, in a
    context the package never sees.  It uses no memoised constant (exp, log,
    pi, ...), so an interruption of the package at any point cannot corrupt
    a value the package shares with it."""
    ctx = _CTX
    x = ctx.mpf(7) / 3
    term, acc = ctx.mpf(1), ctx.mpf(0)
    for k in range(1, 41):
        term = term * x * x / (4 * k * k)
        acc += term / k + ctx.sqrt(term + k)
    return acc


class SpeedProbe:
    """Times `unit()` every INTERVAL_S of wall time between start and stop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each unit

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        unit()
        self.samples.append((t0, perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the samples that started in [t0, t1) took."""
        return sum(d for start, d in self.samples if t0 <= start < t1)

    def slowdown(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean unit time of the samples that started in [t0, t1), over
        REF_UNIT_S: above 1 when the machine was slower than the reference.
        All samples count when none started in [t0, t1); 1.0 when there are
        none at all."""
        window = [d for start, d in self.samples if t0 <= start < t1]
        if not window:
            window = [d for _, d in self.samples]
        return sum(window) / len(window) / REF_UNIT_S if window else 1.0
