"""Host speed sampling, so that pass times can be scaled to one speed.

On a shared 2-vCPU virtual machine the same `replay` pass took anywhere
from 2.2 s to 3.9 s, with CPU time equal to wall time, in phases that last
seconds to minutes, so raw wall times of two runs minutes apart are not
comparable. While a pass runs, an interval timer repeatedly times a fixed pure-Python
reference kernel (tuple indexing, hashing and set inserts, as in the
library's closures). A pass's wall time multiplied by `factor()` is the
time the pass would have taken at the speed where the kernel takes
`REFERENCE_S`, roughly an idle core of a 2.1 GHz x86-64 host under
CPython 3.11. Over 16 back-to-back replay passes this cut the coefficient
of variation from 18% to 2%.

The kernel is the benchmark's own code: it must stay unchanged so that
scaled times remain comparable across commits.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_S = 400e-6
INTERVAL_S = 0.025

_PERMS = [tuple((i * k + j) % 7 for i in range(7)) for k in (1, 2, 3) for j in range(7)]


def reference_kernel() -> int:
    products = set()
    for a in _PERMS:
        for b in _PERMS:
            products.add(tuple(a[b[i]] for i in range(7)))
    return len(products)


class SpeedSampler:
    """Times `reference_kernel` every INTERVAL_S of wall time, from a
    SIGALRM handler, between `start` and `stop`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time.monotonic(), seconds)

    def sample(self, signum=None, frame=None) -> None:
        # neither a nested sample nor a collection of the program's heap is
        # the kernel's time
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        reference_kernel()
        self.samples.append((start, time.monotonic() - start))
        if collecting:
            gc.enable()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, until: float | None = None) -> float:
        """Reference speed over the mean speed of the samples taken before
        `until` (a time.monotonic() value), or of all samples."""
        taken = [s for t, s in self.samples if until is None or t < until]
        return REFERENCE_S / statistics.fmean(taken)
