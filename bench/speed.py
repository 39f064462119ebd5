"""Calibrated op times: divide out the CPU's speed while each op ran.

On a shared virtual machine the speed of one vCPU swings by up to 2x for
seconds at a time, depending on what other tenants run; wall times of the
same op then differ by tens of percent between runs.  ``SpeedSampler``
runs a fixed reference burst (the kind of work the toolkit's hot loops do:
a scalar complex recurrence and Clenshaw sweeps over small arrays) in a
background thread every ``INTERVAL_S`` seconds.  The worker is pinned to one
CPU, so the burst runs on the same CPU as the op, which the interpreter
lock pauses meanwhile.  An op's calibrated time is its wall time divided by
the mean burst CPU time during the op, times ``NOMINAL_BURST_S``: the time
the op would take at the nominal speed of this machine type.

The bursts use no code of the package.  They share the CPU's caches with
the op, so an op whose working set grows slows them a little too: on
changes of known cost the calibrated ratio read 1.45 where wall and CPU
time read 1.50 (hierarchy op, cutoff 30 to 40), and 2.45 against 2.42 and
2.46 (gkp-ec op, cutoff 30 to 40).  Per-op CPU time alone does not remove
the swings: a neighbour on the same core slows the CPU, not the clock
(bench/README.md has the spreads).
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

# a burst's duration at the nominal speed: the median over the benchmark
# runs that fixed it (2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31), so
# calibrated times read close to the wall times of a typical run there
NOMINAL_BURST_S = 0.0021
# pause between bursts: a burst costs about 2 ms, so sampling takes about 4 %
# of the CPU while an op of one second still gets some twenty samples
INTERVAL_S = 0.05

_DIAGS = [np.linspace(0.1, 1.0, 30 - k) + 0.05j for k in range(30)]
_POINTS = np.linspace(0.0, 2.0, 5) + 0j


def reference_burst() -> complex:
    """Fixed work of about 2 ms on the reference machine."""
    acc = 0j
    for rep in range(3):
        mu, nu, g = math.cosh(0.3), complex(math.cos(0.2), math.sin(0.2)) * math.sinh(0.3), 0.4 + 0.1j * rep
        a0, a1 = 1.0 + 0j, g / mu
        for n in range(1, 91):
            a0, a1 = a1, (g * a1 - nu * np.sqrt(n) * a0) / (mu * np.sqrt(n + 1))
        acc += a1
    for rep in range(3):
        w = np.ones_like(_POINTS)
        for order in range(28, -1, -1):
            d = _DIAGS[order]
            w = d[-1] - d[0] * (order + 1 - _POINTS) / np.sqrt(order + 1) + w * _POINTS / np.sqrt(order + 1)
        acc += w[0]
    return acc


class SpeedSampler:
    """Background thread timing ``reference_burst`` every ``INTERVAL_S``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self) -> None:
        # the burst's own CPU time: when an op releases the interpreter lock
        # in a long BLAS call, the burst shares the CPU with it, and its wall
        # time would count the other thread's time slices too
        while not self._stop.wait(INTERVAL_S):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_burst()
            self.samples.append((start, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self, start: float, end: float) -> float:
        """Mean burst duration over [start, end] relative to the nominal one.

        With no burst inside the interval the nearest burst stands in.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            if not self.samples:
                return 1.0
            mid = 0.5 * (start + end)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return (sum(inside) / len(inside)) / NOMINAL_BURST_S
