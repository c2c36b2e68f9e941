"""Host-speed calibration for the single-threaded workloads.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes: the median of a two-instance ``multistart``
pass was 1.0 s in one 20-second window and 1.6 s a minute later, and a fixed
tisp-free kernel slowed down with it.  A run's medians average out jitter within the run, but
not drift between runs.  So a run times a fixed kernel, which does not touch
tisp, before each set-up and between passes, and scales every time it
reports by how fast the host ran that kernel during the run::

    reported = measured * REFERENCE_S / (mean time per kernel in the run)

A change to tisp moves only the measured time; a slower or faster host moves
both.

On the 2-core VM the benchmark was written on, one core switches every few
tens of milliseconds between a fast state and one about 1.6 times slower (a
co-tenant on the same physical core, presumably), and the share of time in
the slow state drifts from minute to minute.  A pass lasts seconds, so its
time follows that share.  So does the mean time of a kernel of about 2 ms
run back to back for a few tenths of a second at a time; a median of single
kernel timings would jump between the two states instead.  The kernel runs
without pauses, as the passes do: timed after short sleeps, it read up to
15% slow in runs where the passes were not.

The kernel mixes the two kinds of single-threaded work the workloads spend
their time in: small numpy operations in a Python loop (the fixed-point
iteration on a small design) and single-threaded BLAS matrix-vector products
at the size of the experiments' designs.  It gauges one core, so it scales
only the workloads that run on one core (``Workload.single_thread``);
``decay-large`` runs multi-threaded BLAS, which the kernel does not
resemble, and is reported unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean kernel time on the 2-core Xeon VM the benchmark was written on, so
# that scaled times read close to seconds on that machine
REFERENCE_S = 0.0018
KERNELS_PER_SAMPLE = 150


class HostSpeed:
    """Times the calibration kernel; `factor` turns measured seconds into
    seconds at the reference host speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = 0.3 * rng.standard_normal((8, 8))
        self._design = rng.standard_normal((400, 200))
        self._vector = rng.standard_normal(200)
        self.samples = []

    def _kernel(self) -> None:
        x = np.zeros(8)
        for _ in range(150):
            z = self._small @ x + 0.1
            x = np.where(np.abs(z) > 0.05, z, 0.0)
        for _ in range(15):
            self._design.T @ (self._design @ self._vector)

    def sample(self) -> None:
        """Time KERNELS_PER_SAMPLE kernels back to back; records the mean."""
        t0 = time.perf_counter()
        for _ in range(KERNELS_PER_SAMPLE):
            self._kernel()
        self.samples.append((time.perf_counter() - t0) / KERNELS_PER_SAMPLE)

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)
