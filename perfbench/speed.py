"""Host-speed calibration of measured times.

On the 2-vCPU virtual machine the benchmark was written on, the host's speed
drifts by up to a third within seconds: a fixed pure-Python loop took
0.15-0.24 s in back-to-back repetitions, and a dense SVD drifted with it. No
amount of repetition inside a 20 s run averages that away, so a run times a
fixed calibration kernel between jobs and scales every job's wall time to a
reference speed:

    scaled = wall * REF / mean(kernel time just before, kernel time just after)

The kernels use numpy only, never anbit: a change to the program leaves them
unchanged, so scaled times of two commits compare as their wall times would
on a host of constant speed. Raw wall times are printed as well.

A kernel must do the kind of work the job's time goes to, or it tracks the
wrong speed; each workload names the kernels its jobs need, and each job is
scaled by one of them:
- "interpreter": Python arithmetic and numpy calls on 2x2 arrays;
- "lapack": singular values of a dense complex matrix on the run's BLAS threads.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

INTERVAL_S = 0.1  # re-time the kernel before a job once this much time has passed
REPEATS = 3

_SVD_OPERAND = np.random.default_rng(0).normal(size=(96, 96)) + 0j


def _interpreter() -> None:
    s = 0
    for i in range(20000):
        s += i * i
    a = np.full((2, 2), 0.5 + 0.5j)
    for _ in range(100):
        a = (a @ a) / np.abs(a).sum()


def _lapack() -> None:
    np.linalg.svd(_SVD_OPERAND, compute_uv=False)


# kernel -> (function, its time in seconds at the reference speed)
KERNELS = {"interpreter": (_interpreter, 0.002), "lapack": (_lapack, 0.003)}


class Speed:
    """Kernel timings of one run, and the scale factor they give each job."""

    def __init__(self, *kernels: str):
        self.kernels = kernels  # the first is the default of factor()
        self.times: list = []  # perf_counter at the end of each sample
        self.seconds = {kernel: [] for kernel in kernels}

    def sample(self):
        """Time each kernel: the median of a few runs, the speed jobs typically see."""
        for kernel in self.kernels:
            fn = KERNELS[kernel][0]
            runs = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn()
                runs.append(time.perf_counter() - t0)
            self.seconds[kernel].append(sorted(runs)[len(runs) // 2])
        self.times.append(time.perf_counter())

    def between_jobs(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float, kernel: str | None = None) -> float:
        """REF over the mean kernel time of the samples bracketing [start, end]."""
        kernel = kernel or self.kernels[0]
        seconds = self.seconds[kernel]
        k = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        before = seconds[max(k, 0)]
        after = seconds[min(j, len(seconds) - 1)]
        return KERNELS[kernel][1] / (0.5 * (before + after))
