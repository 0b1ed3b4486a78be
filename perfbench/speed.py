"""Machine-speed probe: scales CPU time to a fixed reference speed.

On a shared host the same request, run twice in one process, can take
up to twice as much CPU time the second time: other guests share the
physical core and its clock, and they come and go within seconds and over
minutes. A run's median then says as much about the neighbours as about
the program.

While a timed region runs, :class:`SpeedProbe` samples a fixed reference
kernel every ``PERIOD_S`` of wall time, and once more when the region
ends. A sample runs the kernel twice and times the second run, so that
what the program left in the caches does not count. A region's figure is
its CPU time, less the samples' own, times the kernel's reference time
(``REF_KERNEL_S``) over its mean sample: the seconds the region would take
on a machine that runs the kernel in its reference time. A change to the
program moves that figure as it moves the CPU time; a slow spell of the
machine slows program and kernel alike and cancels out.

A slow spell does not slow all code alike: interpreted Python slows more
than array arithmetic. So there are two kernels, and the caller names the
one that matches the region (see ``KERNELS``).

The trigger is ``SIGALRM`` from ``ITIMER_REAL``: a process CPU timer such
as ``ITIMER_PROF`` would make Linux read the process CPU clock in whole
ticks.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

PERIOD_S = 0.025


class InterpretedKernel:
    """An interpreted loop and small array operations, one row at a time.

    Matches imputation, which runs the models on one window at a time.
    Like the other kernel, it allocates nothing and touches no global state.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((32, 32))
        self.b = np.empty_like(self.a)
        self.v = rng.random(256)
        self.w = np.empty_like(self.v)

    def __call__(self) -> None:
        s = 0.0
        for i in range(2500):
            s += i * 0.5
        for _ in range(70):
            np.matmul(self.a, self.a, out=self.b)
            np.tanh(self.v, out=self.w)
            np.multiply(self.w, 0.5, out=self.w)
            np.add(self.w, s, out=self.w)


class ArrayKernel:
    """Three fifths an interpreted loop, two fifths a 128x128 matrix product.

    Matches training and snippet discovery, which work on whole batches.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).random((128, 128))
        self.b = np.empty_like(self.a)

    def __call__(self) -> None:
        s = 0.0
        for i in range(4000):
            s += i * 0.5
        for _ in range(2):
            np.matmul(self.a, self.a, out=self.b)


KERNELS = {"interpreted": InterpretedKernel, "array": ArrayKernel}
# Median kernel times on an otherwise idle Intel Xeon (2 vCPUs, one BLAS
# thread); they only fix the unit, so that figures read as seconds there.
REF_KERNEL_S = {"interpreted": 4.0e-4, "array": 4.0e-4}


@dataclass
class Region:
    """Kernel times sampled while one timed region ran."""

    kernel: str
    samples: list[float] = field(default_factory=list)
    spent: float = 0.0  # CPU seconds of the samples taken inside the region

    def scale(self) -> float:
        """The kernel's reference time over its mean time in the region."""
        return REF_KERNEL_S[self.kernel] / statistics.fmean(self.samples)


class SpeedProbe:
    """Samples a kernel while timed regions run; regions may nest."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.kernels = {name: cls() for name, cls in KERNELS.items()}
        self._active: list[Region] = []
        self._previous = None
        self._sampling = False

    def _sample(self) -> None:
        """Time the active regions' kernel once, for every active region.

        The kernels allocate no tracked objects; gc is held off anyway so
        that a collection the program is due never lands in a sample.
        """
        kernel = self.kernels[self._active[0].kernel]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            kernel()  # warm-up: the program has evicted the kernel's data
            t0 = time.process_time()
            kernel()
            t1 = time.process_time()
        finally:
            if was_enabled:
                gc.enable()
        spent = time.process_time() - start
        for region in self._active:
            region.samples.append(t1 - t0)
            region.spent += spent

    def _on_signal(self, signum, frame) -> None:
        # Not while a sample runs: it would time the nested one with it.
        if self._active and not self._sampling:
            self._sampling = True
            try:
                self._sample()
            finally:
                self._sampling = False

    def measure(self, fn, cpu_clock, kernel: str):
        """Run ``fn()``; returns its result, Region and CPU seconds net of sampling.

        ``cpu_clock`` reads the CPU time the region is charged with, and
        ``kernel`` names the kernel it is sampled with; a nested region
        must name its outer region's. The sample taken after the region is
        charged to the regions enclosing it.
        """
        if kernel not in self.kernels:
            raise ValueError(f"unknown kernel {kernel!r}")
        if self._active and self._active[0].kernel != kernel:
            raise ValueError(f"region sampled with {kernel!r} nested in "
                             f"one sampled with {self._active[0].kernel!r}")
        region = Region(kernel)
        if not self._active:
            self._previous = signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._active.append(region)
        try:
            c0 = cpu_clock()
            result = fn()
            cpu = cpu_clock() - c0 - region.spent
        finally:
            self._active.pop()
            if not self._active:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, self._previous)
        self._active.append(region)
        self._sampling = True
        try:
            self._sample()
        finally:
            self._sampling = False
            self._active.pop()
        return result, region, cpu
