"""Reference clock: wall time corrected for the speed of a shared host.

On a shared virtual machine the same work takes up to 1.6 times longer
for tens of seconds at a time, depending on what the host runs beside
it; neither longer runs nor the fastest of repeated runs removes that,
because one run can fall wholly in a slow stretch.  So the benchmark
runs a fixed reference kernel, which touches no package code, next to
every timed interval, and converts the interval to reference time:

    reference = wall * NOMINAL_S / kernel time next to the interval

that is, the seconds the work would have taken on a host where the
kernel takes NOMINAL_S.  A change to the package moves reference time
as it moves wall time; a change in the host's speed moves the interval
and the kernel next to it together, and largely cancels.

A slow host slows interpreter-bound and BLAS-bound code by different
factors, so the kernel is made of the same two kinds of work as the
workload it stands beside.  Its interpreter half is a pure-Python loop,
small matmuls with a softmax and a per-row argmax, as in a decode step,
and dictionary counting over integer pairs, as in BPE training; its
BLAS half is one wide matmul, as in a batched decode step or a training
step.  For a workload that calls BLAS, the kernel runs each half once,
in about equal time; for one that does not, it runs the interpreter half
twice.  On a 2-vCPU Xeon VM, eight runs of one seed spread (IQR over
median) 0.16 to 0.27 in wall time and 0.06 to 0.10 in reference time on
the serving, batch decoding and training workloads, where a kernel of
either half alone left one of them above 0.11; on the corpus
preparation workload, which calls no BLAS, ten seeds spread 0.21 in
reference time with the BLAS half in the kernel and 0.04 to 0.09
without it, against 0.08 to 0.22 in wall time.  The kernel runs with
the garbage collector off, so collections that the program's own
allocations make due are not charged to it.
"""

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 0.002  # about the kernel's time on a 2-vCPU Xeon VM
SHARE = 0.02  # a sample runs the kernel for at least this share of the interval
WARMUP = 5


class HostClock:
    """Samples of the reference kernel's time; ``blas`` says whether the
    workload it stands beside calls BLAS."""

    def __init__(self, blas: bool):
        self._blas = blas
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((5, 64))
        self._w1 = rng.standard_normal((64, 64)) * 0.1
        self._w2 = rng.standard_normal((64, 448)) * 0.1
        self._ids = [int(i) for i in rng.integers(0, 60, 750)]
        self._a = rng.standard_normal((64, 256))
        self._b = rng.standard_normal((256, 1024))
        for _ in range(WARMUP):
            self._kernel()

    def _kernel(self) -> None:
        self._interpreter_half()
        if self._blas:
            self._a @ self._b
        else:
            self._interpreter_half()

    def _interpreter_half(self) -> None:
        s = 0
        for i in range(6000):
            s += i * i % 7
        x = self._x
        for _ in range(6):
            x = np.tanh(x @ self._w1)
            logits = x @ self._w2
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            for row in p:
                int(row.argmax())
        counts = {}
        ids = self._ids
        for pair in zip(ids, ids[1:]):
            counts[pair] = counts.get(pair, 0) + 1
        max(counts, key=counts.get)

    def sample(self, interval_s: float = 0.0) -> float:
        """Median kernel time over at least one run, and over at least
        SHARE of ``interval_s``, the interval this sample stands next to."""
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            times = []
            start = time.perf_counter()
            while not times or time.perf_counter() - start < SHARE * interval_s:
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()
        return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall to reference time for an interval between two samples."""
    return NOMINAL_S / ((before_s + after_s) / 2)
