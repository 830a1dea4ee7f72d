"""CPU-speed calibration: times at a fixed reference speed.

On a shared host the same single-threaded Python code can run 1.5-2x
slower for seconds at a time (a busy sibling hyperthread, another tenant's
cache traffic), and such states last as long as a whole benchmark run, so
no median inside one run removes them.  The benchmark therefore times a
fixed calibration kernel next to the program's work and rescales:

    time at reference speed = CPU time of the work * REF_KERNEL_S / kernel time

where the kernel time is the mean of samples taken right before and right
after the work and, because the host's speed changes within a long query,
every ``INTERVAL_S`` of CPU time during it: a profiling timer interrupts
the work and its signal handler runs one sample.  Interior samples are
evenly spaced in CPU time, so their mean weighs the host's speed by how
long the work ran at it; their own CPU time is taken out of the work's.

The kernel is the kind of work the solver does, in pure Python: products
of small integer matrices with dictionary traffic, and rational
(``Fraction``) elimination.  It is fixed code that no change to
``src/degmap`` touches, so a faster or slower program moves the rescaled
times while the host's speed moves them much less.  The correction is not
exact: code that suffers more or less than the kernel from a busy host
keeps part of the host's noise.

``REF_KERNEL_S`` is about what one ``sample()`` took on the machine the
bounds were set on (a 2-vCPU Xeon VM at 2.0 GHz, Python 3.11) in its fast
state; it only sets the scale of the reported seconds.

CPU times come from the thread clock: while a profiling timer is armed,
Linux reads the process clock at scheduler-tick resolution.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter, thread_time

REF_KERNEL_S = 0.0006
REPS = 2
INTERVAL_S = 0.02

_A = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
_P = [[(i * 5 + j * 2) % 7 - 3 for j in range(6)] for i in range(6)]
# positive definite: 2 on the diagonal, -1 beside it (the A_6 root lattice)
_G = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(6)] for i in range(6)]


def kernel(reps: int = REPS) -> int:
    """Fixed work in the solver's two styles, ``reps`` times: an integer
    congruence P.T A P of 6x6 matrices with a tally of residues, as in
    witness checks, box enumeration and mod-q filters, and a rational LDL
    factorisation of a 6x6 definite form, as in definite enumeration."""
    total = 0
    for _ in range(reps):
        pt = [list(col) for col in zip(*_P)]
        ap = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_P)] for row in _A]
        g = [[sum(x * y for x, y in zip(row, col)) for col in zip(*ap)] for row in pt]
        counts = {}
        for row in g:
            for v in row:
                counts[v % 13] = counts.get(v % 13, 0) + 1
        rows = [[Fraction(x) for x in row] for row in _G]
        n = len(rows)
        for i in range(n):
            for j in range(i + 1, n):
                f = rows[j][i] / rows[i][i]
                if f:
                    for c in range(i, n):
                        rows[j][c] -= f * rows[i][c]
        total += len(counts) + rows[-1][-1].denominator
    return total


def sample() -> float:
    """CPU seconds of one kernel run.  The collector is off meanwhile, so
    that the size of the program's heap does not enter the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        kernel()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


def rescale(cpu_s: float, samples: list) -> float:
    """CPU seconds at reference speed, given the kernel samples taken
    around and during the work."""
    return cpu_s * REF_KERNEL_S / statistics.fmean(samples)


class Speedometer:
    """Times calls in CPU seconds at reference speed.

    Use as a context manager: it owns the SIGPROF handler while open.
    """

    def __init__(self):
        self.samples = []  # every kernel sample, in order
        self._during = []
        self._old_handler = None
        self._last = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        self._last = sample()
        self.samples.append(self._last)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        return False

    def _tick(self, signum, frame):
        self._during.append(sample())

    def time(self, fn, *args, inside: bool = True):
        """Return (fn(*args), rescaled CPU seconds, wall seconds).

        The wall time leaves out the interior samples.  With ``inside``
        false only the samples around the call are taken, so that the call
        is not interrupted (the traced passes use this).
        """
        self._during = during = []
        if inside:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        wall, start = perf_counter(), thread_time()
        try:
            result = fn(*args)
        finally:
            cpu, wall = thread_time() - start, perf_counter() - wall
            signal.setitimer(signal.ITIMER_PROF, 0)
        self._during = []
        after = sample()
        overhead = sum(during)
        self.samples.extend(during)
        self.samples.append(after)
        rescaled = rescale(cpu - overhead, [self._last, after, *during])
        self._last = after
        return result, rescaled, wall - overhead
