"""Pass time in units of a fixed reference kernel, sampled while the pass runs.

The speed a shared machine gives a process drifts by up to 1.6x over seconds
to minutes, and a fixed pure-Python loop and a fixed LAPACK call slow down
together.  ``SpeedProbe`` runs a small fixed kernel from a ``SIGALRM`` handler
every ``PERIOD_S`` of wall time while the pass runs, so the kernel samples
the machine's speed throughout the pass.  Each stretch of work between two
samples is divided by the reference time around it; the sum is the pass's
cost in reference units ("refs"), which the drift moves far less than it
moves seconds.  The handler's own time is taken out of the pass's seconds.

Python runs the handler between bytecodes of the main thread, so a long C
call (a large ``eigh``) only delays the next sample; the stretch it falls in
is then longer.  Interrupted system calls are retried by Python itself.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

import numpy as np

#: wall time between samples.  A sample takes about 5 ms on a 2-vCPU x86-64
#: VM, so the probe adds about 5 % to a run; that time is not the pass's.
#: Against 0.25 s between samples and medians over 5, this halved the spread
#: of cz-calibration's wall_refs over 8 interleaved runs (0.052 to 0.029).
PERIOD_S = 0.1
#: a reference time is the median of the samples this many places either side
#: of it, so that one sample cut short or stretched by the scheduler counts
#: little
_SMOOTH = 5

_LOOP = 15_000
_EIGH = 5
_SWEEPS = 10
_MATRIX = np.cos(np.add.outer(np.arange(64.0), np.arange(64.0) ** 1.5))
_MATRIX = _MATRIX + _MATRIX.T
_VECTOR = np.linspace(0.0, 1.0, 100_000)


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def reference_kernel() -> None:
    """Fixed work that touches nothing of cavitysim: interpreter, LAPACK, memory."""
    x = 0
    for i in range(_LOOP):
        x += i * i
    for _ in range(_EIGH):
        np.linalg.eigh(_MATRIX)
    for _ in range(_SWEEPS):
        # an elementwise product, not np.dot: OpenBLAS runs a dot product this
        # long on several threads, which then spin and bill the pass CPU time
        x += float(np.sum(_VECTOR * _VECTOR))


class SpeedProbe:
    """Samples the reference kernel while a pass runs; see the module docstring."""

    def __init__(self):
        # per stretch of work: wall seconds, CPU seconds, and the reference
        # time sampled at its end
        self.work_wall: list = []
        self.work_cpu: list = []
        self.ref_s: list = []  # ref_s[0] is sampled before the first stretch
        self._mark = None
        self._busy = False
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0, c0 = time.perf_counter(), _cpu_seconds()
        if self._mark is not None:
            self.work_wall.append(t0 - self._mark[0])
            self.work_cpu.append(c0 - self._mark[1])
        reference_kernel()
        self.ref_s.append(time.perf_counter() - t0)
        self._mark = (time.perf_counter(), _cpu_seconds())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _smoothed(self) -> list:
        n = len(self.ref_s)
        return [
            statistics.median(self.ref_s[max(0, k - _SMOOTH) : k + _SMOOTH + 1]) for k in range(n)
        ]

    def in_refs(self, seconds: list) -> float:
        """Sum of the stretches in ``seconds``, each over the reference time around it."""
        ref = self._smoothed()
        return sum(t / (0.5 * (ref[k] + ref[k + 1])) for k, t in enumerate(seconds))

    def wall_refs(self) -> float:
        return self.in_refs(self.work_wall)

    def cpu_refs(self) -> float:
        return self.in_refs(self.work_cpu)
