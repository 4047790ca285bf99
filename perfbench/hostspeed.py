"""Host-speed sampler: a fixed millisecond kernel timed all through a run.

The benchmark runs on shared hosts whose speed drifts over seconds to
minutes (on the 2-vCPU host it was defined on, the same warm Hölder
trajectory took 1.1-1.3 s for a stretch and 1.8-2.1 s for the next, and
user CPU time moved with wall time).  A whole operation takes 1-12 s, so
no affordable number of operations in a run averages the drift out, and a
reference timed only between operations misses what happens during them.

So a ``SIGALRM`` interval timer interrupts the run every ``INTERVAL_S``
and the handler times one run of a fixed kernel, on the same thread and
core as the program.  An operation's wall time, less the time its handlers
took, is scaled by the kernel's nominal time over its mean measured time
during that operation: the operation in seconds at nominal host speed.

The kernel uses only Python, numpy and scipy, never spdelab, so no change
to the program can move it.  It mixes the kinds of work a path does: an
interpreted loop, sparse LU solves with sparse products, and small dense
products.  The handler runs between bytecodes, so a long C call delays a
sample but is never interrupted.
"""

import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

INTERVAL_S = 0.05
# Seconds one kernel run took on the defining host at its typical speed;
# scaled times read as seconds on a host where the kernel takes this long.
NOMINAL_S = 0.0015
# An operation shorter than this many intervals is scaled by the latest
# samples instead of only its own.
MIN_SAMPLES = 5


class Sampler:
    N = 400
    LOOP = 12_000
    SOLVES = 16
    PRODUCTS = 16

    def __init__(self):
        off = -np.ones(self.N - 1)
        self.a = sp.diags([off, np.full(self.N, 2.01), off], [-1, 0, 1], format="csc")
        self.lu = spl.splu(self.a)
        self.b = np.ones(self.N)
        self.d = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
        self.samples: list[float] = []
        self.busy_s = 0.0  # wall time spent in the handler
        for _ in range(10):  # the first runs pay one-time costs
            self._kernel()

    def _kernel(self) -> None:
        s = 0
        for i in range(self.LOOP):
            s += i * i
        x = self.b
        for _ in range(self.SOLVES):
            x = self.a @ self.lu.solve(x)
        y = self.d
        for _ in range(self.PRODUCTS):
            y = self.d @ y
        if not (s > 0 and np.isfinite(x[0]) and np.isfinite(y[0, 0])):
            raise RuntimeError("reference kernel produced a non-finite value")

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy_s

    def scaled(self, wall_s: float, mark: tuple[int, float]) -> float:
        """``wall_s``, measured since ``mark``, at nominal host speed."""
        first, busy = mark
        own_s = wall_s - (self.busy_s - busy)
        window = self.samples[first:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        if not window:  # the timer never fired in this run
            self._handler(signal.SIGALRM, None)
            window = self.samples[-1:]
        return own_s * NOMINAL_S * len(window) / sum(window)
