"""Machine-speed sampling, to report timings at a fixed reference speed.

Other tenants of a shared host slow this process by up to ~1.7x for
seconds at a time, so raw times of the same job swing between runs far
more than any bound could tolerate.  A short fixed loop of the kinds of
work ergopulse does (a small complex matmul, an SVD and a linear solve of
a 6x6 matrix, elementwise array math, Python float arithmetic) slows
with it.  While a job runs, a SIGALRM
timer runs that loop every PERIOD_S seconds (in the main thread, between
bytecodes) and records its duration; explicit samples are also taken
before and after each job.  A job's time is then scaled by
REFERENCE_LOOP_S / (mean loop time around and during the job), and the
time spent in the handler is taken out of the job's raw time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
LOOP_ITERS = 250
# The loop's duration on this 2-core x86 box when no other tenant slows it.
REFERENCE_LOOP_S = 0.0005

_A = np.eye(4, dtype=np.complex128) * (1 + 1e-9j)


def _loop() -> float:
    t0 = time.perf_counter()
    p, acc = _A, 0.0
    for i in range(LOOP_ITERS):
        p = np.dot(p, _A)
        acc += abs(i * 0.5 - 3.0)
    return time.perf_counter() - t0


class Speedometer:
    """Context manager that samples the loop every PERIOD_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._old = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(_loop())
        self.handler_s += time.perf_counter() - t0

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
