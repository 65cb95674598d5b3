"""Machine-speed calibration sampled while each op runs.

The benchmark's host is shared.  For seconds to minutes at a time the same
op runs up to 1.9 times slower while other tenants load the CPU.  No steal
time is reported, so process CPU time drifts with wall time.  Raw wall times
of identical work then spread by 13-44% across runs (interquartile range over
median of ten seeds).

So while an op runs, a timer signal interrupts it every ``PERIOD_S`` and
times one fixed calibration chunk in thread CPU time.  ``BRACKET`` chunks
are also timed just before and just after; they carry the estimate for ops
of a few tens of milliseconds.  An op's time is reported in calibrated
seconds:

    calibrated = wall * NOMINAL_CHUNK_S / (mean chunk time around the op)

The chunk mixes what the program spends its time on: parsing ``index:value``
tokens into tuples and short numpy matvecs on a narrow dense matrix.  It
never calls the package under test, so a change to the package cannot move
it.  Thread CPU time leaves out the time the main thread waits for the
interpreter lock while ``tune``'s pool threads run.  The chunks add about 1%
to an op's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_CHUNK_S = 2e-4   # the chunk's CPU time on an unloaded 2-CPU Xeon host
PERIOD_S = 0.02          # timer interval while an op runs
BRACKET = 5              # chunks timed just before and just after each op


class Calibrator:
    """Holds the calibration inputs and times chunks of fixed work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tokens = [f"{j}:{v!r}" for j, v in enumerate(rng.standard_normal(60).tolist())]
        self.dense = rng.standard_normal((690, 14))
        self.x0 = np.zeros(14)

    def chunk(self) -> float:
        """Thread CPU seconds for one fixed unit of work."""
        t0 = time.thread_time()
        parsed = []
        for tok in self.tokens:
            idx, _, val = tok.partition(":")
            parsed.append((int(idx), float(val)))
        x = self.x0
        for _ in range(6):
            x = x - 1e-9 * (self.dense.T @ (self.dense @ x))
        return time.thread_time() - t0

    @contextmanager
    def sampling(self):
        """Collect chunk times around and during the enclosed block; yields
        the list they are appended to.  Main thread only."""
        samples = [self.chunk() for _ in range(BRACKET)]

        def on_alarm(signum, frame):
            samples.append(self.chunk())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        samples.extend(self.chunk() for _ in range(BRACKET))

    @staticmethod
    def calibrated(wall: float, samples: list[float]) -> float:
        """Wall seconds rescaled to the nominal chunk speed."""
        return wall * NOMINAL_CHUNK_S / statistics.fmean(samples)
