"""Core speed sampled during a worker's run, to take host noise out of times.

On the shared host this benchmark was built on, each vCPU switches between
a fast and a slow state (about 1.65x apart) every few seconds, the two
vCPUs independently, and the mix drifts over minutes.  Identical passes
therefore differ in wall time by 30% and more, and no run length the time
budget allows averages that out.  A reference computation timed on the
same core *during* the pass tracks that state: five identical report
passes took 10.7 to 18.4 s of wall time and 12.5 to 12.8 s normalized.

``SpeedSampler`` interrupts the process every ``INTERVAL_S`` with SIGALRM
and times one run of ``reference()`` (fixed exact-rational arithmetic, no
ncwb code) in the handler.  It uses no thread.  Samples are evenly spaced
in time, so the work done in a phase is proportional to its wall time
times the mean reference *rate* (1 / sample time); ``normalized(wall,
rate)`` turns that into the wall time on a core on which the reference
takes ``REFERENCE_S``.  A slow outlier sample (a garbage collection in the
handler) barely moves a mean of rates.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# a round figure for the reference's duration on the 2.1 GHz Xeon vCPUs
# this benchmark was built on; normalized times read as seconds there
REFERENCE_S = 0.0003


def reference() -> Fraction:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return s


def normalized(wall_s: float, rate: float) -> float:
    return wall_s * REFERENCE_S * rate


class SpeedSampler:
    """Reference timings, grouped into the phases named by ``phase``."""

    def __init__(self):
        self.phases: dict = {}
        self._current: list = []

    def _sample(self, *_):
        start = time.perf_counter()
        reference()
        self._current.append(time.perf_counter() - start)

    def start(self, phase: str) -> None:
        self.phase(phase)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def phase(self, name: str) -> None:
        """Begin a new phase; every phase gets at least one sample."""
        self._current = self.phases.setdefault(name, [])
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rate(self, name: str) -> float:
        """Mean reference runs per second over the phase's samples."""
        return statistics.fmean(1.0 / t for t in self.phases[name])
