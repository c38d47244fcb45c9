"""Machine-speed sampling during the timed CLI calls.

The host this benchmark runs on is a slice of a shared machine whose speed
moves by up to 1.7x within seconds, so a call's wall time says as much about
the moment as about the program. While a `Sampler` is installed, a SIGALRM
handler in the main thread times a slice of a fixed calibration workload every
`INTERVAL` seconds of wall time: refsim's reference step loop over 51 scenarios
of a fixed copy of the default grid. That loop is the benchmark's own code and
never touches the program's objects, so only the speed of the machine moves
it. A call's own time is its wall time minus the time spent in the handler;
scaled by `REF_SLICE_S` over the mean slice time during the call, it is the
time the call would have taken on the reference machine at its usual speed.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

import refsim

MODEL = refsim.Model(
    axes=((9.0, 0.5, 16), (5.5, 0.5, 21), (13.5, 1.0, 20), (-0.05, -0.2, 9)),
    dt=0.1, t_max=30.0, sigma=0.1, open_gap_exit=20,
    reaction_time=0.5, max_brake=6.0, ttc_trigger=2.5, min_gap_trigger=5.0,
)
SLICE = range(0, MODEL.cardinality, 1200)
INTERVAL = 0.25
# Seconds one slice takes on the reference machine (2 vCPU x86_64 VM,
# Python 3.11.7, numpy 2.4.6) at its usual speed.
REF_SLICE_S = 0.010


def slice_seconds() -> float:
    """Wall seconds of one calibration slice, with the cyclic garbage
    collector held off so that the program's heap is never traversed here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for index in SLICE:
            refsim.gttc_min(MODEL, index, 0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Slice times and handler seconds of one timed call."""

    def __init__(self):
        self.slices: list[float] = []
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.slices.append(slice_seconds())
        self.handler_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def installed(self):
        """Sample every INTERVAL seconds until the block ends, then once more
        outside it, so that even a call shorter than INTERVAL has a sample."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.slices.append(slice_seconds())

    def reference_seconds(self, wall: float) -> float:
        """The call's own seconds, `wall` minus the handler's, at the
        reference machine's speed."""
        return (wall - self.handler_s) * REF_SLICE_S / statistics.fmean(self.slices)
