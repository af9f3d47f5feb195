"""Host-speed normalisation of measured times.

A shared host runs the same code up to ~50 % slower for tens of
seconds at a time, whatever the benchmark does.  To keep run-to-run
spread below the benchmark's bounds, every timed interval runs inside
a :class:`Probe`: a thread that, every :data:`INTERVAL_S`, times a
fixed pure-Python loop in its own CPU time (``time.thread_time``, so
the measured process taking the interpreter lock in between does not
count).  The interval is then rescaled to the speed at which that loop
takes :data:`REFERENCE_S`:

    normalised = measured * REFERENCE_S / trimmed_mean(loop times)

The mean is the host's average slowdown over the interval, which is
what scales its total time; the 10 % trimmed at each end are samples
disturbed by something other than the host's speed.  On ten identical
16-proc DES b_eff ops this cut the IQR/median spread from 0.22 (raw)
to 0.03.  A change to ``repro`` cannot move the loop, so a real
slowdown of an op still shows in full.  The probe costs the measured
code about 8 % of its time, the same on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time

#: seconds of thread CPU time the loop takes on an unloaded 2.1 GHz
#: x86-64 core with CPython 3.11; the scale of every normalised time
REFERENCE_S = 0.0065
#: seconds between two loop samples while a probe is active
INTERVAL_S = 0.1


def _loop_seconds() -> float:
    start = time.thread_time()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.thread_time() - start


class Probe:
    """Samples the host's speed while active; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(_loop_seconds())

    def __enter__(self) -> "Probe":
        self.samples.append(_loop_seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(_loop_seconds())

    def normalise(self, seconds: float) -> float:
        """``seconds`` rescaled to the reference speed of this probe's span."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return seconds * REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])
