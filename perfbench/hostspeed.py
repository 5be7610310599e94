"""Host speed, from a fixed reference loop timed alongside the benchmark.

On a shared host the speed of a process drifts by a quarter or more over
minutes, in CPU time as in wall time, and a whole 30-second run can fall
into a slow or a fast stretch.  The reference loop (pure Python, no ckn)
slows down with the host: over 10-second windows its time followed the
time of the spectrum and survey operations with a correlation of about
0.9.  So the worker times it at the start of every cycle and reports
operation times in reference-host seconds,

    reported = wall * REF_S / (median reference time during the run),

which takes the host's drift out of comparisons between runs.  The wall
times themselves are on the info line.
"""

from __future__ import annotations

from time import perf_counter

#: Iterations of the reference loop.
REF_LOOPS = 30_000
#: Time of the reference loop on the reference host (a 2-core x86_64 VM,
#: Python 3.11.7), in seconds; a reported time is what the wall time would
#: have been there.
REF_S = 0.002


def reference_time() -> float:
    """Fastest of three timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best
