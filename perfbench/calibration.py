"""Host-speed calibration for the benchmark's timings.

On a shared host the same pure-Python loop can take 0.17 s in one second
and 0.28 s a few seconds later, as other tenants load the physical core.
A timed interval is therefore bracketed by two runs of a fixed reference
loop, and reported in *reference seconds*: wall seconds scaled by
REFERENCE_S over the loop's mean time across the bracket. A change to the
package cannot alter the loop, so a slower program still reads slower; only
the host's momentary speed is divided out.
"""

from __future__ import annotations

import time

#: About the fastest :func:`calibrate` reading on the 2-vCPU 2.1 GHz host the
#: benchmark was written on; it only fixes the scale of a reference second.
REFERENCE_S = 0.0046
_LOOP = 80_000
_REPEATS = 5


def calibrate() -> float:
    """Fastest of a few runs of a fixed integer loop: the host's speed right now.

    The loop is short next to the host's speed swings, which last seconds,
    and taking the fastest run drops a run cut by a brief preemption.
    """
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return min(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds converted to reference seconds using the bracketing loop times."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
