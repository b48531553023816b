"""Host speed, measured with a fixed loop that shares no code with the program.

On a shared host the same call can take twice as long for a minute at a
time, and no statistic taken inside a run removes a slowdown that lasts the
whole run.  The end-to-end run therefore times this loop before every call
and reports its times at the reference speed: each call's wall time is
divided by the loop's local slowdown, the loop time around the call over
`REFERENCE_S`.  A change to the program moves the call and not the loop, so
it shows in full; a slower host moves both, and cancels.
"""
from __future__ import annotations

import time

import numpy as np

# The loop's median time on a quiet 2-vCPU Intel Xeon at 2 GHz, with Python
# 3.11 and numpy 2.4.  It only sets the scale: a reported time is what the
# call would take on a host where the loop takes this long.
REFERENCE_S = 0.003

_M = np.arange(9.0).reshape(3, 3) / 9.0


def loop_seconds() -> float:
    """Wall seconds for the fixed loop: interpreter arithmetic and small numpy calls.

    The program's calls are a mix of the same two kinds of work.
    """
    t0 = time.perf_counter()
    acc = 0.0
    scale = {"x": 1.0001}
    for i in range(20000):
        acc += i * scale["x"]
    for _ in range(1000):
        acc += float((_M @ _M)[0, 0])
    return time.perf_counter() - t0
