"""Speed probe of the host, to divide host slowdowns out of timings.

The benchmark's host slows a process by up to 1.8x in spells that last
from a tenth of a second to over a minute.  The probe is a fixed piece
of interpreter work (calls, float math, tuples) timed right beside each
measured request; ``seconds * REFERENCE_PROBE_S / probe_seconds`` then
reads as the request's seconds on the quiet host.  It imports nothing
heavy, so a freshly started interpreter can run it cheaply.
"""

import math
import time

#: Loop count of the probe.
PROBE_LOOPS = 1500
#: Probe time on the quiet reference host (2-core Intel Xeon VM, Python
#: 3.11); it reads about 1.7 times as long while the host is busy.
REFERENCE_PROBE_S = 450e-6


def probe() -> float:
    """Seconds for the fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, PROBE_LOOPS):
        a = (i * 0.5, i * 0.25, 1.0)
        acc += math.hypot(a[0], a[1]) + math.atan2(a[1], a[2]) + math.sqrt(i)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` as they would read on the quiet reference host."""
    return seconds * REFERENCE_PROBE_S / probe_seconds
