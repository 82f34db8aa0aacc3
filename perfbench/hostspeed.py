"""Host-speed probe: divides the slow phases of a shared host out of timings.

A host shared with other tenants alternates between a fast and a slow phase
(Python code up to about 1.8x slower) lasting seconds to minutes, so a short
run can fall wholly into either and no estimator over its own samples can
tell.  A fixed probe of pure-Python rational arithmetic, independent of
fgl_forge, is timed between requests.  A request's wall time times
REFERENCE_S over the probe time around it is its time on a host that runs
the probe in REFERENCE_S.  On the 2-core host this was built on, request to
probe ratios held within 2-4% while raw request times moved by 60%.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3  # probe time of the reference host
WINDOW = 10  # probes around a request that set its host speed


def probe():
    """Seconds taken by a fixed rational sum, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(raw, probes):
    """Wall times scaled to the reference host.

    probes[i] was taken just before raw[i] and probes[i + 1] just after it.
    """
    out = []
    half = WINDOW // 2
    for i, t in enumerate(raw):
        near = probes[max(0, i + 1 - half): i + 1 + half]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
