"""The two-variable law of an RnContext, shared by the test oracles.

The program works from the logarithm alone; only chain_composite builds
fgl_from_log(rn_log(ctx), X) itself.  The oracle routes need that law at a
few cutoffs per context, so it is built once per (context, cutoff) here.
"""

import functools

from fgl_forge.equivariant_ring import rn_log
from fgl_forge.series_fgl import fgl_from_log


@functools.cache
def rn_law(ctx, cutoff):
    """F = exp(log x + log y) with log the logarithm rn_log(ctx), over R_n (x) Q."""
    return fgl_from_log(rn_log(ctx), cutoff)
