"""The two-variable law of an RnContext and its negated inverse, shared by
the test oracles.

The program works from the logarithm alone; only chain_composite builds
fgl_from_log(rn_log(ctx), X) itself.  The oracle routes need that law, and
the chain -[-1](x) it predicts, at a few cutoffs per context, so each is
built once per (context, cutoff) here.
"""

import functools

from fgl_forge.equivariant_ring import rn_log
from fgl_forge.series_fgl import fgl_from_log, formal_inverse


@functools.cache
def rn_law(ctx, cutoff):
    """F = exp(log x + log y) with log the logarithm rn_log(ctx), over R_n (x) Q."""
    return fgl_from_log(rn_log(ctx), cutoff)


@functools.cache
def rn_minus_inverse(ctx, cutoff):
    """-[-1]_F(x) for F = rn_law(ctx, cutoff), solved from F(x, i(x)) = 0."""
    return formal_inverse(rn_law(ctx, cutoff)).scale(-1)
