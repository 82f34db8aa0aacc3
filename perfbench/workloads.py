"""Request pools of the three benchmark workloads and their seeded sequences.

A pool is a list of (argv, weight, expected_exit).  One *round* holds every
entry `weight` times; the seed only shuffles each round.  Runs therefore
differ in request order but always serve the same mix of complete rounds,
which keeps per-run medians comparable across seeds.
"""

from __future__ import annotations

import random


def _verify(claim, **params):
    argv = ["verify", claim]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return tuple(argv)


def _rn_membership():
    # Ideal membership: Groebner bases in poly_core, recursions in
    # equivariant_ring.  No series composition, no lubin_tate.
    pool = []
    for claim in ("recursion", "tkvk", "invariance"):
        for n, k in ((2, 3), (2, 4), (3, 3)):
            pool.append((_verify(claim, n=n, k=k), 2, 0))
    # the n=2 k=5 requests take about 0.7 s each: one of them, at low weight
    pool.append((_verify("recursion", n=2, k=5), 1, 0))
    for m, r, weight in ((1, 3, 2), (1, 4, 2), (1, 5, 2), (2, 5, 1)):
        pool.append((_verify("v-collapse", n=2, m=m, k=r), weight, 0))
    for m, r, weight in ((1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2),
                         (2, 3, 2), (2, 4, 2), (2, 5, 1)):
        pool.append((_verify("t-collapse", n=2, m=m, k=r), weight, 0))
    pool.append((_verify("eq351", n=3, k=4), 2, 0))
    # known rejections, each must exit 2
    pool.append((_verify("v-collapse", n=3, m=1, k=4), 1, 2))  # r <= h
    pool.append((_verify("recursion", n=2, k=7), 1, 2))  # over the --k limit
    pool.append((_verify("t-collapse", n=2, m=2, k=2), 1, 2))  # no level has r > 2^j m
    return pool


def _chain_series():
    # Power-series engine: law build, formal_inverse, composites.  No
    # Groebner work and no lubin_tate.  n=2 k=4 (over 180 s) is left out.
    # (n, k, cutoff, weight): the three requests under 50 ms come twice a
    # round, which puts the round's median inside the group near 37 ms
    cases = ((1, 3, None, 1), (2, 2, None, 2), (2, 3, 8, 1), (2, 3, 10, 1),
             (3, 1, None, 2), (3, 2, 5, 2), (3, 2, None, 1))
    pool = []
    for n, k, cutoff, weight in cases:
        params = {"n": n, "k": k}
        if cutoff is not None:
            params["cutoff"] = cutoff
        pool.append((_verify("chain-inversion", **params), weight, 0))
    return pool


def _lt_local():
    # Truncated local rings at n=2 (n=3 would time the R_3 polynomial layer
    # instead).  m=3 is kept only for fixed-subring: cotangent, height and
    # unit-factors at n=2 m=3 each take over 40 s.  The m=2 requests come
    # twice a round, which puts the round's median inside the m=2 group
    # instead of on its edge with the far cheaper m=1 group.
    pool = []
    for claim in ("cotangent", "height", "unit-factors", "fixed-subring"):
        for m in (1, 2):
            for d in (1, 2, 3):
                for madic, precision in ((6, 8), (8, 10)):
                    argv = _verify(claim, n=2, m=m, d=d, madic=madic, precision=precision)
                    pool.append((argv, m, 0))
    for d in (1, 2, 3):
        pool.append((_verify("fixed-subring", n=2, m=3, d=d, madic=8, precision=10), 1, 0))
    # its universal law (cutoff 32) is built once, during set-up
    pool.append((_verify("height", n=2, m=1, cutoff=32), 1, 0))
    return pool


POOLS = {
    "rn-membership": _rn_membership(),
    "chain-series": _chain_series(),
    "lt-local": _lt_local(),
}


def round_of(pool):
    """The requests of one round, in pool order."""
    return [(argv, code) for argv, weight, code in pool for _ in range(weight)]


def rounds(pool, seed):
    """Endless iterator of rounds, each shuffled by a generator seeded once."""
    rng = random.Random(seed)
    base = round_of(pool)
    while True:
        batch = list(base)
        rng.shuffle(batch)
        yield batch


def distinct(pool):
    """Every distinct request of a pool once, in pool order."""
    return [(argv, code) for argv, _, code in pool]
