"""Cyclic-group generator rings and their lower-level generator recursions.

R_n is the 2-local polynomial ring on the conjugacy classes of generators
t_1, t_2, ... with the order-2^n cyclic action of poly_core; R_n<m> is its
quotient killing t_i (and every conjugate) for i > m.  This module computes

  * the equivariant logarithm coefficients l_k over R_n (x) Q (denominator
    dividing 2^k), solved by orbit summation and re-verified exactly;
  * the images v_k of the 2-typical generators, which are integral;
  * the lower-level generators t_k^{C_{2^r}} read off the composite of
    2^{n-r} successive twisted strict isomorphisms;

and exposes the verifiers behind the `verify` command: the defining
logarithm relations, the level-drop recursion for t_k, the congruence
t_k^{C_2} = v_k mod I_k, the gamma-invariance of the ideals I_k, the
collapse statements in R_n<m>, and the chain-inversion identity, whose
verdict and witness are one certificate through the logarithm, composed
with the chain's steps from the outside in so the chain itself is never
formed.

Ideal membership is decided on F_2: each context keeps the mod-2 images of
the v_j and t_level entries its claims read, and per ideal I_k its one
Groebner basis, so a membership check is one sum mod 2 of cached images and
one normal form (_nf_mod_Ik).  Beside them it keeps one table of the
gamma^s-images of the logarithm (_log_images), which the logarithm relations
and the lower-level generators read, so a warm request builds none.

Every verifier returns a JSON-ready report: status "verified", or "failed"
with a witness when the claim is false.  Exceptions are left to bad input
(ValueError) and to internal cross-checks that break (ConsistencyFailure).
"""

from .coefficients import QQ, two_valuation
from .errors import ConsistencyFailure
from .poly_core import (
    AtomicCache,
    GradedPolynomial,
    GroebnerBasis,
    T,
    from_rational_ring,
    gamma_act,
    orbit_sum,
    poly_to_json,
    quotient_to_rnm,
    reduce_mod2,
    rn_ring,
    rnm_ring,
)
from .reports import _report
from .series_fgl import (
    StrictIso,
    TruncatedSeries1,
    conjugate_fgl,
    fgl_from_log,
    formal_sum_via_log,
    log_series,
    squares_recursion,
    v_from_log,
)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

class RnContext:
    """Cached arithmetic for one (n, k_max) pair, optionally truncated at m.

    Caches (logarithm list, v-images, lower-level generator tables) are
    built lazily, cross-checked once, and then treated as immutable; the
    v-images grow by prefix, only as far as a claim reads.  Beside them the
    context keeps the mod-2 image of each v_j and each t_level entry that a
    membership claim reads, and the images gamma^s(l_1), .., gamma^s(l_k_max)
    of the logarithm per s that a claim reads (_log_images), each built on
    its first read from the exact entry held then, and per ideal I_k the
    Groebner basis of its mod-2 generators (see _nf_mod_Ik): no other table
    keeps a basis.
    Requests share one context per (n, k_max, m) through rn_context, so a
    table is built and checked once per process; calling RnContext directly
    gives a fresh context with empty caches.  No formal group law is cached:
    the claims work from the logarithm, and only the oracle chain_composite
    builds the two-variable law.
    """

    def __init__(self, n, k_max, m=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if m is not None and m < 1:
            raise ValueError("m must be >= 1")
        self.n = n
        self.k_max = k_max
        self.m = m
        if m is None:
            self.ring = rn_ring(n, k_max)
            self.ring_q = rn_ring(n, k_max, rational=True)
        else:
            self.ring = rnm_ring(n, m, k_max)
            self.ring_q = rnm_ring(n, m, k_max, rational=True)
        self._log = None
        self._v = ()  # v_1 .. v_j for the longest prefix asked for so far
        self._t_level = {}
        self._log_images = {}  # s -> gamma^s of l_1 .. l_k_max (_log_images)
        self._v_mod2 = ()  # reduce_mod2(v_j) for a prefix of the v-images
        self._t_mod2 = {}  # (r, k) -> reduce_mod2(t_level(ctx, r)[k - 1])
        self._ideals = {}  # k -> GroebnerBasis of I_k on F_2

    @property
    def half(self):
        """Number of conjugates per orbit, 2^{n-1}."""
        return 1 << (self.n - 1)

    def generator(self, i, rational=False):
        """t_i as a ring element; zero when the truncation at m kills it."""
        if not 1 <= i <= self.k_max:
            raise ValueError(f"generator index {i} outside 1..{self.k_max}")
        ring = self.ring_q if rational else self.ring
        v = T(i)
        if v in ring.var_index:
            return ring.var(v)
        return ring.zero()

    def bounds(self):
        b = {"n": self.n, "k_max": self.k_max}
        if self.m is not None:
            b["m"] = self.m
        return b

    def __repr__(self):
        trunc = "" if self.m is None else f"<{self.m}>"
        return f"RnContext(n={self.n}, k_max={self.k_max}){trunc}"


_CONTEXTS = AtomicCache()


def rn_context(n, k_max, m=None):
    """The process-wide RnContext for (n, k_max, m), created on first use.

    Its lazy fills take no lock: two threads filling one table compute
    equal values and the last store wins, so a race costs only time.
    """
    return _CONTEXTS.get_or_create((n, k_max, m), lambda: RnContext(n, k_max, m))


# ---------------------------------------------------------------------------
# the equivariant logarithm and the v-images
# ---------------------------------------------------------------------------

def _relation_rhs(ctx, gls, g2ls, k):
    """The two correction sums for level k: (sum gamma(l_j) t_{k-j}^{2^j},
    sum gamma^2(l_j) (gamma t_{k-j})^{2^j}), read from gls[j] = gamma(l_j)
    and g2ls[j] = gamma^2(l_j), with l_0 = 1.

    Each sum is one PolyRing.dot: the factor t_{k-j}^{2^j} is one monomial
    (mono_of), and its gamma-image is that monomial moved by gamma_act, so
    no power is squared through the kernel and no partial sum is formed.
    """
    RQ = ctx.ring_q
    p1, p2 = [], []
    for j in range(k):
        v = T(k - j)
        if v not in RQ.var_index:  # killed by the truncation at m
            continue
        t = GradedPolynomial(RQ, {RQ.mono_of(v, 1 << j): 1})
        p1.append((gls[j], t))
        p2.append((g2ls[j], gamma_act(t)))
    return RQ.dot(p1), RQ.dot(p2)


def _residuals(lk, glk, g2lk, a1, a2):
    """Exact residuals of the defining relation and its gamma-translate at
    one level, from gamma(l_k), gamma^2(l_k) and the two correction sums
    (a1, a2) of _relation_rhs:

    r1: l_k - gamma l_k - sum_j gamma(l_j) t_{k-j}^{2^j}
    r2: gamma l_k - gamma^2 l_k - sum_j gamma^2(l_j) (gamma t_{k-j})^{2^j}

    Each is one PolyRing.dot over the pairs (l_k, 1), (gamma l_k, -1),
    (a1, -1), and likewise for r2.  The third relation, l_k - gamma^2 l_k =
    (both sums), has the residual r1 + r2 by construction, so it holds
    whenever these two do and is not formed.  r2 is gamma(r1) only when
    gamma_act is a ring automorphism, which is what forming it from
    gamma^2(l_k) on its own checks.
    """
    RQ = lk.ring
    one, minus = RQ.one(), RQ.from_rational(-1)
    return (RQ.dot(((lk, one), (glk, minus), (a1, minus))),
            RQ.dot(((glk, one), (g2lk, minus), (a2, minus))))


def _log_images(ctx, s):
    """(gamma^s(l_1), .., gamma^s(l_k_max)), built on its first read from the
    logarithm the context holds then, and stored per s.

    verify_log_relations reads s = 1 and 2, and t_level(ctx, r) reads
    s = 2^{n-r}, so a warm request builds no gamma-image of the logarithm.
    rn_log keeps its own images while it builds the logarithm and seeds no
    entry, so the table follows the logarithm held at its first read.  The
    fill takes no lock: racing fills compute equal tuples and the last store
    wins.
    """
    images = ctx._log_images.get(s)
    if images is None:
        ls = rn_log(ctx) if ctx._log is None else ctx._log
        images = ctx._log_images[s] = tuple(gamma_act(l, s) for l in ls)
    return images


def _check_degrees(ctx, values, name):
    """Each values[k-1] is zero or homogeneous of degree 2(2^k - 1), the degree
    of the generators of index k; ConsistencyFailure naming `name`, a format
    string of k, otherwise."""
    for k, x in enumerate(values, start=1):
        if not x.is_zero() and (not x.is_homogeneous() or x.degree != 2 * ((1 << k) - 1)):
            raise ConsistencyFailure(f"{name.format(k=k)} has the wrong degree in {ctx!r}")


def rn_log(ctx):
    """Equivariant logarithm coefficients [l_1 .. l_k_max] over R_n (x) Q.

    The defining relation determines l_k - gamma(l_k) from the lower l's.
    Summing its gamma-orbit telescopes to l_k - gamma^{2^{n-1}}(l_k), and the
    half-turn gamma^{2^{n-1}} negates l_k (each monomial of half-degree
    2^k - 1 has oddly many variables, all of odd half-degree), so

        2 l_k = sum_{r < 2^{n-1}} gamma^r ( sum_j gamma(l_j) t_{k-j}^{2^j} ).

    Each level is built from the one pair of correction sums of
    _relation_rhs, and the relation and its gamma-translate are re-verified
    exactly from that pair and the gamma images of l_k, which the later
    levels read (the gamma^2 relation is their sum, see _residuals); a
    nonzero residual (or a bad degree/denominator) raises ConsistencyFailure.
    """
    if ctx._log is not None:
        return list(ctx._log)
    ls = []
    gls, g2ls = [ctx.ring_q.one()], [ctx.ring_q.one()]  # gamma and gamma^2 of l_0 .. l_{k-1}
    for k in range(1, ctx.k_max + 1):
        a1, a2 = _relation_rhs(ctx, gls, g2ls, k)
        lk = orbit_sum(a1).scalar_mul(QQ(1, 2))
        gls.append(gamma_act(lk))
        g2ls.append(gamma_act(lk, 2))
        if not all(r.is_zero() for r in _residuals(lk, gls[k], g2ls[k], a1, a2)):
            raise ConsistencyFailure(
                f"logarithm relation residual nonzero at k={k} in {ctx!r}"
            )
        ls.append(lk)
    _check_degrees(ctx, ls, "l_{k}")
    for k, lk in enumerate(ls, start=1):
        if not lk.is_zero() and two_valuation(lk.den) > k:
            raise ConsistencyFailure(f"denominator of l_{k} exceeds 2^{k}")
    ctx._log = ls
    return list(ls)


def v_in_rn(ctx, k):
    """Images [v_1 .. v_k] of the 2-typical generators in R_n (integral).

    v_k needs only l_1 .. l_k, so the context keeps the longest prefix asked
    for so far and builds no v_j past it.  Integrality is a theorem, so the
    non-integral ValueError of v_from_log always signals a pipeline bug
    here, never a mathematical discovery.
    """
    if not 0 <= k <= ctx.k_max:
        raise ValueError(f"k={k} outside 0..{ctx.k_max}")
    vs = ctx._v
    if len(vs) < k:
        vs = tuple(v_from_log(rn_log(ctx)[:k]))
        _check_degrees(ctx, vs, "v_{k}")
        ctx._v = vs
    return list(vs[:k])


# ---------------------------------------------------------------------------
# lower-level generators
# ---------------------------------------------------------------------------

def _gamma_shift(series, a):
    """gamma^a applied to every coefficient of a series."""
    return TruncatedSeries1(
        series.ring, {e: gamma_act(c, a) for e, c in series.coeffs.items()}, series.cutoff
    )


def _chain_steps(ctx, cutoff):
    """The 2^{n-1} steps of the chain from F, outermost first: [S_{h-1}, .., S_0].

    Step j is S_j = (gamma^j)* psi_gamma: F^{gamma^j} -> F^{gamma^{j+1}}, where
    psi_gamma is the F^gamma-sum of x and the t_i x^{2^i}.  gamma acts on
    coefficients as a ring automorphism, so gamma_* commutes with F-sums and
    S_j = gamma^{j+1}_* phi with phi = x +^F sum^F gamma^{-1}(t_i) x^{2^i}:
    no conjugate law F^{gamma^j} is built.  phi is taken through the
    logarithm L of F (formal_sum_via_log), so F itself is not built either.
    """
    L = log_series(rn_log(ctx), ctx.ring_q, cutoff)
    terms = [(1, 1)]
    for i in range(1, ctx.k_max + 1):
        ti = ctx.generator(i, rational=True)
        if not ti.is_zero() and (1 << i) <= cutoff:
            terms.append((gamma_act(ti, -1), 1 << i))
    phi = formal_sum_via_log(L, terms)
    return [_gamma_shift(phi, j) for j in range(ctx.half, 0, -1)]


def _chain_series(ctx, steps, cutoff):
    """P_steps = S_{steps-1} o .. o S_0 for any steps >= 1 (ValueError
    otherwise), composed one step at a time from the innermost, where
    S_j = gamma^j_*(S_0) with S_0 the innermost step of _chain_steps.  This
    is the body of the oracle chain_composite; no request calls it.
    """
    if steps < 1:
        raise ValueError(f"the chain takes at least one step, not {steps}")
    psi = first = _chain_steps(ctx, cutoff)[-1]
    for j in range(1, steps):
        psi = _gamma_shift(first, j).compose(psi)
    return psi


def chain_composite(ctx, steps=None, cutoff=None):
    """Composite of `steps` successive twisted isomorphisms starting at psi_gamma.

    The step-i factor is (gamma^i)* psi_gamma: F^{gamma^i} -> F^{gamma^{i+1}},
    so the composite is a strict isomorphism F -> F^{gamma^steps}: the series
    of _chain_series, for any steps >= 1 (ValueError otherwise), with the one
    conjugate law F^{gamma^steps} as target.  With the default
    steps = 2^{n-1} its series is the chain chain_inversion_check certifies
    without forming it.  No request builds it: with
    series_fgl.t_from_strict_iso it is the test oracle of t_level, and it is
    the one place that builds the law F = fgl_from_log(rn_log(ctx), X) of
    the context.
    """
    steps = ctx.half if steps is None else steps
    X = cutoff if cutoff is not None else (1 << ctx.k_max)
    psi = _chain_series(ctx, steps, X)
    F = fgl_from_log(rn_log(ctx), X)
    target = conjugate_fgl(F, lambda p: gamma_act(p, steps))
    return StrictIso(psi, F, target)


def t_level(ctx, r):
    """Images of the level-r generators t_k^{C_{2^r}} in R_n, k <= k_max.

    These are the 2-typical coordinates of the composite of s = 2^{n-r}
    twisted strict isomorphisms F -> F^{gamma^s}, read off against the
    logarithm of the target law, which is triangular:

        t_k^{C_{2^r}} = l_k - sum_{j=1}^{k} gamma^s(l_j) (t_{k-j}^{C_{2^r}})^{2^j}

    with t_0 = 1, and the gamma^s(l_j) read off the context's table
    (_log_images).  The test suite checks them against the coordinates of
    the composite itself (chain_composite and t_from_strict_iso).  Results
    are integral and homogeneous.
    """
    if not 1 <= r <= ctx.n:
        raise ValueError("level r must satisfy 1 <= r <= n")
    if r in ctx._t_level:
        return list(ctx._t_level[r])
    s = 1 << (ctx.n - r)
    ls = rn_log(ctx)
    gls = _log_images(ctx, s)
    tq = squares_recursion([l - gl for l, gl in zip(ls, gls)], gls)  # t_0 = 1 in the bases
    out = [from_rational_ring(t) for t in tq]
    _check_degrees(ctx, out, f"t_{{k}} at level {r}")
    ctx._t_level[r] = out
    return list(out)


def quotient_to_m(ctx, m):
    """The truncated context R_n<m>, with every cache mapped and cross-checked.

    The quotient kills t_i (with all conjugates) for i > m.  Whatever the
    source context had already computed is pushed through the quotient map
    and compared against a fresh computation in R_n<m>; disagreement would
    mean a ring map failed to commute with a recursion and raises
    ConsistencyFailure.  With m >= k_max the map renames the ambient ring
    and fixes every cached polynomial.
    """
    if ctx.m is not None:
        raise ValueError("context is already truncated")
    if m < 1:
        raise ValueError("m must be >= 1")
    out = RnContext(ctx.n, ctx.k_max, m=m)
    if ctx._log is not None:
        mapped = [quotient_to_rnm(l, m) for l in ctx._log]
        if mapped != rn_log(out):
            raise ConsistencyFailure("quotient map does not commute with rn_log")
    if ctx._v:
        mapped = [quotient_to_rnm(v, m) for v in ctx._v]
        if mapped != v_in_rn(out, len(mapped)):
            raise ConsistencyFailure("quotient map does not commute with v_in_rn")
    for r, table in ctx._t_level.items():
        mapped = [quotient_to_rnm(t, m) for t in table]
        if mapped != t_level(out, r):
            raise ConsistencyFailure(
                f"quotient map does not commute with t_level({r})"
            )
    return out


# ---------------------------------------------------------------------------
# ideal arithmetic
# ---------------------------------------------------------------------------

def _witness(p):
    if p is None or p.is_zero():
        return None
    return poly_to_json(p)


def _v_bars(ctx, k):
    """The mod-2 images of v_1 .. v_k, each built on its first read from the
    v_j the context holds then; like the v-images they grow by prefix."""
    bars = ctx._v_mod2
    if len(bars) < k:
        vs = v_in_rn(ctx, k)
        bars = ctx._v_mod2 = bars + tuple(reduce_mod2(v) for v in vs[len(bars):])
    return bars[:k]


def _t_bar(ctx, r, k):
    """reduce_mod2(t_k^{C_{2^r}}), built on its first read from the entry held then."""
    tbar = ctx._t_mod2.get((r, k))
    if tbar is None:
        tbar = ctx._t_mod2[r, k] = reduce_mod2(t_level(ctx, r)[k - 1])
    return tbar


def _nf_mod_Ik(ctx, pbar, k):
    """Normal form of the mod-2 polynomial pbar modulo I_k = (2, v_1, ..., v_{k-1}).

    Membership in I_k is decided on F_2, and this is exact.  reduce_mod2 is
    a ring map Z_(2)[t's] -> F_2[t's] with kernel (2), so p lies in I_k
    exactly when reduce_mod2(p) lies in (v_1bar, ..., v_{k-1}bar), and
    ideal_normal_form(p, v_in_rn(ctx, k - 1)) is the normal form of
    reduce_mod2(p).  reduce_mod2 commutes with sums and with gamma (gamma
    permutes the variables up to sign, and the signs vanish mod 2), so a
    verifier that forms its input as a sum mod 2 (an XOR) of the context's
    cached images, with gamma applied to them, gets the F_2 polynomial the
    exact difference reduces to: the same verdict and the same witness.
    ideal_normal_form stays the generic route and the test oracle.

    The context keeps one basis of I_k, truncated at the degree of the input
    that built it, and builds and stores a new one only for an input of
    higher degree.  Every basis truncated at or above deg pbar gives the one
    full normal form (its monomials are those outside the leading ideal), so
    the reuse changes no witness either.  The fill takes no lock: racing
    fills may build a basis twice, or leave a lower one stored for a while,
    which costs time and never changes a normal form.

    The basis answers from its table of the normal forms of the monomials
    it has reduced (GroebnerBasis), so a warm check is one XOR over the
    input's monomials.  That is exact: the normal form is F_2-linear and,
    on a basis truncated at or above deg pbar, unique, and each entry is
    filled from the entries of the tails q m of its reduction, which lie
    below it in the term order.  Every claim reducing mod I_k shares the
    entries; none holds a claim's input or result.  A basis whose table
    would span more than NF_TABLE_LIMIT standard monomials (as at the caps
    of R_3, where the quotient has thousands at the input's degree) drops
    it and reduces through the heap (poly_core._nf), as Buchberger does.
    """
    if pbar.is_zero():
        return pbar
    basis = ctx._ideals.get(k)
    if basis is None or basis.degree_bound < pbar.degree:
        gens = [g for g in _v_bars(ctx, k - 1) if not g.is_zero()]
        if not gens:
            return pbar
        basis = ctx._ideals[k] = GroebnerBasis(pbar.ring, gens, pbar.degree)
    return basis.normal_form(pbar)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_log_relations(ctx):
    """Check the defining relations of the equivariant logarithm exactly.

    rn_log already refuses to cache a logarithm that fails them, so this
    verifier recomputes the residuals, from the context's gamma- and
    gamma^2-images of the logarithm, to produce a citable report (claim id
    "eq351" on the command line).  Relations 1 and 2 are checked; the
    residual of relation 3 is their sum (see _residuals), so it could never
    be the first nonzero one, and a failed report names relation 1 or 2.
    """
    ls = rn_log(ctx)
    one = (ctx.ring_q.one(),)
    gls, g2ls = one + _log_images(ctx, 1), one + _log_images(ctx, 2)
    bad = None
    for k, lk in enumerate(ls, start=1):
        residuals = _residuals(lk, gls[k], g2ls[k], *_relation_rhs(ctx, gls, g2ls, k))
        for which, res in zip((1, 2), residuals):
            if not res.is_zero():
                bad = (k, which, res)
                break
        if bad:
            break
    report = _report(
        "eq351",
        {"n": ctx.n, "k_max": ctx.k_max},
        bad is None,
        None if bad is None else _witness(bad[2]),
        ctx.bounds(),
    )
    if bad:
        report["params"]["k"] = bad[0]
        report["params"]["relation"] = bad[1]
    return report


def verify_tk_recursion(ctx, k):
    """Level-drop recursion for t_k modulo I_k.

    t_k^{C_{2^{n-1}}} = t_k + gamma(t_k) + sum_{j=1}^{k-1} gamma(t_j) t_{k-j}^{2^j}
    holds mod I_k = (2, v_1, ..., v_{k-1}); at k = 1 it holds exactly
    (empty correction sum), and the verifier insists on that.  For k >= 2 the
    difference is formed on F_2: the cached image of the left side plus the
    reduction of the right side.
    """
    if ctx.n < 2:
        raise ValueError("the level-drop recursion needs n >= 2")
    if not 1 <= k <= ctx.k_max:
        raise ValueError(f"k outside 1..{ctx.k_max}")
    tk = ctx.generator(k)
    rhs = tk + gamma_act(tk)
    for j in range(1, k):
        tj = ctx.generator(j)
        tkj = ctx.generator(k - j)
        if tj.is_zero() or tkj.is_zero():
            continue
        rhs = rhs + gamma_act(tj) * tkj ** (1 << j)
    if k == 1:
        nf = t_level(ctx, ctx.n - 1)[0] - rhs
    else:
        nf = _nf_mod_Ik(ctx, _t_bar(ctx, ctx.n - 1, k) + reduce_mod2(rhs), k)
    return _report(
        "recursion",
        {"n": ctx.n, "k": k, "exact": k == 1},
        nf.is_zero(),
        _witness(nf),
        ctx.bounds(),
    )


def verify_tkvk(ctx, k):
    """t_k^{C_2} = v_k modulo I_k (exact membership via normal form on F_2)."""
    if not 1 <= k <= ctx.k_max:
        raise ValueError(f"k outside 1..{ctx.k_max}")
    # v_k before the level table: t_level built beside the v-images peaks
    # lower than v_in_rn built beside the level table
    vbar = _v_bars(ctx, k)[k - 1]
    nf = _nf_mod_Ik(ctx, _t_bar(ctx, 1, k) + vbar, k)
    return _report(
        "tkvk",
        {"n": ctx.n, "k": k},
        nf.is_zero(),
        _witness(nf),
        ctx.bounds(),
    )


def verify_ideal_invariance(ctx, k):
    """gamma-invariance of the ideals: v_j - gamma(v_j) in I_j for all j <= k.

    Each generator is checked on F_2, as v_jbar + gamma(v_jbar), one normal
    form per j.  These checks are the whole claim: gamma is a ring map that
    fixes 2, and each passing check puts gamma(v_j) in v_j + I_j, which lies
    in I_k for j < k, so gamma maps every generator of I_k, and with them
    all of I_k, into I_k.  tests/test_equivariant.py samples that
    consequence against an independent linear-algebra route.
    """
    if not 1 <= k <= ctx.k_max:
        raise ValueError(f"k outside 1..{ctx.k_max}")
    bad = None
    for j, vbar in enumerate(_v_bars(ctx, k), start=1):
        nf = _nf_mod_Ik(ctx, vbar + gamma_act(vbar), j)
        if not nf.is_zero():
            bad = nf
            break
    report = _report(
        "invariance",
        {"n": ctx.n, "k": k},
        bad is None,
        _witness(bad),
        ctx.bounds(),
    )
    if bad:
        report["params"]["failure"] = "generator"
    return report


def verify_v_collapse(ctx, r):
    """In R_n<m>: v_r lies in (2, v_1, ..., v_h) for r > h = 2^{n-1} m."""
    if ctx.m is None:
        raise ValueError("collapse statements live in a truncated context R_n<m>")
    h = ctx.half * ctx.m
    if r <= h:
        raise ValueError(f"r must exceed h = {h}")
    if r > ctx.k_max:
        raise ValueError(f"r outside 1..{ctx.k_max}")
    nf = _nf_mod_Ik(ctx, _v_bars(ctx, r)[r - 1], h + 1)
    return _report(
        "v-collapse",
        {"n": ctx.n, "m": ctx.m, "h": h, "r": r},
        nf.is_zero(),
        _witness(nf),
        ctx.bounds(),
    )


def verify_t_collapse(ctx, k, r):
    """In R_n<m>: t_r^{C_{2^{n-k}}} and all conjugates lie in I_r, r > 2^k m."""
    if ctx.m is None:
        raise ValueError("collapse statements live in a truncated context R_n<m>")
    if not 0 <= k <= ctx.n - 1:
        raise ValueError("level index k must satisfy 0 <= k <= n-1")
    if r <= (1 << k) * ctx.m:
        raise ValueError(f"r must exceed 2^k m = {(1 << k) * ctx.m}")
    if r > ctx.k_max:
        raise ValueError(f"r outside 1..{ctx.k_max}")
    x = _t_bar(ctx, ctx.n - k, r)
    bad = None
    for j in range(ctx.half):
        nf = _nf_mod_Ik(ctx, gamma_act(x, j), r)
        if not nf.is_zero():
            bad = (j, nf)
            break
    report = _report(
        "t-collapse",
        {"n": ctx.n, "m": ctx.m, "level": ctx.n - k, "r": r},
        bad is None,
        None if bad is None else _witness(bad[1]),
        ctx.bounds(),
    )
    if bad:
        report["params"]["conjugate"] = bad[0]
    return report


def chain_inversion_check(ctx, cutoff=None):
    """The full chain of twisted isomorphisms equals the negated formal inverse.

    The composite of all 2^{n-1} twisted strict isomorphisms is compared
    against -[-1](x), the negated formal inverse of the law (strict
    isomorphisms force leading coefficient +1, so the raw inverse can never
    be the composite; the additive degeneration t = 0 satisfies the identity
    trivially and carries no information).

    A context with generators up to k_max determines the chain exactly
    through order 2^{k_max+1} - 1; beyond that the identity needs t_{k_max+1},
    so larger cutoffs are rejected rather than reported as failures.

    The check is one certificate through the logarithm L = x + sum l_k x^{2^k}
    of F: R = L(x) + L(-psi(x)) = 0 at the full cutoff X.  F(x, y) =
    exp(L(x) + L(y)) through x^X, so [-1](x), the solution y of F(x, y) = 0,
    is the i with L(i) = -L(x).  That solution is unique mod x^{X+1}: L is
    strict, so the coefficient of x^e in L(g) is g_e plus a polynomial in
    g_1 .. g_{e-1}, and L(g) = -L(x) fixes g_1 = -1, g_2, g_3, ... one at a
    time.  So the certificate holds exactly when -psi = [-1](x) through x^X.

    The chain psi = S_{h-1} o .. o S_0 (h = 2^{n-1}, the steps of
    _chain_steps) is never formed.  Composition of truncated series with no
    constant term is associative mod x^{X+1}, and negation acts on the
    outer values, so

        L(-psi) = (..((L o (-S_{h-1})) o S_{h-2}) o ..) o S_0,

    the same series R is made of.  The first composition squares only the
    step -S_{h-1}, as L is supported on powers of two, and every later one
    has a single step as its inner series, so every power built is a power
    of one step; only the outer series grows.

    The witness is read off R too.  Let g = -psi, and let g and i agree
    below order e and differ by delta at e.  For p >= 2, g^p - i^p =
    (g - i)(g^{p-1} + ... + i^{p-1}) has order at least e + p - 1 > e, so
    L(g) - L(i), which is R since L(i) = -L(x), is delta x^e + O(x^{e+1}).
    The lowest coefficient of psi - (-[-1](x)) = -(g - i) is -delta, so the
    witness is -R_e, e the lowest order of R; [-1](x) = solve_series(L, -L)
    is solved only by the test oracle.
    """
    window = (1 << (ctx.k_max + 1)) - 1
    X = cutoff if cutoff is not None else window
    if X > window:
        raise ValueError(
            f"cutoff {X} exceeds the order-{window} window of k_max={ctx.k_max}"
        )
    outer, *inner = _chain_steps(ctx, X)
    L = log_series(rn_log(ctx), ctx.ring_q, X)
    composed = L.compose(-outer)
    for step in inner:
        composed = composed.compose(step)
    residual = L + composed
    first = None
    if not residual.is_zero():
        first = -residual.coefficient(min(residual.coeffs))
    return _report(
        "chain-inversion",
        {"n": ctx.n, "cutoff": X, "convention": "minus-formal-inverse"},
        first is None,
        _witness(first),
        ctx.bounds(),
    )
