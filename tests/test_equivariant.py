import functools
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from fgl_forge import equivariant_ring
from fgl_forge.coefficients import QQ, two_valuation, rational_mod2
from fgl_forge.errors import ConsistencyFailure
from fgl_forge.reports import canonical_json, envelope
from fgl_forge.equivariant_ring import (
    RnContext,
    chain_composite,
    chain_inversion_check,
    quotient_to_m,
    rn_log,
    t_level,
    v_in_rn,
    verify_ideal_invariance,
    verify_log_relations,
    verify_t_collapse,
    verify_tk_recursion,
    verify_tkvk,
    verify_v_collapse,
)
from fgl_forge.poly_core import (
    GradedPolynomial,
    T,
    f2_membership_linear,
    from_rational_ring,
    gamma_act,
    ideal_contains,
    ideal_normal_form,
    poly_to_json,
    quotient_to_rnm,
    reduce_mod2,
    ring_map,
)
from fgl_forge.series_fgl import (
    StrictIso,
    TruncatedSeries1,
    TruncatedSeries2,
    additive_fgl,
    compose_iso,
    conjugate_fgl,
    fgl_apply,
    formal_inverse,
    formal_sum,
    formal_sum_via_log,
    log_series,
    solve_series,
    t_from_strict_iso,
    v_from_log,
)

from laws import rn_law, rn_minus_inverse


# ---- the equivariant logarithm ---------------------------------------------------

def test_log_small_oracles():
    c1 = RnContext(1, 2)
    ls = rn_log(c1)
    t1 = c1.ring_q.var(T(1))
    t2 = c1.ring_q.var(T(2))
    assert ls[0] == t1.scalar_mul(QQ(1, 2))
    assert ls[1] == t2.scalar_mul(QQ(1, 2)) - (t1**3).scalar_mul(QQ(1, 4))
    c2 = RnContext(2, 1)
    (l1,) = rn_log(c2)
    expected = (c2.ring_q.var(T(1)) + c2.ring_q.var(T(1, 1))).scalar_mul(QQ(1, 2))
    assert l1 == expected


def test_log_additive_degeneration():
    ctx = RnContext(2, 3)
    ring = ctx.ring_q
    kill = {v: ring.zero() for v in ring.variables}
    for lk in rn_log(ctx):
        assert ring_map(lk, kill, ring).is_zero()


@pytest.mark.parametrize("n,k_max", [(1, 4), (2, 4), (3, 3)])
def test_log_denominator_exactly_2k(n, k_max):
    ctx = RnContext(n, k_max)
    for k, lk in enumerate(rn_log(ctx), start=1):
        scaled = lk.scalar_mul(QQ(2) ** k)
        assert all(two_valuation(c) >= 0 for c in scaled.terms.values())
        assert any(rational_mod2(c) for c in scaled.terms.values())
        under = lk.scalar_mul(QQ(2) ** (k - 1))
        assert any(two_valuation(c) < 0 for c in under.terms.values())


@pytest.mark.parametrize("n,k_max", [(1, 4), (2, 4), (3, 3)])
def test_log_relations_exact(n, k_max):
    report = verify_log_relations(RnContext(n, k_max))
    assert report["status"] == "verified"
    assert report["claim"] == "eq351"
    assert report["witness"] is None


def _relation_rhs_by_combine(ctx, gls, g2ls, k):
    """Oracle of equivariant_ring._relation_rhs: the correction sums as a chain
    of _combine steps, each factor (gamma t_{k-j})^{2^j} a power through the
    kernel."""
    RQ = ctx.ring_q
    a1 = RQ.zero()
    a2 = RQ.zero()
    for j in range(k):
        tkj = ctx.generator(k - j, rational=True)
        if tkj.is_zero():
            continue
        a1 = a1 + gls[j] * tkj ** (1 << j)
        a2 = a2 + g2ls[j] * gamma_act(tkj) ** (1 << j)
    return a1, a2


def _residuals_by_combine(lk, glk, g2lk, a1, a2):
    """Oracle of equivariant_ring._residuals: two _combine steps each."""
    return lk - glk - a1, glk - g2lk - a2


# one context per (n, k, m) across examples, so each logarithm is built once
_fused_context = functools.cache(RnContext)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 3), k=st.integers(1, 4), m=st.sampled_from([None, 1, 2]),
       data=st.data())
def test_the_fused_relation_sums_match_the_combine_chain(n, k, m, data):
    """_relation_rhs and _residuals, each a fused dot, give the polynomials of
    the _combine chain at every level, on the logarithm and on one with one
    l_j perturbed by c times a product of one or three variables.  No
    product of an odd number of variables is fixed by gamma, so the
    perturbed relation at level j fails: nonzero residuals, the failing
    witnesses, are compared too."""
    ctx = _fused_context(n, k, m)
    RQ = ctx.ring_q
    ls = rn_log(ctx)
    perturbed = data.draw(st.booleans())
    if perturbed:
        j = data.draw(st.integers(1, k))
        c = RQ.from_rational(QQ(data.draw(st.sampled_from([-3, -1, 1, 2, 5])),
                                data.draw(st.sampled_from([1, 2, 3, 8]))))
        for v in data.draw(st.lists(st.sampled_from(RQ.variables), min_size=1, max_size=3)
                           .filter(lambda vs: len(vs) % 2)):
            c = c * RQ.var(v)
        ls[j - 1] = ls[j - 1] + c
    one = RQ.one()
    gls = [one] + [gamma_act(l) for l in ls]
    g2ls = [one] + [gamma_act(l, 2) for l in ls]
    residuals = []
    for level, lk in enumerate(ls, start=1):
        sums = equivariant_ring._relation_rhs(ctx, gls, g2ls, level)
        assert sums == _relation_rhs_by_combine(ctx, gls, g2ls, level)
        got = equivariant_ring._residuals(lk, gls[level], g2ls[level], *sums)
        assert got == _residuals_by_combine(lk, gls[level], g2ls[level], *sums)
        residuals += got
    assert any(not r.is_zero() for r in residuals) == perturbed


@pytest.mark.parametrize("n,k_max,m", [(1, 3, None), (2, 4, None), (3, 3, None), (2, 4, 1)])
def test_the_log_image_table_holds_each_gamma_image_once(n, k_max, m):
    """Each entry equals the gamma^s-images of the logarithm, and a second
    read returns the stored tuple: one build per (context, s)."""
    ctx = RnContext(n, k_max, m)
    for s in sorted({1, 2, 1 << (n - 1)}):
        images = equivariant_ring._log_images(ctx, s)
        assert list(images) == [gamma_act(l, s) for l in rn_log(ctx)]
        assert equivariant_ring._log_images(ctx, s) is images


def test_a_warm_log_relation_check_builds_no_gamma_image_of_the_log(monkeypatch):
    """The second eq351 check on a context, and t_level at the s it shares,
    apply gamma to no l_j: rn_log seeds no entry, the first check fills s = 1
    and 2, and the rest read them."""
    ctx = RnContext(3, 3)
    ls = rn_log(ctx)
    assert ctx._log_images == {}
    moved = []
    act = equivariant_ring.gamma_act

    def recording(p, r=1):
        moved.extend(r for l in ls if p is l)
        return act(p, r)

    monkeypatch.setattr(equivariant_ring, "gamma_act", recording)
    first = verify_log_relations(ctx)
    assert sorted(moved) == [1] * len(ls) + [2] * len(ls)
    moved.clear()
    assert verify_log_relations(ctx) == first
    t_level(ctx, 3)  # s = 1
    t_level(ctx, 2)  # s = 2
    assert moved == []
    t_level(ctx, 1)  # s = 4, a new entry
    assert moved == [4] * len(ls)


def test_a_log_swapped_before_the_first_read_gets_its_own_images():
    ctx = RnContext(2, 3)
    ls = rn_log(ctx)
    ls[1] = ls[1] + ctx.generator(2, rational=True)
    ctx._log = ls
    for s in (1, 2):
        assert list(equivariant_ring._log_images(ctx, s)) == [gamma_act(l, s) for l in ls]


def test_four_threads_on_one_fresh_context_race_on_the_log_images():
    """eq351 (twice), recursion and tkvk at once on one fresh R_3 context race
    on the logarithm, its gamma-image table and the level tables, and print
    what they print one by one."""
    def jobs(ctx):
        return [
            lambda: envelope([verify_log_relations(ctx)]),
            lambda: envelope([verify_tk_recursion(ctx, 3)]),
            lambda: envelope([verify_tkvk(ctx, 3)]),
            lambda: envelope([verify_log_relations(ctx)]),
        ]

    serial = [canonical_json(job()) for job in jobs(RnContext(3, 3))]
    start = threading.Barrier(4)

    def run(job):
        start.wait()
        return canonical_json(job())

    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(run, jobs(RnContext(3, 3)))) == serial


# ---- v-images ---------------------------------------------------------------------

def test_v_images():
    c1 = RnContext(1, 2)
    assert v_in_rn(c1, 1)[0] == -c1.ring.var(T(1))
    c2 = RnContext(2, 2)
    vs = v_in_rn(c2, 2)
    t1 = c2.ring.var(T(1))
    gt1 = c2.ring.var(T(1, 1))
    assert reduce_mod2(vs[0]) == reduce_mod2(t1 + gt1)
    for n in (1, 2, 3):
        ctx = RnContext(n, 2)
        assert v_in_rn(ctx, 2)[1].degree == 6


# ---- lower-level generators -------------------------------------------------------

def test_t_level_top_is_verbatim():
    for n in (1, 2, 3):
        ctx = RnContext(n, 3)
        table = t_level(ctx, n)
        for i, tk in enumerate(table, start=1):
            assert tk == ctx.ring.var(T(i))


def test_t_level_examples():
    ctx = RnContext(2, 2)
    table = t_level(ctx, 1)
    ring = ctx.ring
    t1, gt1 = ring.var(T(1)), ring.var(T(1, 1))
    t2, gt2 = ring.var(T(2)), ring.var(T(2, 1))
    assert table[0] == t1 + gt1  # exact at k = 1
    # k = 2: equals t2 + gamma(t2) + gamma(t1) t1^2 only modulo I_2
    claimed = t2 + gt2 + gt1 * t1**2
    diff = table[1] - claimed
    assert not diff.is_zero()
    assert ideal_contains(diff, v_in_rn(ctx, 1))


def test_t_level_bad_level():
    ctx = RnContext(2, 2)
    with pytest.raises(ValueError):
        t_level(ctx, 0)
    with pytest.raises(ValueError):
        t_level(ctx, 3)


def test_one_degree_check_names_the_value_it_refuses():
    """rn_log, v_in_rn and t_level share one check: the k-th value is zero or
    homogeneous of degree 2(2^k - 1); each names the value it refuses."""
    ctx = RnContext(2, 2)
    t1, t2 = ctx.generator(1), ctx.generator(2)
    equivariant_ring._check_degrees(ctx, [t1 - t1, t2], "l_{k}")
    for wrong in (t1 * t1, t1 + t2):
        for name, text in (("l_{k}", "l_2"), ("v_{k}", "v_2"),
                           ("t_{k} at level 1", "t_2 at level 1")):
            with pytest.raises(ConsistencyFailure) as exc:
                equivariant_ring._check_degrees(ctx, [t1, wrong], name)
            assert str(exc.value) == f"{text} has the wrong degree in {ctx!r}"


def _t_level_by_chain(ctx, r):
    """Oracle: the 2-typical coordinates of the composite of 2^{n-r} twisted
    strict isomorphisms, built literally and read off slot by slot."""
    iso = chain_composite(ctx, steps=1 << (ctx.n - r))
    return [from_rational_ring(t) for t in t_from_strict_iso(iso)[: ctx.k_max]]


@pytest.mark.parametrize("n,k_max,r", [(2, 2, 1), (2, 3, 1), (3, 2, 2), (3, 2, 1)])
def test_t_level_series_route_agrees(n, k_max, r):
    ctx = RnContext(n, k_max)
    assert t_level(ctx, r) == _t_level_by_chain(ctx, r)


def _t_level_by_powers(ctx, r):
    """Oracle: the log route with gamma^s(l_j) and t_{k-j}^{2^j} formed afresh
    for every (k, j)."""
    s = 1 << (ctx.n - r)
    ls = rn_log(ctx)
    tq = []
    for k in range(1, ctx.k_max + 1):
        acc = ls[k - 1]
        for j in range(1, k + 1):
            prev = ctx.ring_q.one() if j == k else tq[k - j - 1]
            if prev.is_zero():
                continue
            acc = acc - gamma_act(ls[j - 1], s) * prev ** (1 << j)
        tq.append(acc)
    return [from_rational_ring(t) for t in tq]


def _v_from_log_by_powers(l_list):
    """Oracle: v_k with each v_j^{2^{k-j}} formed afresh, over the ring of l_list."""
    vs = []
    for k in range(1, len(l_list) + 1):
        vk = l_list[k - 1].scalar_mul(2 - 2 ** (1 << k))
        for j in range(1, k):
            vk = vk - l_list[k - j - 1] * vs[j - 1] ** (1 << (k - j))
        vs.append(vk)
    return vs


@pytest.mark.parametrize("n,k_max", [(2, 5), (3, 4)])
def test_squares_tables_match_the_power_by_power_loops(n, k_max):
    ctx = RnContext(n, k_max)
    ls = rn_log(ctx)
    # v_from_log certifies its outputs integral; the oracle is converted after
    assert v_from_log(ls) == [from_rational_ring(v) for v in _v_from_log_by_powers(ls)]
    for r in range(1, n + 1):
        got = t_level(ctx, r)
        want = _t_level_by_powers(ctx, r)
        assert got == want
        assert [poly_to_json(t) for t in got] == [poly_to_json(t) for t in want]


def test_t_level_functorial_in_n():
    # t^{C_2} computed inside R_2 then included into R_3 equals t^{C_2} in R_3
    c3 = RnContext(3, 3)
    c2 = RnContext(2, 3)
    tC4 = t_level(c3, 2)
    assignment = {}
    for v in c2.ring.variables:
        assignment[v] = gamma_act(tC4[v.i - 1], 2 * v.j)
    for k in range(1, 4):
        included = ring_map(t_level(c2, 1)[k - 1], assignment, c3.ring)
        assert included == t_level(c3, 1)[k - 1]


# ---- congruence verifiers ----------------------------------------------------------

def test_tk_recursion_grid():
    c2 = RnContext(2, 3)
    for k in (1, 2, 3):
        report = verify_tk_recursion(c2, k)
        assert report["status"] == "verified"
        assert report["witness"] is None
    assert verify_tk_recursion(c2, 1)["params"]["exact"] is True
    c3 = RnContext(3, 2)
    for k in (1, 2):
        assert verify_tk_recursion(c3, k)["status"] == "verified"


def test_tk_recursion_needs_n_at_least_2():
    with pytest.raises(ValueError):
        verify_tk_recursion(RnContext(1, 2), 1)


def test_tkvk_and_invariance():
    for n, k_max in ((1, 3), (2, 3)):
        ctx = RnContext(n, k_max)
        for k in range(1, k_max + 1):
            assert verify_tkvk(ctx, k)["status"] == "verified"
        assert verify_ideal_invariance(ctx, k_max)["status"] == "verified"


def test_verification_failure_carries_report():
    ctx = RnContext(1, 1)
    ctx._v = (ctx.ring.zero(),)  # sabotage the cache: t_1 - 0 is not in I_1 = (2)
    report = verify_tkvk(ctx, 1)
    assert report["claim"] == "tkvk"
    assert report["status"] == "failed"
    assert report["witness"] is not None


def test_report_shape():
    report = verify_tkvk(RnContext(2, 2), 2)
    assert set(report) == {"claim", "params", "status", "witness", "bounds"}
    assert report["bounds"] == {"n": 2, "k_max": 2}


# ---- quotient rings and collapse ---------------------------------------------------

def test_quotient_identity_when_m_large():
    ctx = RnContext(2, 3)
    rn_log(ctx), v_in_rn(ctx, 3), t_level(ctx, 1)
    q = quotient_to_m(ctx, 3)
    assert q.m == 3
    for a, b in zip(v_in_rn(ctx, 3), v_in_rn(q, 3)):
        assert a.terms == b.terms
    for a, b in zip(t_level(ctx, 1), t_level(q, 1)):
        assert a.terms == b.terms


def test_quotient_kills_high_generators():
    ctx = RnContext(2, 4)
    rn_log(ctx), v_in_rn(ctx, 4), t_level(ctx, 1)
    q = quotient_to_m(ctx, 1)
    # generators t_2, t_3, ... appear in no cached element
    for p in rn_log(q) + v_in_rn(q, 4) + t_level(q, 1):
        for mono in p.terms:
            for v, e in zip(p.ring.variables, p.ring.decode(mono)):
                assert not (e and v.i > 1)
    # v_2 image keeps the cross monomial t1^2 gamma(t1) mod 2
    v2bar = reduce_mod2(v_in_rn(q, 2)[1])
    ring2 = v2bar.ring
    cross = reduce_mod2(q.ring.var(T(1)) ** 2 * q.ring.var(T(1, 1)))
    assert cross.terms.keys() <= v2bar.terms.keys()
    with pytest.raises(ValueError):
        quotient_to_m(q, 1)


def test_quotient_commutes_with_gamma():
    ctx = RnContext(2, 3)
    rng = random.Random(6)
    ring = ctx.ring
    for _ in range(10):
        monos = ring.monomials_of_degree(rng.choice([2, 6, 8]))
        p = ring.zero()
        for _ in range(3):
            mono = monos[rng.randrange(len(monos))]
            p = p + GradedPolynomial(ring, {mono: QQ(rng.randint(-3, 3))})
        assert quotient_to_rnm(gamma_act(p), 2) == gamma_act(quotient_to_rnm(p, 2))


def test_v_collapse():
    q = quotient_to_m(RnContext(2, 4), 1)
    for r in (3, 4):
        report = verify_v_collapse(q, r)
        assert report["status"] == "verified"
        assert report["params"]["h"] == 2
    with pytest.raises(ValueError):
        verify_v_collapse(q, 2)  # r <= h
    with pytest.raises(ValueError):
        verify_v_collapse(RnContext(2, 4), 3)  # not truncated


def test_t_collapse():
    q = quotient_to_m(RnContext(2, 4), 1)
    assert verify_t_collapse(q, 0, 2)["status"] == "verified"  # literal zero
    assert verify_t_collapse(q, 1, 3)["status"] == "verified"
    assert verify_t_collapse(q, 1, 4)["status"] == "verified"
    with pytest.raises(ValueError):
        verify_t_collapse(q, 1, 2)  # r must exceed 2^k m


def test_t_collapse_bound_is_sharp():
    # at the excluded boundary r = 2^k m the membership genuinely fails
    q = quotient_to_m(RnContext(2, 4), 1)
    boundary = t_level(q, 1)[1]
    assert not ideal_contains(boundary, v_in_rn(q, 1))


_REFUSALS = [
    # (call, exception, message): each out-of-range argument, refused before
    # any recursion runs
    (lambda: RnContext(0, 3), ValueError, "n must be >= 1"),
    (lambda: RnContext(2, 0), ValueError, "k_max must be >= 1"),
    (lambda: RnContext(2, 3, m=0), ValueError, "m must be >= 1"),
    (lambda: RnContext(2, 3).generator(0), ValueError, "generator index 0 outside 1..3"),
    (lambda: RnContext(2, 3).generator(4), ValueError, "generator index 4 outside 1..3"),
    (lambda: verify_tk_recursion(RnContext(2, 3), 0), ValueError, "k outside 1..3"),
    (lambda: verify_tk_recursion(RnContext(2, 3), 4), ValueError, "k outside 1..3"),
    (lambda: verify_tkvk(RnContext(2, 3), 0), ValueError, "k outside 1..3"),
    (lambda: verify_tkvk(RnContext(2, 3), 4), ValueError, "k outside 1..3"),
    (lambda: verify_ideal_invariance(RnContext(2, 3), 0), ValueError, "k outside 1..3"),
    (lambda: verify_ideal_invariance(RnContext(2, 3), 4), ValueError, "k outside 1..3"),
    (lambda: verify_v_collapse(RnContext(2, 3, m=1), 4), ValueError, "r outside 1..3"),
    (lambda: verify_t_collapse(RnContext(2, 3, m=1), 0, 4), ValueError, "r outside 1..3"),
    (lambda: verify_t_collapse(RnContext(2, 3), 0, 2), ValueError,
     "collapse statements live in a truncated context R_n<m>"),
    (lambda: verify_t_collapse(RnContext(2, 3, m=1), -1, 2), ValueError,
     "level index k must satisfy 0 <= k <= n-1"),
    (lambda: verify_t_collapse(RnContext(2, 3, m=1), 2, 2), ValueError,
     "level index k must satisfy 0 <= k <= n-1"),
    (lambda: quotient_to_m(RnContext(2, 3), 0), ValueError, "m must be >= 1"),
]


@pytest.mark.parametrize("call,exception,message", _REFUSALS)
def test_out_of_range_arguments_are_refused_with_their_message(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_groebner_closure_on_real_v_images():
    # basis of (v1bar, v2bar) in R_2 mod 2 at D = 14: every S-polynomial with
    # lcm degree <= D reduces to 0, and random ideal combinations are members
    # by both decision routes
    from fgl_forge.poly_core import GroebnerBasis

    ctx = RnContext(2, 2)
    g1, g2 = (reduce_mod2(v) for v in v_in_rn(ctx, 2))
    D = 14
    ring = g1.ring
    gb = GroebnerBasis(ring, [g1, g2], D)
    for a in range(len(gb.basis)):
        for b in range(a + 1, len(gb.basis)):
            ma, mb = gb.basis[a].leading_monomial(), gb.basis[b].leading_monomial()
            exps = tuple(max(x, y) for x, y in zip(ring.decode(ma), ring.decode(mb)))
            if sum(e * w for e, w in zip(exps, ring.degrees)) > D:
                continue
            lcm = ring.encode(exps)
            s = gb.basis[a] * GradedPolynomial(ring, {lcm - ma: 1}) + gb.basis[b] * (
                GradedPolynomial(ring, {lcm - mb: 1})
            )
            assert gb.normal_form(s).is_zero()
    rng = random.Random(23)
    for _ in range(20):
        target = rng.choice([8, 10, 12])
        ca = rng.choice(ring.monomials_of_degree(target - g1.degree))
        cb = rng.choice(ring.monomials_of_degree(target - g2.degree))
        comb = g1 * GradedPolynomial(ring, {ca: 1}) + g2 * GradedPolynomial(ring, {cb: 1})
        if comb.is_zero():
            continue
        assert gb.normal_form(comb).is_zero()
        assert f2_membership_linear(comb, [g1, g2])


# ---- membership on F_2 from the cached mod-2 images ----------------------------------
# The oracle is the exact route: each claim's difference formed in Z_(2) from
# the exact tables, and its normal form through poly_core.ideal_normal_form.

def _exact_recursion(ctx, k):
    tk = ctx.generator(k)
    rhs = tk + gamma_act(tk)
    for j in range(1, k):
        rhs = rhs + gamma_act(ctx.generator(j)) * ctx.generator(k - j) ** (1 << j)
    return [(t_level(ctx, ctx.n - 1)[k - 1] - rhs, k)]


def _exact_tkvk(ctx, k):
    return [(t_level(ctx, 1)[k - 1] - v_in_rn(ctx, k)[k - 1], k)]


def _exact_invariance(ctx, k):
    return [(v - gamma_act(v), j) for j, v in enumerate(v_in_rn(ctx, k), start=1)]


def _exact_v_collapse(ctx, r):
    h = ctx.half * ctx.m
    return [(v_in_rn(ctx, r)[r - 1], h + 1)]


def _exact_t_collapse(ctx, level, r):
    x = t_level(ctx, ctx.n - level)[r - 1]
    return [(gamma_act(x, j), r) for j in range(ctx.half)]


_EXACT = {
    verify_tk_recursion: _exact_recursion,
    verify_tkvk: _exact_tkvk,
    verify_ideal_invariance: _exact_invariance,
    verify_v_collapse: _exact_v_collapse,
    verify_t_collapse: _exact_t_collapse,
}


def _check_f2_route(ctx, verifier, *args):
    """Every input verifier(ctx, *args) hands _nf_mod_Ik is reduce_mod2 of the
    exact difference, and its normal form is the one ideal_normal_form gives
    the exact difference; the claim holds.  The request path reads the
    normal-form table of the context's basis, the oracle reduces on its own
    basis through the heap (poly_core._nf)."""
    exact = _EXACT[verifier](ctx, *args)
    calls = []
    nf_mod_Ik = equivariant_ring._nf_mod_Ik

    def record(ctx_, pbar, k):
        nf = nf_mod_Ik(ctx_, pbar, k)
        calls.append((pbar, k, nf))
        return nf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivariant_ring, "_nf_mod_Ik", record)
        report = verifier(ctx, *args)
    for (pbar, k, nf), (p, k_exact) in zip(calls, exact):
        assert k == k_exact
        assert pbar == reduce_mod2(p), "the F_2 input is not the reduced difference"
        assert nf == ideal_normal_form(p, v_in_rn(ctx, k - 1)), "the normal form is not the oracle's"
    assert len(calls) == len(exact)
    assert report["status"] == "verified"


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_rn_membership_inputs_are_the_reduced_exact_differences(n, k):
    ctx = RnContext(n, k)
    for j in range(2, k + 1):
        _check_f2_route(ctx, verify_tk_recursion, j)
    for j in range(1, k + 1):
        _check_f2_route(ctx, verify_tkvk, j)
    _check_f2_route(ctx, verify_ideal_invariance, k)


# one context per case, so each keeps its v_j and its bases of I_k across examples
_INVARIANCE_CONTEXTS = {(n, k): RnContext(n, k) for n, k in ((2, 3), (2, 4), (3, 3))}


@pytest.mark.parametrize("n,k", list(_INVARIANCE_CONTEXTS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_gamma_maps_the_ideal_into_itself(n, k, data):
    """What the generator checks of verify_ideal_invariance imply: gamma(p)
    lies in I_k for p = sum_j m_j v_j, one drawn monomial m_j per generator,
    at deg v_{k-1} + 0, 2 or 4.  The cached-basis route, the generic route
    and the linear-algebra route all agree."""
    ctx = _INVARIANCE_CONTEXTS[n, k]
    vs = v_in_rn(ctx, k - 1)
    ring = ctx.ring
    target = vs[-1].degree + data.draw(st.sampled_from([0, 2, 4]))
    p = ring.zero()
    for v in vs:
        mono = data.draw(st.sampled_from(ring.monomials_of_degree(target - v.degree)))
        p = p + GradedPolynomial(ring, {mono: 1}) * v
    image = gamma_act(p)
    assert equivariant_ring._nf_mod_Ik(ctx, reduce_mod2(image), k).is_zero()
    assert ideal_normal_form(image, vs).is_zero()
    assert f2_membership_linear(image, vs)


def test_collapse_inputs_are_the_reduced_exact_differences():
    """The R_2<m> contexts of the rn-membership benchmark pool."""
    for m, r in ((1, 3), (1, 4), (1, 5), (2, 5)):
        _check_f2_route(RnContext(2, max(r, 2 * m), m), verify_v_collapse, r)
    for m, r in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)):
        ctx = RnContext(2, r, m)
        for level in (0, 1):
            if r > (1 << level) * m:
                _check_f2_route(ctx, verify_t_collapse, level, r)


@pytest.mark.parametrize("verifier, m, k, j", [
    (verify_tkvk, None, 3, 3),
    (verify_ideal_invariance, None, 3, 1),
    (verify_v_collapse, 1, 4, 4),
])
def test_a_flipped_cached_v_image_fails_the_oracle(verifier, m, k, j):
    """Mutation check: one term of one cached v_jbar flipped, and the oracle
    comparison above reports it."""
    ctx = RnContext(2, k, m)
    bars = equivariant_ring._v_bars(ctx, k)
    vbar = bars[j - 1]
    flipped = vbar + GradedPolynomial(vbar.ring, {max(vbar.num): 1})
    ctx._v_mod2 = (*bars[: j - 1], flipped, *bars[j:])
    with pytest.raises(AssertionError, match="the F_2 input is not the reduced difference"):
        _check_f2_route(ctx, verifier, k)


@pytest.mark.parametrize("verifier, m, k", [
    (verify_tk_recursion, None, 3),
    (verify_tkvk, None, 3),
    (verify_v_collapse, 1, 4),
])
def test_an_emptied_context_basis_fails_the_oracle(verifier, m, k):
    """Mutation check: what the request path reads of the one basis a
    verifier built, its reducers and its normal-form table, emptied in place,
    and the oracle, which builds its own basis, reports it."""
    ctx = RnContext(2, k, m)
    verifier(ctx, k)
    (basis,) = ctx._ideals.values()
    basis._reducers.clear()
    basis._table.clear()
    with pytest.raises(AssertionError, match="the normal form is not the oracle's"):
        _check_f2_route(ctx, verifier, k)


@pytest.mark.parametrize("verifier, k", [
    (verify_tk_recursion, 3),
    (verify_tkvk, 3),
    (verify_tk_recursion, 4),
])
def test_a_flipped_table_entry_fails_the_oracle(verifier, k):
    """Mutation check: the table entry of one monomial of the verifier's
    input, with one standard monomial flipped in it, and the oracle reports
    it.  No collapse case is here: in R_2<1> the quotients by I_{h+1} have
    no standard monomial at the inputs' degrees, so their entries are all 0
    and have no bit to flip."""
    ctx = RnContext(2, k)
    verifier(ctx, k)
    (basis,) = ctx._ideals.values()
    ((p, _),) = _EXACT[verifier](ctx, k)
    assert basis._standard
    basis._table[max(reduce_mod2(p).num)] ^= 1 << (len(basis._standard) - 1)
    with pytest.raises(AssertionError, match="the normal form is not the oracle's"):
        _check_f2_route(ctx, verifier, k)


def test_four_threads_on_one_fresh_context_give_the_serial_reports():
    """The lazy mod-2 tables and ideal entries take no lock: four claims
    filling them at once on one context print what they print one by one."""
    def jobs(ctx):
        return [
            lambda: verify_tk_recursion(ctx, 6),
            lambda: verify_tkvk(ctx, 6),
            lambda: verify_ideal_invariance(ctx, 6),
            lambda: [verify_t_collapse(ctx, level, 6) for level in (0, 1)],
        ]

    serial = [canonical_json(job()) for job in jobs(RnContext(2, 6, m=2))]
    start = threading.Barrier(4)

    def run(job):
        start.wait()
        return canonical_json(job())

    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(run, jobs(RnContext(2, 6, m=2)))) == serial


# ---- chain inversion ----------------------------------------------------------------

def test_chain_inversion_grid():
    for n, k_max in ((1, 1), (1, 2), (2, 2), (3, 2)):
        report = chain_inversion_check(RnContext(n, k_max))
        assert report["status"] == "verified"
        assert report["params"]["convention"] == "minus-formal-inverse"
    assert chain_inversion_check(RnContext(2, 3), cutoff=8)["status"] == "verified"


def test_chain_is_negated_inverse_not_raw_inverse():
    ctx = RnContext(1, 2)
    iso = chain_composite(ctx, cutoff=7)
    assert iso.psi == rn_minus_inverse(ctx, 7)
    assert iso.psi != -rn_minus_inverse(ctx, 7)


def _psi_gamma(ctx, F):
    """Oracle: the twisted strict isomorphism psi_gamma: F -> F^gamma, as the
    F^gamma-sum of x and the t_i x^{2^i} in the conjugated law."""
    Fg = conjugate_fgl(F, gamma_act)
    terms = [(1, 1)]
    for i in range(1, ctx.k_max + 1):
        ti = ctx.generator(i, rational=True)
        if not ti.is_zero() and (1 << i) <= F.cutoff:
            terms.append((ti, 1 << i))
    return StrictIso(formal_sum(Fg, terms), F, Fg)


def _chain_isos(ctx, steps, cutoff):
    """Oracle: the steps F^{gamma^i} -> F^{gamma^{i+1}}, i < steps, each built
    from the one before by conjugating its series and its target law."""
    step = _psi_gamma(ctx, rn_law(ctx, cutoff))
    yield step
    for _ in range(1, steps):
        psi = {e: gamma_act(c) for e, c in step.psi.coeffs.items()}
        step = StrictIso(
            TruncatedSeries1(step.psi.ring, psi, cutoff),
            step.target,
            conjugate_fgl(step.target, gamma_act),
        )
        yield step


def _chain_by_conjugated_laws(ctx, steps, X):
    """Oracle: the composites of the first 1, 2, .., steps isos of _chain_isos,
    in turn, through compose_iso."""
    iso = None
    for step in _chain_isos(ctx, steps, X):
        iso = step if iso is None else compose_iso(step, iso)
        yield iso


def _chain_report_by_inverse(ctx, X, psi):
    """Oracle: the chain-inversion report from the solved formal inverse and
    the lowest coefficient of the difference."""
    diff = psi - rn_minus_inverse(ctx, X)
    first = None
    if not diff.is_zero():
        first = diff.coefficient(min(diff.coeffs))
    return {
        "claim": "chain-inversion",
        "params": {"n": ctx.n, "cutoff": X, "convention": "minus-formal-inverse"},
        "status": "verified" if first is None else "failed",
        "witness": None if first is None else poly_to_json(first),
        "bounds": ctx.bounds(),
    }


def _window(ctx, cutoff):
    return cutoff if cutoff is not None else (1 << (ctx.k_max + 1)) - 1


# every (n, k, cutoff) of the chain-series benchmark pool, and the smallest cases
CHAIN_CASES = [(1, 3, None), (2, 2, None), (2, 3, 8), (2, 3, 10), (3, 1, None),
               (3, 2, 5), (3, 2, None), (1, 1, None), (1, 2, None), (2, 1, None)]


@pytest.mark.parametrize("n,k_max,cutoff", CHAIN_CASES)
def test_chain_report_matches_the_conjugated_law_route(n, k_max, cutoff):
    """chain_composite at every step count 1 .. 2^{n-1} is the composite of
    the conjugated laws' isos, and the report is the inverse route's on it."""
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    for steps, want in enumerate(_chain_by_conjugated_laws(ctx, ctx.half, X), start=1):
        iso = chain_composite(ctx, steps=steps, cutoff=X)
        assert iso.psi == want.psi
        assert iso.source == want.source
        assert iso.target == want.target
    report = chain_inversion_check(ctx, cutoff=cutoff)
    assert report == _chain_report_by_inverse(ctx, X, want.psi)
    assert report["status"] == "verified"


def _law_certificate(F, psi):
    """Oracle for the verdict's certificate: F(x, -psi(x)) = 0 through the cutoff."""
    return fgl_apply(F, TruncatedSeries1.identity(psi.ring, F.cutoff), -psi).is_zero()


# the chain cases, and cutoffs 1 (log x = x) and 2 (log x = x + l_1 x^2)
CERTIFICATE_CASES = CHAIN_CASES + [(1, 1, 1), (2, 2, 1), (1, 1, 2), (2, 2, 2), (3, 1, 2)]


@pytest.mark.parametrize("n,k_max,cutoff", CERTIFICATE_CASES)
def test_the_log_certificate_holds_with_the_law_certificate(n, k_max, cutoff):
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    F = rn_law(ctx, X)
    ring = ctx.ring_q
    ls = rn_log(ctx)
    # log F(x, y) = log x + log y as a two-variable series
    sides = {(1, 0): ring.one(), (0, 1): ring.one()}
    for k, lk in enumerate(ls, start=1):
        if (1 << k) <= X:
            sides[(1 << k, 0)] = sides[(0, 1 << k)] = lk
    L = log_series(ls, ring, X)
    assert L.compose(F.two_var) == TruncatedSeries2(ring, sides, X)
    psi = equivariant_ring._chain_series(ctx, ctx.half, X)
    assert _law_certificate(F, psi)
    assert chain_inversion_check(ctx, cutoff=cutoff)["status"] == "verified"


@pytest.mark.parametrize("n,k_max,cutoff", CERTIFICATE_CASES)
def test_a_perturbed_chain_fails_with_the_inverse_route_witness(monkeypatch, n, k_max, cutoff):
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    F = rn_law(ctx, X)
    psi = equivariant_ring._chain_series(ctx, ctx.half, X)
    t1 = ctx.generator(1, rational=True)
    for e in range(2, X + 1):
        bump = TruncatedSeries1.monomial(psi.ring, t1 ** (e - 1), e, X)
        for bad in (psi + bump, psi - bump.scale(QQ(1, 3))):
            assert not _law_certificate(F, bad)
            monkeypatch.setattr(equivariant_ring, "_chain_steps", lambda *args: [bad])
            report = chain_inversion_check(ctx, cutoff=cutoff)
            assert report["status"] == "failed"
            want = _chain_report_by_inverse(ctx, X, bad)
            assert canonical_json(report) == canonical_json(want)


# one context per configuration, so rn_law builds each law once
_PROPERTY_CONTEXTS = {(n, k): RnContext(n, k) for n, k in ((1, 3), (2, 2), (3, 1))}


@st.composite
def _bumps(draw, ring, cutoff):
    """A perturbation of a chain series at one to four orders in 2..cutoff,
    each coefficient a small rational multiple (odd or even denominator) of
    a product of the generators t_i and their conjugates."""
    orders = draw(st.sets(st.integers(2, cutoff), min_size=1, max_size=4))
    coeffs = {}
    for e in orders:
        c = ring.from_rational(QQ(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                                  draw(st.sampled_from([1, 2, 3, 4, 5, 8]))))
        for v in draw(st.lists(st.sampled_from(ring.variables), max_size=3)):
            c = c * ring.var(v)
        coeffs[e] = c
    return TruncatedSeries1(ring, coeffs, cutoff)


@pytest.mark.parametrize("n,k_max", list(_PROPERTY_CONTEXTS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_any_perturbed_chain_fails_with_the_inverse_route_witness(n, k_max, data):
    ctx = _PROPERTY_CONTEXTS[n, k_max]
    X = _window(ctx, None)
    psi = equivariant_ring._chain_series(ctx, ctx.half, X)
    bad = psi + data.draw(_bumps(ctx.ring_q, X))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivariant_ring, "_chain_steps", lambda *args: [bad])
        report = chain_inversion_check(ctx)
    assert report["status"] == "failed"
    assert canonical_json(report) == canonical_json(_chain_report_by_inverse(ctx, X, bad))


def _compose_steps(steps):
    """Oracle: S_{h-1} o .. o S_0 from the steps, outermost first, composed
    one at a time from the innermost."""
    *outer, composite = steps
    for step in reversed(outer):
        composite = step.compose(composite)
    return composite


@pytest.mark.parametrize("n,k_max,cutoff", CERTIFICATE_CASES)
def test_the_steps_compose_to_the_chain_by_doubling(n, k_max, cutoff):
    """gamma_* commutes with composition, so the 2s innermost steps the
    certificate reads compose to gamma^s_*(P_s) o P_s, with P_s the
    composite of the s innermost."""
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    steps = equivariant_ring._chain_steps(ctx, X)
    assert len(steps) == ctx.half
    s = 1
    while 2 * s <= ctx.half:
        inner = _compose_steps(steps[-s:])
        want = equivariant_ring._gamma_shift(inner, s).compose(inner)
        assert _compose_steps(steps[-2 * s:]) == want
        s *= 2


# chain-series pool configurations of one, two and four steps
_STEP_CASES = [(1, 3, None), (2, 2, None), (3, 1, None), (3, 2, 5)]
_STEP_CONTEXTS = {(n, k): RnContext(n, k) for n, k, _ in _STEP_CASES}


@pytest.mark.parametrize("n,k_max,cutoff", _STEP_CASES)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_a_perturbed_step_fails_as_the_composed_chain(n, k_max, cutoff, data):
    """The certificate composes L with the steps from the outside in: a bump
    of any one step gives the report of the chain composed step by step."""
    ctx = _STEP_CONTEXTS[n, k_max]
    X = _window(ctx, cutoff)
    steps = equivariant_ring._chain_steps(ctx, X)
    j = data.draw(st.integers(0, len(steps) - 1))
    steps[j] = steps[j] + data.draw(_bumps(ctx.ring_q, X))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivariant_ring, "_chain_steps", lambda *args: steps)
        report = chain_inversion_check(ctx, cutoff=cutoff)
    assert report["status"] == "failed"
    want = _chain_report_by_inverse(ctx, X, _compose_steps(steps))
    assert canonical_json(report) == canonical_json(want)


def _phi_terms(ctx, cutoff):
    """The terms (1, 1) and (gamma^{-1}(t_i), 2^i) of the F-sum phi of _chain_steps."""
    terms = [(1, 1)]
    for i in range(1, ctx.k_max + 1):
        ti = ctx.generator(i, rational=True)
        if not ti.is_zero() and (1 << i) <= cutoff:
            terms.append((gamma_act(ti, -1), 1 << i))
    return terms


@pytest.mark.parametrize("n,k_max,cutoff", CERTIFICATE_CASES)
def test_the_log_routes_match_the_law_routes(n, k_max, cutoff):
    """The F-sum phi and [-1](x) from the logarithm alone, against formal_sum
    and formal_inverse on the two-variable law."""
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    F = rn_law(ctx, X)
    L = log_series(rn_log(ctx), ctx.ring_q, X)
    terms = _phi_terms(ctx, X)
    assert formal_sum_via_log(L, terms) == formal_sum(F, terms)
    assert solve_series(L, -L) == -rn_minus_inverse(ctx, X)


# step counts up to 2^{n-1} = 8 at n = 4
@pytest.mark.parametrize("n,k_max,cutoff", [(1, 3, None), (2, 2, None), (3, 2, None),
                                            (4, 1, None), (4, 2, 7)])
def test_the_chain_by_doubling_is_the_chain_step_by_step(n, k_max, cutoff):
    """gamma_* commutes with composition, so the chain of 2s steps, composed
    one step at a time, is gamma^s_*(P_s) o P_s."""
    ctx = RnContext(n, k_max)
    X = _window(ctx, cutoff)
    chain = {s: equivariant_ring._chain_series(ctx, s, X) for s in range(1, ctx.half + 1)}
    for s in range(1, ctx.half // 2 + 1):
        assert chain[2 * s] == equivariant_ring._gamma_shift(chain[s], s).compose(chain[s])


def test_the_chain_takes_at_least_one_step():
    ctx = RnContext(3, 1)
    for steps in (0, -1):
        with pytest.raises(ValueError, match="at least one step"):
            chain_composite(ctx, steps=steps)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_steps_conjugate_each_law_once(n):
    ctx = RnContext(n, 2)
    X = 7
    F = rn_law(ctx, X)
    steps = list(_chain_isos(ctx, ctx.half, X))
    assert len(steps) == ctx.half
    for j, step in enumerate(steps):
        assert step.source == conjugate_fgl(F, lambda p: gamma_act(p, j))
        assert step.target == conjugate_fgl(F, lambda p: gamma_act(p, j + 1))
        assert step.verify()
    for prev, step in zip(steps, steps[1:]):
        assert step.source is prev.target


def test_chain_additive_degeneration_is_uninformative():
    # killing every generator sends the chain to x, which *trivially* equals
    # the negated formal inverse of the additive law; nothing is being tested
    # by that degeneration, so the real checks all run with generators live.
    ctx = RnContext(2, 2)
    iso = chain_composite(ctx)
    ring = ctx.ring_q
    kill = {v: ring.zero() for v in ring.variables}
    collapsed = {
        e: ring_map(c, kill, ring) for e, c in iso.psi.coeffs.items()
    }
    collapsed = {e: c for e, c in collapsed.items() if not c.is_zero()}
    assert collapsed == {1: ring.one()}
    add = additive_fgl(ring, iso.psi.cutoff)
    assert formal_inverse(add).scale(-1).coeffs == {1: ring.one()}


def test_chain_cutoff_window_guard():
    with pytest.raises(ValueError):
        chain_inversion_check(RnContext(2, 2), cutoff=8)
