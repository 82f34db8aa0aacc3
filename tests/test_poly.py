import functools
import itertools
import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fgl_forge import equivariant_ring, lubin_tate, poly_core
from fgl_forge.coefficients import QQ, finite_field
from fgl_forge.equivariant_ring import rn_context
from fgl_forge.lubin_tate import lt_context
from fgl_forge.poly_core import (
    T,
    V,
    GradedPolynomial,
    GroebnerBasis,
    bp_ring,
    f2_membership_linear,
    from_rational_ring,
    gamma_act,
    ideal_contains,
    orbit_sum,
    poly_to_json,
    quotient_to_rnm,
    reduce_mod2,
    ring_map,
    rn_ring,
    rnm_ring,
    to_rational_ring,
)

from laws import rn_law

R2 = rn_ring(2, 2)
R2Q = rn_ring(2, 2, rational=True)


def rand_poly(ring, rng, max_deg=10, nterms=6):
    terms = {}
    degrees = [d for d in range(2, max_deg + 1, 2)]
    for _ in range(nterms):
        monos = ring.monomials_of_degree(rng.choice(degrees))
        if monos:
            terms[rng.choice(monos)] = QQ(rng.randint(-9, 9))
    return GradedPolynomial(ring, terms)


# ---- arithmetic and grading ---------------------------------------------------

def test_binomial_and_degrees():
    t1, g1t1, t2 = R2.var(T(1, 0)), R2.var(T(1, 1)), R2.var(T(2, 0))
    sq = (t1 + g1t1) ** 2
    assert sq == t1**2 + t1 * g1t1 * 2 + g1t1**2
    assert sq.degree == 4 and sq.is_homogeneous()
    assert (t2 * t1**2).degree == 10  # |t2| = 6, |t1| = 2
    assert (t1 * R2.zero()).is_zero() and not (t1 * R2.zero()).terms


def _degree_by_decode(ring, mono):
    """Oracle: the weighted degree from the variable fields, not the top field."""
    return sum(e * w for e, w in zip(ring.decode(mono), ring.degrees))


def _assert_top_field_is_the_degree(p):
    ring = p.ring
    for m in p.num:
        assert m >> ring.dshift == _degree_by_decode(ring, m), (ring, ring.decode(m))


def test_homogeneity_is_exact_and_the_top_field_is_the_degree():
    rng = random.Random(41)
    for ring in (R2, rn_ring(3, 3), bp_ring(4)):
        for _ in range(12):
            p = rand_poly(ring, rng, max_deg=12)
            degs = {_degree_by_decode(ring, m) for m in p.num}
            _assert_top_field_is_the_degree(p)
            assert all(ring.mono_degree(m) == _degree_by_decode(ring, m) for m in p.num)
            assert p.is_homogeneous() == (len(degs) <= 1)
            assert p.degree == max(degs, default=None)
        # one monomial of another degree, last in the support, is still seen
        body = {m: 1 for m in ring.monomials_of_degree(8)}
        last = ring.monomials_of_degree(10)[-1]
        assert not GradedPolynomial(ring, {**body, last: 1}).is_homogeneous()
        p = GradedPolynomial(ring, body)
        assert p.is_homogeneous() and p.degree == 8
        for v in ring.variables:
            _assert_top_field_is_the_degree(ring.var(v) ** 3)
    assert R2.zero().is_homogeneous() and R2.zero().degree is None
    # every route that builds monomials without encode writes the top field
    for n in (1, 2, 3):
        for flags in ({"rational": True}, {"mod2": True}):
            ring = rn_ring(n, 3, **flags)
            p = rand_poly(ring, rng, max_deg=14, nterms=10)
            for r in range(1 << n):
                _assert_top_field_is_the_degree(gamma_act(p, r))
            for m in (1, 2, 3):
                _assert_top_field_is_the_degree(quotient_to_rnm(p, m))
        _assert_top_field_is_the_degree(reduce_mod2(rand_poly(rn_ring(n, 3), rng, max_deg=14)))
    gens, ring = _v_ideal()
    gb = GroebnerBasis(ring, gens, 14)
    for g in gb.basis:
        _assert_top_field_is_the_degree(g)
    nfs = [gb.normal_form(p) for p in _low_degree_inputs(ring, rng, 14)]
    assert sum(not nf.is_zero() for nf in nfs) > len(nfs) // 2
    for nf in nfs:
        _assert_top_field_is_the_degree(nf)


def test_a_ring_without_variables_has_one_monomial_of_degree_zero():
    # bp_ring(0) has no variables: the enumeration is at its last index from
    # the start, so degree 0 gives the empty monomial and degree 2 nothing
    ring = bp_ring(0)
    assert ring.nvars == 0
    (mono,) = ring.monomials_of_degree(0)
    assert ring.mono_degree(mono) == 0 and GradedPolynomial(ring, {mono: 1}) == ring.one()
    assert ring.monomials_of_degree(2) == ()


def test_ambient_mismatch_and_integrality():
    with pytest.raises(ValueError, match=r"^R_2\(k<=\d+\) vs R_2\(k<=3\)$"):
        R2.var(T(1, 0)) + rn_ring(2, 3).var(T(1, 0))
    with pytest.raises(ValueError, match="scalar 1/2 is not 2-locally integral"):
        R2.var(T(1, 0)).scalar_mul(QQ(1, 2))
    # fine in the Q-extension
    half = R2Q.var(T(1, 0)).scalar_mul(QQ(1, 2))
    assert half.scalar_mul(2) == R2Q.var(T(1, 0))


# ---- the cyclic action --------------------------------------------------------

def test_gamma_on_generators_n2():
    t1, g1t1 = R2.var(T(1, 0)), R2.var(T(1, 1))
    assert gamma_act(t1) == g1t1
    assert gamma_act(g1t1) == -t1
    assert gamma_act(t1 * g1t1, 2) == t1 * g1t1  # (-t1)(-g1t1)
    assert gamma_act(t1, 2) == -t1


def test_gamma_group_order():
    rng = random.Random(7)
    for n in (1, 2, 3):
        ring = rn_ring(n, 2)
        for _ in range(5):
            p = rand_poly(ring, rng)
            assert gamma_act(p, 1 << n) == p
        t1 = ring.var(T(1, 0))
        assert gamma_act(t1, 1 << (n - 1)) == -t1  # order exactly 2^n


def test_gamma_is_automorphism():
    rng = random.Random(21)
    for n in (2, 3):
        ring = rn_ring(n, 2)
        for _ in range(5):
            p, q = rand_poly(ring, rng), rand_poly(ring, rng)
            assert gamma_act(p * q) == gamma_act(p) * gamma_act(q)
            assert gamma_act(p + q) == gamma_act(p) + gamma_act(q)


def _gamma_by_perm(p, r):
    """Oracle: gamma^r as the r-fold composite of the one-step variable permutation.

    One step sends gamma^j t_i to gamma^{j+1} t_i and gamma^{half-1} t_i to
    -t_i; each monomial is rebuilt variable by variable.
    """
    ring = p.ring
    half = 1 << (ring.n - 1)
    step_perm, step_sign = [], []
    for v in ring.variables:
        wraps = v.j == half - 1
        step_perm.append(ring.var_index[T(v.i, 0 if wraps else v.j + 1)])
        step_sign.append(-1 if wraps else 1)
    perm, sign = list(range(ring.nvars)), [1] * ring.nvars
    for _ in range(r % (1 << ring.n)):
        perm, sign = [step_perm[v] for v in perm], [s * step_sign[v] for s, v in zip(sign, perm)]
    out = {}
    for mono, c in p.terms.items():
        exps = [0] * ring.nvars
        for idx, e in enumerate(ring.decode(mono)):
            exps[perm[idx]] = e
            if sign[idx] < 0 and e & 1:
                c = -c
        out[ring.encode(exps)] = c
    return GradedPolynomial(ring, out)  # the constructor reduces mod 2 where needed


@pytest.mark.parametrize("form", ["Z2", "Q", "F2"])
def test_gamma_masks_match_the_permutation_loop(form):
    rng = random.Random(17)
    flags = {"Z2": {}, "Q": {"rational": True}, "F2": {"mod2": True}}[form]
    for n in (1, 2, 3):
        rings = [rn_ring(n, 3, **flags), rnm_ring(n, 1, 3, **flags), rnm_ring(n, 2, 3, **flags)]
        for ring in rings:
            polys = []
            for _ in range(4):
                terms = {}
                for _ in range(6):
                    monos = ring.monomials_of_degree(rng.choice((2, 4, 6, 8, 14)))
                    if monos:
                        terms[rng.choice(monos)] = QQ(rng.randint(-9, 9), rng.choice((1, 3)))
                polys.append(GradedPolynomial(ring, terms))
            for r in range(-(1 << n), (1 << (n + 1)) + 1):
                for p in polys:
                    assert gamma_act(p, r) == _gamma_by_perm(p, r), (ring, r)
            for v in ring.variables:
                t = ring.var(v)
                assert gamma_act(t, 1 << (n - 1)) == -t
                assert gamma_act(t, 1 << n) is t
            for p in polys:
                assert gamma_act(p, 1 << n) == p


def test_gamma_masks_need_the_block_layout():
    with pytest.raises(ValueError):
        poly_core.PolyRing("Rn", 2, None, 1, False, False, [T(1, 1), T(1, 0)])
    with pytest.raises(ValueError):
        poly_core.PolyRing("Rn", 2, None, 2, False, False, [T(1, 0), T(2, 0), T(1, 1), T(2, 1)])


def test_gamma_needs_a_cyclic_ring():
    with pytest.raises(ValueError, match="carries no cyclic action"):
        gamma_act(bp_ring(2).var(V(1)))


def test_orbit_sum_is_half_group():
    ring = rn_ring(2, 1)
    t1 = ring.var(T(1, 0))
    assert orbit_sum(t1) == t1 + ring.var(T(1, 1))


# ---- reductions ----------------------------------------------------------------

def test_reduce_mod2():
    t1 = R2.var(T(1, 0))
    assert reduce_mod2(t1.scalar_mul(2)).is_zero()
    assert reduce_mod2(t1.scalar_mul(3)) == reduce_mod2(t1)
    third = to_rational_ring(t1).scalar_mul(QQ(1, 3))
    assert reduce_mod2(third) == reduce_mod2(t1)
    with pytest.raises(ValueError, match="1/2 has even denominator"):
        reduce_mod2(to_rational_ring(t1).scalar_mul(QQ(1, 2)))


def test_quotient_to_rnm():
    t1, t2 = R2.var(T(1, 0)), R2.var(T(2, 0))
    img = quotient_to_rnm(t1 * t1 + t2, 1)
    target = rnm_ring(2, 1, 2)
    assert img == target.var(T(1, 0)) ** 2
    assert all(v.i <= 1 for v in img.ring.variables)


# ---- ring maps -----------------------------------------------------------------

def test_ring_map_identity_and_kill():
    rng = random.Random(3)
    p = rand_poly(R2, rng)
    ident = {v: R2.var(v) for v in R2.variables}
    assert ring_map(p, ident, R2) == p
    kill = dict(ident)
    kill[T(1, 0)] = R2.zero()
    q = ring_map(p, kill, R2)
    shift = R2.shifts[R2.var_index[T(1, 0)]]
    assert all(not (m >> shift) & 0x3FF for m in q.terms)


def test_ring_map_is_homomorphism():
    rng = random.Random(5)
    ring = rn_ring(2, 1)
    image = {
        T(1, 0): ring.var(T(1, 0)) + ring.var(T(1, 1)),
        T(1, 1): ring.var(T(1, 1)),
    }
    p, q = rand_poly(ring, rng, max_deg=6), rand_poly(ring, rng, max_deg=6)
    assert ring_map(p * q, image, ring) == ring_map(p, image, ring) * ring_map(q, image, ring)


def test_ring_map_unassigned():
    p = R2.var(T(2, 0))
    with pytest.raises(ValueError, match="no image for"):
        ring_map(p, {T(1, 0): R2.zero()}, R2)


@pytest.mark.parametrize("target", ["R_2", "LT"])
def test_ring_map_certifies_and_looks_up_before_it_skips(target):
    """A term whose image is 0 is skipped only after its coefficient is
    certified and its variables are looked up, into either kind of ring."""
    ring = R2 if target == "R_2" else lt_context(2, 1)
    image = R2.var(T(1, 1)) if target == "R_2" else ring.tau(1, 0)
    t1, g1t1, t2 = R2Q.var(T(1, 0)), R2Q.var(T(1, 1)), R2Q.var(T(2, 0))
    kill = {T(1, 0): image, T(1, 1): ring.zero(), T(2, 0): ring.zero(), T(2, 1): ring.zero()}
    assert ring_map(t1 + g1t1.scalar_mul(QQ(1, 3)), kill, ring) == image
    with pytest.raises(ValueError, match="not 2-locally integral|has even denominator"):
        ring_map(t1 + g1t1.scalar_mul(QQ(1, 2)), kill, ring)
    with pytest.raises(ValueError, match="not 2-locally integral|has even denominator"):
        ring_map(t2.scalar_mul(QQ(3, 4)), kill, ring)
    lookup = {T(1, 0): image, T(2, 0): ring.zero()}
    assert ring_map(t1 * t2 + t1, lookup, ring) == image
    with pytest.raises(ValueError, match="no image for g1t1"):
        ring_map(t2 * g1t1 + t1, lookup, ring)


@pytest.mark.parametrize("form", ["Z2", "Q", "F2"])
def test_the_quotient_is_a_ring_map_onto_rnm(form):
    """quotient_to_rnm lands in R_n<m> of the same coefficients, adds and
    multiplies as the ring map it is, fixes t_i for i <= m and kills the rest."""
    rng = random.Random(41)
    dens = (1, 2, 4, 3) if form == "Q" else (1, 3, 5)
    flags = dict(rational=form == "Q", mod2=form == "F2")
    for n, k_max in ((1, 3), (2, 3), (3, 2)):
        ring = rn_ring(n, k_max, **flags)
        polys = [ring.zero(), ring.one()]
        for _ in range(6):
            p = ring.from_rational(QQ(rng.randint(-3, 3), rng.choice(dens)))
            for _ in range(5):
                monos = ring.monomials_of_degree(rng.choice((2, 6, 8, 14)))
                c = QQ(rng.randint(-9, 9), rng.choice(dens))
                p = p + GradedPolynomial(ring, {rng.choice(monos): c})
            polys.append(p)
        for m in range(1, k_max + 2):
            target = rnm_ring(n, m, k_max, **flags)
            for v in ring.variables:
                want = target.var(v) if v.i <= m else target.zero()
                assert quotient_to_rnm(ring.var(v), m) == want
            for p, q in zip(polys, polys[1:]):
                image = quotient_to_rnm(p, m)
                assert image.ring is target
                assert quotient_to_rnm(p + q, m) == image + quotient_to_rnm(q, m)
                assert quotient_to_rnm(p * q, m) == image * quotient_to_rnm(q, m)
    if form == "Q":
        # (2 t_1 + t_2) / 4 -> t_1 / 2: the surviving numerators share a factor with den
        ring = rn_ring(2, 2, rational=True)
        p = (ring.var(T(1, 0)).scalar_mul(2) + ring.var(T(2, 1))).scalar_mul(QQ(1, 4))
        got = quotient_to_rnm(p, 1)
        target = rnm_ring(2, 1, 2, rational=True)
        assert got.den == 2 and got == target.var(T(1, 0)).scalar_mul(QQ(1, 2))


# ---- Groebner machinery --------------------------------------------------------

def _divides_field_by_field(ring, a, b):
    """Oracle: a divides b iff no field of a exceeds that of b, one shift and
    mask per variable."""
    for s in ring.shifts:
        if (a >> s) & 0x7FF > (b >> s) & 0x7FF:
            return False
    return True


@pytest.mark.parametrize(
    "ring",
    [rn_ring(2, 3), rnm_ring(3, 1, 2, rational=True), bp_ring(4), rn_ring(2, 3, mod2=True),
     bp_ring(2, mod2=True)],
    ids=["Rn", "Rnm", "BP", "Rn-mod2", "BP-mod2"],
)
def test_guard_bit_divisibility_matches_the_field_by_field_test(ring):
    """_divides on monomials at the edges of the packing range: exponents 0, 1,
    1022 and 1023, a drawn apart from b or below it field by field."""
    rng = random.Random(53)
    edges = (0, 1, 1022, 1023)
    seen = set()
    for _ in range(4000):
        eb = [rng.choice(edges) for _ in ring.variables]
        if rng.random() < 0.5:
            ea = [rng.choice(edges) for _ in ring.variables]
        else:
            ea = [rng.choice([e for e in edges if e <= f]) for f in eb]
        a, b = ring.encode(ea), ring.encode(eb)
        expected = _divides_field_by_field(ring, a, b)
        assert poly_core._divides(ring, a, b) is expected
        seen.add(expected)
    assert seen == {True, False}


def test_principal_ideal():
    t1 = reduce_mod2(R2.var(T(1, 0)))
    gb = GroebnerBasis(t1.ring, [t1], 12)
    assert gb.normal_form(reduce_mod2(R2.var(T(1, 0)) * R2.var(T(1, 1)))).is_zero()
    assert not gb.normal_form(reduce_mod2(R2.var(T(1, 1)))).is_zero()


def test_empty_ideal_membership():
    t1 = R2.var(T(1, 0))
    assert ideal_contains(t1.scalar_mul(2), [])  # 2 is in (2)
    assert not ideal_contains(t1, [])
    assert ideal_contains(R2.zero(), [])


def test_groebner_requires_homogeneous():
    g = reduce_mod2(R2.var(T(1, 0)) + R2.var(T(1, 0)) ** 2)
    with pytest.raises(ValueError, match="generators must be homogeneous"):
        GroebnerBasis(g.ring, [g], 10)


def test_degree_bound_enforced_on_queries():
    g = reduce_mod2(R2.var(T(1, 0)))
    gb = GroebnerBasis(g.ring, [g], 4)
    with pytest.raises(ValueError, match="degree 6 exceeds basis bound 4"):
        gb.normal_form(reduce_mod2(R2.var(T(2, 0))))


# ---- the exponent packing ------------------------------------------------------

def test_products_past_the_packing_bound_raise():
    ring = rn_ring(2, 2, rational=True)
    t2 = ring.var(T(2, 0))
    assert ring.decode((t2 ** 1023).leading_monomial())[2] == 1023
    with pytest.raises(ValueError, match="packing bound 1023"):
        t2 ** 600 * t2 ** 600  # once wrapped to g1t1*t2^176
    with pytest.raises(ValueError, match="packing bound 1023"):
        t2 ** 1500  # once wrapped to g1t1*t2^476
    with pytest.raises(ValueError, match="packing bound 1023"):
        reduce_mod2(t2 ** 600) * reduce_mod2(t2 ** 600)


@pytest.mark.parametrize(
    "ring", [rn_ring(2, 2, rational=True), rn_ring(3, 1), rn_ring(2, 2, mod2=True), bp_ring(3)],
    ids=repr,
)
def test_products_near_the_packing_bound(ring):
    """A product of monomials is exact while every exponent sum stays below
    2^10 and raises once one reaches it; gamma stays a homomorphism there."""
    rng = random.Random(ring.nvars)
    limit = 1 << 10

    def exponents():
        return [rng.randrange(limit - 40, limit) if rng.random() < 0.3 else rng.randrange(40)
                for _ in range(ring.nvars)]

    seen = set()
    for _ in range(60):
        a, b = exponents(), exponents()
        pa = GradedPolynomial(ring, {ring.encode(a): 1})
        pb = GradedPolynomial(ring, {ring.encode(b): 1})
        fits = all(x + y < limit for x, y in zip(a, b))
        seen.add(fits)
        if not fits:
            with pytest.raises(ValueError, match="packing bound 1023"):
                pa * pb
            continue
        (mono,) = (pa * pb).num
        assert ring.decode(mono) == tuple(x + y for x, y in zip(a, b))
        if ring.kind != "BP":
            for r in range(1 << ring.n):
                assert gamma_act(pa * pb, r) == gamma_act(pa, r) * gamma_act(pb, r)
    assert seen == {True, False}


def test_buchberger_closure_and_random_combinations():
    # two homogeneous generators with interacting leading terms
    ring = rn_ring(2, 2)
    t1, g1t1, t2, g1t2 = (ring.var(T(i, j)) for i in (1, 2) for j in (0, 1))
    g1 = reduce_mod2(t1 + g1t1)
    g2 = reduce_mod2(t2 + g1t2 + t1 * g1t1**2)
    D = 14
    gb = GroebnerBasis(g1.ring, [g1, g2], D)
    # every S-polynomial of basis elements with lcm degree <= D reduces to 0
    ringF = g1.ring
    for a in range(len(gb.basis)):
        for b in range(a + 1, len(gb.basis)):
            ma, mb = gb.basis[a].leading_monomial(), gb.basis[b].leading_monomial()
            exps = tuple(max(x, y) for x, y in zip(ringF.decode(ma), ringF.decode(mb)))
            if sum(e * w for e, w in zip(exps, ringF.degrees)) > D:
                continue
            lcm = ringF.encode(exps)
            s = gb.basis[a] * GradedPolynomial(ringF, {lcm - ma: 1}) + gb.basis[b] * (
                GradedPolynomial(ringF, {lcm - mb: 1})
            )
            assert gb.normal_form(s).is_zero()
    # random ideal combinations are members; cross-checked against linear algebra
    rng = random.Random(11)
    for _ in range(20):
        target = rng.choice([6, 8, 10])
        ca = rng.choice(ringF.monomials_of_degree(target - 2))
        cb = rng.choice(ringF.monomials_of_degree(target - 6))
        comb = g1 * GradedPolynomial(ringF, {ca: 1}) + g2 * GradedPolynomial(ringF, {cb: 1})
        if comb.is_zero():
            continue
        assert gb.normal_form(comb).is_zero()
        assert f2_membership_linear(comb, [g1, g2])


def test_groebner_vs_linear_algebra_on_random_polys():
    ring = rn_ring(2, 2)
    g1 = reduce_mod2(ring.var(T(1, 0)) + ring.var(T(1, 1)))
    g2 = reduce_mod2(ring.var(T(2, 0)) + ring.var(T(2, 1)))
    rng = random.Random(13)
    for deg in (2, 4, 6, 8):
        monos = g1.ring.monomials_of_degree(deg)
        for _ in range(8):
            sel = rng.sample(monos, k=min(4, len(monos)))
            p = GradedPolynomial(g1.ring, {m: 1 for m in sel})
            assert ideal_contains(p, [g1, g2]) == f2_membership_linear(p, [g1, g2])


def _nf_by_scan(p, basis):
    """Reference normal form: rescan the work dict for the leading monomial each step."""
    ring = p.ring
    work = dict(p.terms)
    out = {}
    lms = [(g.leading_monomial(), g) for g in basis]
    while work:
        deg = max(_degree_by_decode(ring, m) for m in work)
        mono = min(m for m in work if _degree_by_decode(ring, m) == deg)
        del work[mono]
        reducer = None
        for lm, g in lms:
            if poly_core._divides(ring, lm, mono):
                reducer = (lm, g)
                break
        if reducer is None:
            out[mono] = 1
            continue
        lm, g = reducer
        q = mono - lm
        for gm in g.terms:
            m2 = gm + q
            if m2 == mono:
                continue
            if m2 in work:
                del work[m2]
            else:
                work[m2] = 1
    return GradedPolynomial(ring, out, _checked=True)


def _random_f2(ring, rng, degrees, nterms):
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(ring.monomials_of_degree(rng.choice(degrees)))] = 1
    return GradedPolynomial(ring, terms)


def _test_ideals():
    """(generators, degree bound): the ideals of the Groebner tests here and in
    test_equivariant, and seeded random ones whose bases need many S-pairs."""
    ring = rn_ring(2, 2)
    t1, g1t1, t2, g1t2 = (ring.var(T(i, j)) for i in (1, 2) for j in (0, 1))
    vs = equivariant_ring.v_in_rn(equivariant_ring.RnContext(2, 3), 3)
    v_images = [reduce_mod2(v) for v in vs]
    ideals = [
        ([reduce_mod2(t1 + g1t1), reduce_mod2(t2 + g1t2 + t1 * g1t1**2)], 14),
        ([reduce_mod2(t1 + g1t1), reduce_mod2(t2 + g1t2)], 8),
        (v_images[:2], 14),
        (v_images, 16),
    ]
    rng = random.Random(71)
    ring3 = rn_ring(3, 2, mod2=True)
    for _ in range(3):
        ideals.append(([_random_f2(ring3, rng, [d], 5) for d in (4, 4, 6)], 12))
    return ideals


def test_heap_normal_form_matches_the_scan(monkeypatch):
    rng = random.Random(61)
    for gens, D in _test_ideals():
        ring = gens[0].ring
        gb = GroebnerBasis(ring, gens, D)
        degrees = [d for d in range(2, D + 1, 2) if ring.monomials_of_degree(d)]
        for _ in range(40):
            # homogeneous inputs, mixed degrees, and one part at every degree:
            # the heap keys by the packed monomial alone, across degrees
            p = _random_f2(ring, rng, [rng.choice(degrees)], rng.randint(1, 8))
            q = p + _random_f2(ring, rng, degrees, rng.randint(0, 8))
            r = ring.zero()
            for d in degrees:
                r = r + _random_f2(ring, rng, [d], rng.randint(1, 3))
            for x in (p, q, r):
                assert gb.normal_form(x) == _nf_by_scan(x, gb.basis)
            assert gb.normal_form(p).is_zero() == f2_membership_linear(p, gens)
        # Buchberger itself builds the same basis on either normal form
        with monkeypatch.context() as m:
            m.setattr(poly_core, "_nf", lambda p, reducers: _nf_by_scan(p, [g for _, g in reducers]))
            assert GroebnerBasis(ring, gens, D).basis == gb.basis


# ---- the normal-form table of a basis ------------------------------------------------

@functools.cache
def _table_ideal(index):
    """The index-th ideal of _test_ideals and its degrees that have monomials."""
    gens, D = _test_ideals()[index]
    ring = gens[0].ring
    return gens, D, ring, [d for d in range(2, D + 1, 2) if ring.monomials_of_degree(d)]


def _draw_input(data, ring, degree):
    monos = ring.monomials_of_degree(degree)
    drawn = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=12))
    return GradedPolynomial(ring, dict.fromkeys(drawn, 1), _checked=True)


def _assert_table_is_consistent(gb):
    """Each standard monomial holds its own bit, and no entry names a bit
    past the standard monomials."""
    table, standard = gb._table, gb._standard
    assert len(set(standard)) == len(standard) <= poly_core.NF_TABLE_LIMIT
    assert all(table[mono] == 1 << i for i, mono in enumerate(standard))
    assert all(0 <= bits < 1 << len(standard) for bits in table.values())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_table_normal_forms_are_the_heap_and_scan_ones(data):
    """One basis asked again and again, at mixed degrees: each table normal
    form is the heap's (_nf) and the scan's, and the table stays consistent."""
    gens, D, ring, degrees = _table_ideal(data.draw(st.integers(0, 6)))
    gb = GroebnerBasis(ring, gens, D)
    for _ in range(data.draw(st.integers(1, 6))):
        p = _draw_input(data, ring, data.draw(st.sampled_from(degrees)))
        nf = gb.normal_form(p)
        assert nf == poly_core._nf(p, gb._reducers) == _nf_by_scan(p, gb.basis)
        if gb._table is not None:
            _assert_table_is_consistent(gb)
            assert all(mono in gb._table for mono in p.num)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), limit=st.integers(0, 12))
def test_a_table_past_its_limit_falls_back_to_the_heap(data, limit):
    """With a small NF_TABLE_LIMIT, the table never spans more standard
    monomials than the limit; a fill that would pass it drops the table for
    good, and every normal form, before and after, is the heap's."""
    gens, D, ring, degrees = _table_ideal(data.draw(st.integers(0, 6)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_core, "NF_TABLE_LIMIT", limit)
        gb = GroebnerBasis(ring, gens, D)
        dropped = False
        for _ in range(data.draw(st.integers(1, 6))):
            p = _draw_input(data, ring, data.draw(st.sampled_from(degrees)))
            assert gb.normal_form(p) == poly_core._nf(p, gb._reducers)
            if gb._table is None:
                dropped = True
            else:
                assert not dropped, "a dropped table came back"
                _assert_table_is_consistent(gb)


def test_the_table_is_dropped_when_the_quotient_is_too_wide(monkeypatch):
    """At limit 2 the basis of (t1) tabulates g1t1, t1 g1t1 and g1t1^2, two
    standard monomials; g1t1^3 would be a third, so its fill drops the
    table, and the basis reduces through the heap from then on."""
    monkeypatch.setattr(poly_core, "NF_TABLE_LIMIT", 2)
    t1, g1t1 = (reduce_mod2(R2.var(T(1, j))) for j in (0, 1))
    gb = GroebnerBasis(t1.ring, [t1], 8)
    assert gb.normal_form(g1t1).num == {g1t1.leading_monomial(): 1}
    assert gb.normal_form(t1 * g1t1).is_zero()
    assert gb._table is not None and len(gb._standard) == 1
    square = g1t1 * g1t1
    assert gb.normal_form(square) == square
    assert gb._table is not None and len(gb._standard) == 2
    cube = square * g1t1
    assert gb.normal_form(cube) == cube
    assert gb._table is None
    assert gb.normal_form(square + t1 * square) == square


def _v_ideal():
    """(v_1, v_2, v_3) of R_2 mod 2, and its ring; v_3 has degree 14."""
    vs = equivariant_ring.v_in_rn(equivariant_ring.RnContext(2, 3), 3)
    gens = [reduce_mod2(v) for v in vs]
    return gens, gens[0].ring


def _low_degree_inputs(ring, rng, top):
    """Every monomial of degree <= top, and seeded random homogeneous sums."""
    inputs = []
    for d in range(2, top + 1, 2):
        monos = ring.monomials_of_degree(d)
        inputs += [GradedPolynomial(ring, {m: 1}) for m in monos]
        inputs += [_random_f2(ring, rng, [d], 4) for _ in range(10)]
    return [p for p in inputs if not p.is_zero()]


def _sum_of_monomials(ring, d, count=5):
    p = ring.zero()
    for mono in ring.monomials_of_degree(d)[:count]:
        p = p + GradedPolynomial(ring, {mono: 1})
    return p


# The context entry is the one store of the basis of I_4 = (v_1, v_2, v_3)
# in a fresh R_2 context: _v_ideal() gives the same generators and ring.

def test_one_basis_per_ideal_serves_lower_degrees():
    ctx = equivariant_ring.RnContext(2, 3)
    gens, ring = _v_ideal()
    equivariant_ring._nf_mod_Ik(ctx, _sum_of_monomials(ring, 14), 4)
    gb14 = ctx._ideals[4]
    assert gb14.degree_bound == 14
    fresh = GroebnerBasis(ring, gens, 6)
    for p in _low_degree_inputs(ring, random.Random(81), 6):
        assert equivariant_ring._nf_mod_Ik(ctx, p, 4) == fresh.normal_form(p)
    assert ctx._ideals == {4: gb14}


def test_a_higher_degree_replaces_the_basis():
    ctx = equivariant_ring.RnContext(2, 3)
    gens, ring = _v_ideal()
    entries = []
    for d in (6, 4, 14, 6, 10):
        p = _sum_of_monomials(ring, d)
        assert equivariant_ring._nf_mod_Ik(ctx, p, 4) == GroebnerBasis(ring, gens, d).normal_form(p)
        entries.append(ctx._ideals[4])
    gb6, gb14 = entries[0], entries[2]
    assert gb6.degree_bound == 6 and entries[1] is gb6
    assert gb14 is not gb6 and gb14.degree_bound == 14
    assert entries[3] is gb14 and entries[4] is gb14


def test_one_basis_cache_under_threads():
    """Threads asking one fresh context at mixed degrees get the serial normal
    forms, and so do four threads filling the table of one fresh basis."""
    gens, ring = _v_ideal()
    rng = random.Random(91)
    degrees = (6, 14, 10, 8, 14, 4, 12, 6)
    inputs = {d: _low_degree_inputs(ring, rng, d)[-12:] for d in set(degrees)}
    serial = {d: [poly_core._nf(p, GroebnerBasis(ring, gens, d)._reducers) for p in ps]
              for d, ps in inputs.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ctx = equivariant_ring.RnContext(2, 3)
            barrier = threading.Barrier(len(degrees))
            got = {}

            def work(slot, d):
                barrier.wait(timeout=10)
                got[slot] = [equivariant_ring._nf_mod_Ik(ctx, p, 4) for p in inputs[d]]

            threads = [threading.Thread(target=work, args=(slot, d)) for slot, d in enumerate(degrees)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == {slot: serial[d] for slot, d in enumerate(degrees)}
            # a racing fill may leave a lower basis stored; it is still one entry
            assert list(ctx._ideals) == [4] and ctx._ideals[4].degree_bound in degrees

        # four threads filling the table of one fresh basis at once, two of
        # them at one degree, so their fills overlap: inputs of 40 terms mod
        # (v_1, v_2, v_3) of R_2 up to degree 30 fill long enough to interleave
        gens = equivariant_ring._v_bars(equivariant_ring.RnContext(2, 4), 3)
        ring = gens[0].ring
        table_degrees = (30, 22, 30, 14)
        inputs = {}
        for d in set(table_degrees):
            monos = ring.monomials_of_degree(d)
            inputs[d] = [GradedPolynomial(ring, dict.fromkeys(rng.sample(monos, min(40, len(monos))), 1))
                         for _ in range(4)]
        heap = GroebnerBasis(ring, gens, 30)._reducers
        serial = {d: [poly_core._nf(p, heap) for p in ps] for d, ps in inputs.items()}
        for _ in range(100):
            gb = GroebnerBasis(ring, gens, 30)
            barrier = threading.Barrier(len(table_degrees))
            got = {}

            def fill(slot, d):
                barrier.wait(timeout=10)
                got[slot] = [gb.normal_form(p) for p in inputs[d]]

            threads = [threading.Thread(target=fill, args=(slot, d))
                       for slot, d in enumerate(table_degrees)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == {slot: serial[d] for slot, d in enumerate(table_degrees)}
            _assert_table_is_consistent(gb)
    finally:
        sys.setswitchinterval(interval)


def test_monomials_of_degree_are_tabulated_in_enumeration_order():
    for ring in (rn_ring(2, 3), rn_ring(3, 2, mod2=True), bp_ring(3)):
        for d in (-2, 0, 2, 5, 6, 14):
            monos = ring.monomials_of_degree(d)
            assert type(monos) is tuple and ring.monomials_of_degree(d) is monos
            ranges = [range(d // w + 1) if d >= 0 else () for w in ring.degrees]
            want = sorted(
                ring.encode(e)
                for e in itertools.product(*ranges)
                if sum(x * w for x, w in zip(e, ring.degrees)) == d
            )
            assert monos == tuple(want)


def test_ideal_contains_Ik_shapes():
    # stand-in v-images: the k = 1 ideal is (2), so only even multiples land in it
    t1, t2 = R2.var(T(1, 0)), R2.var(T(2, 0))
    v1 = t1 + R2.var(T(1, 1))
    vs = [v1]
    assert ideal_contains(t2.scalar_mul(2), vs[:0])  # I_1 = (2)
    assert not ideal_contains(t1, vs[:0])
    assert ideal_contains(v1 * R2.var(T(1, 1)), vs[:1])  # I_2 = (2, v_1)


# ---- serialization -------------------------------------------------------------

def test_json_roundtrip_and_term_order():
    t1, g1t1 = R2.var(T(1, 0)), R2.var(T(1, 1))
    p = (t1 + g1t1) ** 2 + t1.scalar_mul(QQ(-3))
    obj = poly_to_json(p)
    # descending monomial order: degree 4 (grevlex among them), then degree 2
    assert obj == {
        "ring": {"kind": "Rn", "k_max": 2, "n": 2},
        "terms": [
            {"monomial": {"g1t1": 2}, "coeff": "1"},
            {"monomial": {"t1": 1, "g1t1": 1}, "coeff": "2"},
            {"monomial": {"t1": 2}, "coeff": "1"},
            {"monomial": {"t1": 1}, "coeff": "-3"},
        ],
    }
    # deterministic: serializing twice gives identical structures
    assert poly_to_json(p) == obj


# ---- the canonical coefficient form --------------------------------------------

def _plain(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def _clean(d):
    return {m: c for m, c in d.items() if c != 0}


def _plain_add(a, b):
    return _clean({m: a.get(m, 0) + b.get(m, 0) for m in a.keys() | b.keys()})


def _plain_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return _clean(out)


def _plain_gamma(ring, a, r):
    """gamma^r by its definition: gamma^j t_i -> gamma^{j+1} t_i, wrapping to -t_i."""
    half = 1 << (ring.n - 1)
    for _ in range(r):
        out = {}
        for mono, c in a.items():
            exps = [0] * ring.nvars
            for v, e in zip(ring.variables, ring.decode(mono)):
                if e:
                    j = (v.j + 1) % half
                    exps[ring.var_index[T(v.i, j)]] = e
                    if j == 0 and e % 2:
                        c = -c
            out[ring.encode(exps)] = c
        a = out
    return a


def _assert_canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), (c, p)


@pytest.mark.parametrize("rational", [True, False], ids=["RnQ", "Rn"])
def test_coefficients_are_ints_exactly_when_integral(rational):
    ring = rn_ring(2, 3, rational=rational)
    dens = (1, 2, 3, 4) if rational else (1, 3)
    rng = random.Random(41)

    def rand(nterms=5):
        terms = {}
        for _ in range(nterms):
            mono = rng.choice(ring.monomials_of_degree(rng.choice((2, 4, 6))))
            terms[mono] = QQ(rng.randint(-6, 6) * rng.choice((1, 3)), rng.choice(dens))
        return GradedPolynomial(ring, terms)

    unit = QQ(1, 2) if rational else QQ(1, 3)
    for _ in range(15):
        p, q = rand(), rand()
        a, b = _plain(p), _plain(q)
        _assert_canonical(p)
        neg_b = {m: -c for m, c in b.items()}
        cases = [
            (p + q, _plain_add(a, b)),
            (p - q, _plain_add(a, neg_b)),
            (p * q, _plain_mul(a, b)),
            (p**3, _plain_mul(a, _plain_mul(a, a))),
            (p.scalar_mul(unit), {m: c * unit for m, c in a.items()}),
            (p.scalar_mul(unit).scalar_mul(unit.denominator), a),
            (p + p.scalar_mul(-1), {}),
        ]
        cases += [(gamma_act(p, r), _plain_gamma(ring, a, r)) for r in range(1, 4)]
        if rational:
            whole = p.scalar_mul(12)
            cases.append((from_rational_ring(whole), _plain(whole)))
        else:
            cases.append((from_rational_ring(to_rational_ring(p)), a))
        for got, want in cases:
            _assert_canonical(got)
            assert _plain(got) == want


@pytest.mark.parametrize("form", ["Z2", "Q", "F2"])
def test_dot_is_the_sum_of_its_products(form):
    flags = {"Z2": {}, "Q": {"rational": True}, "F2": {"mod2": True}}[form]
    ring = rn_ring(2, 3, **flags)
    rng = random.Random(43)

    def rand():
        terms = {}
        for _ in range(5):
            mono = rng.choice(ring.monomials_of_degree(rng.choice((2, 4))))
            terms[mono] = QQ(rng.randint(-6, 6), rng.choice((1, 3) if form != "Q" else (1, 2, 3)))
        return GradedPolynomial(ring, terms)

    for size in (0, 1, 2, 5):
        pairs = [(rand(), rand()) for _ in range(size)]
        want = ring.zero()
        for a, b in pairs:
            want = want + GradedPolynomial(ring, _plain_mul(_plain(a), _plain(b)))
        got = ring.dot(pairs)
        assert got == want
        if form != "F2":
            _assert_canonical(got)
    p, q = rand(), rand()
    assert ring.dot([(p, q), (-p, q)]).is_zero()  # every product cancels
    assert ring.dot([(p, q)]) == p * q
    with pytest.raises(ValueError, match=" vs "):
        ring.dot([(p, rn_ring(2, 2, **flags).one())])


def _twin(p):
    """An equal polynomial that is another object: a pair (p, twin) runs the
    kernel's generic pair loop, the oracle of its square route."""
    twin = GradedPolynomial(p.ring, dict(p.terms))
    assert twin == p and twin is not p
    return twin


@pytest.mark.parametrize("form", ["Z2", "Q", "F2"])
def test_a_square_matches_the_pair_loop(form):
    flags = {"Z2": {}, "Q": {"rational": True}, "F2": {"mod2": True}}[form]
    ring = rn_ring(2, 3, **flags)
    rng = random.Random(71)
    dens = (1, 2, 3, 4, 9) if form == "Q" else (1, 3, 5)

    def rand(nterms, den=None):
        terms = {}
        for _ in range(nterms):
            mono = rng.choice(ring.monomials_of_degree(rng.choice((2, 4, 6))))
            terms[mono] = QQ(rng.randint(-6, 6), den or rng.choice(dens))
        return GradedPolynomial(ring, terms)

    for _ in range(25):
        p = rand(rng.randint(0, 9))
        assert ring.dot([(p, p)]) == ring.dot([(p, _twin(p))])
        assert p * p == _twin(p) * p
        assert p + p == p + _twin(p)  # the doubling a square's cross terms use
        assert (p + p).den == (p + _twin(p)).den
        assert ring.dot([(p, p), (p, -p)]).is_zero()  # the square cancels against a pair
        pairs = [(rand(3), rand(3)) for _ in range(2)] + [(q, q) for q in (rand(4), rand(5))]
        rng.shuffle(pairs)
        assert ring.dot(pairs) == ring.dot([(a, _twin(b)) if a is b else (a, b) for a, b in pairs])
    # denominator products 3, d^2, 1 and 9 (d = 2, or 5 in Z_(2)): the sum
    # moves to the lcm at the first and the last square, and every square
    # is scaled to the common denominator
    p, q, r = rand(4, 2 if form == "Q" else 5), rand(4, 3), rand(4, 1)
    pairs = [(q, r), (p, p), (r, r), (q, q)]
    assert ring.dot(pairs) == ring.dot([(q, r), (p, _twin(p)), (r, _twin(r)), (q, _twin(q))])
    assert ring.dot(pairs) == GradedPolynomial(
        ring, _plain_add(_plain_mul(_plain(q), _plain(r)), _plain_add(
            _plain_mul(_plain(p), _plain(p)),
            _plain_add(_plain_mul(_plain(r), _plain(r)), _plain_mul(_plain(q), _plain(q))))))


@pytest.mark.parametrize("form", ["Z2", "Q", "F2"])
def test_a_square_past_the_packing_bound_raises(form):
    flags = {"Z2": {}, "Q": {"rational": True}, "F2": {"mod2": True}}[form]
    ring = rn_ring(2, 2, **flags)
    t1, t2 = ring.var(T(1, 0)), ring.var(T(2, 0))
    # t1 has the least degree, 2: t1^1024 is the first power past the bound,
    # at degree 2^11, the least degree at which the guard bits are read
    low = t1 ** 511 + t2.scalar_mul(QQ(1, 3))
    assert max((low * low).num) >> ring.dshift == 2044
    assert low * low == low * _twin(low)
    mid = t2 ** 300 + t1  # t2^600 has degree 3600: the guard bits are read, and clear
    assert ring.decode(max((mid * mid).num))[2] == 600
    assert mid * mid == mid * _twin(mid)
    high = t1 ** 512 + t2
    for a, b in ((high, high), (high, _twin(high))):
        with pytest.raises(ValueError, match="packing bound 1023"):
            ring.dot([(t1, t1), (a, b)])


@pytest.mark.parametrize("rational", [True, False], ids=["RnQ", "Rn"])
def test_integral_fraction_and_int_build_one_polynomial(rational):
    ring = rn_ring(2, 3, rational=rational)
    m = ring.mono_of(T(2, 1)) + ring.mono_of(T(1, 0))
    from_qq = GradedPolynomial(ring, {m: QQ(3)})
    from_int = GradedPolynomial(ring, {m: 3})
    assert from_qq.terms == {m: 3} and type(from_qq.terms[m]) is int
    assert from_qq == from_int and hash(from_qq) == hash(from_int)
    assert poly_to_json(from_qq) == poly_to_json(from_int)
    assert poly_to_json(from_qq)["terms"][0]["coeff"] == "3"
    assert ring.from_rational(QQ(6, 2)).terms == {0: 3}


F8 = finite_field(3)


@pytest.mark.parametrize(
    "make,cache,key",
    [
        (lambda: rn_ring(3, 6), poly_core._RING_CACHE, ("Rn", 3, None, 6, False, False)),
        (lambda: rn_context(2, 3), equivariant_ring._CONTEXTS, (2, 3, None)),
        (lambda: lt_context(2, 1, d=3), lubin_tate._LT_CONTEXTS, (2, 1, F8, 8, 6)),
    ],
    ids=["rn_ring", "rn_context", "lt_context"],
)
def test_interning_is_atomic_under_threads(make, cache, key):
    """Racing constructors of one key on an empty cache get one object."""
    saved = cache.pop(key, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    split = 0
    try:
        for _ in range(1000):
            cache.pop(key, None)
            barrier = threading.Barrier(4)
            got = []

            def work():
                barrier.wait(timeout=10)
                got.append(make())

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 4
            split += len({id(r) for r in got}) > 1
    finally:
        sys.setswitchinterval(interval)
        cache.pop(key, None)
        if saved is not None:
            cache[key] = saved
    assert split == 0, f"{split} of 1000 trials interned two objects for one key"


# ---- the common-denominator form against the Fraction route ----------------------

# 2^a, and the odd parts of the log_from_v denominators 2 - 2^{2^k} (k = 2, 3)
_DENS = (1, 2, 4, 8, 7, 14, 127, 254)


def _random_plain(ring, rng, nterms=6, dens=_DENS):
    """A map monomial -> Fraction on the first few degrees of the ring."""
    out = {}
    for _ in range(nterms):
        mono = rng.choice(ring.monomials_of_degree(rng.choice((2, 4, 6))))
        out[mono] = Fraction(rng.randint(-9, 9), rng.choice(dens))
    return _clean(out)


def _plain_json(ring, d):
    """poly_to_json of the Fraction map, from its definition."""
    terms = []
    for mono in sorted(d, key=lambda m: (-_degree_by_decode(ring, m), m)):
        c = d[mono]
        coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        monomial = {v.name: e for v, e in zip(ring.variables, ring.decode(mono)) if e}
        terms.append({"monomial": monomial, "coeff": coeff})
    return json.dumps({"ring": ring.descriptor(), "terms": terms}, sort_keys=True)


def _assert_matches(got, want):
    """got is the polynomial of the Fraction map want, in its one stored form."""
    ring = got.ring
    assert _plain(got) == want
    assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1
    if all(c.denominator == 1 for c in want.values()):
        assert got.den == 1 and got.terms is got.num  # the raw dict, no copy
    built = GradedPolynomial(ring, want)
    assert got == built and hash(got) == hash(built)
    assert json.dumps(poly_to_json(got), sort_keys=True) == _plain_json(ring, want)


@pytest.mark.parametrize("n", [2, 3], ids=["R2Q", "R3Q"])
def test_common_denominator_form_matches_the_fraction_route(n):
    ring = rn_ring(n, 2, rational=True)
    rng = random.Random(97 + n)
    for _ in range(12):
        a, b = _random_plain(ring, rng), _random_plain(ring, rng)
        p, q = GradedPolynomial(ring, a), GradedPolynomial(ring, b)
        _assert_matches(p, a)
        neg_a = {m: -c for m, c in a.items()}
        whole = {m: Fraction(rng.randint(-5, 5)) for m in rng.sample(sorted(a), min(2, len(a)))}
        to_whole = _plain_add(_clean(whole), neg_a)  # p + this is integral
        pairs = [
            (GradedPolynomial(ring, _random_plain(ring, rng, 3)),
             GradedPolynomial(ring, _random_plain(ring, rng, 3)))
            for _ in range(rng.randint(2, 5))
        ]
        want_dot = {}
        for x, y in pairs:
            want_dot = _plain_add(want_dot, _plain_mul(_plain(x), _plain(y)))
        unit = Fraction(rng.choice((3, -5)), rng.choice((2, 7, 254)))
        want_orbit = {}
        for r in range(1 << (n - 1)):
            want_orbit = _plain_add(want_orbit, _plain_gamma(ring, a, r))
        cases = [
            (ring.dot(pairs), want_dot),
            (p * q, _plain_mul(a, b)),
            (p + q, _plain_add(a, b)),
            (p + (-p), {}),
            (p + GradedPolynomial(ring, to_whole), _clean(whole)),
            (p - q, _plain_add(a, {m: -c for m, c in b.items()})),
            (-p, neg_a),
            (p.scalar_mul(unit), {m: c * unit for m, c in a.items()}),
            (p.scalar_mul(unit).scalar_mul(1 / unit), a),
            (p.scalar_mul(2 * 127), {m: c * 254 for m, c in a.items()}),
            (orbit_sum(p), want_orbit),
        ]
        cases += [(gamma_act(p, r), _plain_gamma(ring, a, r)) for r in range(1, 1 << n)]
        for got, want in cases:
            _assert_matches(got, want)
        # back to Z_(2) and down to F_2 exactly when every denominator is odd
        for d in (a, _plain_add(a, b), {m: c * 8 for m, c in a.items()}):
            x = GradedPolynomial(ring, d)
            if all(c.denominator % 2 for c in d.values()):
                z = from_rational_ring(x)
                assert z == GradedPolynomial(z.ring, d) and to_rational_ring(z) == x
                assert reduce_mod2(x).num == {m: 1 for m, c in d.items() if c.numerator % 2}
            else:
                with pytest.raises(ValueError, match="is not 2-locally integral in"):
                    from_rational_ring(x)
                with pytest.raises(ValueError, match="has even denominator"):
                    reduce_mod2(x)


def test_scalars_compare_as_constants():
    for ring in (R2, R2Q, rn_ring(2, 2, mod2=True)):
        one = ring.one()
        for c in (1, QQ(1), QQ(3, 3)):
            assert one == c and hash(one) == hash(c)
        assert ring.zero() == 0 and ring.zero() == QQ(0) and hash(ring.zero()) == hash(0)
        assert one != QQ(1, 2) and ring.var(T(1, 0)) != 1
    half = R2Q.from_rational(QQ(1, 2))
    assert half == QQ(1, 2) and hash(half) == hash(QQ(1, 2))
    assert half != 1 and half != QQ(1, 4)
    third = R2.from_rational(QQ(-2, 3))  # 2-local, so it lives in R_2 too
    assert third == QQ(-2, 3) and hash(third) == hash(QQ(-2, 3))
    # equal polynomials hash alike, whichever coefficients built them
    t = R2Q.var(T(1, 0)) + R2Q.var(T(2, 1))
    built = GradedPolynomial(R2Q, {m: Fraction(c, 4) for m, c in t.terms.items()})
    summed = t.scalar_mul(QQ(1, 2)) - t.scalar_mul(QQ(1, 4))
    assert built == summed and hash(built) == hash(summed)
    assert t.scalar_mul(QQ(1, 4)).scalar_mul(4) == t and t.scalar_mul(QQ(1, 4)).den == 4
    assert hash(t) == hash(GradedPolynomial(R2Q, {m: QQ(c) for m, c in t.terms.items()}))


def test_terms_view_under_threads():
    """Threads reading .terms of shared cached polynomials, an integral law
    coefficient and a logarithm coefficient over 2^k, see the serial dicts."""
    ctx = rn_context(2, 3)
    shared = [c for _, c in sorted(rn_law(ctx, 8).two_var.coeffs.items())[:6]]
    shared += equivariant_ring.rn_log(ctx)
    assert any(p.den > 1 for p in shared) and any(p.den == 1 for p in shared)
    serial = [dict(p.terms) for p in shared]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            barrier = threading.Barrier(4)
            got = {}

            def work(slot):
                barrier.wait(timeout=10)
                got[slot] = [dict(p.terms) for _ in range(20) for p in shared][-len(shared):]

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == {slot: serial for slot in range(4)}
    finally:
        sys.setswitchinterval(interval)
