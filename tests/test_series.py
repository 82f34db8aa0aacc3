import random

import pytest

from fgl_forge import series_fgl
from fgl_forge.coefficients import QQ, WittElement, rational_mod2, two_valuation
from fgl_forge.errors import ConsistencyFailure
from fgl_forge.poly_core import (
    T,
    V,
    GradedPolynomial,
    bp_ring,
    from_rational_ring,
    gamma_act,
    reduce_mod2,
    rn_ring,
)
from fgl_forge.series_fgl import (
    FGL,
    StrictIso,
    TruncatedSeries1,
    TruncatedSeries2,
    additive_fgl,
    compose_iso,
    conjugate_fgl,
    fgl_apply,
    fgl_from_log,
    formal_inverse,
    formal_sum,
    formal_sum_via_log,
    height_of_residue_fgl,
    log_from_v,
    log_series,
    series_exp,
    solve_series,
    strict_iso_from_t,
    t_from_strict_iso,
    two_series,
    two_series_from_log,
    v_from_log,
)

from laws import rn_law

RQ1 = bp_ring(1, rational=True)


def const_series(ring, pairs, cutoff):
    return TruncatedSeries1(ring, {e: ring.from_rational(c) for e, c in pairs.items()}, cutoff)


# ---- exp/log -------------------------------------------------------------------

def test_series_exp_identity():
    x = TruncatedSeries1.identity(RQ1, 6)
    assert series_exp(x) == x


def test_series_exp_catalan_oracle():
    # compositional inverse of x + x^2: coefficients 1, -1, 2, -5, 14 (signed Catalan)
    f = const_series(RQ1, {1: 1, 2: 1}, 5)
    g = series_exp(f)
    expected = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14}
    for e, c in expected.items():
        assert g.coefficient(e) == RQ1.from_rational(c)


def test_series_exp_round_trip_random():
    # 7 and 13 are not powers of two, and every order of the log is present
    rng = random.Random(2)
    for cutoff in (7, 8, 13):
        for _ in range(5):
            coeffs = {1: 1}
            for e in range(2, cutoff + 1):
                coeffs[e] = QQ(rng.randint(-5, 5), rng.choice([1, 2, 3]))
            f = const_series(RQ1, coeffs, cutoff)
            g = series_exp(f)
            assert f.compose(g) == TruncatedSeries1.identity(RQ1, cutoff)
            assert g.compose(f) == TruncatedSeries1.identity(RQ1, cutoff)


def test_series_exp_round_trip_over_integral_ring():
    # _pullback_fgl reverts series over Z_(2)[v]; no step may leave that ring
    ring = bp_ring(2)
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    rng = random.Random(3)
    coeffs = {1: ring.one()}
    for e in range(2, 11):
        coeffs[e] = (v1 ** rng.randrange(3) * v2 ** rng.randrange(2)).scalar_mul(
            QQ(rng.randint(-4, 4), rng.choice([1, 3, 5]))
        )
    f = TruncatedSeries1(ring, coeffs, 10)
    g = series_exp(f)
    assert g.ring is ring
    assert f.compose(g) == TruncatedSeries1.identity(ring, 10)
    assert g.compose(f) == TruncatedSeries1.identity(ring, 10)


def _random_strict_series(ring, cutoff, rng, coeff):
    """x + a seeded random coefficient at every order 2..cutoff, most of them
    nonzero, so the power chain of solve_series multiplies as well as squares."""
    coeffs = {1: ring.one()}
    for e in range(2, cutoff + 1):
        if rng.random() < 0.8:
            coeffs[e] = coeff(rng)
    return TruncatedSeries1(ring, coeffs, cutoff)


def test_solve_series_inverts_the_log_over_the_rationals():
    rng = random.Random(5)
    for cutoff in (1, 2, 7, 12):
        for _ in range(3):
            L = _random_strict_series(
                RQ1, cutoff, rng, lambda r: RQ1.from_rational(QQ(r.randint(-5, 5), r.choice([1, 2, 3])))
            )
            S = _random_strict_series(
                RQ1, cutoff, rng, lambda r: RQ1.from_rational(QQ(r.randint(-4, 4), r.choice([1, 5])))
            )
            for rhs in (S, S.scale(-3), S - TruncatedSeries1.identity(RQ1, cutoff), -L):
                g = solve_series(L, rhs)
                assert L.compose(g) == rhs


def test_solve_series_inverts_the_log_over_an_integral_ring():
    # no step divides, so an integral log and right-hand side give an integral g
    ring = bp_ring(2)
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    rng = random.Random(6)

    def coeff(r):
        return (v1 ** r.randrange(3) * v2 ** r.randrange(2)).scalar_mul(r.randint(-3, 3))

    for cutoff in (3, 9, 11):
        L = _random_strict_series(ring, cutoff, rng, coeff)
        S = _random_strict_series(ring, cutoff, rng, coeff) + TruncatedSeries1.monomial(ring, v1, 1, cutoff)
        g = solve_series(L, S)
        assert g.ring is ring
        assert L.compose(g) == S


def test_solve_series_rejects():
    f = const_series(RQ1, {1: 2, 2: 1}, 5)
    with pytest.raises(ValueError):
        solve_series(f, TruncatedSeries1.identity(RQ1, 5))
    with pytest.raises(ValueError, match="series from different contexts"):
        solve_series(TruncatedSeries1.identity(RQ1, 5), TruncatedSeries1.identity(RQ1, 4))


def test_log_from_v_frozen():
    ls = log_from_v(2)
    ring = ls[0].ring
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    assert ls[0] == v1.scalar_mul(QQ(-1, 2))
    assert ls[1] == (v1**3).scalar_mul(QQ(1, 28)) - v2.scalar_mul(QQ(1, 14))


def test_lkvk_recursion_exact():
    k_max = 4
    ls = log_from_v(k_max)
    ring = ls[0].ring
    for k in range(1, k_max + 1):
        lhs = ls[k - 1].scalar_mul(2)
        rhs = ls[k - 1].scalar_mul(QQ(2) ** (1 << k)) + ring.var(V(k))
        for j in range(1, k):
            rhs = rhs + ls[k - j - 1] * ring.var(V(j)) ** (1 << (k - j))
        assert lhs == rhs


def test_l_denominator_exactly_2k():
    for k, lk in enumerate(log_from_v(4), start=1):
        scaled = lk.scalar_mul(QQ(2) ** k)
        # 2^k l_k is integral and nonzero mod 2
        integral = all(two_valuation(c) >= 0 for c in scaled.terms.values())
        assert integral
        assert any(rational_mod2(c) for c in scaled.terms.values())
        # 2^{k-1} l_k is not integral
        assert any(two_valuation(c) < 0 for c in lk.scalar_mul(QQ(2) ** (k - 1)).terms.values())


def test_v_from_log_round_trip_and_zero():
    # the outputs are certified: they land in the integral ring Z_(2)[v]
    integral = bp_ring(3)
    for k, vk in enumerate(v_from_log(log_from_v(3)), start=1):
        assert vk == integral.var(V(k))
    assert v_from_log([]) == []


def test_v_from_log_non_integral(monkeypatch):
    for l1 in (RQ1.var(V(1)), rn_ring(2, 1, rational=True).var(T(1))):
        with pytest.raises(ValueError, match="coefficient at v_1 is not 2-locally integral: ") as info:
            v_from_log([l1.scalar_mul(QQ(1, 4))])
        assert "is not 2-locally integral in" in str(info.value.__cause__)
    # only the ValueError of from_rational_ring is reworded; other failures propagate
    def broken(p):
        raise RuntimeError("broken pipeline")

    monkeypatch.setattr(series_fgl, "from_rational_ring", broken)
    with pytest.raises(RuntimeError):
        v_from_log(log_from_v(1))


# ---- law construction ------------------------------------------------------------

def test_fgl_from_log_additive():
    F = fgl_from_log([], 6)
    assert F.coefficient(1, 1).is_zero()
    assert two_series(F).coefficient(1) == F.ring.from_rational(2)


def test_fgl_from_log_order3_oracle():
    F = fgl_from_log(log_from_v(1), 3)
    v1 = F.ring.var(V(1))
    assert F.coefficient(1, 1) == v1  # F = x + y + v1 xy + O(deg 3)
    assert F.coefficient(2, 0).is_zero()


def test_fgl_integrality_window():
    # integral exactly while cutoff <= 2^(k_max+1) - 1; the next order needs
    # l_{k+1}.  The law comes over Q[v]; from_rational_ring is the check.
    F = conjugate_fgl(fgl_from_log(log_from_v(2), 7), from_rational_ring)
    assert F.ring is bp_ring(2)
    with pytest.raises(ValueError, match="is not 2-locally integral in"):
        conjugate_fgl(fgl_from_log(log_from_v(1), 4), from_rational_ring)


def test_homogeneity_of_coefficients():
    F = fgl_from_log(log_from_v(2), 7)
    for (e1, e2), c in F.two_var.coeffs.items():
        assert c.is_homogeneous()
        if not c.is_zero() and (e1 + e2) > 1:
            assert c.degree == 2 * (e1 + e2 - 1)


def _mul3(A, B, cutoff):
    out = {}
    for (a1, a2, a3), c1 in A.items():
        for (b1, b2, b3), c2 in B.items():
            if a1 + a2 + a3 + b1 + b2 + b3 > cutoff:
                continue
            k = (a1 + b1, a2 + b2, a3 + b3)
            c = c1 * c2
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _apply3(F, A, B, cutoff):
    # F(A, B) for three-variable series dicts A, B (independent oracle helper)
    out = {}

    def add_into(D, scale=None):
        for k, c in D.items():
            cc = c if scale is None else c * scale
            s = out.get(k)
            s = cc if s is None else s + cc
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s

    add_into(A)
    add_into(B)
    powsA, powsB = {1: A}, {1: B}

    def pw(table, base, e):
        if e not in table:
            table[e] = _mul3(pw(table, base, e - 1), base, cutoff)
        return table[e]

    for (e1, e2), c in F.two_var.coeffs.items():
        if e1 >= 1 and e2 >= 1:
            add_into(_mul3(pw(powsA, A, e1), pw(powsB, B, e2), cutoff), c)
    return out


def test_associativity_three_variables():
    # direct F(F(x,y),z) == F(x,F(y,z)) on the universal law, small window
    F = fgl_from_log(log_from_v(2), 7)
    ring = F.ring
    one = ring.one()
    X = {(1, 0, 0): one}
    Y = {(0, 1, 0): one}
    Z = {(0, 0, 1): one}
    XY = _apply3(F, X, Y, 7)
    YZ = _apply3(F, Y, Z, 7)
    assert _apply3(F, XY, Z, 7) == _apply3(F, X, YZ, 7)


def test_log_criterion_for_associativity():
    # log(F(x,y)) = log(x) + log(y): the torsion-free associativity criterion
    ls = log_from_v(3)
    F = fgl_from_log(ls, 15)
    ring = F.ring
    L = log_series(ls, ring, 15)
    lhs = TruncatedSeries2(ring, {}, 15)
    pw = None
    for e in range(1, 16):
        pw = F.two_var if pw is None else pw * F.two_var
        if e in L.coeffs:
            lhs = lhs + pw.scale(L.coeffs[e])
    rhs = TruncatedSeries2(ring, {(e, 0): c for e, c in L.coeffs.items()}, 15) + (
        TruncatedSeries2(ring, {(0, e): c for e, c in L.coeffs.items()}, 15)
    )
    assert lhs == rhs


# ---- series attached to a law ------------------------------------------------------

def test_two_series_shapes():
    R1 = bp_ring(1)
    v1 = R1.var(V(1))
    mult = FGL(TruncatedSeries2(R1, {(1, 0): R1.one(), (0, 1): R1.one(), (1, 1): v1}, 6))
    tw = two_series(mult)
    assert tw.coefficient(1) == R1.from_rational(2)
    assert tw.coefficient(2) == v1
    add = additive_fgl(R1, 6)
    assert two_series(add).coeffs == {1: R1.from_rational(2)}


def _diagonal_sum(F):
    """Oracle: F(x, x) as the sum of the law's coefficients by total degree."""
    out = {}
    for (e1, e2), c in F.two_var.coeffs.items():
        out[e1 + e2] = out[e1 + e2] + c if e1 + e2 in out else c
    return TruncatedSeries1(F.ring, out, F.cutoff)


def test_two_series_is_the_diagonal_sum():
    R1 = bp_ring(1)
    v1 = R1.var(V(1))
    laws = [additive_fgl(R1, 6),
            FGL(TruncatedSeries2(R1, {(1, 0): R1.one(), (0, 1): R1.one(), (1, 1): v1}, 6))]
    for k, cutoff in ((2, 7), (3, 8)):
        F = fgl_from_log(log_from_v(k), cutoff)
        integral = conjugate_fgl(F, from_rational_ring)
        laws += [F, integral, conjugate_fgl(integral, reduce_mod2)]
    for F in laws:
        assert two_series(F) == _diagonal_sum(F)


def test_araki_two_series_identity():
    for k, cutoff in ((2, 7), (2, 4), (3, 8)):
        ls = log_from_v(k)
        F = conjugate_fgl(fgl_from_log(ls, cutoff), from_rational_ring)  # over Z_(2)[v]
        ring = F.ring
        araki_terms = [(2, 1)] + [(ring.var(V(i)), 1 << i) for i in range(1, k + 1)]
        assert two_series(F) == formal_sum(F, araki_terms)
        assert two_series_from_log(ls, cutoff) == two_series(F)  # exp(2 log x) route


def test_formal_sum_basics():
    R1 = bp_ring(1)
    add = additive_fgl(R1, 8)
    v1 = R1.var(V(1))
    single = formal_sum(add, [(v1, 3)])
    assert single.coeffs == {3: v1}
    plain = formal_sum(add, [(1, 1), (v1, 2), (v1**2, 3)])
    assert plain.coefficient(1) == R1.one()
    assert plain.coefficient(2) == v1
    assert plain.coefficient(3) == v1**2


def test_formal_sum_order_independence():
    F = fgl_from_log(log_from_v(2), 7)
    ring = F.ring
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    terms = [(v1, 2), (3, 1), (v2, 4)]
    rng = random.Random(9)
    ref = formal_sum(F, terms)
    for _ in range(3):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert formal_sum(F, shuffled) == ref


def test_formal_sum_via_log_agrees():
    F = fgl_from_log(log_from_v(2), 7)
    ring = F.ring
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    L = log_series(log_from_v(2), ring, 7)
    for terms in ([(2, 1), (v1, 2), (v2, 4)], [(v1, 3)], [(1, 1), (v2, 8)], []):
        assert formal_sum_via_log(L, terms) == formal_sum(F, terms)
    # and over R_2 (x) Q, with the logarithm of the context's law
    from fgl_forge.equivariant_ring import RnContext, rn_log

    ctx = RnContext(2, 2)
    G = rn_law(ctx, 7)
    t1, t2 = ctx.generator(1, rational=True), ctx.generator(2, rational=True)
    terms = [(1, 1), (gamma_act(t1), 2), (t1 * t2, 6), (QQ(1, 3), 3)]
    L = log_series(rn_log(ctx), ctx.ring_q, 7)
    assert formal_sum_via_log(L, terms) == formal_sum(G, terms)


def test_formal_inverse_oracles():
    R1 = bp_ring(1)
    assert formal_inverse(additive_fgl(R1, 5)).coeffs == {1: -R1.one()}
    v1 = R1.var(V(1))
    mult = FGL(TruncatedSeries2(R1, {(1, 0): R1.one(), (0, 1): R1.one(), (1, 1): v1}, 5))
    inv = formal_inverse(mult)
    # -x + v1 x^2 - v1^2 x^3 + v1^3 x^4 - ...
    assert inv.coefficient(1) == -R1.one()
    assert inv.coefficient(2) == v1
    assert inv.coefficient(3) == -(v1**2)
    assert inv.coefficient(4) == v1**3
    # F(x, inv(x)) = 0 for the universal law as well
    F = fgl_from_log(log_from_v(2), 7)
    x = TruncatedSeries1.identity(F.ring, 7)
    assert fgl_apply(F, x, formal_inverse(F)).is_zero()


def _random_law(ring, cutoff, seed):
    """x + y + a symmetric sum of seeded random mixed terms over bp_ring(2)."""
    rng = random.Random(seed)
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    coeffs = {(1, 0): ring.one(), (0, 1): ring.one()}
    for j in range(1, cutoff):
        for k in range(j, cutoff - j + 1):
            if rng.random() < 0.3:
                continue
            c = (v1 ** rng.randrange(3) * v2 ** rng.randrange(2)).scalar_mul(
                rng.randint(-3, 3)
            )
            coeffs[(j, k)] = coeffs[(k, j)] = c
    return FGL(TruncatedSeries2(ring, coeffs, cutoff))


def test_formal_inverse_is_an_involution():
    """F(x, y) = F(y, x), so x is the inverse of i(x): i(i(x)) = x, for laws
    from a logarithm and for random laws with no logarithm over Z."""
    from fgl_forge.equivariant_ring import RnContext

    R1 = bp_ring(1)
    v1 = R1.var(V(1))
    laws = [additive_fgl(R1, 9), additive_fgl(RQ1, 1)]
    for X in (1, 2, 9):
        laws.append(FGL(TruncatedSeries2(
            R1, {(1, 0): R1.one(), (0, 1): R1.one(), (1, 1): v1}, X
        )))
    laws += [fgl_from_log(log_from_v(k), X) for k, X in ((2, 7), (3, 15))]
    laws += [fgl_from_log(log_from_v(2), X) for X in (1, 2)]
    laws += [rn_law(RnContext(2, 3), 10), rn_law(RnContext(3, 2), 7)]
    laws += [_random_law(bp_ring(2), X, seed) for X, seed in ((2, 0), (9, 1), (12, 2))]
    for F in laws:
        inv = formal_inverse(F)
        assert inv.compose(inv) == TruncatedSeries1.identity(F.ring, F.cutoff), F


def test_formal_inverse_certificate_fires(monkeypatch):
    F = fgl_from_log(log_from_v(2), 7)
    formal_inverse(F)
    bogus = TruncatedSeries1.monomial(F.ring, 1, F.cutoff, F.cutoff)
    monkeypatch.setattr(series_fgl, "fgl_apply", lambda *args: bogus)
    with pytest.raises(ConsistencyFailure):
        formal_inverse(F)


# ---- the fused kernels -----------------------------------------------------------

def _mul_pairwise(a, b):
    """Oracle: the truncated series product, adding one coefficient product at a time."""
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e <= a.cutoff:
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
    return TruncatedSeries1(a.ring, out, a.cutoff)  # drops the sums that cancel


def _random_poly_series(ring, cutoff, rng, dens):
    v1, v2 = ring.var(V(1)), ring.var(V(2))
    monos = [ring.one(), v1, v2, v1 * v1, v1 * v2, v2**2]
    coeffs = {}
    for e in range(1, cutoff + 1):
        if rng.random() < 0.75:
            c = ring.zero()
            for m in rng.sample(monos, 3):
                c = c + m.scalar_mul(QQ(rng.randint(-4, 4), rng.choice(dens)))
            coeffs[e] = c
    return TruncatedSeries1(ring, coeffs, cutoff)


@pytest.mark.parametrize("rational", [False, True], ids=["Z2", "Q"])
def test_fused_series_product_matches_the_pairwise_one(rational):
    ring = bp_ring(2, rational=rational)
    dens = (1, 2, 3, 4) if rational else (1, 3, 5)
    rng = random.Random(11)
    for cutoff in (1, 4, 9):
        for _ in range(6):
            a = _random_poly_series(ring, cutoff, rng, dens)
            b = _random_poly_series(ring, cutoff, rng, dens)
            assert a * b == _mul_pairwise(a, b)
            assert (a + b) * (a - b) == _mul_pairwise(a + b, a - b)
            assert (a * (b - b)).is_zero()
            for c in (a * b).coeffs.values():
                for q in c.terms.values():
                    assert type(q) is (int if q.denominator == 1 else QQ)


def test_generic_series_product_on_local_and_residue_coefficients():
    from fgl_forge.lubin_tate import lt_context

    ctx = lt_context(2, 2, d=2)
    K = ctx.residue_ring
    rng = random.Random(5)
    gens = [ctx.tau(1, 0), ctx.tau(1, 1), ctx.tau(2, 0), ctx.u_pow(1), ctx.from_int(3)]
    omega = ctx.spec.omega

    def lt_series():
        coeffs = {}
        for e in range(1, 7):
            c = ctx.zero()
            for g in rng.sample(gens, 2):
                c = c + g * ctx.from_int(rng.randint(-3, 3))
            coeffs[e] = c
        return TruncatedSeries1(ctx, coeffs, 6)

    def k_series():
        coeffs = {}
        for e in range(1, 7):
            c = K.zero()
            for _ in range(2):
                unit = WittElement(K.spec, K.precision, (omega ** rng.randrange(3)).coeffs)
                c = c + K.u_pow(rng.randint(-2, 2)).scale(unit)
            coeffs[e] = c
        return TruncatedSeries1(K, coeffs, 6)

    for make in (lt_series, k_series):
        for _ in range(4):
            a, b = make(), make()
            assert a * b == _mul_pairwise(a, b)


def _with_copied_coefficients(s):
    """s with every coefficient an equal copy, so s * copy runs the generic
    product loop, and the kernel the generic pair loop."""
    zero = s.ring.zero()
    copy = TruncatedSeries1(s.ring, {e: c + zero for e, c in s.coeffs.items()}, s.cutoff)
    assert copy == s and all(copy.coeffs[e] is not c for e, c in s.coeffs.items())
    return copy


def _compose_pairwise(f, g):
    """Oracle: f(g) = sum f_j g^j, every power by _mul_pairwise."""
    out, pw = TruncatedSeries1.zero(f.ring, f.cutoff), g
    for j in range(1, f.cutoff + 1):
        if j in f.coeffs:
            out = out + pw.scale(f.coeffs[j])
        pw = _mul_pairwise(pw, g)
    return out


def _square_route_rings():
    """(ring, coefficient sampler): R_2 (x) Q with denominators, R_2 mod 2, and
    the Lubin-Tate ring and its residue field, whose dot adds one product at
    a time."""
    from fgl_forge.lubin_tate import lt_context

    rq, r2 = rn_ring(2, 3, rational=True), rn_ring(2, 3, mod2=True)
    ctx = lt_context(2, 2, d=2)
    K = ctx.residue_ring

    def poly(ring, dens):
        def sample(rng):
            c = ring.zero()
            for _ in range(3):
                mono = rng.choice(ring.monomials_of_degree(rng.choice((0, 2, 4))))
                c = c + GradedPolynomial(ring, {mono: QQ(rng.randint(-4, 4), rng.choice(dens))})
            return c
        return sample

    gens = [ctx.tau(1, 0), ctx.tau(1, 1), ctx.tau(2, 0), ctx.u_pow(1), ctx.from_int(3)]

    def local(rng):
        c = ctx.zero()
        for g in rng.sample(gens, 2):
            c = c + g * ctx.from_int(rng.randint(-3, 3))
        return c

    def residue(rng):
        unit = WittElement(K.spec, K.precision, (K.spec.omega ** rng.randrange(3)).coeffs)
        return K.u_pow(rng.randint(-2, 2)).scale(unit) + K.from_int(rng.randint(0, 1))

    return {"RnQ": (rq, poly(rq, (1, 2, 3, 4))), "F2": (r2, poly(r2, (1,))),
            "LT": (ctx, local), "residue": (K, residue)}


@pytest.mark.parametrize("form", ["RnQ", "F2", "LT", "residue"])
def test_a_series_square_matches_the_product_loop(form):
    ring, coeff = _square_route_rings()[form]
    rng = random.Random(17)
    for cutoff in (1, 2, 7, 12):
        for _ in range(3):
            a = TruncatedSeries1(ring, {e: coeff(rng) for e in range(1, cutoff + 1)
                                        if rng.random() < 0.8}, cutoff)
            assert a * a == a * _with_copied_coefficients(a) == _mul_pairwise(a, a)


@pytest.mark.parametrize("form", ["RnQ", "F2", "LT", "residue"])
def test_solve_series_and_series_exp_pass_their_certificates(form):
    # the squared rows pair each unordered pair of orders once; the
    # certificates are composed by the pairwise product
    ring, coeff = _square_route_rings()[form]
    rng = random.Random(23)
    for cutoff in (1, 4, 9):
        L = _random_strict_series(ring, cutoff, rng, coeff)
        two_typical = TruncatedSeries1(
            ring, {e: c for e, c in L.coeffs.items() if not e & (e - 1)}, cutoff)
        for log in (L, two_typical):
            S = _random_strict_series(ring, cutoff, rng, coeff)
            g = solve_series(log, S)
            assert _compose_pairwise(log, g) == log.compose(g) == S
            exp = series_exp(log)  # raises unless log(exp(x)) = x
            assert _compose_pairwise(log, exp) == TruncatedSeries1.identity(ring, cutoff)


def _mul2_pairwise(a, b):
    """Oracle: the truncated two-variable product, one coefficient product and
    one sum at a time."""
    out = {}
    for (a1, a2), c1 in a.coeffs.items():
        for (b1, b2), c2 in b.coeffs.items():
            if a1 + a2 + b1 + b2 <= a.cutoff:
                k = (a1 + b1, a2 + b2)
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
    return TruncatedSeries2(a.ring, out, a.cutoff)  # drops the sums that cancel


def _random_poly_series2(ring, cutoff, rng, dens):
    one = _random_poly_series(ring, cutoff, rng, dens)
    coeffs = {}
    for e, c in one.coeffs.items():
        e1 = rng.randint(0, e)
        coeffs[(e1, e - e1)] = c
    return TruncatedSeries2(ring, coeffs, cutoff)


@pytest.mark.parametrize("rational", [False, True], ids=["Z2", "Q"])
def test_grouped_two_variable_product_matches_the_pairwise_one(rational):
    ring = bp_ring(2, rational=rational)
    dens = (1, 2, 4, 7, 254) if rational else (1, 3, 7)
    rng = random.Random(29)
    for cutoff in (1, 4, 8):
        for _ in range(6):
            a = _random_poly_series2(ring, cutoff, rng, dens)
            b = _random_poly_series2(ring, cutoff, rng, dens)
            assert a * b == _mul2_pairwise(a, b)
            assert (a + b) * (a - b) == _mul2_pairwise(a + b, a - b)
            assert (a * (b - b)).is_zero()


def test_compose_takes_a_two_variable_inner_and_the_law_checks_commutativity():
    """compose takes an inner series of either kind, needs no symmetric inner,
    and FGL rejects the non-commutative law it gives from a lopsided one.
    The first composite is x + v1 x^2 after x + y + v1 x^2 y, by hand to
    order 4."""
    ring = bp_ring(2, rational=True)
    one, v1 = ring.one(), ring.var(V(1))
    L = TruncatedSeries1(ring, {1: one, 2: v1}, 4)
    lopsided = TruncatedSeries2(ring, {(1, 0): one, (0, 1): one, (2, 1): v1}, 4)
    expected = {(1, 0): one, (0, 1): one, (2, 1): v1, (2, 0): v1, (1, 1): v1.scalar_mul(2),
                (0, 2): v1, (3, 1): (v1 * v1).scalar_mul(2), (2, 2): (v1 * v1).scalar_mul(2)}
    assert L.compose(lopsided) == TruncatedSeries2(ring, expected, 4)
    # exp(L(x) + L(y) + v1 x^2 y): unital, but not commutative
    logs = TruncatedSeries2(ring, {(1, 0): one, (0, 1): one, (2, 0): v1, (0, 2): v1}, 4)
    bent = logs + TruncatedSeries2(ring, {(2, 1): v1}, 4)
    with pytest.raises(ValueError, match="commutativity"):
        FGL(series_exp(L).compose(bent))
    assert FGL(series_exp(L).compose(logs)) == fgl_from_log([v1], 4)
    with pytest.raises(ValueError, match="series from different contexts"):
        TruncatedSeries1.identity(ring, 3).compose(lopsided)


@pytest.mark.parametrize("cutoff", [1, 2, 5, 8])
def test_compose_keeps_the_kind_of_the_inner_series(cutoff):
    """outer(inner) against the sum of the powers of inner, for random inner
    series of both kinds, and outer(f(x)) = (outer(f))(x): the one-variable
    composite moved into x is the two-variable composite with f(x)."""
    ring = bp_ring(2, rational=True)
    rng = random.Random(cutoff)
    dens = (1, 2, 3)
    for _ in range(4):
        outer = _random_poly_series(ring, cutoff, rng, dens)
        for inner in (_random_poly_series(ring, cutoff, rng, dens),
                      _random_poly_series2(ring, cutoff, rng, dens)):
            composite = outer.compose(inner)
            assert type(composite) is type(inner)
            by_powers = inner.scale(0)
            for e, pw in enumerate(inner.powers(cutoff)[1:], start=1):
                by_powers = by_powers + pw.scale(outer.coefficient(e))
            assert composite == by_powers
        f = _random_poly_series(ring, cutoff, rng, dens)
        composites = series_fgl._in_x_and_y(outer.compose(f))
        assert tuple(outer.compose(g) for g in series_fgl._in_x_and_y(f)) == composites


def test_apply_rejects_mismatched_series():
    F = fgl_from_log(log_from_v(2), 7)
    v1 = F.ring.var(V(1))
    a = TruncatedSeries1(F.ring, {1: F.ring.one(), 2: v1}, 7)
    short = TruncatedSeries1.monomial(F.ring, v1, 2, 6)
    foreign = TruncatedSeries1.monomial(bp_ring(2), 1, 2, 7)  # the law is over Q[v]
    for left, right in ((a, short), (short, a), (short, TruncatedSeries1.identity(F.ring, 7)),
                        (a, foreign), (foreign, a)):
        with pytest.raises(ValueError, match="series from different contexts|series ring differs from the law's ring"):
            fgl_apply(F, left, right)


# ---- strict isomorphisms ------------------------------------------------------------

def test_strict_iso_identity_and_additive():
    R1 = bp_ring(1)
    add = additive_fgl(R1, 8)
    iso = strict_iso_from_t([], add, source=add)
    assert iso.psi == TruncatedSeries1.identity(R1, 8)
    v1 = R1.var(V(1))
    iso2 = strict_iso_from_t([v1, v1**3], add, source=add)
    assert iso2.psi.coefficient(2) == v1
    assert iso2.psi.coefficient(4) == v1**3
    assert iso2.psi.coefficient(3).is_zero()


def test_t_round_trip():
    F = fgl_from_log(log_from_v(2), 7)
    ring = F.ring
    v1 = ring.var(V(1))
    for t_list in ([v1, ring.from_rational(5)], [ring.zero(), v1**2]):
        iso = strict_iso_from_t(t_list, F)
        back = t_from_strict_iso(iso)
        assert back[: len(t_list)] == t_list
        assert all(t.is_zero() for t in back[len(t_list):])


def test_t_round_trip_property_random():
    F = fgl_from_log(log_from_v(2), 15)
    ring = F.ring
    rng = random.Random(17)
    for _ in range(4):
        t_list = [
            ring.from_rational(QQ(rng.randint(-7, 7), rng.choice([1, 3])))
            for _ in range(3)
        ]
        iso = strict_iso_from_t(t_list, F)
        assert t_from_strict_iso(iso)[:3] == t_list


def test_non_two_typical_detection():
    R1 = bp_ring(1)
    add = additive_fgl(R1, 8)
    psi = TruncatedSeries1(R1, {1: R1.one(), 3: R1.var(V(1))}, 8)
    iso = StrictIso(psi, add, add)
    with pytest.raises(ValueError, match=r"residual at exponents \[3"):
        t_from_strict_iso(iso)


def test_strict_iso_verify_and_pullback():
    F = fgl_from_log(log_from_v(2), 7)
    ring = F.ring
    v1 = ring.var(V(1))
    iso = strict_iso_from_t([v1], F)  # source reconstructed by pullback
    assert iso.verify()
    assert iso.target == F


def test_compose_iso():
    F = fgl_from_log(log_from_v(2), 7)
    ident = StrictIso(TruncatedSeries1.identity(F.ring, F.cutoff), F, F)
    ring = F.ring
    v1 = ring.var(V(1))
    iso = strict_iso_from_t([v1], F)
    assert compose_iso(ident, iso).psi == iso.psi
    with pytest.raises(ValueError, match="chain does not compose"):
        compose_iso(iso, iso)  # target of iso is F but source of iso is not F
    # associativity of composition on a 3-chain of translates
    a = strict_iso_from_t([v1], F)
    b = strict_iso_from_t([v1 + v1], a.source)
    c = strict_iso_from_t([ring.from_rational(3)], b.source)
    left = compose_iso(compose_iso(a, b), c)
    right = compose_iso(a, compose_iso(b, c))
    assert left.psi == right.psi


# ---- height -----------------------------------------------------------

def test_height_additive_exceeds_cutoff():
    ring = bp_ring(1, mod2=True)
    add = additive_fgl(ring, 8)
    with pytest.raises(ValueError, match=r"\[2\]\(x\) = 0 up to x\^8"):
        height_of_residue_fgl(add)


def test_height_multiplicative_like():
    ring = bp_ring(1, mod2=True)
    v1 = reduce_mod2(bp_ring(1).var(V(1)))
    F = FGL(TruncatedSeries2(ring, {(1, 0): ring.one(), (0, 1): ring.one(), (1, 1): v1}, 8))
    h, coeff = height_of_residue_fgl(F)
    assert h == 1 and coeff == v1
