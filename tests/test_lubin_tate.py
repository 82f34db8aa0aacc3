import functools
import itertools
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from fgl_forge.coefficients import (
    QQ,
    FiniteFieldSpec,
    WittElement,
    finite_field,
    frobenius_lift,
    rational_mod2,
    teichmuller,
)
from fgl_forge import cli, coefficients, equivariant_ring, lubin_tate
from fgl_forge.equivariant_ring import rn_context, rn_log, t_level, v_in_rn
from fgl_forge.errors import ConsistencyFailure
from fgl_forge.lubin_tate import (
    LTContext,
    LTElement,
    action_table,
    cotangent_check,
    d_factors,
    fixed_subring_presentation,
    lt_galois,
    lt_gamma,
    lt_specialize,
    lt_zeta,
    orbit_table,
    residue_fgl,
    residue_height,
    residue_json,
    t_level_in_lt,
    two_telescope,
    v_in_lt,
)
from fgl_forge.poly_core import AtomicCache, bp_ring, gamma_act, reduce_mod2, to_rational_ring
from fgl_forge.reports import _report, canonical_json
from fgl_forge.series_fgl import (
    TruncatedSeries1,
    fgl_from_log,
    height_of_residue_fgl,
    height_of_two_series,
    log_from_v,
    two_series,
    two_series_from_log,
)


def _random_element(ctx, rng, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx.taus)
        for _ in range(rng.randrange(3)):
            exps[rng.randrange(len(exps))] += 1
        ue = rng.randrange(-3, 4)
        c = WittElement.from_int(ctx.spec, ctx.precision, rng.randrange(-9, 10))
        key = (tuple(exps), ue)
        terms[key] = terms.get(key, WittElement.zero(ctx.spec, ctx.precision)) + c
    return LTElement(ctx, terms)


def _random_poly(ring, rng, nterms=4):
    p = ring.zero()
    for _ in range(nterms):
        mono = ring.one()
        for _ in range(rng.randrange(1, 4)):
            v = ring.variables[rng.randrange(len(ring.variables))]
            mono = mono * ring.var(v)
        p = p + mono.scalar_mul(rng.randrange(-4, 5))
    return p


# ---- construction and the coupled truncation ---------------------------------

def test_context_validation():
    with pytest.raises(ValueError):
        LTContext(0, 1)
    with pytest.raises(ValueError):
        LTContext(1, 0)
    with pytest.raises(ValueError):
        LTContext(2, 1, madic=0)
    with pytest.raises(ValueError):
        LTContext(2, 1, precision=3, madic=4)
    ctx = LTContext(2, 2)
    assert ctx.h == 4 and ctx.q == 3
    assert ctx.taus == ((1, 0), (1, 1), (2, 0))
    assert LTContext(1, 2).taus == ((1, 0),)
    with pytest.raises(ValueError):
        LTContext(2, 2).tau(2, 1)  # the top conjugate is not a generator


@pytest.mark.parametrize("n, d, modulus, precision, madic", [
    flags for flags in itertools.product(
        (0, 2), (1, 5), (None, (1, 0, 1)), (8, 1), (6, 9, 0))
    if flags != (2, 1, None, 8, 6)
])
def test_the_constructor_refuses_bad_flags_as_lt_context_does(n, d, modulus, precision, madic):
    """Both routes check the field first, then the context: one message."""
    with pytest.raises(ValueError) as direct:
        LTContext(n, 1, d=d, modulus=modulus, precision=precision, madic=madic)
    with pytest.raises(ValueError) as shared:
        lubin_tate.lt_context(n, 1, d=d, modulus=modulus, precision=precision, madic=madic)
    assert str(direct.value) == str(shared.value)


def test_truncation_rule():
    ctx = LTContext(2, 1, precision=8, madic=3)
    tau = ctx.tau(1, 0)
    assert ctx.from_int(8).is_zero()  # valuation 3 >= M
    assert not ctx.from_int(4).is_zero()
    assert (tau ** 3).is_zero()  # tau-degree 3 >= M
    assert tau.scale(4).is_zero()  # 2 + 1 >= M
    assert not tau.scale(2).is_zero()  # 1 + 1 < M
    assert (tau ** 2).scale(2).is_zero()


def test_coefficient_protocol():
    ctx = LTContext(2, 1)
    third = ctx.from_rational(QQ(1, 3))
    assert third.scale(3) == ctx.one()
    with pytest.raises(ValueError, match="1/2 has even denominator"):
        ctx.from_rational(QQ(1, 2))
    with pytest.raises(ValueError, match="exponent beyond the representable window"):
        ctx.u_pow((1 << 20) + 1)


def test_element_arithmetic_and_grading():
    ctx = LTContext(2, 2)
    one = ctx.one()
    tau = ctx.tau(1, 0)
    assert (one + tau) * (one - tau) == one - tau ** 2
    x = ctx.tau(1, 1) * ctx.u_pow(1)
    assert x.is_homogeneous() and x.degree == 2
    mixed = x + ctx.u_pow(2)
    with pytest.raises(ValueError):
        _ = mixed.degree
    assert (ctx.from_int(2) + tau).filtration() == 1
    assert tau.scale(4).filtration() == 3
    assert ctx.zero().filtration() == ctx.madic


def test_context_mixing_raises():
    a = LTContext(2, 1)
    b = LTContext(2, 2)
    x, y = a.u_pow(1), b.u_pow(1)
    for mix in (lambda: a.one() + b.one(), lambda: a.one() * b.one(),
                lambda: a.dot([(x, y)]), lambda: a.dot([(x, x), (y, y)])):
        with pytest.raises(ValueError, match="elements from different Lubin-Tate contexts"):
            mix()
    with pytest.raises(ValueError, match="element from a different context"):
        lt_gamma(a, b.one())


def test_contexts_over_one_field_share_one_spec():
    from fgl_forge import coefficients

    spec = finite_field(3)
    assert coefficients.finite_field(3, [1, 1, 0, 1]) is spec
    assert spec.to_json() == {"d": 3, "modulus": [1, 1, 0, 1]}
    contexts = [LTContext(2, 1, d=3), LTContext(2, 2, d=3, modulus=(1, 1, 0, 3)),
                lubin_tate.lt_context(2, 1, d=3), lubin_tate.lt_context(2, 1, d=3, precision=9)]
    assert all(ctx.spec is spec for ctx in contexts)
    assert lubin_tate.lt_context(2, 1, d=3, modulus=(1, 1, 0, 1)) is contexts[2]
    # the public constructor still checks and builds a fresh spec
    fresh = FiniteFieldSpec(3, (1, 1, 0, 1))
    assert fresh == spec and fresh is not spec
    for build in (lambda: LTContext(2, 1, d=2, modulus=(1, 0, 1)),
                  lambda: lubin_tate.lt_context(2, 1, d=2, modulus=(1, 0, 1)),
                  lambda: coefficients.finite_field(2, (1, 0, 1))):
        with pytest.raises(ValueError):
            build()  # x^2 + 1 = (x + 1)^2
    assert (2, (1, 0, 1)) not in coefficients._FIELDS


def test_units_and_inverses():
    ctx = LTContext(2, 1)
    u = ctx.u_pow(1)
    tau = ctx.tau(1, 0)
    assert u.is_unit()
    assert u.inverse() == ctx.u_pow(-1)
    geo = (ctx.one() - tau).inverse()
    expected = ctx.zero()
    for k in range(ctx.madic):
        expected = expected + tau ** k
    assert geo == expected
    assert not tau.is_unit()
    assert not ctx.from_int(2).is_unit()
    assert not (ctx.from_int(2) + tau).is_unit()  # in m, not a unit
    with pytest.raises(ValueError, match="is not a unit"):
        tau.inverse()
    mixed = (ctx.one() + tau) * u + ctx.from_int(3) * u ** 2
    assert not mixed.is_unit()  # residue has two monomials


def test_residue_ring():
    ctx = LTContext(2, 1)
    K = ctx.residue_ring
    assert K is lubin_tate.lt_context(2, 1, precision=1, madic=1)
    # one K per (n, m, field), whatever N and M are
    assert lubin_tate.lt_context(2, 1, precision=10, madic=8).residue_ring is K
    assert K.residue_ring is K
    assert K.tau(1, 0).is_zero()  # every tau-term is 0 at M = 1
    ub = K.u_pow()
    assert ub * ub == K.u_pow(2)
    assert ub ** -3 == K.u_pow(-3)
    assert K.from_rational(3) == K.one()
    assert K.from_rational(2).is_zero()
    with pytest.raises(ValueError, match="1/2 has even denominator"):
        K.from_rational(QQ(1, 2))
    assert (ub + ub).is_zero()  # characteristic 2
    assert ub - ub == ub + ub
    with pytest.raises(ValueError, match="is not a unit"):
        (K.one() + ub).inverse()
    x = (ctx.one() + ctx.tau(1, 0)) * ctx.u_pow(2) + ctx.from_int(2)
    assert x.residue() == K.u_pow(2)
    assert residue_json(x.residue()) == [[2, [1]]]


def _dense_element(ctx, rng, nterms=6):
    """A random element whose coefficients have every coordinate random mod
    2^N; about half of its terms are tau-free."""
    spec, N = ctx.spec, ctx.precision
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx.taus)
        if rng.randrange(2):
            exps[rng.randrange(len(exps))] = rng.randrange(1, 3)
        coords = [rng.randrange(1 << N) for _ in range(spec.d)]
        terms[tuple(exps), rng.randrange(-2, 3)] = WittElement(spec, N, coords)
    return LTElement(ctx, terms)


# d = 1 .. 4, and d = 3 on a second modulus
_RESIDUE_CASES = [(2, 1, 1, None), (2, 2, 2, None), (3, 1, 3, (1, 0, 1, 1)),
                  (2, 2, 3, None), (2, 1, 4, None)]


@pytest.mark.parametrize("n,m,d,modulus", _RESIDUE_CASES)
def test_residue_is_a_ring_map(n, m, d, modulus):
    ctx = lubin_tate.lt_context(n, m, d=d, modulus=modulus, precision=6, madic=4)
    K = ctx.residue_ring
    rng = random.Random(d)
    for _ in range(12):
        x, y = _dense_element(ctx, rng), _dense_element(ctx, rng)
        assert (x * y).residue() == x.residue() * y.residue()
        assert (x + y).residue() == x.residue() + y.residue()
        assert (x - y).residue() == x.residue() - y.residue()
        assert x.residue().ring is K
        if x.is_unit():
            assert x.inverse().residue() == x.residue().inverse()


@pytest.mark.parametrize("n,m,d,modulus", _RESIDUE_CASES)
def test_residue_json_against_the_field_elements(n, m, d, modulus):
    """The residue against F_{2^d} itself: the tau-free terms of x, each
    coefficient reduced to k, the Witt ring at precision 1."""
    ctx = lubin_tate.lt_context(n, m, d=d, modulus=modulus, precision=6, madic=4)
    rng = random.Random(10 + d)
    seen_high_bits = False
    for _ in range(12):
        x = _dense_element(ctx, rng)
        expected = []
        for (exps, ue), c in sorted(x.coords.items()):
            r = WittElement(ctx.spec, 1, c)
            seen_high_bits |= any(v > 1 for v in c)
            if not any(exps) and not r.is_zero():
                expected.append([ue, list(r.coeffs)])
        assert residue_json(x.residue()) == expected
    assert seen_high_bits  # so a residue that kept a second bit would show


def test_a_non_unit_residue_has_no_inverse():
    ctx = lubin_tate.lt_context(2, 2, d=2)
    u, tau = ctx.u_pow(1), ctx.tau(1, 0)
    for x in (tau * u, ctx.from_int(2), u + u ** 2, ctx.zero()):
        assert not x.is_unit()
        with pytest.raises(ValueError, match="is not a unit"):
            x.residue().inverse()
        with pytest.raises(ValueError, match="is not a unit"):
            x.inverse()


# ---- the tau_m orbit and gamma ------------------------------------------------

def test_top_tau_m_is_two_plus_higher_order():
    # The missing orbit variable gamma^{2^{n-1}-1} tau_m has constant term 2.
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        ctx = LTContext(n, m)
        top = ctx.tau_m_element(ctx.half - 1)
        assert (top - ctx.from_int(2)).filtration() >= 1
        assert top.filtration() >= 1  # so 2 = top - (tau-terms) sits in m
    ctx = LTContext(1, 2)
    assert ctx.tau_m_element(0) == ctx.from_int(2)  # n = 1 degeneration
    ctx = LTContext(2, 1)
    tau = ctx.tau(1, 0)
    assert ctx.tau_m_element(1) == ctx.from_int(1) + (ctx.one() - tau).inverse()


def test_gamma_u_orbit():
    ctx = LTContext(2, 1)
    tau = ctx.tau(1, 0)
    assert ctx.gamma_u(1) == (ctx.one() - tau) * ctx.u_pow(1)
    assert ctx.gamma_u(2) == ctx.u_pow(1).scale(-1)  # gamma^{2^{n-1}} u = -u
    assert ctx.gamma_u(3) == ctx.gamma_u(1).scale(-1)
    assert ctx.gamma_u(4) == ctx.u_pow(1)
    assert lt_gamma(ctx, ctx.u_pow(1)) == ctx.gamma_u(1)
    assert lt_gamma(ctx, ctx.u_pow(1), 2) == ctx.u_pow(1).scale(-1)
    ctx1 = LTContext(1, 1)
    assert ctx1.gamma_u(1) == ctx1.u_pow(1).scale(-1)


@pytest.mark.parametrize("n,m,d", [(1, 2, 1), (2, 1, 1), (2, 2, 2), (3, 1, 1)])
def test_gamma_is_ring_automorphism_of_order_2n(n, m, d):
    ctx = LTContext(n, m, d=d)
    rng = random.Random(7 * n + m)
    for _ in range(6):
        a = _random_element(ctx, rng)
        b = _random_element(ctx, rng)
        assert lt_gamma(ctx, a * b) == lt_gamma(ctx, a) * lt_gamma(ctx, b)
        assert lt_gamma(ctx, a + b) == lt_gamma(ctx, a) + lt_gamma(ctx, b)
        assert lt_gamma(ctx, a, 1 << n) == a
        step = lt_gamma(ctx, lt_gamma(ctx, a, (1 << n) - 1))
        assert step == a


def test_gamma_half_turn_is_degree_sign():
    ctx = LTContext(2, 2)
    x = ctx.tau(1, 0) * ctx.u_pow(3)  # degree 6, odd u-exponent
    assert lt_gamma(ctx, x, 2) == x.scale(-1)
    y = ctx.tau(2, 0) * ctx.u_pow(2)
    assert lt_gamma(ctx, y, 2) == y


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_two_telescope(n, m):
    ctx = LTContext(n, m)
    lhs, rhs = two_telescope(ctx)
    assert lhs == rhs
    # dividing by the unit gamma^{H-1}(u) exhibits 2 itself
    two = lhs * ctx.gamma_u(ctx.half - 1).inverse()
    assert two == ctx.from_int(2)


# ---- the product and gamma against their term-by-term routes ----------------

KERNEL_SCENARIOS = [(2, 1, 1), (2, 2, 2), (3, 1, 1), (2, 2, 3)]


def _filtered_element(ctx, rng, nterms=7):
    """Terms at random filtrations below M, one of them at M - 1 and one a unit,
    with u-exponents from -3 to 3."""
    M = ctx.madic
    terms = {}
    for k in range(nterms):
        f = M - 1 if k == 0 else 0 if k == 1 else rng.randrange(M)
        exps = [0] * len(ctx.taus)
        deg = rng.randrange(f + 1)
        for _ in range(deg):
            exps[rng.randrange(len(exps))] += 1
        key = (tuple(exps), rng.randrange(-3, 4))
        if key in terms:
            continue
        # an odd first coordinate makes the valuation exactly f - deg
        unit = [rng.randrange(1 << ctx.precision) | (i == 0) for i in range(ctx.spec.d)]
        terms[key] = WittElement(ctx.spec, ctx.precision, [c << (f - deg) for c in unit])
    x = LTElement(ctx, terms)
    assert len(x.terms) == len(terms)  # every term is below M, so none is dropped
    return x


def _mul_pairwise(a, b):
    """The product over every pair of terms, each pair tested on its own."""
    ctx = a.ctx
    out = {}
    for (e1, u1), c1 in a.terms.items():
        v1 = c1.two_valuation()
        for (e2, u2), c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if v1 + c2.two_valuation() + sum(exps) >= ctx.madic:
                continue
            key = (exps, u1 + u2)
            p = c1 * c2
            s = out.get(key)
            out[key] = p if s is None else s + p
    return LTElement(ctx, out)


def _gamma_per_term(ctx, e, r=1):
    """gamma term by term: each term's image is built from gamma(u) and the
    generator images by repeated products and summed element by element."""
    images = lubin_tate._gamma_var_images(ctx)
    gu = ctx.gamma_u(1)
    for _ in range(r % (1 << ctx.n)):
        acc = ctx.zero()
        for (exps, ue), c in e.terms.items():
            term = ctx.from_witt(c) * (gu ** ue if ue >= 0 else gu.inverse() ** -ue)
            for idx, ex in enumerate(exps):
                if ex:
                    term = term * images[idx] ** ex
            acc = acc + term
        e = acc
    return e


@pytest.mark.parametrize("n,m,d", KERNEL_SCENARIOS)
def test_product_matches_pairwise_oracle(n, m, d):
    ctx = LTContext(n, m, d=d)
    rng = random.Random(31 * n + 7 * m + d)
    pairs = []
    for _ in range(10):
        a = _filtered_element(ctx, rng)
        b = _filtered_element(ctx, rng)
        assert a * b == _mul_pairwise(a, b)
        assert b * a == _mul_pairwise(b, a)
        assert a * a == _mul_pairwise(a, a)
        pairs += [(a, b), (b, b)]
    # one dot of many pairs is the sum of their products
    assert ctx.dot(pairs) == functools.reduce(
        LTElement.__add__, (_mul_pairwise(a, b) for a, b in pairs))
    top = ctx.tau(ctx.taus[0][0], ctx.taus[0][1]) ** (ctx.madic - 1)
    assert top.filtration() == ctx.madic - 1
    assert top * ctx.u_pow(-2) == _mul_pairwise(top, ctx.u_pow(-2))
    assert (top * ctx.from_int(2)).is_zero()
    assert (top * ctx.zero()).is_zero() and (ctx.zero() * top).is_zero()


@pytest.mark.parametrize("n,m,d", KERNEL_SCENARIOS)
def test_gamma_tables_match_per_term_oracle(n, m, d):
    rng = random.Random(17 * n + 5 * m + d)
    warm = LTContext(n, m, d=d)
    for _ in range(3):
        lt_gamma(warm, _filtered_element(warm, rng))
    filled = dict(warm._gamma_var_pow)
    assert filled and all(0 < ex < warm.madic for _, ex in filled)
    for r in (1, 2, 1 << n):
        fresh = LTContext(n, m, d=d)
        assert not fresh._gamma_var_pow and not fresh._gamma_u_pow
        x = _filtered_element(fresh, rng)
        assert lt_gamma(fresh, x, r) == _gamma_per_term(fresh, x, r)
        y = _filtered_element(warm, rng)
        assert lt_gamma(warm, y, r) == _gamma_per_term(warm, y, r)
    assert all(warm._gamma_var_pow[key] is img for key, img in filled.items())


# ---- the torus and Galois actions ---------------------------------------------

def test_zeta_identity_and_torsion_guard():
    ctx = LTContext(2, 2, d=2)
    rng = random.Random(5)
    x = _random_element(ctx, rng)
    assert lt_zeta(ctx, ctx.spec.one, x) == x
    ctx1 = LTContext(2, 1, d=2)  # q = 1: only zeta = 1 acts
    with pytest.raises(ValueError, match=r"zeta\^1 != 1"):
        lt_zeta(ctx1, ctx1.spec.omega, ctx1.one())
    with pytest.raises(ValueError, match="zeta from a different field"):
        lt_zeta(LTContext(2, 1), finite_field(2).omega, LTContext(2, 1).one())


def test_zeta_on_generators():
    ctx = LTContext(2, 2, d=2)
    omega = ctx.spec.omega  # a primitive cube root of unity, q = 3
    t = teichmuller(omega, ctx.precision)
    assert lt_zeta(ctx, omega, ctx.u_pow(1)) == ctx.u_pow(1).scale(t.inverse())
    assert lt_zeta(ctx, omega, ctx.u_pow(1)) == ctx.u_pow(1).scale(t * t)
    assert lt_zeta(ctx, omega, ctx.tau(1, 0)) == ctx.tau(1, 0).scale(t)
    assert lt_zeta(ctx, omega, ctx.tau(2, 0)) == ctx.tau(2, 0)  # tau_m is fixed
    assert lt_zeta(ctx, omega, ctx.u_pow(3)) == ctx.u_pow(3)  # chi = -3 = 0 mod q


def test_galois_action():
    ctx = LTContext(2, 2, d=2)
    omega = ctx.spec.omega
    t = teichmuller(omega, ctx.precision)
    x = ctx.u_pow(1).scale(t)
    sigma_t = teichmuller(frobenius_lift(omega), ctx.precision)
    assert lt_galois(ctx, x) == ctx.u_pow(1).scale(sigma_t)
    assert lt_galois(ctx, lt_galois(ctx, x)) == x  # order d
    assert lt_galois(ctx, ctx.tau(1, 1)) == ctx.tau(1, 1)
    assert lt_galois(ctx, ctx.from_int(7)) == ctx.from_int(7)
    ctx1 = LTContext(2, 1, d=1)
    rng = random.Random(11)
    y = _random_element(ctx1, rng)
    assert lt_galois(ctx1, y) == y  # trivial on W(F_2) = Z_2


def test_action_commutation_relations():
    ctx = LTContext(2, 2, d=2)
    omega = ctx.spec.omega
    rng = random.Random(17)
    for _ in range(5):
        x = _random_element(ctx, rng)
        assert lt_gamma(ctx, lt_zeta(ctx, omega, x)) == lt_zeta(ctx, omega, lt_gamma(ctx, x))
        assert lt_gamma(ctx, lt_galois(ctx, x)) == lt_galois(ctx, lt_gamma(ctx, x))
        # sigma f_zeta sigma^{-1} = f_{sigma(zeta)} (sigma is an involution at d = 2)
        lhs = lt_galois(ctx, lt_zeta(ctx, omega, lt_galois(ctx, x)))
        assert lhs == lt_zeta(ctx, frobenius_lift(omega), x)


def _chi_of(ctx, exps, ue):
    return sum(((1 << ctx.taus[idx][0]) - 1) * ex for idx, ex in enumerate(exps)) - ue


def _zeta_by_powering(ctx, zeta, x):
    """The torus action term by term: T(zeta)^chi, through T(zeta)^-1 for chi < 0."""
    t = teichmuller(zeta, ctx.precision)
    out = {}
    for (exps, ue), c in x.terms.items():
        chi = _chi_of(ctx, exps, ue)
        out[(exps, ue)] = c * (t ** chi if chi >= 0 else t.inverse() ** -chi)
    return LTElement(ctx, out)


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("d,modulus", [(1, None), (2, None), (3, None), (3, (1, 0, 1, 1)),
                                       (4, None), (4, (1, 0, 0, 1, 1))])
def test_zeta_table_matches_teichmuller_powering(d, modulus, N):
    # m = d makes every unit of k a qth root of unity (q = 2^d - 1)
    ctx = LTContext(2, d, d=d, modulus=modulus, precision=N, madic=N)
    rng = random.Random(100 * d + N + len(modulus or ()))
    roots = [z for z in ctx.spec.elements() if not z.is_zero() and z ** ctx.q == ctx.spec.one]
    assert len(roots) == ctx.q
    for zeta in roots:
        for _ in range(4):
            terms = {}
            for _ in range(6):
                exps = [0] * len(ctx.taus)
                for _ in range(rng.randrange(4)):
                    exps[rng.randrange(len(exps))] += 1
                key = (tuple(exps), rng.randrange(-9, 10))
                terms[key] = WittElement.from_int(ctx.spec, N, rng.randrange(1, 1 << N))
            x = LTElement(ctx, terms)
            assert lt_zeta(ctx, zeta, x) == _zeta_by_powering(ctx, zeta, x)


def test_zeta_table_checks_the_teichmuller_order(monkeypatch):
    # a fresh field, so that its Witt kernels hold no table yet; a wrong lift
    # and a generator of lower order each make the build raise, on every
    # call and for every reader of the table, and store nothing
    monkeypatch.setattr(coefficients, "_FIELDS", AtomicCache())
    ctx = LTContext(2, 2, d=2)
    three = WittElement.from_int(ctx.spec, ctx.precision, 3)
    lift = coefficients.teichmuller
    omega = ctx.spec.omega
    for name, patched, message in (
        ("teichmuller", lambda a, N: lift(a, N) * three, r"T\(g\)\^3 != 1"),
        ("_multiplicative_generator", lambda spec: spec.one, "g has order below 3"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(coefficients, name, patched)
            for _ in range(2):
                with pytest.raises(ConsistencyFailure, match=message):
                    lt_zeta(ctx, omega, ctx.u_pow(1))
                with pytest.raises(ConsistencyFailure, match=message):
                    frobenius_lift(WittElement(ctx.spec, ctx.precision, [0, 1]))
                assert ctx.kernel._lifts is None
    t = teichmuller(omega, ctx.precision)
    assert lt_zeta(ctx, omega, ctx.u_pow(1)) == ctx.u_pow(1).scale(t * t)
    lifts, log = ctx.kernel.lifts()
    assert lifts == tuple((t ** i).coeffs for i in range(3)) and log[omega.coeffs] == 1


def test_zeta_torsion_is_checked_on_every_call():
    ctx = LTContext(2, 2, d=4)  # q = 3, 2^d - 1 = 15
    x = _random_element(ctx, random.Random(23))
    cube_root = ctx.spec.omega ** 5
    generator = ctx.spec.omega  # order 15: not a cube root of unity
    assert cube_root ** 3 == ctx.spec.one and not generator ** 3 == ctx.spec.one
    for zeta in (generator, ctx.spec.zero, generator ** 3):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"zeta\^3 != 1"):
                lt_zeta(ctx, zeta, x)
    table = ctx.kernel.lifts()
    for _ in range(2):  # a torus action by a root of unity leaves the others refused
        assert lt_zeta(ctx, cube_root, x) == _zeta_by_powering(ctx, cube_root, x)
        with pytest.raises(ValueError, match=r"zeta\^3 != 1"):
            lt_zeta(ctx, generator, x)
    assert ctx.kernel.lifts() is table


def test_zeta_must_be_an_element_of_k():
    ctx = LTContext(2, 2, d=2)
    x = ctx.u_pow(1)
    lifted = teichmuller(ctx.spec.omega, ctx.precision)  # T(omega) in W(k), not in k
    for _ in range(2):
        with pytest.raises(ValueError, match="zeta must have precision 1, not 8"):
            lt_zeta(ctx, lifted, x)
    # the precision is checked before the torsion: an element of precision 4
    # with omega's coordinates raises, though omega acts, and so does one with
    # the coordinates of the non-torsion 0
    lt_zeta(ctx, ctx.spec.omega, x)
    for coeffs in (ctx.spec.omega.coeffs, ctx.spec.zero.coeffs):
        with pytest.raises(ValueError, match="zeta must have precision 1, not 4"):
            lt_zeta(ctx, WittElement(ctx.spec, 4, coeffs), x)


@pytest.mark.parametrize("n,m,d", KERNEL_SCENARIOS)
def test_galois_matches_frobenius_lift_per_coefficient(n, m, d):
    ctx = LTContext(n, m, d=d)
    rng = random.Random(13 * n + 3 * m + d)
    for _ in range(8):
        x = _filtered_element(ctx, rng)
        assert lt_galois(ctx, x) == x.map_coefficients(frobenius_lift)
    assert lt_galois(ctx, ctx.zero()).is_zero()


def _zeta_per_term(ctx, zeta, x):
    """The torus action one kernel product per term, by T(zeta)^(chi mod
    2^d - 1) from powering teichmuller(zeta, N), then one normal-form pass:
    the earlier route of lt_zeta, kept as a second oracle."""
    t = teichmuller(zeta, ctx.precision)
    order = (1 << ctx.spec.d) - 1
    raw = {
        (exps, ue): ctx.kernel.mul(c, (t ** (_chi_of(ctx, exps, ue) % order)).coeffs)
        for (exps, ue), c in x.coords.items()
    }
    return lubin_tate._element(ctx, lubin_tate._canonical(ctx, raw))


def _galois_per_term(ctx, x):
    """Frobenius one term at a time, then one normal-form pass: the earlier
    route of lt_galois, kept as a second oracle."""
    raw = {key: ctx.kernel.frobenius(c) for key, c in x.coords.items()}
    return lubin_tate._element(ctx, lubin_tate._canonical(ctx, raw))


def _shared_coefficient_element(ctx, rng, top):
    """An element whose terms all carry one coefficient tuple, at every
    tau-degree 0..top and at u-exponents of both signs.

    The tuple lies below 2^{M - top}, so it is in normal form at every one of
    those degrees, while its images under the actions are not: an image
    memoised at one tau-degree and reused at another is masked wrongly.
    """
    M = ctx.madic
    c = (0,) * ctx.spec.d
    while not any(c):
        c = tuple(rng.randrange(1 << (M - top)) for _ in range(ctx.spec.d))
    terms = {}
    for s in range(top + 1):
        for ue in (-9, -4, -1, 0, 2, 5):
            exps = [0] * len(ctx.taus)
            for _ in range(s):
                exps[rng.randrange(len(exps))] += 1
            terms[(tuple(exps), ue + rng.randrange(3))] = WittElement(ctx.spec, ctx.precision, c)
    x = LTElement(ctx, terms)
    assert set(x.coords.values()) == {c}
    assert {sum(exps) for exps, _ in x.coords} == set(range(top + 1))
    return x


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("M,top", [(4, 2), (8, 3)])
def test_diagonal_maps_key_each_image_by_tau_degree(d, M, top):
    # m = d makes every unit of k a qth root of unity; M = N, so the mask at
    # tau-degree 0 is the whole precision
    ctx = LTContext(2, d, d=d, precision=M, madic=M)
    rng = random.Random(31 * d + M)
    roots = [z for z in ctx.spec.elements() if not z.is_zero()]
    order = (1 << d) - 1
    for _ in range(3):
        x = _shared_coefficient_element(ctx, rng, top)
        residues = {_chi_of(ctx, exps, ue) % order for exps, ue in x.coords}
        assert len(residues) >= min(order, 3)
        for zeta in roots:
            image = lt_zeta(ctx, zeta, x)
            assert image == _zeta_by_powering(ctx, zeta, x)
            assert image == _zeta_per_term(ctx, zeta, x)
        image = lt_galois(ctx, x)
        assert image == x.map_coefficients(frobenius_lift)
        assert image == _galois_per_term(ctx, x)


def _shared_object_element(ctx, rng, top, shared):
    """An element whose terms carry the coefficient tuple objects of
    `shared`, each at every tau-degree 0..top, with the degree changing from
    term to term, and at u-exponents of both signs.

    LTElement(...) masks a new tuple per term, so the element is built with
    _element; each tuple lies below 2^{M - top}, in normal form at every one
    of those degrees.
    """
    terms = {}
    for ue in range(-7, 8):
        for s in range(top + 1):
            exps = [0] * len(ctx.taus)
            for _ in range(s):
                exps[rng.randrange(len(exps))] += 1
            terms[(tuple(exps), ue)] = shared[(ue + s) % len(shared)]
    x = lubin_tate._element(ctx, terms)
    for c in shared:
        degrees = {sum(exps) for (exps, _), b in x.coords.items() if b is c}
        assert degrees == set(range(top + 1))
    return x


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("M,top", [(4, 2), (8, 3)])
def test_diagonal_map_class_rows_stay_within_a_tau_degree_and_a_coefficient(d, M, top):
    # one coefficient object across tau-degrees: a row kept past a new
    # exponent tuple is masked for the wrong degree; two objects in turn: a
    # row keyed by class alone gives one coefficient the image of the other
    ctx = LTContext(2, d, d=d, precision=M, madic=M)
    rng = random.Random(47 * d + M)
    roots = [z for z in ctx.spec.elements() if not z.is_zero()]

    def coefficient():
        c = (0,) * d
        while not any(c):
            c = tuple(rng.randrange(1 << (M - top)) for _ in range(d))
        return c

    one = coefficient()
    other = coefficient()
    while other == one:
        other = coefficient()
    for shared in ((one,), (one, other)):
        x = _shared_object_element(ctx, rng, top, shared)
        for zeta in roots:
            image = lt_zeta(ctx, zeta, x)
            assert image == _zeta_by_powering(ctx, zeta, x)
            assert image == _zeta_per_term(ctx, zeta, x)
        image = lt_galois(ctx, x)
        assert image == x.map_coefficients(frobenius_lift)
        assert image == _galois_per_term(ctx, x)


def test_witt_terms_round_trip():
    ctx = LTContext(2, 2, d=3, precision=8, madic=5)
    rng = random.Random(29)
    for _ in range(5):
        x = _filtered_element(ctx, rng)
        terms = x.terms
        assert all(
            isinstance(w, WittElement) and w.spec is ctx.spec and w.precision == 8
            for w in terms.values()
        )
        assert LTElement(ctx, terms) == x
        assert {key: w.coeffs for key, w in terms.items()} == x.coords
        assert x.to_json() == [[list(e), s, w.to_json()] for (e, s), w in sorted(terms.items())]
        with pytest.raises(TypeError):
            terms[next(iter(terms))] = WittElement.one(ctx.spec, 8)  # a read-only view
    # the constructor reduces Witt coefficients mod m^M: 2^5 = 0, tau^1 keeps 2^4
    tau = (1,) + (0,) * (len(ctx.taus) - 1)
    raw = {(ctx._zero_exps, 0): WittElement(ctx.spec, 8, [33, 64, 255]),
           (tau, 1): WittElement(ctx.spec, 8, [16, 0, 17]),
           (ctx._zero_exps, 2): WittElement(ctx.spec, 8, [32, 0, 96])}
    y = LTElement(ctx, raw)
    assert y.coords == {(ctx._zero_exps, 0): (1, 0, 31), (tau, 1): (0, 0, 1)}
    assert y == ctx.from_witt(raw[(ctx._zero_exps, 0)]) + LTElement(ctx, {(tau, 1): raw[(tau, 1)]})
    other_field = finite_field(2)
    for foreign in (WittElement(ctx.spec, 9, [1, 0, 0]), WittElement.one(other_field, 8)):
        with pytest.raises(ValueError, match="Witt coefficient from a different context"):
            LTElement(ctx, {(ctx._zero_exps, 0): foreign})


# ---- specialization from the equivariant polynomial ring -----------------------

def test_specialize_generator_images():
    ctx = LTContext(2, 2)
    rn = ctx.rn
    t1 = rn.generator(1)
    assert lt_specialize(ctx, t1) == ctx.tau(1, 0) * ctx.u_pow(1)
    assert lt_specialize(ctx, gamma_act(t1)) == ctx.tau(1, 1) * ctx.gamma_u(1)
    t2 = rn.generator(2)
    assert lt_specialize(ctx, t2) == ctx.u_pow(3)
    assert lt_specialize(ctx, gamma_act(t2)) == ctx.gamma_u(1) ** 3
    assert lt_specialize(ctx, rn.generator(3)).is_zero()  # killed above level m
    assert lt_specialize(ctx, rn.generator(4)).is_zero()
    ctx1 = LTContext(2, 1)
    assert lt_specialize(ctx1, ctx1.rn.generator(1)) == ctx1.u_pow(1)
    assert lt_specialize(ctx1, ctx1.rn.generator(2)).is_zero()


def test_specialize_ambient_checks():
    ctx = LTContext(2, 2)
    p = ctx.rn.generator(1)
    with pytest.raises(ValueError, match="specialization expects an R_n / R_n<m> polynomial"):
        lt_specialize(ctx, reduce_mod2(p))
    with pytest.raises(ValueError, match="specialization expects an R_n / R_n<m> polynomial"):
        lt_specialize(ctx, bp_ring(2).var(bp_ring(2).variables[0]))
    with pytest.raises(ValueError, match="group order mismatch"):
        lt_specialize(LTContext(3, 1), p)
    # a coefficient is certified even on a term that the map kills (t_3 -> 0)
    half_t3 = to_rational_ring(ctx.rn.generator(3)).scalar_mul(QQ(1, 2))
    with pytest.raises(ValueError, match="1/2 has even denominator"):
        lt_specialize(ctx, to_rational_ring(p) + half_t3)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_specialize_is_gamma_equivariant(n, m):
    ctx = LTContext(n, m)
    ring = ctx.rn.generator(1).ring
    rng = random.Random(29 * n + m)
    for _ in range(5):
        p = _random_poly(ring, rng)
        assert lt_specialize(ctx, gamma_act(p)) == lt_gamma(ctx, lt_specialize(ctx, p))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_specialize_is_a_ring_map(n, m):
    ctx = LTContext(n, m)
    ring = ctx.rn.generator(1).ring
    rng = random.Random(37 * n + m)
    for _ in range(5):
        p, q = _random_poly(ring, rng), _random_poly(ring, rng).scalar_mul(QQ(1, 3))
        assert lt_specialize(ctx, p + q) == lt_specialize(ctx, p) + lt_specialize(ctx, q)
        assert lt_specialize(ctx, p * q) == lt_specialize(ctx, p) * lt_specialize(ctx, q)


# ---- images of the Araki generators: frozen small cases -----------------------

def test_v_images_height_two():
    ctx = LTContext(2, 1)
    tau = ctx.tau(1, 0)
    u = ctx.u_pow(1)
    assert v_in_lt(ctx, 1) == (tau - ctx.from_int(2)) * u
    expected_v2 = (
        ctx.from_int(3)
        - tau.scale(8)
        + (tau ** 2).scale(11)
        - (tau ** 3).scale(3)
    ) * u ** 3
    assert v_in_lt(ctx, 2) == expected_v2
    with pytest.raises(ValueError):
        v_in_lt(ctx, 0)
    with pytest.raises(ValueError):
        v_in_lt(ctx, ctx.h + 1)


def test_v_images_height_four():
    ctx = LTContext(2, 2)
    u = ctx.u_pow(1)
    expected_v1 = (ctx.tau(1, 0) * u + ctx.tau(1, 1) * ctx.gamma_u(1)).scale(-1)
    assert v_in_lt(ctx, 1) == expected_v1
    K = ctx.residue_ring
    for k in range(1, ctx.h + 1):
        vk = v_in_lt(ctx, k)
        assert vk.is_homogeneous() and vk.degree == 2 * ((1 << k) - 1)
        if k < ctx.h:
            assert vk.filtration() >= 1  # below the height: maximal ideal
        else:
            assert vk.is_unit()  # at the height: a unit
            assert vk.residue() == K.u_pow((1 << ctx.h) - 1)


def test_v_images_beyond_the_height():
    # no uniform statement above h: at (2,1) the image of v_3 is again a
    # unit, while v_4 sits deep in the maximal ideal; v_in_lt stops at h, so
    # v_3 and v_4 are specialized from R_2 with generators up to t_4
    ctx = LTContext(2, 1)
    K = ctx.residue_ring
    vs = v_in_rn(rn_context(2, 4), 4)
    for k in (1, 2):  # t_3, t_4 map to 0, so the larger ring changes no image
        assert lt_specialize(ctx, vs[k - 1]) == v_in_lt(ctx, k)
    assert lt_specialize(ctx, vs[2]).residue() == K.u_pow(7)
    assert lt_specialize(ctx, vs[3]).filtration() == 3
    with pytest.raises(ValueError):
        v_in_lt(ctx, 3)


def test_level_generator_images_height_two():
    ctx = LTContext(2, 1)
    tau = ctx.tau(1, 0)
    u = ctx.u_pow(1)
    gu = ctx.gamma_u(1)
    level1 = t_level_in_lt(ctx, 1)
    # t_1^{C_2} = (u - gamma u) + 2 gamma u, and equals -v_1 here
    assert level1[0] == (ctx.from_int(2) - tau) * u
    assert level1[0] == (u - gu) + gu.scale(2)
    assert level1[0] == v_in_lt(ctx, 1).scale(-1)
    # t_2^{C_2} = (3 - 4 tau + tau^2) u^3, a unit
    assert level1[1] == (ctx.from_int(3) - tau.scale(4) + tau ** 2) * u ** 3
    assert level1[1].is_unit()
    # t_1^{C_4} - gamma t_1^{C_4} = u - gamma u on the nose
    top = t_level_in_lt(ctx, 2)[0]
    assert top - lt_gamma(ctx, top) == u - gu
    # and 2 = (gamma(w) - w) / gamma(u) for w = u - gamma u
    w = u - gu
    assert (lt_gamma(ctx, w) - w) * gu.inverse() == ctx.from_int(2)


def test_difference_of_conjugates_factors_through_u_orbit():
    # t_m - gamma t_m = (u - gamma u) * sum_i u^i (gamma u)^{2^m - 2 - i}
    ctx = LTContext(2, 2)
    u = ctx.u_pow(1)
    gu = ctx.gamma_u(1)
    t2 = lt_specialize(ctx, ctx.rn.generator(2))
    gt2 = lt_specialize(ctx, gamma_act(ctx.rn.generator(2)))
    total = ctx.zero()
    for i in range(3):
        total = total + u ** i * gu ** (2 - i)
    assert t2 - gt2 == (u - gu) * total
    assert total.is_unit()


# ---- cotangent space: m = (2, v_1, ..., v_{h-1}) -------------------------------

def test_cotangent_matrix_height_two():
    report = cotangent_check(LTContext(2, 1))
    assert report["status"] == "verified"
    assert report["params"]["rank"] == 2
    assert report["params"]["columns"] == ["2", "tau1"]
    assert report["params"]["matrix"] == [[1, 0], [1, 1]]


def test_cotangent_matrix_height_four():
    report = cotangent_check(LTContext(2, 2, d=2))
    p = report["params"]
    assert p["rank"] == 4 and report["status"] == "verified"
    assert p["columns"] == ["2", "tau1", "g1tau1", "tau2"]
    assert p["matrix"][0] == [1, 0, 0, 0]
    assert p["matrix"][1] == [0, 1, 1, 0]
    assert p["matrix"][2] == [1, 0, 0, 1]
    report = cotangent_check(LTContext(3, 1))
    p = report["params"]
    assert p["rank"] == 4
    assert p["matrix"][0] == [1, 0, 0, 0]
    assert p["matrix"][1] == [0, 1, 0, 1]


def test_cotangent_degenerate_group():
    report = cotangent_check(LTContext(1, 2))
    assert report["params"]["rank"] == 2
    assert report["params"]["matrix"] == [[1, 0], [0, 1]]


def _cli_failed_report(argv, capsys):
    """Run argv through cli.main: it must exit 1 with one failed report."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    body = json.loads(captured.out)
    assert body["ok"] is False and len(body["reports"]) == 1
    report = body["reports"][0]
    assert report["status"] == "failed" and report["witness"] is not None
    return report


def test_cotangent_rank_drop_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())
    orbit_table(2, 1)._v = ((2, 0),)  # simulate a collapsed image of v_1
    report = cotangent_check(LTContext(2, 1))
    assert report["status"] == "failed"
    assert report["params"]["matrix"] == [[1, 0], [1, 0]]
    assert report["params"]["rank"] == 1
    assert report["witness"] == "v1"  # the first row in the span of the rows above
    argv = ["verify", "cotangent", "--n", "2", "--m", "1"]
    assert _cli_failed_report(argv, capsys) == report


def test_cotangent_refuses_a_unit_generator(monkeypatch, capsys):
    monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())
    orbit_table(2, 1)._v = ((3, 0),)  # an odd constant: a unit, not in m
    report = cotangent_check(LTContext(2, 1))
    assert report["status"] == "failed"
    assert report["witness"] == "v1"
    # the rows stop before the unit generator
    assert report["params"]["rows"] == ["2"] and report["params"]["matrix"] == [[1, 0]]
    argv = ["verify", "cotangent", "--n", "2", "--m", "1"]
    assert _cli_failed_report(argv, capsys) == report


# ---- the residue formal group law and its height --------------------------------

def test_residue_law_coefficients_height_two(monkeypatch):
    ctx = LTContext(2, 1)
    K = ctx.residue_ring
    assert v_in_lt(ctx, 1).residue().is_zero()  # v_1 lies in m^1 fully
    assert v_in_lt(ctx, 2).residue() == K.u_pow(3)
    F = residue_fgl(ctx, cutoff=8)
    assert F.ring is K  # conjugate_fgl reads the target ring off the image of 1
    two = two_series(F)
    assert all(two.coeffs[e].is_zero() for e in two.coeffs if e < 4)
    assert two.coeffs[4] == K.u_pow(3)
    # the law comes over Q[v]; a coefficient with an even denominator (the
    # law of l_1 alone at x^4) is refused on the way to K
    monkeypatch.setattr(lubin_tate, "fgl_from_log", lambda ls, X: fgl_from_log(ls[:1], X))
    with pytest.raises(ValueError, match="has even denominator"):
        residue_fgl(ctx, cutoff=4)


@pytest.mark.parametrize(
    "n,m,d,beta", [(2, 1, 1, 3), (2, 2, 2, 5), (3, 1, 1, 15)]
)
def test_residue_height_reports(n, m, d, beta):
    ctx = LTContext(n, m, d=d)
    report = residue_height(ctx)
    p = report["params"]
    assert report["status"] == "verified"
    assert p["computed_height"] == p["h"] == ctx.h
    assert p["beta"] == beta
    assert p["coefficient"] == [[(1 << ctx.h) - 1, [1] + [0] * (d - 1)]]
    assert p["unit"] == [1] + [0] * (d - 1)  # the unit is literally 1 here


def test_residue_height_guards():
    with pytest.raises(ValueError):
        residue_height(LTContext(2, 1), cutoff=2)
    # the cutoff selects no context: cutoff 32 needs l_1..l_5, and the
    # default context, whose R_2 stops at t_2, serves it
    assert residue_height(LTContext(2, 1), cutoff=32)["status"] == "verified"


def _oracle_cases():
    cases = []
    for n, m in ((1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (3, 1)):
        h = (1 << (n - 1)) * m
        for d in (1, 2):
            cases.append((n, m, d, 1 << h))
            if h == 2:
                cases.append((n, m, d, 32))
    return cases


@functools.cache
def _universal_law(k_max, cutoff):
    return fgl_from_log(log_from_v(k_max), cutoff)


def _log_constants(n, m, k):
    """[c_1 .. c_k]: the image of l_j in E/(tau) is c_j u^{2^j-1}, read off
    the orbit table, which stores 2^j f_j(p)."""
    return [QQ(row[0][0], 1 << j) for j, row in enumerate(orbit_table(n, m).logs(k), start=1)]


@functools.cache
def _residue_two_series(n, m, cutoff):
    """Oracle: the exponents e <= cutoff at which [2](x) of the residue law
    has the coefficient ubar^{e-1}; every other coefficient is 0.

    The residue map factors through E/(tau) = W(k)[u^{+-1}], where the law has
    the logarithm x + sum c_k u^{2^k-1} x^{2^k} (_log_constants).
    With u graded away, [2](x) = exp(2 log x) is a series over Z_(2)
    (two_series_from_log certifies it), and b_e x^e stands for b_e u^{e-1},
    whose residue is ubar^{e-1} when b_e is odd and 0 otherwise.
    """
    Q = bp_ring(0, rational=True)
    k = max((1 << (n - 1)) * m, cutoff.bit_length() - 1)
    logs = [Q.from_rational(c) for c in _log_constants(n, m, k)]
    two = two_series_from_log(logs, cutoff)
    return tuple(e for e, b in sorted(two.coeffs.items()) if rational_mod2(b.coefficient(0)))


def _height_by_two_series(ctx, cutoff):
    """Oracle: (height, coefficient JSON) off the residue 2-series of _residue_two_series."""
    K = ctx.residue_ring
    odd = _residue_two_series(ctx.n, ctx.m, cutoff)
    height, lead = height_of_two_series(TruncatedSeries1(K, {e: K.u_pow(e - 1) for e in odd}, cutoff))
    return height, residue_json(lead)


@pytest.mark.parametrize("n,m,d,cutoff", _oracle_cases())
def test_residue_height_matches_the_residue_law(n, m, d, cutoff, monkeypatch):
    """The v-image route against the two-variable residue law: the same
    (height, coefficient), and the residue law's whole 2-series up to the
    cutoff against the two-series oracle."""
    # residue_fgl builds fgl_from_log(log_from_v(k), X) afresh; one law per
    # (k, X) serves every (n, m, d), as at cutoff 32 it takes seconds
    monkeypatch.setattr(lubin_tate, "fgl_from_log", lambda ls, X: _universal_law(len(ls), X))
    ctx = LTContext(n, m, d=d)
    F = residue_fgl(ctx, cutoff)
    height, lead = height_of_residue_fgl(F)
    p = residue_height(ctx, cutoff)["params"]
    assert (p["computed_height"], p["coefficient"]) == (height, residue_json(lead))
    assert height == ctx.h
    K = ctx.residue_ring
    odd = _residue_two_series(n, m, cutoff)
    assert two_series(F).coeffs == {e: K.u_pow(e - 1) for e in odd}


# every (n, m) with n <= 3, m <= 4 and h <= 8, at the cutoffs 2^h, 32 and 64
_HEIGHT_CASES = [
    (n, m, d, cutoff)
    for n, m in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))
    for d in (1, 2)
    for cutoff in sorted({1 << ((1 << (n - 1)) * m), 32, 64})
    if cutoff >= 1 << ((1 << (n - 1)) * m)
]


@pytest.mark.parametrize("n,m,d,cutoff", _HEIGHT_CASES)
def test_residue_height_matches_the_two_series(n, m, d, cutoff):
    """The first odd v_k image against the first odd coefficient of [2](x)."""
    ctx = LTContext(n, m, d=d)
    p = residue_height(ctx, cutoff)["params"]
    assert (p["computed_height"], p["coefficient"]) == _height_by_two_series(ctx, cutoff)
    assert p["computed_height"] == ctx.h


def test_residue_height_with_no_odd_v_image_exceeds_the_cutoff(monkeypatch, capsys):
    def even(self, k):
        return tuple((2,) + (0,) * (self.h - 1) for _ in range(k))

    monkeypatch.setattr(lubin_tate.OrbitTable, "v_images", even)
    report = residue_height(LTContext(2, 1))
    assert report["status"] == "failed"
    assert report["params"]["computed_height"] is None
    assert report["params"]["coefficient"] == report["witness"] == []  # the residue 0
    argv = ["verify", "height", "--n", "2", "--m", "1", "--cutoff", "32"]
    report = _cli_failed_report(argv, capsys)
    assert report["params"]["computed_height"] is None
    assert report["params"]["cutoff"] == 32
    assert report["witness"] == []


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_log_mod_tau_is_the_tau_free_part_of_the_specialized_log(n, m):
    """c_k against lt_specialize(2^k l_k): its tau-degree-0 part is exactly
    2^k c_k u^{2^k-1} (mod 2^M), and 2^k l_k is integral, so no case is
    lost to a denominator."""
    ctx = LTContext(n, m, precision=10, madic=10)
    cs = lubin_tate._log_mod_tau(ctx, 4)
    assert any(QQ(c).denominator > 1 for c in cs)  # the check sees fractions
    for k, (lk, ck) in enumerate(zip(rn_log(rn_context(n, 4)), cs), start=1):
        image = lt_specialize(ctx, lk.scalar_mul(1 << k))
        tau_free = {key: c for key, c in image.coords.items() if not any(key[0])}
        expected = ctx.from_rational(ck * (1 << k)) * ctx.u_pow((1 << k) - 1)
        assert tau_free == expected.coords


def _log_mod_tau_from_rn_log(ctx, k_max):
    """Oracle: sum the coefficients of the t_m-only monomials of l_k over all of R_n."""
    rn = rn_context(ctx.n, k_max)
    ring = rn.ring_q
    other = [v.i != ctx.m for v in ring.variables]
    return [
        sum(
            (c for mono, c in lk.terms.items()
             if not any(e and o for e, o in zip(ring.decode(mono), other))),
            QQ(0),
        )
        for lk in rn_log(rn)
    ]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3)])
def test_log_mod_tau_matches_the_logarithm_over_all_of_rn(n, m):
    """The recursion on the image of Q[gamma^j t_m] against rn_log of R_n."""
    k_max = max(4, (1 << (n - 1)) * m)
    ctx = LTContext(n, m)
    cs = lubin_tate._log_mod_tau(ctx, k_max)
    assert cs == _log_mod_tau_from_rn_log(ctx, k_max)
    assert any(c for c in cs)


def test_residue_height_runs_without_the_v_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("residue_height left the mod-(tau) route")

    for name in ("v_in_lt", "v_in_rn", "lt_specialize", "log_from_v", "fgl_from_log",
                 "residue_fgl", "_log_mod_tau"):
        monkeypatch.setattr(lubin_tate, name, refuse)
    monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())
    # (2, 2) and (2, 1) share n and the cutoff 16 but not the table
    cases = ((2, 1, 1, 32), (2, 2, 2, 16), (2, 1, 1, 16), (3, 1, 1, 16), (1, 4, 2, 16))
    for n, m, d, cutoff in cases:
        ctx = LTContext(n, m, d=d)
        assert residue_height(ctx, cutoff)["status"] == "verified"


# ---- norm factors and the fixed subring ----------------------------------------

@pytest.mark.parametrize(
    "n,m,d,indices", [(2, 1, 1, [2, 1]), (2, 2, 2, [4, 2]), (3, 1, 1, [4, 2, 1])]
)
def test_d_factors_are_units(n, m, d, indices):
    report = d_factors(LTContext(n, m, d=d))
    p = report["params"]
    assert report["status"] == "verified"
    assert p["indices"] == indices
    assert all(p["verdicts"]) and p["product_is_unit"]
    assert all(len(r) == 1 for r in p["residues"])  # residues are monomials


def test_d_factor_residue_degrees():
    ctx = LTContext(2, 1)
    p = d_factors(ctx)["params"]
    # norm of t_2^{C_2} (degree 6): residue u-exponent 6; of t_1^{C_4}: 2
    assert [r[0][0] for r in p["residues"]] == [6, 2]


# ---- the orbit table against the specialization route ----------------------------

# every (n, m) the suite covers with the specialization route; at (3, 2) that
# route takes minutes
_ORBIT_CASES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3))


def _up_to_tau_squared(ctx, x):
    """The tau-degree 0 and 1 coordinates of x, with u graded away, in the
    order of an orbit-table value: (c_0, c_idx) mod 2^M and 2^{M-1}."""
    out = [0] * ctx.h
    for (exps, _), c in x.coords.items():
        if sum(exps) == 0:
            out[0] = c[0]
        elif sum(exps) == 1:
            out[1 + exps.index(1)] = c[0]
    return out


def _as_stored(ctx, value):
    """An orbit-table value (integers) reduced as a Lubin-Tate element stores it."""
    masks = [ctx._masks[0]] + [ctx._masks[1]] * (ctx.h - 1)
    return [c & mask for c, mask in zip(value, masks)]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_orbit_generator_images_follow_the_sign_rule(n, m):
    """rho(gamma^p t_i) against lt_specialize(gamma_act(t_i, p)) for every
    p mod 2^n: past p = 2^{n-1} the image is negated, and t_i with i > m dies."""
    ctx = LTContext(n, m, precision=10, madic=10)
    table = orbit_table(n, m)
    for i in range(1, min(m + 1, ctx.h) + 1):
        t = ctx.rn.generator(i)
        for p in range(1 << n):
            image = lt_specialize(ctx, gamma_act(t, p))
            assert image.is_homogeneous()
            expected = table._images[i - 1][p] if i <= m else (0,) * ctx.h
            assert _up_to_tau_squared(ctx, image) == _as_stored(ctx, expected)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_orbit_logs_are_the_specialized_logarithm(n, m):
    """2^k f_k(p) against lt_specialize(gamma^p (2^k l_k)) mod (tau)^2."""
    ctx = LTContext(n, m, precision=12, madic=12)
    logs = orbit_table(n, m).logs(3)
    for k, lk in enumerate(rn_log(rn_context(n, 3)), start=1):
        for p in range(1 << n):
            image = lt_specialize(ctx, gamma_act(lk.scalar_mul(1 << k), p))
            assert _up_to_tau_squared(ctx, image) == _as_stored(ctx, logs[k - 1][p])


@pytest.mark.parametrize("n,m", _ORBIT_CASES)
def test_orbit_v_and_level_images_are_the_specialized_ones(n, m):
    """The images of v_1 .. v_4 and of the norm-factor generators against
    lt_specialize of v_in_rn and t_level, mod (tau)^2 and mod (tau)."""
    ctx = LTContext(n, m, precision=10, madic=10)
    table = orbit_table(n, m)
    vs = v_in_rn(rn_context(n, 4), 4)
    for v, value in zip(vs, table.v_images(4)):
        assert _up_to_tau_squared(ctx, lt_specialize(ctx, v)) == _as_stored(ctx, value)
    for r in range(1, n + 1):
        k_r = (1 << (n - r)) * m
        images = t_level(rn_context(n, k_r), r)
        for x, t in zip(images, table.level(1 << (n - r), k_r)):
            assert _up_to_tau_squared(ctx, lt_specialize(ctx, x))[0] == _as_stored(ctx, (t,))[0]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_orbit_log_constants_match_the_log_mod_tau(n, m):
    ctx = LTContext(n, m)
    k = max(6, ctx.h)
    assert _log_constants(n, m, k) == lubin_tate._log_mod_tau(ctx, k)


def _packed_residue(spec, coords):
    """The residue in k of a coordinate tuple, coordinate i as bit i."""
    return sum(b << i for i, b in enumerate(WittElement(spec, 1, coords).coeffs))


def _cotangent_matrix_by_specialization(ctx):
    """The cotangent rows read off v_1 .. v_{h-1} specialized into E."""
    rows = [[1] + [0] * (ctx.h - 1)]
    if ctx.h == 1:
        return rows
    for v in v_in_rn(rn_context(ctx.n, ctx.h - 1), ctx.h - 1):
        g = lt_specialize(ctx, v)
        assert g.filtration() >= 1 and g.is_homogeneous()
        s = g.u_exponents()[0] if g.coords else 0
        c2 = g.coords.get((ctx._zero_exps, s))
        row = [0 if c2 is None else _packed_residue(ctx.spec, [x >> 1 for x in c2])]
        for idx in range(len(ctx.taus)):
            exps = [0] * len(ctx.taus)
            exps[idx] = 1
            c = g.coords.get((tuple(exps), s))
            row.append(0 if c is None else _packed_residue(ctx.spec, c))
        rows.append(row)
    return rows


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", _ORBIT_CASES)
def test_cotangent_matches_the_specialization_route(n, m, d):
    ctx = LTContext(n, m, d=d)
    p = cotangent_check(ctx)["params"]
    assert p["matrix"] == _cotangent_matrix_by_specialization(ctx)
    assert p["rank"] == ctx.h


def _orbit_product_factors(ctx, level=t_level_in_lt):
    """The norm factors of d_factors as elements of E, the oracle of its
    residues and verdicts: factor i is the product of the 2^{n-1} conjugates
    of the image of the level-2^i generator at index 2^{n-i} m, specialized
    from R_n (level(ctx, i) gives the images of that family)."""
    factors = []
    for i in range(1, ctx.n + 1):
        k_i = (1 << (ctx.n - i)) * ctx.m  # <= h, the generator bound of ctx.rn
        conj = factor = level(ctx, i)[k_i - 1]
        for _ in range(ctx.half - 1):
            conj = lt_gamma(ctx, conj)
            factor = factor * conj
        factors.append(factor)
    return factors


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", _ORBIT_CASES)
def test_unit_factors_match_the_orbit_product(n, m, d):
    ctx = LTContext(n, m, d=d)
    factors = _orbit_product_factors(ctx)
    report = d_factors(ctx)
    p = report["params"]
    assert p["residues"] == [residue_json(f.residue()) for f in factors]
    assert p["verdicts"] == [f.is_unit() for f in factors]
    assert p["product_is_unit"] == functools.reduce(LTElement.__mul__, factors).is_unit()
    assert report["witness"] is None


def _falsify_factor(monkeypatch, ctx, i):
    """Make the orbit table report norm factor i of ctx alone as a non-unit:
    its generator, t_{k_i} at level 2^i (s = 2^{n-i} in OrbitTable.level),
    gets an even image.  The levels of the factors differ, so no other factor
    reads the faked value."""
    monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())
    table = orbit_table(ctx.n, ctx.m)
    s = 1 << (ctx.n - i)
    table._levels[s] = table.level(s, s * ctx.m - 1) + (2,)


def _factor_witness(ctx, i):
    """The witness of a verdict whose first non-unit factor is i."""
    return {"factor": i, "index": (1 << (ctx.n - i)) * ctx.m, "level": 1 << i, "residue": []}


def test_falsified_unit_factor_reports_the_table_witness(monkeypatch, capsys):
    ctx = lubin_tate.lt_context(2, 1)
    _falsify_factor(monkeypatch, ctx, 1)
    report = d_factors(ctx)
    assert report["status"] == "failed"
    assert report["params"]["verdicts"] == [False, True]
    assert report["params"]["product_is_unit"] is False
    assert report["witness"] == _factor_witness(ctx, 1) == {
        "factor": 1, "index": 2, "level": 2, "residue": []}
    # the oracle finds that same factor a non-unit once its level generator is 2 u^3
    fake = [ctx.from_int(1), ctx.from_int(2) * ctx.u_pow(3)]
    factors = _orbit_product_factors(
        ctx, lambda c, r: fake if r == 1 else t_level_in_lt(c, r))
    assert [f.is_unit() for f in factors] == report["params"]["verdicts"]
    assert residue_json(factors[0].residue()) == report["witness"]["residue"]
    argv = ["verify", "unit-factors", "--n", "2", "--m", "1"]
    assert _cli_failed_report(argv, capsys) == report


def test_falsified_table_disagrees_with_the_orbit_product(monkeypatch):
    """A table that calls a unit factor a non-unit fails the oracle comparison
    of test_unit_factors_match_the_orbit_product: the orbit product still
    finds a unit."""
    ctx = LTContext(2, 1)
    _falsify_factor(monkeypatch, ctx, 1)
    table = d_factors(ctx)["params"]["residues"]
    oracle = [residue_json(f.residue()) for f in _orbit_product_factors(ctx)]
    assert table != oracle
    assert table[0] == [] and len(oracle[0]) == 1 and table[1:] == oracle[1:]


@pytest.mark.parametrize("n,m,i", [(n, m, i) for n, m in ((2, 1), (2, 2), (3, 1))
                                   for i in range(1, n + 1)])
def test_each_falsified_factor_is_the_witness(monkeypatch, n, m, i):
    ctx = LTContext(n, m)
    _falsify_factor(monkeypatch, ctx, i)
    report = d_factors(ctx)
    p = report["params"]
    assert report["status"] == "failed"
    assert p["verdicts"] == [j != i for j in range(1, n + 1)]
    assert p["residues"][i - 1] == []
    assert p["product_is_unit"] is False
    assert report["witness"] == _factor_witness(ctx, i)


def test_orbit_values_must_be_integral():
    # 2 f_1(0) = 1 and every other f_1(p), f_2(p) zero: then T_1 = f_1(0) -
    # f_1(1) = 1/2, v_1 = -2 f_1(0) = -1 and v_2 = -14 f_2(0) - f_1(0) v_1^2 = -1/2
    table = lubin_tate.OrbitTable(2, 1)
    zero = ((0, 0),) * 4
    table._logs = (((1, 0),) + zero[1:], zero)
    with pytest.raises(ConsistencyFailure, match="t_1"):
        table.level(1, 1)
    with pytest.raises(ConsistencyFailure, match="v_2"):
        table.v_images(2)


def test_fixed_subring_trivial_torus():
    report = fixed_subring_presentation(LTContext(2, 1, d=1))
    p = report["params"]
    assert report["status"] == "verified"
    assert p["alpha"] == 1
    assert p["monomials_checked"] == p["monomials_fixed"]


def test_fixed_subring_cube_roots():
    ctx = LTContext(2, 2, d=2)
    report = fixed_subring_presentation(ctx)
    p = report["params"]
    assert report["status"] == "verified"
    assert p["alpha"] == 3 and p["q"] == 3
    assert 0 < p["monomials_fixed"] < p["monomials_checked"]
    assert p["u_power_generator"] == 3  # u^3 is the smallest fixed power of u


def test_fixed_subring_u_window_past_the_cap_raises():
    # m = 20 puts the u-window at 2^21 - 2, past the cap of 2^20
    with pytest.raises(ValueError, match="representable window"):
        fixed_subring_presentation(LTContext(1, 20))


def _multiplicative_order(z):
    """The order of z in k^x, or None for z = 0."""
    if z.is_zero():
        return None
    k, power = 1, z
    while not power == z.spec.one:
        k, power = k + 1, power * z
    return k


def _fixed_subring_by_monomials(ctx):
    """The fixed-subring report, one monomial of the box at a time: the oracle
    for fixed_subring_presentation, which applies each map once to the box.

    Each monomial of the box is built on its own, both maps are applied to
    it, and it counts as fixed when its image equals it.  The maps are read
    from the module, so a patched map reaches both routes.
    """
    alpha = ctx.alpha
    u_bound = max(2 * ctx.q, alpha + 1)
    zeta = next(z for z in ctx.spec.elements() if _multiplicative_order(z) == alpha)
    checked = 0
    fixed = 0
    witness = None

    def monomials(bound):
        def rec(idx, rem, acc):
            if idx == len(ctx.taus):
                yield tuple(acc)
                return
            for e in range(rem + 1):
                acc.append(e)
                yield from rec(idx + 1, rem - e, acc)
                acc.pop()

        yield from rec(0, bound, [])

    for exps in monomials(lubin_tate._TAU_BOUND):
        for ue in range(-u_bound, u_bound + 1):
            mono = ctx.monomial(exps, ue)
            if mono.is_zero():
                continue
            predicted = _chi_of(ctx, exps, ue) % alpha == 0
            actual = lubin_tate.lt_zeta(ctx, zeta, mono) == mono
            galois_fixed = lubin_tate.lt_galois(ctx, mono) == mono
            if actual != predicted or not galois_fixed:
                witness = mono.to_json()
                break
            checked += 1
            fixed += int(predicted)
        if witness is not None:
            break
    ok = witness is None
    return _report(
        "fixed-subring",
        {
            "alpha": alpha,
            "q": ctx.q,
            "monomials_checked": checked,
            "monomials_fixed": fixed,
            "u_power_generator": alpha,
        },
        ok,
        witness=witness,
        bounds={**ctx.bounds(), "tau_degree": lubin_tate._TAU_BOUND, "u_window": u_bound},
    )


_FIXED_SUBRING_CONFIGS = (
    # every lt-local pool configuration
    [(2, m, d, madic, precision) for m in (1, 2, 3) for d in (1, 2, 3)
     for madic, precision in ((6, 8), (8, 10))]
    + [(n, m, d, 6, 8) for n in (1, 3) for m in (1, 2, 3) for d in (1, 2, 3)]
    # the truncation edges, where tau-degree 1 or 2 is already 0
    + [(2, m, d, madic, madic) for m, d in ((1, 1), (2, 2), (3, 3)) for madic in (1, 2)]
    # d = 4, the largest field within the documented limits
    + [(2, 2, 4, 6, 8), (3, 3, 4, 10, 16)]
)


@pytest.mark.parametrize("n,m,d,madic,precision", _FIXED_SUBRING_CONFIGS)
def test_fixed_subring_matches_the_monomial_oracle(n, m, d, madic, precision):
    ctx = LTContext(n, m, d=d, precision=precision, madic=madic)
    report = fixed_subring_presentation(ctx)
    assert report["status"] == "verified"
    assert canonical_json(report) == canonical_json(_fixed_subring_by_monomials(ctx))


def _cube_root_case():
    """(ctx, key of u^0) at (n, m, d) = (2, 2, 2), where alpha = 3."""
    ctx = LTContext(2, 2, d=2)
    return ctx, (ctx._zero_exps, 0)


def _assert_both_routes_fail_alike(ctx):
    new = fixed_subring_presentation(ctx)
    old = _fixed_subring_by_monomials(ctx)
    assert new["status"] == old["status"] == "failed"
    assert canonical_json(new["witness"]) == canonical_json(old["witness"])
    assert canonical_json(new) == canonical_json(old)  # and the same counts
    return new


def _assert_cli_fails(capsys):
    assert cli.main(["verify", "fixed-subring", "--n", "2", "--m", "2", "--d", "2"]) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["ok"] is False
    assert body["reports"][0]["status"] == "failed"
    return body["reports"][0]


def test_fixed_subring_falsified_by_the_torus_action(monkeypatch, capsys):
    # u^0 is fixed; a torus action that scales it by T(zeta) falsifies it
    ctx, key = _cube_root_case()
    original = lubin_tate.lt_zeta

    def scaled(ctx, z, e):
        image = original(ctx, z, e)
        if key not in image.coords:
            return image
        term = ctx.monomial(*key, image.coords[key])
        return image - term + term.scale(teichmuller(z, ctx.precision))

    monkeypatch.setattr(lubin_tate, "lt_zeta", scaled)
    report = _assert_both_routes_fail_alike(ctx)
    assert report["witness"] == ctx.monomial(*key).to_json()
    assert report["params"]["monomials_checked"] == report["bounds"]["u_window"]  # u^-6 .. u^-1
    assert report["params"]["monomials_fixed"] == 2  # u^-6, u^-3
    assert _assert_cli_fails(capsys) == report


def test_fixed_subring_falsified_by_the_galois_action(monkeypatch, capsys):
    # a Galois action that adds 2 u^0 moves the coefficient of u^0 from 1 to 3
    ctx, key = _cube_root_case()
    original = lubin_tate.lt_galois

    def bumped(ctx, e):
        image = original(ctx, e)
        return image + ctx.monomial(*key).scale(2) if key in e.coords else image

    monkeypatch.setattr(lubin_tate, "lt_galois", bumped)
    report = _assert_both_routes_fail_alike(ctx)
    assert report["witness"] == ctx.monomial(*key).to_json()
    assert report["params"]["monomials_checked"] == report["bounds"]["u_window"]
    assert _assert_cli_fails(capsys) == report


def test_fixed_subring_rejects_an_action_that_moves_a_monomial(monkeypatch, capsys):
    # u^1 is not fixed (chi = -1); moving its term out of the box keeps it
    # "not fixed" one monomial at a time, but no diagonal map does that
    ctx = _cube_root_case()[0]
    key = (ctx._zero_exps, 1)
    original = lubin_tate.lt_zeta

    def moved(ctx, z, e):
        image = original(ctx, z, e)
        if key not in image.coords:
            return image
        c = image.coords[key]
        far = ctx.monomial(key[0], 100, c)
        return image - ctx.monomial(*key, c) + far

    monkeypatch.setattr(lubin_tate, "lt_zeta", moved)
    assert _fixed_subring_by_monomials(ctx)["status"] == "verified"
    with pytest.raises(ConsistencyFailure, match="moved a monomial"):
        fixed_subring_presentation(ctx)
    assert cli.main(["verify", "fixed-subring", "--n", "2", "--m", "2", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an action moved a monomial of the box\n"


def test_fixed_subring_keeps_its_box_and_checks_the_actions_on_every_call(monkeypatch):
    # the box is a table of the shared context; the images and the verdict
    # are not, so an action patched after the box is built still fails the
    # claim, and the claim holds again once it is unpatched
    ctx = lubin_tate.lt_context(2, 2, d=2)
    assert fixed_subring_presentation(ctx)["status"] == "verified"
    box = ctx._fixed_box[2]
    key = (ctx._zero_exps, 0)
    zeta_map, galois_map = lubin_tate.lt_zeta, lubin_tate.lt_galois

    def scaled(ctx, z, e):
        image = zeta_map(ctx, z, e)
        if key not in image.coords:
            return image
        term = ctx.monomial(*key, image.coords[key])
        return image - term + term.scale(teichmuller(z, ctx.precision))

    def bumped(ctx, e):
        image = galois_map(ctx, e)
        return image + ctx.monomial(*key).scale(2) if key in e.coords else image

    for name, patched in (("lt_zeta", scaled), ("lt_galois", bumped)):
        with monkeypatch.context() as patch:
            patch.setattr(lubin_tate, name, patched)
            report = _assert_both_routes_fail_alike(ctx)
            assert report["witness"] == ctx.monomial(*key).to_json()
        report = fixed_subring_presentation(ctx)
        assert report["status"] == "verified"
        assert canonical_json(report) == canonical_json(_fixed_subring_by_monomials(ctx))
        assert ctx._fixed_box[2] is box


def test_fixed_subring_stores_no_box_when_a_check_raises(monkeypatch):
    ctx = LTContext(1, 20)  # the u-window past the cap
    for _ in range(2):
        with pytest.raises(ValueError, match="representable window"):
            fixed_subring_presentation(ctx)
        assert ctx._fixed_box is None
    # a generator of lower order fails the check of the table of lifts the
    # box reads its torsion generator off, on every call; a fresh field
    # holds no table yet
    monkeypatch.setattr(coefficients, "_FIELDS", AtomicCache())
    monkeypatch.setattr(coefficients, "_multiplicative_generator", lambda spec: spec.one)
    ctx = LTContext(2, 2, d=2)
    for _ in range(2):
        with pytest.raises(ConsistencyFailure, match="g has order below 3"):
            fixed_subring_presentation(ctx)
        assert ctx._fixed_box is None and ctx.kernel._lifts is None


def test_the_claims_build_no_rn_context(monkeypatch):
    # no claim reads ctx.rn, so none builds the R_2 context at k_max = h = 6
    monkeypatch.setattr(equivariant_ring, "_CONTEXTS", AtomicCache())
    ctx = LTContext(2, 3)
    for claim in (fixed_subring_presentation, residue_height, cotangent_check, d_factors):
        assert claim(ctx)["status"] == "verified"
    assert not equivariant_ring._CONTEXTS
    assert ctx.rn is rn_context(2, 6)
    assert list(equivariant_ring._CONTEXTS) == [(2, 6, None)]


def test_four_threads_on_one_fresh_lt_context_give_the_serial_reports(monkeypatch):
    """The orbit table is built under the lock of _ORBIT_TABLES, and the box and
    lazy tables of a context take none: the four Lubin-Tate claims filling
    them at once print what they print one by one."""
    claims = (cotangent_check, residue_height, d_factors, fixed_subring_presentation)

    def fresh_context():
        monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())
        return LTContext(2, 2, d=2)

    ctx = fresh_context()
    serial = [canonical_json(claim(ctx)) for claim in claims]
    ctx = fresh_context()
    start = threading.Barrier(len(claims), timeout=60)

    def run(claim):
        start.wait()
        return canonical_json(claim(ctx))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(claims)) as pool:
            assert list(pool.map(run, claims, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


# ---- serialization and tables ---------------------------------------------------

def test_json_shapes():
    ctx = LTContext(2, 1)
    x = ctx.tau(1, 0) * ctx.u_pow(2) + ctx.from_int(3)
    rows = x.to_json()
    assert rows == sorted(rows)
    assert all(len(r) == 3 for r in rows)
    assert [(0,), 0] == [tuple(rows[0][0]), rows[0][1]]
    K = ctx.residue_ring
    assert residue_json(K.u_pow(2) + K.one()) == [[0, [1]], [2, [1]]]


def test_action_table():
    ctx = LTContext(2, 2, d=2)
    table = action_table(ctx, "gamma")
    assert set(table) == {"u", "tau1", "g1tau1", "tau2"}
    assert table["u"] == ctx.gamma_u(1).to_json()
    assert table["tau1"] == ctx.tau(1, 1).to_json()
    ztable = action_table(ctx, "zeta", zeta=ctx.spec.omega)
    assert ztable["tau2"] == ctx.tau(2, 0).to_json()
    gtable = action_table(ctx, "galois")
    assert gtable["u"] == ctx.u_pow(1).to_json()
    with pytest.raises(ValueError):
        action_table(ctx, "zeta")
    with pytest.raises(ValueError):
        action_table(ctx, "shift")
