"""Acceptance gate: every numbered criterion as one timed pass/fail line.

Each test covers one acceptance criterion exactly, asserts the mathematical
content with no tolerance (everything here is exact arithmetic), and asserts
its wall-clock budget.  The summary line prints even under pytest's capture.
"""

import random
import time
from contextlib import contextmanager

import pytest

from fgl_forge.coefficients import (
    QQ,
    WittElement,
    finite_field,
    frobenius_lift,
    rational_mod2,
    teichmuller,
    two_valuation,
)
from fgl_forge.equivariant_ring import (
    RnContext,
    rn_log,
    v_in_rn,
    verify_ideal_invariance,
    verify_log_relations,
    verify_t_collapse,
    verify_tk_recursion,
    verify_tkvk,
    verify_v_collapse,
)
from fgl_forge.lubin_tate import (
    LTContext,
    LTElement,
    cotangent_check,
    d_factors,
    lt_galois,
    lt_gamma,
    lt_zeta,
    residue_fgl,
    residue_height,
    residue_json,
    v_in_lt,
)
from fgl_forge.poly_core import (
    GradedPolynomial,
    GroebnerBasis,
    V,
    f2_membership_linear,
    from_rational_ring,
    reduce_mod2,
)
from fgl_forge.series_fgl import (
    conjugate_fgl,
    fgl_from_log,
    formal_sum,
    height_of_residue_fgl,
    log_from_v,
    two_series,
    two_series_from_log,
)

LOG_GRID = [(1, 4), (2, 4), (3, 3)]
RECURSION_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
SCENARIOS = [(2, 1, 1), (2, 2, 2), (3, 1, 1)]


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(num, budget, desc):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {num:2d}] FAIL           (budget {budget}s)  {desc}")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"[criterion {num:2d}] PASS {elapsed:7.2f}s (budget {budget}s)  {desc}"
            )
        assert elapsed <= budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"

    return run


def _random_lt(ctx, rng, nterms=4, u_exp=None):
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx.taus)
        for _ in range(rng.randrange(3)):
            exps[rng.randrange(len(exps))] += 1
        ue = u_exp if u_exp is not None else rng.randrange(-3, 4)
        c = WittElement.from_int(ctx.spec, ctx.precision, rng.randrange(-9, 10))
        key = (tuple(exps), ue)
        terms[key] = terms.get(key, WittElement.zero(ctx.spec, ctx.precision)) + c
    return LTElement(ctx, terms)


def test_criterion_01_araki_integrality_and_two_typicality(criterion):
    with criterion(1, 60, "universal law k<=4, X=16: integral, [2] = sum^F v_i x^(2^i)"):
        # from_rational_ring raises on an even denominator
        F = conjugate_fgl(fgl_from_log(log_from_v(4), 16), from_rational_ring)
        ring = F.ring
        for coeff in F.two_var.coeffs.values():
            for q in coeff.terms.values():
                assert int(QQ(q).denominator) % 2 == 1  # Z_(2)[v] coefficients
        araki_terms = [(2, 1)] + [(ring.var(V(i)), 1 << i) for i in range(1, 5)]
        assert two_series(F) == formal_sum(F, araki_terms)
        assert two_series_from_log(log_from_v(4), 16) == two_series(F)


def test_criterion_02_log_denominators(criterion):
    with criterion(2, 60, "2^k l_k integral and nonzero mod 2, grid n<=3"):
        for n, k_max in LOG_GRID:
            for k, lk in enumerate(rn_log(RnContext(n, k_max)), start=1):
                scaled = lk.scalar_mul(QQ(2) ** k)
                assert all(two_valuation(c) >= 0 for c in scaled.terms.values())
                assert any(rational_mod2(c) for c in scaled.terms.values())


def test_criterion_03_log_relations_exact(criterion):
    with criterion(3, 120, "equivariant log relations hold exactly, grid n<=3"):
        for n, k_max in LOG_GRID:
            report = verify_log_relations(RnContext(n, k_max))
            assert report["status"] == "verified"


def test_criterion_04_tk_recursion(criterion):
    with criterion(4, 600, "level-drop recursion for t_k mod I_k, (2,k<=4),(3,k<=3)"):
        for n, k in RECURSION_GRID:
            ctx = RnContext(n, k)
            report = verify_tk_recursion(ctx, k)
            assert report["status"] == "verified"
            assert report["params"]["exact"] == (k == 1)  # k = 1 holds literally


def test_criterion_05_tkvk_and_ideal_invariance(criterion):
    with criterion(5, 300, "t_k^(C_2) = v_k mod I_k and gamma-invariance of I_k"):
        for n, k in RECURSION_GRID:
            ctx = RnContext(n, k)
            assert verify_tkvk(ctx, k)["status"] == "verified"
            assert verify_ideal_invariance(ctx, k)["status"] == "verified"


def test_criterion_06_collapse(criterion):
    with criterion(6, 300, "v_r and t_r^(level) collapse into the stated ideals"):
        ctx = RnContext(2, 4, m=1)
        for r in (3, 4):
            assert verify_v_collapse(ctx, r)["status"] == "verified"
        for level_k, r in [(0, 2), (0, 3), (1, 3)]:
            ctx_r = RnContext(2, r, m=1)
            assert verify_t_collapse(ctx_r, level_k, r)["status"] == "verified"


def test_criterion_07_cotangent_rank(criterion):
    with criterion(7, 300, "m = (2, v_1..v_{h-1}) via cotangent rank, 3 scenarios"):
        for n, m, d in SCENARIOS:
            ctx = LTContext(n, m, d=d)
            assert ctx.from_int(2).filtration() >= 1
            for k in range(1, ctx.h):
                assert v_in_lt(ctx, k).filtration() >= 1  # I_h inside m, directly
            report = cotangent_check(ctx)
            assert report["params"]["rank"] == ctx.h
            assert report["status"] == "verified"


def test_criterion_08_residue_height(criterion):
    with criterion(8, 300, "residue law has height h, coefficient ubar^(2^h-1)"):
        for n, m, d in SCENARIOS:
            ctx = LTContext(n, m, d=d)
            report = residue_height(ctx)
            p = report["params"]
            assert report["status"] == "verified"
            assert p["computed_height"] == ctx.h
            assert p["coefficient"] == [[(1 << ctx.h) - 1, [1] + [0] * (d - 1)]]
            assert p["beta"] == ((1 << ctx.h) - 1) // ((1 << m) - 1)
            assert p["unit"] is not None  # recorded, per the open-question contract
            # the two-variable law is the oracle of the 2-series route
            h, lead = height_of_residue_fgl(residue_fgl(ctx, 1 << ctx.h))
            assert (p["computed_height"], p["coefficient"]) == (h, residue_json(lead))


def test_criterion_09_action_suite(criterion):
    with criterion(9, 120, "gamma/zeta/Galois action laws on 50 randoms per scenario"):
        for n, m, d in SCENARIOS:
            ctx = LTContext(n, m, d=d, precision=8, madic=6)
            half = ctx.half
            assert lt_gamma(ctx, ctx.u_pow(1), half) == ctx.u_pow(1).scale(-1)
            zeta = ctx.spec.omega if ctx.alpha > 1 else ctx.spec.one
            rng = random.Random(1000 * n + 10 * m + d)
            for _ in range(50):
                a = _random_lt(ctx, rng)
                b = _random_lt(ctx, rng)
                assert lt_gamma(ctx, a, 1 << n) == a  # gamma has order 2^n
                assert lt_gamma(ctx, a * b) == lt_gamma(ctx, a) * lt_gamma(ctx, b)
                s = rng.randrange(-3, 4)
                hom = _random_lt(ctx, rng, u_exp=s)
                sign = -1 if s % 2 else 1
                assert lt_gamma(ctx, hom, half) == hom.scale(sign)
                assert lt_gamma(ctx, lt_zeta(ctx, zeta, a)) == lt_zeta(
                    ctx, zeta, lt_gamma(ctx, a)
                )
                assert lt_gamma(ctx, lt_galois(ctx, a)) == lt_galois(ctx, lt_gamma(ctx, a))
                conj = a
                for _ in range(d):  # sigma f_zeta sigma^{-1} = f_{sigma(zeta)}
                    conj = lt_galois(ctx, conj)
                assert conj == a
            if ctx.alpha > 1:
                x = _random_lt(ctx, random.Random(3))
                lhs = lt_galois(ctx, lt_zeta(ctx, zeta, lt_galois(ctx, x)))
                assert lhs == lt_zeta(ctx, frobenius_lift(zeta), x)
        guard = LTContext(2, 1, d=2)  # q = 1: nontrivial zeta is not q-torsion
        with pytest.raises(ValueError, match=r"zeta\^1 != 1"):
            lt_zeta(guard, guard.spec.omega, guard.one())


def test_criterion_10_witt_suite(criterion):
    with criterion(10, 30, "Teichmuller multiplicative (exhaustive F_4, F_8), Frobenius"):
        for d in (2, 3):
            spec = finite_field(d)
            N = 8
            lifts = {a.coeffs: teichmuller(a, N) for a in spec.elements()}
            for a in spec.elements():
                for b in spec.elements():
                    assert lifts[(a * b).coeffs] == lifts[a.coeffs] * lifts[b.coeffs]
                assert frobenius_lift(lifts[a.coeffs]) == lifts[frobenius_lift(a).coeffs]
                w = lifts[a.coeffs]
                for _ in range(d):
                    w = frobenius_lift(w)
                assert w == lifts[a.coeffs]  # sigma^d = id
            rng = random.Random(d)
            for _ in range(20):
                w = WittElement(spec, N, [rng.randrange(1 << N) for _ in range(d)])
                out = w
                for _ in range(d):
                    out = frobenius_lift(out)
                assert out == w


def test_criterion_11_d_factors_are_units(criterion):
    with criterion(11, 120, "every norm factor of the periodicity element is a unit"):
        for n, m, d in SCENARIOS:
            report = d_factors(LTContext(n, m, d=d))
            assert report["status"] == "verified"
            assert all(report["params"]["verdicts"])
            assert report["params"]["product_is_unit"]


def test_criterion_12_membership_cross_validation(criterion):
    with criterion(12, 120, "Groebner vs F_2-linear membership, degrees <= 10, n = 2"):
        gens = [reduce_mod2(v) for v in v_in_rn(RnContext(2, 2), 2)]
        ring = gens[0].ring
        gb = GroebnerBasis(ring, gens, 10)
        rng = random.Random(12)
        for degree in range(2, 11, 2):
            monos = ring.monomials_of_degree(degree)
            polys = [GradedPolynomial(ring, {mono: 1}) for mono in monos]
            for p in polys:
                assert gb.normal_form(p).is_zero() == f2_membership_linear(p, gens)
            for _ in range(25):
                p = ring.zero()
                for q in polys:
                    if rng.randrange(2):
                        p = p + q
                if not p.is_zero():
                    assert gb.normal_form(p).is_zero() == f2_membership_linear(p, gens)
