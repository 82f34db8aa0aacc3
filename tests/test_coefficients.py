import dataclasses
import random

import pytest

from fgl_forge.coefficients import (
    QQ,
    FiniteFieldSpec,
    WittElement,
    field_refusal,
    finite_field,
    frobenius_lift,
    is_two_local,
    power,
    rational_mod2,
    teichmuller,
    two_valuation,
    witt_kernel,
)

F4 = finite_field(2)
F8 = finite_field(3)


# ---- rationals and Z_(2) ----------------------------------------------------

def test_two_valuation_and_mod2():
    assert two_valuation(QQ(12)) == 2
    assert two_valuation(QQ(3, 4)) == -2
    assert two_valuation(QQ(-8, 3)) == 3
    assert is_two_local(QQ(5, 3)) and not is_two_local(QQ(5, 6))
    assert rational_mod2(QQ(7, 3)) == 1
    assert rational_mod2(QQ(6, 3)) == 0
    with pytest.raises(ValueError, match="has even denominator"):
        rational_mod2(QQ(1, 2))
    # integral coefficients are stored as plain ints
    assert two_valuation(12) == 2 and two_valuation(-8) == 3 and two_valuation(7) == 0
    assert is_two_local(5) and is_two_local(-6)
    assert rational_mod2(7) == 1 and rational_mod2(-6) == 0


# ---- finite fields -----------------------------------------------------------

def test_field_spec_validation():
    FiniteFieldSpec(2, (1, 1, 1))
    with pytest.raises(ValueError):
        FiniteFieldSpec(2, (1, 0, 1))  # x^2+1 = (x+1)^2
    with pytest.raises(ValueError):
        FiniteFieldSpec(3, (0, 0, 0, 1))  # x^3
    with pytest.raises(ValueError):
        FiniteFieldSpec(2, (1, 1))  # degree mismatch
    # x^6+x^5+x^2+1 = (x+1)(x^2+x+1)(x^3+x^2+1) and x^6+x^5+x =
    # x(x^2+x+1)(x^3+x+1): squarefree with factor degrees dividing 6, so
    # x^64 = x mod f while x^4 != x and x^8 != x, yet both are reducible
    for modulus in ((1, 0, 1, 0, 0, 1, 1), (0, 1, 0, 0, 0, 1, 1)):
        with pytest.raises(ValueError, match="is reducible over F_2"):
            FiniteFieldSpec(6, modulus)
    assert FiniteFieldSpec(6, (1, 1, 0, 0, 0, 0, 1)).modbits == 0b1000011
    assert finite_field(4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    # the flag rules, stated once: finite_field raises exactly them
    for d, modulus, message in ((5, None, "no default modulus for d=5"),
                                (2, (1, 1), "modulus must be monic of degree d"),
                                (3, (1, 1, 0, 0), "modulus must be monic of degree d")):
        assert field_refusal(d, modulus) == message
        with pytest.raises(ValueError, match=f"^{message}$"):
            finite_field(d, modulus)
    assert field_refusal(2, (1, 0, 1)) is None  # (x + 1)^2: the spec's own test


def test_gf_field_axioms_exhaustive():
    for spec in (F4, F8, finite_field(4)):
        elts = list(spec.elements())
        one = spec.one
        for a in elts:
            assert a + a == spec.zero
            if not a.is_zero():
                assert a * a.inverse() == one
                # multiplicative order divides 2^d - 1
                assert a ** ((1 << spec.d) - 1) == one
        # a couple of spot products in F_4: w^2 = w + 1, w^3 = 1
        w = F4.omega
        assert w * w == w + F4.one
        assert w * w * w == F4.one


def test_gf_json_roundtrip():
    obj = F8.to_json()
    assert obj == {"d": 3, "modulus": [1, 1, 0, 1]}
    assert finite_field(obj["d"], obj["modulus"]) is F8


# ---- Witt vectors ------------------------------------------------------------

def test_witt_ring_basics():
    one = WittElement.one(F4, 8)
    two = one + one
    assert two == WittElement.from_int(F4, 8, 2)
    assert (two**8).coeffs == (0, 0)  # 2^8 == 0 at precision 8
    assert two.two_valuation() == 1
    w = WittElement(F4, 8, [3, 5])
    assert w * one == w
    assert (w - w).is_zero()
    v = w.inverse()
    assert w * v == one
    with pytest.raises(ValueError, match="reduces to 0 mod 2"):
        two.inverse()


def _clmul(a: int, b: int) -> int:
    """The carry-less product of two bit-packed polynomials over F_2."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    return r


def _gf2_mulmod(a: int, b: int, modbits: int, d: int) -> int:
    # carry-less multiply in F_2[x]/(f) on bit-packed ints, folding x^d back
    # by the modulus after each shift: an arithmetic of k that shares nothing
    # with the Witt kernel, kept as the oracle of W(k) at precision 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> d & 1:
            a ^= modbits
    return r


def _reducible(d: int) -> set:
    """Every reducible monic polynomial of degree d over F_2 (bit-packed), as
    the products g*h with 1 <= deg g < d: brute force, no division."""
    return {
        _clmul(g, h)
        for dg in range(1, d)
        for g in range(1 << dg, 2 << dg)
        for h in range(1 << (d - dg), 2 << (d - dg))
    }


def _bits_tuple(f: int, d: int) -> tuple:
    return tuple(f >> i & 1 for i in range(d + 1))


def _packed(a) -> int:
    return sum(c << i for i, c in enumerate(a.coeffs))


def test_field_check_matches_brute_force_factoring():
    # Gauss's count of irreducible polynomials of degree d over F_2
    counts = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for d in range(1, 9):
        reducible = _reducible(d)
        accepted = 0
        for f in range(1 << d, 2 << d):
            if f in reducible:
                with pytest.raises(ValueError, match="is reducible over F_2"):
                    FiniteFieldSpec(d, _bits_tuple(f, d))
            else:
                FiniteFieldSpec(d, _bits_tuple(f, d))
                accepted += 1
        assert accepted == counts[d]


def test_witt_mod2_is_field_arithmetic():
    # k is W(k) at precision 1: against the carry-less product on bit-packed
    # ints, every pair of elements of every field with d <= 4, under every
    # irreducible modulus
    for d in (1, 2, 3, 4):
        reducible = _reducible(d)
        for f in range(1 << d, 2 << d):
            if f in reducible:
                continue
            spec = finite_field(d, _bits_tuple(f, d))
            elts = list(spec.elements())
            assert [_packed(a) for a in elts] == list(range(1 << d))
            assert all(a.precision == 1 for a in elts)
            lifts = [teichmuller(a, 8) for a in elts]
            for i, a in enumerate(elts):
                assert a.residue() == a and a.is_unit() == (i != 0)
                assert frobenius_lift(a) == a * a
                assert _packed(frobenius_lift(a)) == _gf2_mulmod(i, i, f, d)
                if i:
                    assert _gf2_mulmod(i, _packed(a.inverse()), f, d) == 1
                assert lifts[i].residue() == a
                for j, b in enumerate(elts):
                    assert _packed(a + b) == i ^ j
                    ij = _gf2_mulmod(i, j, f, d)
                    assert _packed(a * b) == ij
                    assert lifts[i] * lifts[j] == lifts[ij]


def test_teichmuller_frozen_oracle_d2():
    # At d=2 the naive lift of omega is already the Teichmuller lift, because
    # x^2+x+1 divides x^3-1 integrally; frozen from the fixed-point iteration.
    t = teichmuller(F4.omega, 4)
    assert t.coeffs == (0, 1)
    # z^2 + z + 1 == 0 mod 16
    assert (t * t + t + WittElement.one(F4, 4)).is_zero()
    t2 = teichmuller(F4.omega ** 2, 4)
    assert t2.coeffs == (15, 15)
    assert (t * t2).coeffs == (1, 0)


def test_teichmuller_frozen_oracle_d3():
    # frozen from an independent straight-line iteration z -> z^8 mod (f~, 2^8)
    t = teichmuller(F8.omega, 8)
    assert t.coeffs == (62, 221, 48)
    assert (t**7).coeffs == (1, 0, 0)
    # precision compatibility: the N=4 lift is the N=8 lift reduced mod 16
    t4 = teichmuller(F8.omega, 4)
    assert t4.coeffs == (14, 13, 0)
    assert tuple(c % 16 for c in t.coeffs) == t4.coeffs


def test_teichmuller_trivial_and_multiplicative():
    for spec in (F4, F8):
        N = 8
        assert teichmuller(spec.zero, N).is_zero()
        assert teichmuller(spec.one, N) == WittElement.one(spec, N)
        # exhaustive multiplicativity on all of F_{2^d}
        for a in spec.elements():
            assert teichmuller(a, N).residue() == a
            for b in spec.elements():
                assert teichmuller(a, N) * teichmuller(b, N) == teichmuller(a * b, N)


def test_frobenius_lift():
    one = WittElement.one(F4, 8)
    assert frobenius_lift(one) == one
    assert frobenius_lift(one + one) == one + one
    # compare against the Teichmuller oracle (spec d=2, N=4 example)
    assert frobenius_lift(teichmuller(F4.omega, 4)) == teichmuller(F4.omega ** 2, 4)
    for spec, d in ((F4, 2), (F8, 3)):
        for a in spec.elements():
            t = teichmuller(a, 8)
            assert frobenius_lift(t) == teichmuller(frobenius_lift(a), 8)
        # ring homomorphism on random-ish elements
        w1 = WittElement(spec, 8, list(range(3, 3 + d)))
        w2 = WittElement(spec, 8, list(range(7, 7 + d)))
        assert frobenius_lift(w1 * w2) == frobenius_lift(w1) * frobenius_lift(w2)
        assert frobenius_lift(w1 + w2) == frobenius_lift(w1) + frobenius_lift(w2)
        # order exactly d
        w = w1
        for _ in range(d):
            w = frobenius_lift(w)
        assert w == w1
        if d > 1:
            assert frobenius_lift(teichmuller(spec.omega, 8)) != teichmuller(spec.omega, 8)


def _x(spec, N):
    """The class of x in Z_2[x]/(f~) mod 2^N; at d = 1, f~ = f_0 + x."""
    if spec.d == 1:
        return WittElement(spec, N, [-spec.modulus[0]])
    return WittElement(spec, N, [0, 1] + [0] * (spec.d - 2))


def _f_tilde(w):
    """f~(w) by Horner's rule, f~ the {0,1}-lift of the modulus of w's field."""
    acc = WittElement.zero(w.spec, w.precision)
    for b in reversed(w.spec.modulus):
        acc = acc * w + b
    return acc


def _root_by_bit_search(spec, N):
    """The root of f~ mod 2^N that is x^2 mod 2, one bit at a time.

    f~ is separable mod 2, so a root mod 2^j has exactly one correction
    2^j delta, over the 2^d choices of delta in {0,1}^d, that is a root mod
    2^(j+1); the search asserts that it is unique.
    """
    r = list((_x(spec, 1) * _x(spec, 1)).coeffs)
    assert _f_tilde(WittElement(spec, 1, r)).is_zero()
    for j in range(1, N):
        lifts = []
        for delta in range(1 << spec.d):
            c = [a + ((delta >> i & 1) << j) for i, a in enumerate(r)]
            if _f_tilde(WittElement(spec, j + 1, c)).is_zero():
                lifts.append(c)
        assert len(lifts) == 1
        r = lifts[0]
    return WittElement(spec, N, r)


def _frobenius_by_substitution(w, r):
    """Substitute r, the root of f~ that is x^2 mod 2, for x in the
    coordinates of w."""
    acc = WittElement.zero(w.spec, w.precision)
    p = WittElement.one(w.spec, w.precision)
    for c in w.coeffs:
        if c:
            acc = acc + p * c
        p = p * r
    return acc


@pytest.mark.parametrize("N", [1, 8, 10])
@pytest.mark.parametrize("d,modulus", [
    *(pytest.param(d, None, id=str(d)) for d in (1, 2, 3, 4)),
    pytest.param(4, (1, 0, 0, 1, 1), id="4-x^4+x^3+1"),
    pytest.param(6, (1, 1, 0, 0, 0, 0, 1), id="6-x^6+x+1"),
])
def test_frobenius_table_matches_substitution(d, modulus, N):
    spec = finite_field(d, modulus)
    r = _root_by_bit_search(spec, N)
    assert frobenius_lift(_x(spec, N)) == r
    rng = random.Random(100 * d + N + len(modulus or ()))
    for _ in range(20):
        w = WittElement(spec, N, [rng.randrange(-(1 << N), 1 << N) for _ in range(d)])
        assert frobenius_lift(w) == _frobenius_by_substitution(w, r)
    assert frobenius_lift(WittElement.zero(spec, N)).is_zero()


def test_witt_json_roundtrip():
    w = WittElement(F8, 8, [62, 221, 48])
    assert w.to_json() == {"precision": 8, "coeffs": [62, 221, 48]}


# ---- every arithmetic result is in canonical form ------------------------------

def _raw_product(spec, a, b):
    """Coordinates of a * b in Z[x]/(f~), not reduced mod 2^N."""
    d = spec.d
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # x^d = -(f_0 + f_1 x + ... + f_{d-1} x^{d-1}), folded from the top
    for k in range(2 * d - 2, d - 1, -1):
        c, prod[k] = prod[k], 0
        for i, f in enumerate(spec.modulus[:d]):
            prod[k - d + i] -= c * f
    return prod[:d]


def _raw_inverse(spec, N, a):
    """a^(|unit group| - 1) in Z[x]/(f~, 2^N), by square and multiply on raw lists."""
    e = ((1 << spec.d) - 1) * (1 << (spec.d * (N - 1))) - 1
    r, base = [1] + [0] * (spec.d - 1), list(a)
    while e:
        if e & 1:
            r = [c % (1 << N) for c in _raw_product(spec, r, base)]
        base = [c % (1 << N) for c in _raw_product(spec, base, base)]
        e >>= 1
    return r


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_witt_results_are_canonical(d):
    spec = finite_field(d)
    rng = random.Random(40 + d)
    for N in (1, 5, 8):
        top = 1 << N

        def canonical(w, raw):
            assert all(0 <= c < top for c in w.coeffs)
            assert w.coeffs == WittElement(spec, N, raw).coeffs

        for _ in range(25):
            ra = [rng.randrange(-3 * top, 3 * top) for _ in range(d)]
            rb = [rng.randrange(-3 * top, 3 * top) for _ in range(d)]
            a, b = WittElement(spec, N, ra), WittElement(spec, N, rb)
            canonical(a, ra)
            canonical(a + b, [x + y for x, y in zip(ra, rb)])
            canonical(a - b, [x - y for x, y in zip(ra, rb)])
            canonical(-a, [-x for x in ra])
            canonical(a * b, _raw_product(spec, ra, rb))
            k = rng.randrange(-top, top)
            canonical(a + k, [ra[0] + k] + ra[1:])
            canonical(k - a, [k - ra[0]] + [-x for x in ra[1:]])
            canonical(a * k, [x * k for x in ra])
            canonical(WittElement.from_int(spec, N, k), [k] + [0] * (d - 1))
            if a.is_unit():
                canonical(a.inverse(), _raw_inverse(spec, N, ra))


# ---- the coordinate kernel ----------------------------------------------------

def _product_by_power_table(spec, a, b):
    """sum a_i b_j [x^(i+j) mod f~] over the integers, with the residues of
    x^k read off a table built one multiplication by x at a time."""
    d = spec.d
    powers = [[int(i == k) for i in range(d)] for k in range(d)]
    for _ in range(d - 1):
        top, low = powers[-1][-1], [0] + powers[-1][:-1]
        powers.append([c - top * f for c, f in zip(low, spec.modulus)])
    out = [0] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for k, r in enumerate(powers[i + j]):
                out[k] += x * y * r
    return tuple(out)


@pytest.mark.parametrize("N", [1, 8, 10])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coordinate_product_matches_witt_product(d, N):
    spec = finite_field(d)
    kernel = witt_kernel(spec, N)
    assert witt_kernel(spec, N) is kernel and witt_kernel(spec, N + 1) is not kernel
    rng = random.Random(200 * d + N)
    top = 1 << N
    acc, witt_acc = [0] * d, WittElement.zero(spec, N)
    for _ in range(30):
        a = tuple(rng.randrange(-3 * top, 3 * top) for _ in range(d))
        b = tuple(rng.randrange(-3 * top, 3 * top) for _ in range(d))
        raw = kernel.mul(a, b)
        # unmasked: the exact product in Z[x]/(f~)
        assert raw == _product_by_power_table(spec, a, b)
        product = WittElement(spec, N, a) * WittElement(spec, N, b)
        assert kernel.masked(raw) == product.coeffs
        # sums of unmasked products mask once to the sum of the Witt products
        acc = [x + y for x, y in zip(acc, raw)]
        witt_acc = witt_acc + product
        assert kernel.masked(kernel.frobenius(a)) == frobenius_lift(WittElement(spec, N, a)).coeffs
    assert kernel.masked(acc) == witt_acc.coeffs


def test_spec_equality_and_hash_ignore_the_derived_attributes():
    fresh = FiniteFieldSpec(3, (1, 1, 0, 1))
    assert fresh.modbits == 0b1011 and F8.modbits == 0b1011
    witt_kernel(F8, 7)  # fills the shared spec's kernel table, not the fresh one's
    assert fresh == F8 and hash(fresh) == hash(F8) == hash((3, (1, 1, 0, 1)))
    assert repr(fresh) == "FiniteFieldSpec(d=3, modulus=(1, 1, 0, 1))"
    other = FiniteFieldSpec(3, (1, 0, 1, 1))
    assert other != F8 and other.modbits == 0b1101
    assert {fresh: 1}[F8] == 1
    assert [f.name for f in dataclasses.fields(FiniteFieldSpec)] == ["d", "modulus"]


# ---- powers ---------------------------------------------------------------------

def _power_bases():
    from fgl_forge.lubin_tate import lt_context
    from fgl_forge.poly_core import T, rn_ring

    ctx = lt_context(2, 2, d=2)
    ring = rn_ring(2, 2, rational=True)
    return {
        "witt": WittElement(F8, 6, [3, 5, 2]),
        "lubin-tate": (ctx.from_int(3) + ctx.tau(1, 0)) * ctx.u_pow(1) + ctx.tau(2, 0),
        "polynomial": ring.var(T(1)) + ring.var(T(2, 1)).scalar_mul(QQ(1, 3)) + ring.one(),
    }


@pytest.mark.parametrize("name", ["witt", "lubin-tate", "polynomial"])
def test_power_is_the_repeated_product(name):
    x = _power_bases()[name]
    one = x ** 0
    product = one
    for e in range(10):
        assert x ** e == product == power(x, e, one)
        product = product * x
