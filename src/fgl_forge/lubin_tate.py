"""The Lubin-Tate ring of a cyclic-2-group fixed-point spectrum, in the
tau-presentation, together with its group action and the verifiers built on it.

The ring is W(k)[[tau-variables]][u^{+-1}] truncated at a fixed order M in the
maximal ideal (2, tau's): a term is kept exactly when

    (2-adic valuation of its Witt coefficient) + (total tau-degree)  <  M,

and its coefficient is stored reduced mod 2^{M - tau-degree}, which is the
canonical representative mod m^M (the ideal m^M meets each monomial component
in exactly 2^{M-|B|} W(k)).  Since 2 lies in the maximal ideal, truncating by
tau-degree alone would be wrong; the coupled filtration makes membership in
powers of the maximal ideal a per-term inspection and makes equality of
elements literal equality of normal forms.  The grading puts |tau| = 0 and |u| = 2, so a
homogeneous element is one whose terms all share a single u-exponent.

Only u itself is carried as a Laurent generator.  Its conjugates are rewritten
through gamma^r(u) = (1 - gamma^{r-1} tau_m) ... (1 - tau_m) u, and the one
missing orbit variable gamma^{2^{n-1}-1} tau_m is the series

    1 + 1/((1 - tau_m)(1 - gamma tau_m) ... (1 - gamma^{2^{n-1}-2} tau_m)),

whose constant term 2 is precisely how 2 enters the maximal ideal.

The residue field K = E/m = k[ubar^{+-1}] is this ring at M = 1 (and N = 1):
every tau-term is 0 and every coefficient is reduced mod 2.  So K is no
separate engine: LTContext.residue_ring is that context, shared by every
truncation of one (n, m, field), and LTElement.residue maps into it.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from operator import add, itemgetter, or_
from types import MappingProxyType

from .coefficients import (
    QQ,
    WittElement,
    finite_field,
    power,
    witt_kernel,
)
from .equivariant_ring import rn_context, t_level, v_in_rn
from .errors import ConsistencyFailure
from .poly_core import AtomicCache, T, V, f2_reduce, gamma_act, orbit_sum, ring_map, rn_ring
from .reports import _report
from .series_fgl import (
    conjugate_fgl,
    fgl_from_log,
    log_from_v,
)

_U_CAP = 1 << 20  # sanity cap on u-exponents; beyond this the model is broken
_TAU_BOUND = 2  # fixed_subring_presentation checks every tau-degree up to this


# ---------------------------------------------------------------------------
# the context and its elements
# ---------------------------------------------------------------------------

class LTContext:
    """The ring W(k)[[tau's]][u^{+-1}] with its C_{2^n} x (Gal x| k^x[q]) action.

    n, m fix the group and the height h = 2^{n-1} m; (d, modulus) fix the
    field k = F_{2^d}; `precision` is the Witt coefficient precision N and
    `madic` the truncation order M in the maximal ideal (N >= M required).
    Immutable after construction; all operations on elements are pure.

    No claim reads a polynomial over R_n: cotangent, unit-factors and height
    read the orbit table of (n, m) (orbit_table), which every field and
    truncation shares, for their verdicts and their witnesses.  The
    equivariant ring `rn`, R_n with generators up to t_h, and the specialized
    v-images and level families built from it serve only the oracles
    (lt_specialize, v_in_lt, t_level_in_lt).

    At M = 1 the context is the residue field K = k[ubar^{+-1}], u playing
    ubar; residue_ring is that context, the same for every N and M.

    Requests share one context per configuration through lt_context, so its
    tables (gamma images, the box of monomials of fixed_subring_presentation
    with its torsion generator) are built once per process; calling
    LTContext directly gives a fresh context with empty tables.  A table
    holds inputs that depend only on the context, never an image or a report
    of a claim; the oracles keep none.  The Teichmuller lifts that the torus
    action and the torsion generator read are a table of the Witt kernel
    (WittKernel.lifts), one per (field, N).
    """

    def __init__(self, n, m, d=1, modulus=None, precision=8, madic=6):
        # the field first, as lt_context builds it: both refuse bad flags alike
        self.spec = finite_field(d, modulus)
        if n < 1 or m < 1:
            raise ValueError("n and m must be >= 1")
        if madic < 1:
            raise ValueError("the truncation order must be >= 1")
        if precision < madic:
            raise ValueError("Witt precision must be at least the truncation order")
        self.n = n
        self.m = m
        self.half = 1 << (n - 1)
        self.h = self.half * m
        self.q = (1 << m) - 1
        self.precision = precision
        self.madic = madic
        self.kernel = witt_kernel(self.spec, precision)
        # the coefficient of a term of tau-degree s is kept masked to 2^{M-s}
        self._masks = tuple((1 << (madic - s)) - 1 for s in range(madic))
        self._unit = (1,) + (0,) * (d - 1)  # the coordinates of 1
        self.alpha = math.gcd(self.q, (1 << d) - 1)
        # tau-variables: gamma^j tau_i for i < m (j < 2^{n-1}) and i = m
        # (j < 2^{n-1} - 1); exactly h - 1 of them.
        taus = [(i, j) for i in range(1, m) for j in range(self.half)]
        taus += [(m, j) for j in range(self.half - 1)]
        self.taus = tuple(taus)
        if len(self.taus) != self.h - 1:
            raise ConsistencyFailure("tau-variable count is off")
        self.tau_index = {t: idx for idx, t in enumerate(self.taus)}
        # the torus weight 2^i - 1 of gamma^j tau_i, for the character chi
        self._chi_weights = tuple((1 << i) - 1 for i, _ in self.taus)
        self._zero_exps = (0,) * len(self.taus)
        self._gamma_var = None  # lazy: index -> image under gamma
        self._gamma_var_pow = {}  # (index, exponent) -> gamma(tau_index)^exponent
        self._gamma_u_pow = {}  # u-exponent -> image of u^e under gamma
        self._fixed_box = None  # lazy: (zeta, u_bound, box) of fixed_subring_presentation

    @property
    def rn(self):
        """The shared R_n context with generators up to t_h, for the oracles;
        built on first read, so the claims, which never read it, build none."""
        return rn_context(self.n, self.h)

    @cached_property
    def residue_ring(self):
        """K = k[ubar^{+-1}]: the shared context of (n, m, k) at N = M = 1.
        No claim reads it; is_unit, inverse and the oracles do."""
        return lt_context(self.n, self.m, self.spec.d, self.spec.modulus,
                          precision=1, madic=1)

    # -- coefficient-ring protocol ------------------------------------------

    def zero(self):
        return _element(self, {})

    def one(self):
        return self.from_int(1)

    def from_int(self, c):
        return self.monomial(self._zero_exps, 0, (int(c),) + self._unit[1:])

    def _witt_coords(self, w: WittElement):
        if w.spec != self.spec or w.precision != self.precision:
            raise ValueError("Witt coefficient from a different context")
        return w.coeffs

    def from_witt(self, w: WittElement):
        return self.monomial(self._zero_exps, 0, self._witt_coords(w))

    def from_rational(self, q):
        return self.from_int(_two_local_int(QQ(q), self.precision))

    def dot(self, pairs):
        """sum a*b over the (a, b) pairs of elements of this context, mod m^M.

        A pair of terms with filtrations f1, f2 has a product in m^{f1+f2}, so
        it is dropped when f1 + f2 >= M.  The right operand is walked in
        filtration order, sorted once and kept, so its loop stops at its first
        dropped pair; the left is walked as stored and skips a term that no
        right term fits.  The kernel products of every pair are summed
        unmasked into one dict, normalised once; a product is one pair's dot.
        """
        M = self.madic
        mul = self.kernel.mul
        out = {}
        for a, b in pairs:
            if a.ctx is not self or getattr(b, "ctx", None) is not self:
                raise ValueError("elements from different Lubin-Tate contexts")
            right = b._by_filtration()
            f_min = right[0][0] if right else M
            for (e1, u1), c1 in a.coords.items():
                room = M - _valuation(c1) - sum(e1)
                if f_min >= room:
                    continue
                for f2, e2, u2, c2 in right:
                    if f2 >= room:
                        break
                    key = (tuple(map(add, e1, e2)), u1 + u2)
                    p = mul(c1, c2)
                    s = out.get(key)
                    out[key] = p if s is None else tuple(map(add, s, p))
        return _element(self, _canonical(self, out))

    def monomial(self, exps, ue, coords=None):
        """coords * tau^exps u^ue (coords defaults to 1), reduced mod m^M."""
        return _element(self, _canonical(self, {(exps, ue): coords or self._unit}))

    # -- generators -----------------------------------------------------------

    def tau(self, i, j=0):
        idx = self.tau_index.get((i, j))
        if idx is None:
            raise ValueError(f"gamma^{j} tau_{i} is not a generator here")
        exps = list(self._zero_exps)
        exps[idx] = 1
        return self.monomial(tuple(exps), 0)

    def u_pow(self, e=1):
        return self.monomial(self._zero_exps, e)

    def tau_name(self, idx):
        i, j = self.taus[idx]
        return f"tau{i}" if j == 0 else f"g{j}tau{i}"

    def tau_m_element(self, j):
        """gamma^j tau_m as a ring element, 0 <= j < 2^{n-1}.

        All but the top index are generators; the top one is the geometric
        series with constant term 2, and at n = 1 that series is 2 itself.
        """
        if not 0 <= j < self.half:
            raise ValueError("conjugation index out of range")
        if j < self.half - 1:
            return self.tau(self.m, j)
        prod = self.one()
        for r in range(self.half - 1):
            prod = prod * (self.one() - self.tau(self.m, r))
        return self.one() + prod.inverse()

    def gamma_u(self, j):
        """gamma^j(u) = (1 - gamma^{j-1} tau_m) ... (1 - tau_m) u, any j >= 0."""
        sign = -1 if (j // self.half) % 2 else 1
        j %= self.half
        acc = self.u_pow(1)
        for s in range(j):
            acc = acc * (self.one() - self.tau(self.m, s))
        return acc if sign == 1 else acc.scale(-1)

    def bounds(self):
        out = {
            "n": self.n,
            "m": self.m,
            "d": self.spec.d,
            "precision": self.precision,
            "madic": self.madic,
        }
        return out

    def __repr__(self):
        return (
            f"LTContext(n={self.n}, m={self.m}, d={self.spec.d}, "
            f"N={self.precision}, M={self.madic})"
        )


_LT_CONTEXTS = AtomicCache()


def lt_context(n, m, d=1, modulus=None, precision=8, madic=6):
    """The process-wide LTContext for a configuration, created on first use.

    The key (n, m, field, precision, madic) is normalised: an explicit
    default modulus and modulus=None name one field.  As in rn_context, the
    lazy tables of a shared context take no lock; a race costs only time.
    """
    spec = finite_field(d, modulus)
    return _LT_CONTEXTS.get_or_create(
        (n, m, spec, precision, madic),
        lambda: LTContext(n, m, d=d, modulus=spec.modulus, precision=precision,
                          madic=madic),
    )


def _two_local_int(q, N):
    """The integer congruent mod 2^N to a 2-local rational q."""
    num, den = q.numerator, q.denominator
    if not den & 1:
        raise ValueError(f"{q} has even denominator")
    return num if den == 1 else num * pow(den, -1, 1 << N)


def _valuation(coords):
    """v_2 of a nonzero coordinate tuple: the lowest set bit of any coordinate."""
    x = reduce(or_, coords)
    return (x & -x).bit_length() - 1


def _canonical(ctx, raw):
    """{(exps, ue): coordinates} in normal form mod m^M.

    raw may hold any integer coordinates, such as unmasked sums of kernel
    products.  A term of tau-degree s >= M is dropped; otherwise its
    coordinates are masked to 2^{M-s}, the canonical representative (the
    tau^A-component of m^M is exactly 2^{M-|A|} W(k)), and a term that masks
    to 0 is dropped.  A term that is nonzero mod 2^N with an exponent beyond
    the representable window raises ValueError.
    """
    M = ctx.madic
    masks = ctx._masks
    clean = {}
    for key, c in raw.items():
        exps, ue = key
        s = sum(exps)
        if not -_U_CAP <= ue <= _U_CAP or s > _U_CAP:  # max(exps) <= s
            _check_window(ctx, exps, ue, c)
        if s >= M:
            continue
        mask = masks[s]
        c = tuple([x & mask for x in c])
        if any(c):
            clean[key] = c
    return clean


def _check_window(ctx, exps, ue, c):
    if (abs(ue) > _U_CAP or max(exps) > _U_CAP) and any(x & ctx.kernel.mask for x in c):
        raise ValueError("exponent beyond the representable window")


def _element(ctx, coords):
    """An LTElement on coordinates already in normal form, unchecked."""
    e = object.__new__(LTElement)
    e.ctx = ctx
    e.coords = coords
    e._graded = None
    return e


class LTElement:
    """Truncated element {(tau exponent tuple, u exponent): coefficient}.

    A coefficient is held as `coords`, the coordinate tuple of an element of
    W(k) mod 2^N, in normal form: masked to [0, 2^{M-|A|}) for the term
    tau^A u^s, and nonzero.  So equality of elements is equality of dicts.
    The arithmetic runs on the tuples through the context's Witt kernel and
    masks once per result.  The constructor takes WittElement coefficients
    of the context's field and precision, and `terms` is a read-only view
    with WittElement values.
    """

    __slots__ = ("ctx", "coords", "_graded")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.coords = _canonical(ctx, {key: ctx._witt_coords(c) for key, c in terms.items()})
        self._graded = None  # lazy: the terms sorted by filtration, for dot

    @property
    def ring(self):
        """The context, under the name the series coefficient protocol reads."""
        return self.ctx

    @property
    def terms(self):
        """{(exps, ue): WittElement}, a read-only view of the coefficients."""
        spec, N = self.ctx.spec, self.ctx.precision
        return MappingProxyType(
            {key: WittElement(spec, N, c) for key, c in self.coords.items()}
        )

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LTElement) or other.ctx is not self.ctx:
            raise ValueError("elements from different Lubin-Tate contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        for key, c in other.coords.items():
            s = out.get(key)
            out[key] = c if s is None else tuple(map(add, s, c))
        return _element(self.ctx, _canonical(self.ctx, out))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def _by_filtration(self):
        """The terms as (v_2(c) + |tau-degree|, exps, ue, c), filtration ascending."""
        graded = self._graded
        if graded is None:
            graded = sorted(
                (
                    (_valuation(c) + sum(exps), exps, ue, c)
                    for (exps, ue), c in self.coords.items()
                ),
                key=itemgetter(0),
            )
            self._graded = graded
        return graded

    def __mul__(self, other):
        """The product mod m^M: the context's dot of one pair."""
        return self.ctx.dot(((self, other),))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ctx.one())

    def scale(self, c):
        """Multiply by an integer or Witt scalar."""
        ctx = self.ctx
        if isinstance(c, int):
            out = {k: tuple([c * x for x in v]) for k, v in self.coords.items()}
        else:
            w, mul = ctx._witt_coords(c), ctx.kernel.mul
            out = {k: mul(w, v) for k, v in self.coords.items()}
        return _element(ctx, _canonical(ctx, out))

    def map_coefficients(self, f):
        """Apply f, a map of WittElements, to every coefficient."""
        return LTElement(self.ctx, {k: f(c) for k, c in self.terms.items()})

    def is_zero(self):
        return not self.coords

    def __eq__(self, other):
        return (
            isinstance(other, LTElement)
            and other.ctx is self.ctx
            and other.coords == self.coords
        )

    # -- structure ------------------------------------------------------------

    def u_exponents(self):
        return sorted({ue for (_, ue) in self.coords})

    def is_homogeneous(self):
        return len(self.u_exponents()) <= 1

    @property
    def degree(self):
        ues = self.u_exponents()
        if len(ues) > 1:
            raise ValueError("element is not homogeneous")
        return 2 * ues[0] if ues else 0

    def filtration(self):
        """Largest j with self in m^j (= madic for 0); exact per-term here."""
        if not self.coords:
            return self.ctx.madic
        return min(_valuation(c) + sum(exps) for (exps, _), c in self.coords.items())

    def residue(self) -> LTElement:
        """The image in K = ctx.residue_ring (kill the maximal ideal): the
        tau-free terms with their coefficients mod 2, which is the normal form
        at M = 1."""
        ring = self.ctx.residue_ring
        return _element(ring, _canonical(ring, self.coords))

    def is_unit(self):
        """Units of the graded local ring: residue a single nonzero monomial."""
        return len(self.residue().coords) == 1

    def inverse(self):
        residue = self.residue().coords
        if len(residue) != 1:
            raise ValueError(f"residue of {self!r} is not a unit")
        (_, ue), = residue
        lead = self.coords[(self.ctx._zero_exps, ue)]
        lead = WittElement(self.ctx.spec, self.ctx.precision, lead).inverse()
        b = self.ctx.from_witt(lead) * self.ctx.u_pow(-ue)
        eps = self * b - self.ctx.one()
        # Neumann series: 1/(1+eps) = sum (-eps)^i; eps is in the maximal
        # ideal, so the sum terminates within madic steps.
        acc = self.ctx.one()
        pw = self.ctx.one()
        neg = -eps
        for _ in range(self.ctx.madic):
            pw = pw * neg
            if pw.is_zero():
                break
            acc = acc + pw
        inv = b * acc
        if not (self * inv - self.ctx.one()).is_zero():
            raise ValueError("inverse not certified at this truncation order")
        return inv

    def __repr__(self):
        bits = []
        for (exps, ue), c in sorted(self.coords.items())[:6]:
            mono = "*".join(
                self.ctx.tau_name(idx) + (f"^{e}" if e > 1 else "")
                for idx, e in enumerate(exps)
                if e
            )
            upart = "" if ue == 0 else ("u" if ue == 1 else f"u^{ue}")
            stem = "*".join(x for x in (mono, upart) if x) or "1"
            bits.append(f"({list(c)})*{stem}")
        tail = " + ..." if len(self.coords) > 6 else ""
        return (" + ".join(bits) or "0") + tail

    def to_json(self):
        N = self.ctx.precision
        return [
            [list(exps), ue, {"precision": N, "coeffs": list(c)}]
            for (exps, ue), c in sorted(self.coords.items())
        ]


# ---------------------------------------------------------------------------
# the group action
# ---------------------------------------------------------------------------

def _gamma_var_images(ctx):
    if ctx._gamma_var is None:
        images = []
        for i, j in ctx.taus:
            top = ctx.half - 1 if i < ctx.m else ctx.half - 2
            if j < top:
                images.append(ctx.tau(i, j + 1))
            elif i < ctx.m:
                images.append(ctx.tau(i, 0))
            else:
                images.append(ctx.tau_m_element(ctx.half - 1))
        ctx._gamma_var = tuple(images)
    return ctx._gamma_var


def _gamma_u_power(ctx, e):
    img = ctx._gamma_u_pow.get(e)
    if img is None:
        base = ctx.gamma_u(1)
        img = base ** e if e >= 0 else base.inverse() ** (-e)
        ctx._gamma_u_pow[e] = img
    return img


def _gamma_var_power(ctx, idx, ex):
    key = (idx, ex)
    img = ctx._gamma_var_pow.get(key)
    if img is None:
        img = ctx._gamma_var_pow[key] = _gamma_var_images(ctx)[idx] ** ex
    return img


def lt_gamma(ctx, e: LTElement, r: int = 1) -> LTElement:
    """The W(k)-linear ring automorphism gamma, applied r times.

    tau-variables advance cyclically with period 2^{n-1} (the top tau_m image
    is the geometric series with constant term 2); u picks up (1 - tau_m).

    The image of a term c tau^A u^s is c gamma(u)^s prod gamma(tau_i)^{A_i}.
    The powers gamma(u)^s and gamma(tau_i)^{A_i} come from lazy per-context
    tables, and the scaled monomial images are summed unmasked into one
    dict, which is normalised once per application of gamma.
    """
    if e.ctx is not ctx:
        raise ValueError("element from a different context")
    mul = ctx.kernel.mul
    for _ in range(r % (1 << ctx.n)):
        out = {}
        for (exps, ue), c in e.coords.items():
            image = _gamma_u_power(ctx, ue)
            for idx, ex in enumerate(exps):
                if ex:
                    image = image * _gamma_var_power(ctx, idx, ex)
            for key, w in image.coords.items():
                p = mul(c, w)
                s = out.get(key)
                out[key] = p if s is None else tuple(map(add, s, p))
        e = _element(ctx, _canonical(ctx, out))
    return e


def _tau_chi(ctx, exps):
    """The tau part sum (2^i - 1) A_{ij} of the character exponent of tau^A."""
    return sum(map(operator.mul, ctx._chi_weights, exps))


def _diagonal_map(ctx, e: LTElement, image, order=1) -> LTElement:
    """The map that scales each term c tau^A u^s of e to image(c, cls) tau^A u^s,
    where cls = chi mod order and chi = sum (2^i - 1) A_{ij} - s.

    The terms of e are walked once.  Each run of terms with one tau exponent
    tuple computes its tau-degree and the tau part of chi once; a run that
    shares one tuple object, as the fixed-subring box does, is told by
    identity, with no tuple comparison per term.  Per tau-degree, each
    distinct coefficient has a row, a list indexed by class, whose images
    are computed on first use and masked to that degree (() when one masks
    to 0, and its term is dropped).  The row is looked up again only when
    the coefficient object changes (c is not last_c) and on every new
    exponent tuple, where the tau-degree, and with it the mask, may change;
    so no (coefficient, class) key is built or hashed per term.  At order 1
    every class is 0.  A diagonal map keeps the keys of its input, in their
    order, and an element in normal form has no key outside the
    representable window with a nonzero coefficient, so the image is in
    normal form without a pass of _canonical.
    """
    if e.ctx is not ctx:
        raise ValueError("element from a different context")
    masks = ctx._masks
    by_degree = {}  # tau-degree -> {coefficient: row of masked images by class}
    out = {}
    last = None
    cls = 0
    for key, c in e.coords.items():
        exps, ue = key
        if exps is not last and exps != last:
            last = exps
            s = sum(exps)
            tau_chi = _tau_chi(ctx, exps)
            rows = by_degree.get(s)
            if rows is None:
                rows = by_degree[s] = {}
            last_c = None
        if c is not last_c:
            last_c = c
            row = rows.get(c)
            if row is None:
                row = rows[c] = [None] * order
        if order > 1:
            cls = (tau_chi - ue) % order
        img = row[cls]
        if img is None:
            mask = masks[s]
            img = tuple([x & mask for x in image(c, cls)])
            img = row[cls] = img if any(img) else ()
        if img:
            out[key] = img
    return _element(ctx, out)


def lt_zeta(ctx, zeta: WittElement, e: LTElement) -> LTElement:
    """The k^x[q]-action: u -> T(zeta)^{-1} u, tau_i -> T(zeta)^{2^i-1} tau_i.

    Diagonal on monomials (_diagonal_map): the term tau^A u^s scales by
    T(zeta)^chi with chi = sum (2^i - 1) A_{ij} - s (tau_m contributes 0 mod
    q).  With zeta = g^i for the generator g of the kernel's table of lifts,
    T(zeta)^chi = T(g)^(i chi) is read off the table at i chi mod (2^d - 1).
    zeta must be an element of k, a WittElement of precision 1, and a qth
    root of unity, so nonzero with i q = 0 mod (2^d - 1); all three are
    checked on every call, in that order after the field.
    """
    if zeta.spec is not ctx.spec and zeta.spec != ctx.spec:
        raise ValueError("zeta from a different field")
    if zeta.precision != 1:
        raise ValueError(f"zeta must have precision 1, not {zeta.precision}")
    lifts, log = ctx.kernel.lifts()
    order = len(lifts)
    i = log.get(zeta.coeffs)
    if i is None or i * ctx.q % order:
        raise ValueError(f"zeta^{ctx.q} != 1")
    mul = ctx.kernel.mul
    return _diagonal_map(ctx, e, lambda c, cls: mul(c, lifts[i * cls % order]), order)


def lt_galois(ctx, e: LTElement) -> LTElement:
    """Frobenius on the Witt coefficients; fixes u and every tau.

    Each coefficient goes through the kernel's Frobenius image, the route
    of frobenius_lift, as a diagonal map with one class (_diagonal_map).
    """
    frobenius = ctx.kernel.frobenius
    return _diagonal_map(ctx, e, lambda c, cls: frobenius(c))


# ---------------------------------------------------------------------------
# the specialized logarithm on one gamma-orbit
# ---------------------------------------------------------------------------

def _a_mul(a, b):
    """The product in A = Q[tau's]/(tau's)^2 of two (c, x_1, ..., x_{h-1}) tuples."""
    a0, b0 = a[0], b[0]
    return (a0 * b0,) + tuple([a0 * y + b0 * x for x, y in zip(a[1:], b[1:])])


def _a_pow(a, e):
    """a^e in A, e >= 1: (c + x)^e = c^e + e c^{e-1} x."""
    c = a[0]
    s = e * c ** (e - 1)
    return (c ** e,) + tuple([s * x for x in a[1:]])


def _triangular(xs, bases, cs, name):
    """Extend the integral values xs = (x_1, ..., x_i) in A of

        x_k = base_k - sum_{j=1}^{k-1} c_j x_{k-j}^{2^j}

    through k = len(bases), run on 2^k x_k: bases[k-1] is 2^k base_k and
    cs[j-1] is 2^j c_j.  Every x_k is integral by a theorem, and every
    denominator on the orbit is a power of 2, so 2^k x_k not divisible by
    2^k raises ConsistencyFailure, naming x_k as name.format(k).
    """
    xs = list(xs)
    for k in range(len(xs) + 1, len(bases) + 1):
        acc = bases[k - 1]
        for j in range(1, k):
            term = _a_mul(cs[j - 1], _a_pow(xs[k - j - 1], 1 << j))
            acc = tuple([a - (t << (k - j)) for a, t in zip(acc, term)])
        if any(c & ((1 << k) - 1) for c in acc):
            raise ConsistencyFailure(f"the image of {name.format(k)} has an even denominator")
        xs.append(tuple([c >> k for c in acc]))
    return tuple(xs)


class OrbitTable:
    """The specialized logarithm on one gamma-orbit, for one (n, m).

    The specialization rho of R_n into E (lt_specialize) is a gamma-
    equivariant ring map, and each Lubin-Tate claim reads only a small
    quotient of E, in which the image of every generator is explicit.  With u
    graded away (every image is homogeneous), in A = Q[tau's]/(tau's)^2, and
    with s = floor(p / 2^{n-1}), p' = p mod 2^{n-1} and q = 2^m - 1:

        rho(gamma^p t_i) = (-1)^s tau_{i,p'}                      (i < m)
        rho(gamma^p t_m) = (-1)^s (1 - q sum_{r<p'} tau_{m,r})
        rho(gamma^p t_i) = 0                                      (i > m)

    since gamma^{2^{n-1}} negates every t_i and, for j < 2^{n-1},
    gamma^j u = (1 - gamma^{j-1} tau_m) ... (1 - tau_m) u.  So the rn_log
    recursion runs on values, p taken mod 2^n and f_0 = 1:

        f_k(p) = rho(gamma^p l_k)
               = 1/2 sum_{r < 2^{n-1}} sum_{j < k} f_j(p+r+1) rho(gamma^{p+r} t_{k-j})^{2^j},

    and no polynomial over R_n is formed.  A value is the tuple
    (c_0, c_1, ..., c_{h-1}) of c_0 + sum c_idx tau_idx, with the tau's
    indexed as in LTContext.taus; its constant part is its value mod (tau).
    l_k has a denominator dividing 2^k, so 2^k f_k(p) is stored, in ints.

    The tables grow by prefix and are replaced, never changed in place, so
    a race between two fills costs only time.  They do not depend on the
    field, the Witt precision or the truncation order: orbit_table keeps one
    per (n, m).
    """

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.half = 1 << (n - 1)
        self.h = self.half * m
        self._images = self._generator_images()
        self._logs = ()  # _logs[k-1][p] = 2^k f_k(p)
        self._v = ()  # _v[k-1] = the image of v_k
        self._levels = {}  # s -> the images of t_1, t_2, ... at level s, mod (tau)

    def _generator_images(self):
        """images[i-1][p] = rho(gamma^p t_i) for i <= m and p < 2^n."""
        half, q = self.half, (1 << self.m) - 1
        images = []
        for i in range(1, self.m + 1):
            base = 1 + (i - 1) * half  # the slot of gamma^0 tau_i
            row = []
            for p in range(2 * half):
                sign = -1 if p >= half else 1
                j = p % half
                img = [0] * self.h
                if i < self.m:
                    img[base + j] = sign
                else:
                    img[0] = sign
                    for r in range(j):
                        img[base + r] = -sign * q
                row.append(tuple(img))
            images.append(tuple(row))
        return tuple(images)

    def logs(self, k):
        """(2^j f_j(p) for p < 2^n) for j = 1 .. k."""
        logs = self._logs
        if len(logs) < k:
            logs = list(logs)
            period = 2 * self.half
            one = (1,) + (0,) * (self.h - 1)
            for kk in range(len(logs) + 1, k + 1):
                # only t_{kk-j} with kk - j <= m survives rho, and mod (tau)^2
                # a power 2^j >= 2 of a tau-multiple vanishes
                terms = []
                for j in range(max(0, kk - self.m), kk):
                    i = kk - j
                    if j and i < self.m:
                        continue
                    images = self._images[i - 1]
                    if j:
                        images = [_a_pow(g, 1 << j) for g in images]
                    terms.append((j, images))
                row = []
                for p in range(period):
                    acc = (0,) * self.h
                    for j, images in terms:
                        scale = 1 << (kk - 1 - j)
                        for r in range(self.half):
                            fj = one if j == 0 else logs[j - 1][(p + r + 1) % period]
                            term = _a_mul(fj, images[(p + r) % period])
                            acc = tuple([a + scale * t for a, t in zip(acc, term)])
                    row.append(acc)
                logs.append(tuple(row))
            logs = self._logs = tuple(logs)
        return logs[:k]

    def v_images(self, k):
        """The images of v_1 .. v_k in A, integral, by the v_from_log recursion

            v_k = (2 - 2^{2^k}) f_k(0) - sum_{j=1}^{k-1} f_j(0) v_{k-j}^{2^j}

        (_triangular).
        """
        if len(self._v) < k:
            logs = self.logs(k)
            bases = [tuple([c * (2 - 2 ** (1 << kk)) for c in row[0]])
                     for kk, row in enumerate(logs, start=1)]
            self._v = _triangular(self._v, bases, [row[0] for row in logs], "v_{}")
        return self._v[:k]

    def level(self, s, k):
        """The images of t_1 .. t_k at the level of s twisted isomorphisms
        (t_level with s = 2^{n-r}), mod (tau) and integral, by the
        recursion of t_level

            T_k = (f_k(0) - f_k(s)) - sum_{j=1}^{k-1} f_j(s) T_{k-j}^{2^j}

        on constants as 1-tuples (_triangular).
        """
        ts = self._levels.get(s, ())
        if len(ts) < k:
            logs = self.logs(k)
            bases = [(row[0][0] - row[s][0],) for row in logs]
            cs = [(row[s][0],) for row in logs]
            xs = _triangular([(t,) for t in ts], bases, cs, f"t_{{}} at level s = {s}")
            ts = self._levels[s] = tuple([x for x, in xs])
        return ts[:k]


_ORBIT_TABLES = AtomicCache()


def orbit_table(n, m):
    """The process-wide OrbitTable of (n, m), created on first use."""
    return _ORBIT_TABLES.get_or_create((n, m), lambda: OrbitTable(n, m))


# ---------------------------------------------------------------------------
# specialization from the equivariant polynomial ring (oracles)
#
# No claim reads these on its request path.  They specialize whole R_n
# polynomials, and the tests check the orbit table against them.
# ---------------------------------------------------------------------------

def lt_specialize(ctx, p) -> LTElement:
    """The ring map determined by t_i -> tau_i u^{2^i-1} (i < m),
    t_m -> u^{2^m-1}, t_i -> 0 (i > m), extended gamma-equivariantly.

    Accepts polynomials over R_n or R_n<m> (integral or rational descriptors).
    The images of the gamma^j t_i are built afresh on each call and extended
    by ring_map: every coefficient must be 2-locally integral, even on a
    term that the map kills, and acts as the integer it is congruent to
    mod 2^N.
    """
    ring = getattr(p, "ring", None)
    if ring is None or ring.kind not in ("Rn", "Rnm") or ring.mod2:
        raise ValueError("specialization expects an R_n / R_n<m> polynomial")
    if ring.n != ctx.n:
        raise ValueError("group order mismatch")
    images = {}
    for v in ring.variables:
        img = ctx.gamma_u(v.j) ** ((1 << v.i) - 1) if v.i <= ctx.m else ctx.zero()
        images[v] = ctx.tau(v.i, v.j) * img if v.i < ctx.m else img
    return ring_map(p, images, ctx)


def v_in_lt(ctx, k) -> LTElement:
    """Image in the Lubin-Tate ring of the k-th Araki generator, 1 <= k <= h."""
    if not 1 <= k <= ctx.h:
        raise ValueError(f"k={k} outside 1..h = {ctx.h}")
    img = lt_specialize(ctx, v_in_rn(ctx.rn, k)[k - 1])
    if not img.is_homogeneous():
        raise ConsistencyFailure("v-image is not homogeneous")
    if not img.is_zero() and img.degree != 2 * ((1 << k) - 1):
        raise ConsistencyFailure("v-image has the wrong degree")
    return img


def t_level_in_lt(ctx, r) -> list:
    """Images of the level-2^r generator family, one element per index."""
    return [lt_specialize(ctx, x) for x in t_level(ctx.rn, r)]


def _log_mod_tau(ctx, k_max):
    """[c_1 .. c_k_max] in Q: the image of l_k in E/(tau) is c_k u^{2^k-1}.

    Mod (tau) the specialization sends every gamma^j t_m to u^{2^m-1} (as
    gamma^j u = u mod tau for j < 2^{n-1}) and every other t to 0.  Killing
    every gamma^j t_i with i != m is a gamma-equivariant map of Q-algebras,
    so the image lbar_k of l_k obeys the recursion of rn_log, in which only
    the term with t_{k-j} = t_m survives:

        2 lbar_k = sum_{r < 2^{n-1}} gamma^r ( gamma(lbar_{k-m}) t_m^{2^{k-m}} ),

    with lbar_0 = 1 (so lbar_k = 0 unless m divides k); c_k is the sum of
    the coefficients of lbar_k.  l_k itself, over all of R_n, is never formed.
    The polynomial route to the constants 2^{-k} OrbitTable.logs(k)[k-1][0][0],
    kept as their oracle in the tests.
    """
    m = ctx.m
    ring = rn_ring(ctx.n, m, rational=True)
    tm = ring.var(T(m))
    lbar = [ring.one()]
    for k in range(1, k_max + 1):
        if k % m:
            lbar.append(ring.zero())
        else:
            a = gamma_act(lbar[k - m]) * tm ** (1 << (k - m))
            lbar.append(orbit_sum(a).scalar_mul(QQ(1, 2)))
    return [QQ(sum(lk.num.values()), lk.den) for lk in lbar[1:]]


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def residue_json(x):
    """[[e, bits], ...], e ascending: the JSON of a residue sum_e c_e ubar^e,
    with bits the coordinates of c_e in k.

    x is an element of a residue ring, or the mapping {e: coordinates of c_e}
    by which the claims, which build no residue ring, name a residue.
    """
    if isinstance(x, LTElement):
        x = {ue: c for (_, ue), c in x.coords.items()}
    return [[e, list(c)] for e, c in sorted(x.items())]


def cotangent_check(ctx):
    """Images of {2, v_1, ..., v_{h-1}} in m/m^2 against the basis {2, tau's}.

    The image of v_k is c_0 + sum c_idx tau_idx mod (tau)^2, with u graded
    away (OrbitTable.v_images).  It lies in the maximal ideal exactly when
    c_0 is even, and its class in m/m^2 is then the row (c_0/2, c_idx) mod 2.
    Every generator must lie in the maximal ideal (so the ideal it generates
    is contained in m); full rank h then certifies, by Nakayama, that the two
    ideals are equal.  The rows are integral, so the rank over k is their
    rank over F_2.  The claim fails with witness "v{k}" at the first
    generator v_k whose image is a unit (the rows stop before it), and else
    with the label of the first row that is in the span of the rows above
    it.  m/m^2 vanishes when M = 1, so the claim needs madic >= 2
    (ValueError otherwise).
    """
    if ctx.madic < 2:
        raise ValueError(
            f"cotangent needs madic >= 2: m/m^2 is zero at madic {ctx.madic}"
        )
    h = ctx.h
    labels = ["2"] + [ctx.tau_name(idx) for idx in range(len(ctx.taus))]
    rows = ["2"]
    matrix = [[1] + [0] * (h - 1)]
    witness = None
    for k, (c0, *lin) in enumerate(orbit_table(ctx.n, ctx.m).v_images(h - 1), start=1):
        if c0 & 1:
            witness = f"v{k}"
            break
        rows.append(f"v{k}")
        matrix.append([(c0 >> 1) & 1] + [c & 1 for c in lin])
    pivots = {}
    for label, row in zip(rows, matrix):
        if not f2_reduce(sum(bit << col for col, bit in enumerate(row)), pivots):
            witness = witness or label
    return _report(
        "cotangent",
        {"rows": rows, "columns": labels, "matrix": matrix, "rank": len(pivots), "h": h},
        witness is None,
        witness,
        ctx.bounds(),
    )


def residue_fgl(ctx, cutoff):
    """The formal group law over K = ctx.residue_ring obtained by killing the
    maximal ideal.

    The universal law over Q[v_1..v_k] is built afresh on every call and
    conjugated by ring_map into K, v_k going to the residue of its image in
    the local ring.  K.from_rational raises ValueError on an even
    denominator, so every coefficient is certified 2-locally integral on the
    way.  The image of v_k is specialized from v_in_rn of R_n with
    generators up to t_k, which is exact for k > h too, since every t_i
    with i > m maps to 0.  residue_height reads the height off the v_k
    images mod (tau) instead, and this route is kept as its independent
    oracle.
    """
    k = max(ctx.h, cutoff.bit_length() - 1)  # v_k for 2^k <= cutoff, and at least h
    K = ctx.residue_ring
    vbar = {V(i): lt_specialize(ctx, v).residue()
            for i, v in enumerate(v_in_rn(rn_context(ctx.n, k), k), start=1)}
    law = fgl_from_log(log_from_v(k), cutoff)
    return conjugate_fgl(law, lambda p: ring_map(p, vbar, K))


def residue_height(ctx, cutoff=None):
    """Height of the residue formal group law: exactly h, coefficient ubar^{2^h-1}.

    For a 2-typical law with Araki generators v_i (v_0 = 2), [2](x) =
    sum^F_i v_i x^{2^i} (Ravenel, Complex Cobordism, A2.2.4).  Over the
    residue field 2 = 0, and an F-sum starts with its lowest term, so the
    residue 2-series starts at x^{2^k} with the coefficient vbar_k, at the
    first k whose vbar_k is not 0.  The residue map kills m = (2, tau) and so
    factors through E/(tau) = W(k)[u^{+-1}], where v_k maps to c_0 u^{2^k-1}
    with c_0 the constant part of OrbitTable.v_images; vbar_k is ubar^{2^k-1}
    when c_0 is odd and 0 otherwise.  So the height is the first k with
    2^k <= cutoff and c_0 odd.  The 2-series of the residue law
    (residue_fgl) and two_series_from_log on the constants of
    OrbitTable.logs are its oracles in the tests.  Whatever height k is
    found, the 2-series leads with 1 * ubar^{2^k-1}, so the claim holds
    exactly when k = h.  The report records that coefficient as residue_json
    writes it, its unit and beta = (2^h-1)/(2^m-1).  With no such k the
    claim fails with computed_height null and the residue 0, [], as
    coefficient and witness.
    """
    h = ctx.h
    if cutoff is None:
        cutoff = 1 << h
    if cutoff.bit_length() <= h:  # cutoff < 2^h
        raise ValueError(f"cutoff {cutoff} < 2^h, h = {h}")
    table = orbit_table(ctx.n, ctx.m)
    height = next(
        (k for k in range(1, cutoff.bit_length()) if table.v_images(k)[k - 1][0] & 1),
        None,
    )
    beta = ((1 << h) - 1) // ((1 << ctx.m) - 1)
    lead = residue_json({} if height is None else {(1 << height) - 1: ctx._unit})
    ok = height == h
    return _report(
        "height",
        {
            "h": h,
            "beta": beta,
            "computed_height": height,
            "coefficient": lead,
            "unit": list(ctx._unit) if ok else None,
            "cutoff": cutoff,
        },
        ok,
        witness=None if ok else lead,
        bounds=ctx.bounds(),
    )


def d_factors(ctx):
    """The orbit-product factors of the periodicity element, with unit verdicts.

    Factor i (1 <= i <= n) is the product over the 2^{n-1} conjugates of the
    image of the level-2^i generator at index k_i = 2^{n-i} m: the underlying
    shadow of the norm of that class.  Every factor must be a unit, hence the
    total product as well.  gamma fixes residues (gamma^j u = u mod (tau) for
    j < 2^{n-1}, and gamma(m) lies in m), so factor i has the residue
    (T mod 2) ubar^{2^{n-1}(2^{k_i}-1)}, with T the image of the generator
    mod (tau) from the orbit table.  A falsified verdict names the first
    non-unit factor as the table knows it, with no factor built in E:

        {"factor": i, "index": k_i, "level": 2^i, "residue": []}

    its residue being 0.  The factors themselves, specialized from R_n, are
    the oracle of the residues and verdicts in the tests.
    """
    table = orbit_table(ctx.n, ctx.m)
    indices = [(1 << (ctx.n - i)) * ctx.m for i in range(1, ctx.n + 1)]
    residues = []
    for i, k_i in enumerate(indices, start=1):
        t = table.level(1 << (ctx.n - i), k_i)[k_i - 1]
        residues.append(residue_json({ctx.half * ((1 << k_i) - 1): ctx._unit} if t & 1 else {}))
    verdicts = [len(r) == 1 for r in residues]
    ok = all(verdicts)  # a product of monomials of K is a monomial
    witness = None
    if not ok:
        i = verdicts.index(False) + 1  # the first non-unit factor
        witness = {"factor": i, "index": indices[i - 1], "level": 1 << i,
                   "residue": residues[i - 1]}
    return _report(
        "unit-factors",
        {
            "indices": indices,
            "verdicts": verdicts,
            "product_is_unit": ok,
            "residues": residues,
        },
        ok,
        witness=witness,
        bounds=ctx.bounds(),
    )


def _exponent_tuples(k, bound):
    """Every k-tuple of exponents with sum <= bound, in lexicographic order."""
    if k == 0:
        return [()]
    return [(e,) + rest for e in range(bound + 1)
            for rest in _exponent_tuples(k - 1, bound - e)]


def _fixed_subring_box(ctx):
    """(zeta, u_bound, box) of fixed_subring_presentation, built once per
    context on first use.

    zeta generates the torsion k^x[q]: it is g^((2^d - 1)/alpha) for the
    generator g of the kernel's table of lifts, read off the table at that
    index mod 2^d - 1 (the build checks that g has full order).  box is the
    sum of the monomials of the box, the one element built without a
    normal-form check: every coefficient is the unit, every tau-degree is
    below M, and u_bound is checked against the window before it is built
    (past the cap it would hold millions of monomials).  A failed check raises before anything is
    stored, so it raises again on every call.
    """
    if ctx._fixed_box is None:
        alpha = ctx.alpha
        u_bound = max(2 * ctx.q, alpha + 1)
        lifts, _ = ctx.kernel.lifts()
        zeta = WittElement(ctx.spec, 1, lifts[len(lifts) // alpha % len(lifts)])
        if u_bound > _U_CAP:
            raise ValueError("exponent beyond the representable window")
        # the unit is in normal form at every tau-degree below M
        unit = ctx._unit
        box = _element(ctx, {
            (exps, ue): unit
            for exps in _exponent_tuples(len(ctx.taus), min(_TAU_BOUND, ctx.madic - 1))
            for ue in range(-u_bound, u_bound + 1)
        })
        ctx._fixed_box = (zeta, u_bound, box)
    return ctx._fixed_box


def fixed_subring_presentation(ctx):
    """Check, monomial by monomial in a finite box, that the fixed subspace of
    the Galois-and-torus action is spanned over Z_2 by monomials whose
    character exponent chi = sum (2^i - 1) A_{ij} - u_exp is divisible by
    alpha = |k^x[q]|.

    Both actions are diagonal in this basis (the torus scales each monomial by
    T(zeta)^chi; Galois acts on coefficients only), so the span claim reduces
    to the per-monomial character computation being right, which is what gets
    verified against the actual action maps.  The box holds every tau-degree
    up to _TAU_BOUND and every u-exponent of absolute value up to
    max(2q, alpha + 1); a monomial of tau-degree >= M is 0 and not checked.

    The box is one element, the sum of its monomials.  It and the torsion
    generator zeta depend only on the context, so they are a table of it
    (_fixed_subring_box), the input of the check and not its result.  Each
    request applies both maps to the whole box once and walks the images;
    no image and no report is kept, so a changed map shows on the next
    request.  Both maps are additive, so for a diagonal map the coefficient
    of a monomial in the image of the box is its coefficient in the image of
    the monomial: a monomial is fixed exactly when the image keeps its
    coefficient.  The monomials are walked in enumeration order, with the
    tau part of chi computed once per exponent tuple, and the first one
    whose behaviour differs from the prediction is the witness.  A diagonal
    map keeps the key objects of the box in their order, and then the walk
    zips the box with both images; otherwise it looks each monomial up, and
    an image with a monomial outside the box shows a map that is not
    diagonal, and raises ConsistencyFailure.
    """
    alpha = ctx.alpha
    zeta, u_bound, box = _fixed_subring_box(ctx)
    zeta_image = lt_zeta(ctx, zeta, box).coords
    galois_image = lt_galois(ctx, box).coords
    keys = box.coords.keys()
    if all(len(image) == len(keys) and all(map(operator.is_, keys, image))
           for image in (zeta_image, galois_image)):
        terms = zip(keys, zeta_image.values(), galois_image.values())
    else:
        if not (zeta_image.keys() <= keys and galois_image.keys() <= keys):
            raise ConsistencyFailure("an action moved a monomial of the box")
        terms = ((key, zeta_image.get(key), galois_image.get(key)) for key in keys)
    unit = ctx._unit
    checked = 0
    fixed = 0
    witness = None
    last = None
    for (exps, ue), zeta_c, galois_c in terms:
        if exps is not last:  # each run of the box shares one exponent tuple
            last = exps
            tau_chi = _tau_chi(ctx, exps)
        predicted = (tau_chi - ue) % alpha == 0
        if (zeta_c == unit) is not predicted or galois_c != unit:
            witness = ctx.monomial(exps, ue).to_json()
            break
        checked += 1
        if predicted:
            fixed += 1
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
        bounds={**ctx.bounds(), "tau_degree": _TAU_BOUND, "u_window": u_bound},
    )


def two_telescope(ctx):
    """The explicit combination writing 2 in terms of the (u - gamma u)-orbit.

    Verifies, exactly in the truncated ring, that
        gamma^{H-1}(w) - sum_{r<H-1} gamma^r(w) = 2 gamma^{H-1}(u),
    with w = u - gamma u and H = 2^{n-1}; dividing by the unit gamma^{H-1}(u)
    exhibits 2 in the maximal ideal.  Returns the two sides.
    """
    H = ctx.half
    w = ctx.u_pow(1) - ctx.gamma_u(1)
    lhs = lt_gamma(ctx, w, H - 1)
    for r in range(H - 1):
        lhs = lhs - lt_gamma(ctx, w, r)
    rhs = ctx.gamma_u(H - 1).scale(2)
    if not (lhs - rhs).is_zero():
        raise ConsistencyFailure("telescope identity failed")
    return lhs, rhs


def action_table(ctx, action="gamma", zeta=None):
    """JSON table generator-name -> image under the named action."""
    gens = [("u", ctx.u_pow(1))]
    for idx in range(len(ctx.taus)):
        i, j = ctx.taus[idx]
        gens.append((ctx.tau_name(idx), ctx.tau(i, j)))
    out = {}
    for name, g in gens:
        if action == "gamma":
            img = lt_gamma(ctx, g)
        elif action == "zeta":
            if zeta is None:
                raise ValueError("zeta action needs a torsion element")
            img = lt_zeta(ctx, zeta, g)
        elif action == "galois":
            img = lt_galois(ctx, g)
        else:
            raise ValueError(f"unknown action {action!r}")
        out[name] = img.to_json()
    return out
