"""Graded multivariate polynomials over the coefficient domains.

Rings are interned descriptors (one object per parameter set), monomials are
dense exponent vectors packed into a single integer: 11 bits per variable,
earlier variables in more significant bits, and the weighted degree in the
most significant field, above them all (the packing of Maple's POLY; Monagan
& Pearce, ACM CCA 2012).  So monomial multiplication is integer addition,
which adds the degrees as well, and integer order is degree first, then
descending graded-reverse-lex within a degree.  An exponent takes the low 10
bits of its field and the top bit is a guard: two exponents below 2^10 sum
below 2^11 without a carry into the next field, so a product with a set
guard bit exceeded the bound, and the multiply kernel raises a
ValueError for it.  A polynomial over Q or Z_(2) stores int
numerators over one reduced denominator (the form of FLINT's fmpq_poly), so
arithmetic runs on ints and touches the denominators once per operand, not
once per coefficient.  Every product runs through one sum-of-products
kernel (PolyRing.dot).  On top of that: the cyclic group action (two masked
shifts per monomial), mod-2 reduction, ring maps/substitution,
degree-truncated Buchberger over F_2, and an independent linear-algebra
membership route used to cross-check the Groebner one.

Normal forms over F_2 pop monomials from a heap keyed by the packed int
(exact for homogeneous reducers, see _nf) and skip entries whose monomial
has cancelled since it was pushed (lazy deletion; Monagan & Pearce, "Sparse
polynomial division using a heap", JSC 2011), so a reduction step costs a
logarithm of the support, not a scan of it.  Buchberger reduces that way,
and so does ideal_normal_form, the generic route and test oracle, on a
basis it builds on each call.  A kept basis (the R_n contexts of
equivariant_ring keep one per ideal) answers normal_form from its table of
the normal forms of the monomials it has reduced: the normal form is
F_2-linear, so a warm call is one XOR of table entries over its input (see
GroebnerBasis), and a basis whose quotient is too wide to tabulate goes on
reducing through the heap.  A basis truncated at D' >= D gives the same
full normal form to every homogeneous input of degree <= D, so whoever
keeps one may serve lower degrees from it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import or_, xor

from .coefficients import (
    QQ,
    AtomicCache,
    power,
    qq_to_string,
    rational_mod2,
)
from .errors import ConsistencyFailure

_BITS = 11  # per variable: 10 exponent bits and a guard bit
# QQ is an ABC, so an isinstance test against it is slow; the operators
# test a GradedPolynomial operand by exact type first
SCALAR_TYPES = (int, QQ)
_MASK = (1 << _BITS) - 1
_EXP_LIMIT = 1 << (_BITS - 1)


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    """A named ring generator: v_i or gamma^j t_i, of degree 2(2^i - 1)."""

    kind: str  # "v" | "t"
    i: int = 0
    j: int = 0  # conjugation index

    def __post_init__(self):
        if self.kind not in ("v", "t"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.i < 1:
            raise ValueError("level index must be >= 1")

    @property
    def degree(self) -> int:
        return 2 * ((1 << self.i) - 1)

    @property
    def name(self) -> str:
        stem = f"{self.kind}{self.i}"
        return stem if self.j == 0 else f"g{self.j}{stem}"


def V(i):
    return Variable("v", i)


def T(i, j=0):
    return Variable("t", i, j)


# ---------------------------------------------------------------------------
# ring descriptors (interned)
# ---------------------------------------------------------------------------

class PolyRing:
    """Ambient ring descriptor: BP_*, R_n, R_n<m>, their Q-extensions, or mod-2 reductions.

    Construct through bp_ring / rn_ring / rnm_ring so that equal descriptors
    are the same object; arithmetic uses identity checks for ambient matching.
    """

    def __init__(self, kind, n, m, k_max, rational, mod2, variables):
        self.kind = kind  # "BP" | "Rn" | "Rnm"
        self.n = n
        self.m = m
        self.k_max = k_max
        self.rational = rational
        self.mod2 = mod2
        self.variables = tuple(variables)
        self.nvars = len(self.variables)
        self.var_index = {v: idx for idx, v in enumerate(self.variables)}
        self.degrees = tuple(v.degree for v in self.variables)
        self.shifts = tuple(_BITS * (self.nvars - 1 - idx) for idx in range(self.nvars))
        self.guard = sum(_EXP_LIMIT << s for s in self.shifts)  # every guard bit
        self.dshift = _BITS * self.nvars  # the weighted degree sits above every field
        self._monos_by_degree = {}
        self._gamma_masks = {}
        if kind in ("Rn", "Rnm"):
            half = 1 << (n - 1)
            if any(v.kind != "t" or v.j != idx % half for idx, v in enumerate(self.variables)):
                raise ValueError("gamma masks need blocks of 2^(n-1) conjugates gamma^j t_i")

    def gamma_masks(self, r):
        """The bit masks that apply gamma^r to a packed monomial, or None for r = 0.

        The variables come in blocks gamma^0 t_i .. gamma^{half-1} t_i, j
        contiguous, so with r = q half + s (0 <= s < half) gamma^r moves the
        field of gamma^j t_i to gamma^{j+s} t_i when j + s < half ("stay":
        s fields to the right) and to gamma^{j+s-half} t_i otherwise ("wrap":
        half - s fields to the left).  Each move across gamma^{half} t_i =
        -t_i flips the sign once per unit of exponent, so the sign is the
        parity of the exponents in the wrapping fields, plus all fields when
        q = 1: the parity of the low bits under the returned `odd` mask.
        Returns (stay, wrap, odd, right shift, left shift); tabulated per r.
        """
        if self.kind == "BP":
            raise ValueError(f"{self} carries no cyclic action")
        r %= 1 << self.n
        if r == 0:
            return None
        masks = self._gamma_masks.get(r)
        if masks is None:
            half = 1 << (self.n - 1)
            q, s = divmod(r, half)
            stay = wrap = stay_low = wrap_low = 0
            for v, shift in zip(self.variables, self.shifts):
                if v.j + s < half:
                    stay |= _MASK << shift
                    stay_low |= 1 << shift
                else:
                    wrap |= _MASK << shift
                    wrap_low |= 1 << shift
            odd = stay_low if q else wrap_low
            masks = self._gamma_masks[r] = (stay, wrap, odd, _BITS * s, _BITS * (half - s))
        return masks

    # -- monomial helpers --

    def encode(self, exponents) -> int:
        m = d = 0
        for e, s, w in zip(exponents, self.shifts, self.degrees):
            if not 0 <= e < _EXP_LIMIT:
                raise ValueError(f"exponent {e} out of packing range")
            m |= e << s
            d += e * w
        return m | d << self.dshift

    def decode(self, mono: int):
        return tuple((mono >> s) & _MASK for s in self.shifts)

    def mono_degree(self, mono: int) -> int:
        return mono >> self.dshift

    def mono_of(self, var: Variable, exp: int = 1) -> int:
        return exp << self.shifts[self.var_index[var]] | exp * var.degree << self.dshift

    def monomials_of_degree(self, degree: int) -> tuple:
        """All monomials of the given total degree (weights are all positive here).

        Tabulated per degree; the tuple keeps the enumeration order and cannot
        be changed by a caller.
        """
        monos = self._monos_by_degree.get(degree)
        if monos is None:
            monos = self._monos_by_degree[degree] = tuple(self._enumerate(degree))
        return monos

    def _enumerate(self, degree):
        out = []

        def rec(idx, rem, acc):
            if idx == self.nvars:
                if rem == 0:
                    out.append(acc)
                return
            w = self.degrees[idx]
            if idx == self.nvars - 1:
                if rem % w == 0 and rem // w < _EXP_LIMIT:
                    out.append(acc | (rem // w) << self.shifts[idx])
                return
            for e in range(rem // w + 1):
                rec(idx + 1, rem - e * w, acc | e << self.shifts[idx])

        if degree < 0:
            return []
        rec(0, degree, degree << self.dshift)
        return out

    # -- the multiply kernel --

    def dot(self, pairs):
        """sum a*b over the (a, b) pairs of polynomials of this ring.

        One dict of int numerators accumulates every product, over a common
        denominator: a pair whose denominator product d divides it is added
        with one factor scaled by the quotient, and one that does not first
        moves the sum to the lcm.  A pair whose two factors are one object is
        a square, which visits each unordered pair of terms once: s c_i^2 at
        2 m_i and 2 s c_i c_j at m_i + m_j, with s the scale to the common
        denominator (over F_2 the cross terms cancel, and only the m_i + m_i
        remain).  The sum is reduced once, at the end; a product of two
        polynomials is the dot of one pair.  An exponent above the packing
        bound in the result raises ValueError.
        """
        acc = {}
        if self.mod2:
            for a, b in pairs:
                if a.ring is not self or b.ring is not self:
                    raise ValueError(f"{a.ring} vs {b.ring}")
                for m1 in a.num:
                    for m2 in (m1,) if a is b else b.num:
                        m = m1 + m2
                        if m in acc:
                            del acc[m]
                        else:
                            acc[m] = 1
            self._check_bound(acc)
            return GradedPolynomial(self, acc, _checked=True)
        get = acc.get
        den = 1
        for a, b in pairs:
            if a.ring is not self or b.ring is not self:
                raise ValueError(f"{a.ring} vs {b.ring}")
            d = a.den * b.den
            s = 1
            if d != den:
                g = gcd(den, d)
                if g != d:  # d does not divide den: move the sum to the lcm
                    f = d // g
                    for m in acc:
                        acc[m] *= f
                    den *= f
                s = den // d
            if a is b:
                terms = list(a.num.items())
                for i, (m1, c1) in enumerate(terms):
                    c = c1 * s
                    m = m1 + m1
                    v = get(m)
                    acc[m] = c * c1 if v is None else v + c * c1
                    c += c
                    for m2, c2 in terms[i + 1:]:
                        m = m1 + m2
                        v = get(m)
                        acc[m] = c * c2 if v is None else v + c * c2
                continue
            short, long = a.num, b.num
            if len(short) > len(long):
                short, long = long, short
            if s != 1:
                short = {m: c * s for m, c in short.items()}
            long = long.items()
            for m1, c1 in short.items():
                for m2, c2 in long:
                    m = m1 + m2
                    v = get(m)
                    acc[m] = c1 * c2 if v is None else v + c1 * c2
        self._check_bound(acc)
        return _reduced(self, {m: c for m, c in acc.items() if c}, den)

    def _check_bound(self, acc):
        """Raise ValueError if a monomial of acc has a set guard bit.

        Every variable has degree >= 2, so a monomial of degree below
        2 _EXP_LIMIT has every exponent below _EXP_LIMIT: when the greatest
        monomial (the greatest degree, in the top field) is below that, no
        guard bit can be set, and only otherwise are the guard bits read.
        """
        if acc and max(acc) >> self.dshift >= 2 * _EXP_LIMIT and reduce(or_, acc) & self.guard:
            raise ValueError(f"a product has an exponent above the packing bound "
                             f"{_EXP_LIMIT - 1} in {self}")

    # -- element constructors --

    def zero(self):
        return GradedPolynomial(self, {})

    def one(self):
        return GradedPolynomial(self, {0: 1}, _checked=True)

    def from_rational(self, q):
        return GradedPolynomial(self, {0: q})  # the constructor drops a zero

    def var(self, v: Variable):
        if v not in self.var_index:
            raise ValueError(f"{v.name} is not a variable of {self}")
        return GradedPolynomial(self, {self.mono_of(v): 1})

    def descriptor(self):
        d = {"kind": self.kind, "k_max": self.k_max}
        if self.n is not None:
            d["n"] = self.n
        if self.m is not None:
            d["m"] = self.m
        if self.rational:
            d["rational"] = True
        if self.mod2:
            d["mod2"] = True
        return d

    def __repr__(self):
        tags = []
        if self.rational:
            tags.append("Q")
        if self.mod2:
            tags.append("F2")
        tag = ("|" + ",".join(tags)) if tags else ""
        if self.kind == "BP":
            return f"BP(k<={self.k_max}{tag})"
        if self.kind == "Rn":
            return f"R_{self.n}(k<={self.k_max}{tag})"
        return f"R_{self.n}<{self.m}>(k<={self.k_max}{tag})"


_RING_CACHE = AtomicCache()


def _make_ring(kind, n, m, k_max, rational, mod2):
    def build():
        if rational and mod2:
            raise ValueError("a ring cannot be both rational and mod-2")
        if kind == "BP":
            variables = [V(i) for i in range(1, k_max + 1)]
        else:
            half = 1 << (n - 1)
            top = min(k_max, m) if kind == "Rnm" else k_max
            variables = [T(i, j) for i in range(1, top + 1) for j in range(half)]
        return PolyRing(kind, n, m, k_max, rational, mod2, variables)

    return _RING_CACHE.get_or_create((kind, n, m, k_max, rational, mod2), build)


def bp_ring(k_max, rational=False, mod2=False) -> PolyRing:
    return _make_ring("BP", None, None, k_max, rational, mod2)


def rn_ring(n, k_max, rational=False, mod2=False) -> PolyRing:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _make_ring("Rn", n, None, k_max, rational, mod2)


def rnm_ring(n, m, k_max, rational=False, mod2=False) -> PolyRing:
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return _make_ring("Rnm", n, m, k_max, rational, mod2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _from_coefficients(ring, terms):
    """(numerators, denominator) of a map monomial -> rational; see GradedPolynomial."""
    if ring.mod2:
        return {m: 1 for m, c in terms.items() if _mod2(c)}, 1
    clean = {}
    den = 1
    for mono, c in terms.items():
        if type(c) is not int:
            c = QQ(c)
            if c.denominator == 1:
                c = c.numerator
            else:
                den = den // gcd(den, c.denominator) * c.denominator
        if c:
            clean[mono] = c
    if den == 1:
        return clean, 1
    if not ring.rational and not den & 1:
        bad = next(c for c in clean.values() if type(c) is not int and not c.denominator & 1)
        raise ValueError(f"coefficient {bad} is not 2-locally integral in {ring}")
    # den is the lcm of the denominators, so the numerators share no factor with it
    return {
        m: c * den if type(c) is int else c.numerator * (den // c.denominator)
        for m, c in clean.items()
    }, den


def _mod2(c) -> int:
    return c & 1 if type(c) is int else rational_mod2(QQ(c))


def _reduced(ring, num, den):
    """num / den with the common factor of den and every numerator divided out."""
    if den != 1:
        g = gcd(den, *num.values()) if num else den
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return GradedPolynomial(ring, num, _checked=True, _den=den)


def _coefficient(c, den):
    """The rational c / den: an int when integral, else a QQ."""
    if den == 1:
        return c
    q = QQ(c, den)
    return q.numerator if q.denominator == 1 else q


def _first_even_denominator(p):
    return next(q for q in p.terms.values() if type(q) is not int and not q.denominator & 1)


class GradedPolynomial:
    """Sparse polynomial: int numerators over one positive denominator.

    `num` maps each packed monomial of the support to a nonzero int and `den`
    is the common denominator (1 for mod-2 rings, whose numerators are all 1).
    Over Q and Z_(2) the pair is reduced: den shares no factor with every
    numerator at once, so equal polynomials have equal storage, an integral
    polynomial has den 1 and runs on plain ints, and 2-locality (enforced
    unless the ring is a Q-extension) is an odd den.  `terms` is the map
    monomial -> coefficient (an int when integral, else a QQ): `num` itself
    when den is 1, else a fresh dict.  Immutable by convention.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, terms, _checked=False, _den=1):
        self.ring = ring
        if not _checked:
            terms, _den = _from_coefficients(ring, terms)
        self.num = terms
        self.den = _den

    @property
    def terms(self):
        den = self.den
        if den == 1:
            return self.num
        return {m: _coefficient(c, den) for m, c in self.num.items()}

    # -- structure --

    def is_zero(self):
        return not self.num

    def is_homogeneous(self):
        """Whether every monomial has one degree: the least and the greatest
        packed monomial share the top field."""
        if not self.num:
            return True
        dshift = self.ring.dshift
        return min(self.num) >> dshift == max(self.num) >> dshift

    @property
    def degree(self):
        """Total degree when homogeneous (None for 0), else the max degree."""
        return max(self.num) >> self.ring.dshift if self.num else None

    def coefficient(self, mono: int):
        return _coefficient(self.num.get(mono, 0), self.den)

    def leading_monomial(self) -> int:
        """Greatest monomial in graded-reverse-lex: the least packed monomial
        of the greatest degree."""
        if not self.num:
            raise ValueError("zero polynomial has no leading monomial")
        floor = self.degree << self.ring.dshift
        return min(m for m in self.num if m >= floor)

    def sorted_terms(self):
        """Terms in descending monomial order (deterministic serialization order)."""
        dshift = self.ring.dshift
        return sorted(self.terms.items(), key=lambda kv: (-(kv[0] >> dshift), kv[0]))

    # -- arithmetic --

    def _check(self, other):
        if other.ring is not self.ring:
            raise ValueError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if type(other) is not GradedPolynomial and isinstance(other, SCALAR_TYPES):
            other = self.ring.from_rational(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def _combine(self, other, sign):
        """self + sign * other, on numerators scaled to the lcm of the denominators.

        self + self, as a square's cross terms need, halves an even
        denominator or else doubles the numerators, and either is reduced.
        """
        self._check(other)
        ring = self.ring
        if other is self and sign == 1 and not ring.mod2:
            if self.den & 1:
                return GradedPolynomial(
                    ring, {m: c + c for m, c in self.num.items()}, _checked=True, _den=self.den
                )
            return GradedPolynomial(ring, self.num, _checked=True, _den=self.den >> 1)
        if ring.mod2:
            terms = dict(self.num)
            for m in other.num:
                if m in terms:
                    del terms[m]
                else:
                    terms[m] = 1
            return GradedPolynomial(ring, terms, _checked=True)
        da, db = self.den, other.den
        if da == db:
            fa, fb = 1, sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
        terms = dict(self.num) if fa == 1 else {m: c * fa for m, c in self.num.items()}
        add = other.num if fb == 1 else {m: c * fb for m, c in other.num.items()}
        get = terms.get
        for m, c in add.items():
            s = get(m)
            if s is None:
                terms[m] = c
            else:
                s += c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return _reduced(ring, terms, da * fa)

    def __neg__(self):
        if self.ring.mod2:
            return self
        return GradedPolynomial(
            self.ring, {m: -c for m, c in self.num.items()}, _checked=True, _den=self.den
        )

    def __sub__(self, other):
        if type(other) is not GradedPolynomial and isinstance(other, SCALAR_TYPES):
            other = self.ring.from_rational(other)
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not GradedPolynomial and isinstance(other, SCALAR_TYPES):
            return self.scalar_mul(other)
        return self.ring.dot(((self, other),))

    __rmul__ = __mul__

    def scalar_mul(self, q):
        if self.ring.mod2:
            return self if _mod2(q) else self.ring.zero()
        q = q if type(q) is int else QQ(q)
        n, d = q.numerator, q.denominator
        if not n:
            return self.ring.zero()
        if not self.ring.rational and not d & 1:
            raise ValueError(f"scalar {q} is not 2-locally integral")
        return _reduced(self.ring, {m: c * n for m, c in self.num.items()}, self.den * d)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        return power(self, e, self.ring.one())

    def __eq__(self, other):
        if type(other) is GradedPolynomial:
            return other.ring is self.ring and other.den == self.den and other.num == self.num
        if not isinstance(other, SCALAR_TYPES):
            return False
        # a scalar is a constant: compare with the one stored form it has
        n, d = other.numerator, other.denominator
        if self.ring.mod2:
            return d & 1 == 1 and self.num == ({0: 1} if n & 1 else {})
        if not n:
            return not self.num
        return self.den == d and self.num == {0: n}

    def __hash__(self):
        num = self.num
        if not num:
            return hash(0)
        if len(num) == 1 and 0 in num:  # equal to its scalar, so hashed as one
            return hash(_coefficient(num[0], self.den))
        return hash((id(self.ring), self.den, frozenset(num.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for mono, c in self.sorted_terms()[:12]:
            exps = self.ring.decode(mono)
            names = [
                f"{v.name}^{e}" if e > 1 else v.name
                for v, e in zip(self.ring.variables, exps)
                if e
            ]
            body = "*".join(names) if names else "1"
            cs = str(c)
            bits.append(body if cs == "1" and names else f"{cs}*{body}" if names else cs)
        more = "" if len(self.num) <= 12 else f" + ({len(self.num) - 12} more)"
        return " + ".join(bits) + more


# ---------------------------------------------------------------------------
# group action, reductions, ring maps
# ---------------------------------------------------------------------------

def gamma_act(p: GradedPolynomial, r: int = 1) -> GradedPolynomial:
    """Apply the generator of C_{2^n} r times (ring automorphism of R_n / R_n<m>).

    gamma^r permutes the variables up to sign, so it maps monomials one to
    one: each image is two masked shifts of the packed monomial under its
    unmoved degree field, and its sign a bit count (PolyRing.gamma_masks).
    The denominator does not change.
    """
    ring = p.ring
    masks = ring.gamma_masks(r)
    if masks is None or not p.num:
        return p
    stay, wrap, odd, right, left = masks
    top = -1 << ring.dshift
    if ring.mod2:
        out = {(m & top) | ((m & stay) >> right) | ((m & wrap) << left): 1 for m in p.num}
    else:
        out = {
            (m & top) | ((m & stay) >> right) | ((m & wrap) << left):
                -c if (m & odd).bit_count() & 1 else c
            for m, c in p.num.items()
        }
    return GradedPolynomial(ring, out, _checked=True, _den=p.den)


def orbit_sum(p: GradedPolynomial) -> GradedPolynomial:
    """Sum of gamma^r(p) over the 2^{n-1} twisted-isomorphism levels r."""
    total = p.ring.zero()
    for r in range(1 << (p.ring.n - 1)):
        total = total + gamma_act(p, r)
    return total


def reduce_mod2(p: GradedPolynomial) -> GradedPolynomial:
    """Coefficient-wise reduction to the mod-2 ambient ring.

    An odd denominator is a unit mod 2, so a coefficient reduces to the
    parity of its numerator.
    """
    ring = p.ring
    if ring.mod2:
        return p
    if not p.den & 1:
        raise ValueError(f"{_first_even_denominator(p)} has even denominator")
    target = _make_ring(ring.kind, ring.n, ring.m, ring.k_max, False, True)
    return GradedPolynomial(target, {m: 1 for m, c in p.num.items() if c & 1}, _checked=True)


def to_rational_ring(p: GradedPolynomial) -> GradedPolynomial:
    ring = p.ring
    if ring.rational:
        return p
    if ring.mod2:
        raise ValueError("cannot lift a mod-2 polynomial to Q")
    target = _make_ring(ring.kind, ring.n, ring.m, ring.k_max, True, False)
    return GradedPolynomial(target, p.num, _checked=True, _den=p.den)


def from_rational_ring(p: GradedPolynomial) -> GradedPolynomial:
    """Inverse of to_rational_ring; raises ValueError when stuck."""
    ring = p.ring
    if not ring.rational:
        return p
    target = _make_ring(ring.kind, ring.n, ring.m, ring.k_max, False, False)
    if not p.den & 1:
        raise ValueError(
            f"coefficient {_first_even_denominator(p)} is not 2-locally integral in {target}"
        )
    return GradedPolynomial(target, p.num, _checked=True, _den=p.den)


def ring_map(p: GradedPolynomial, assignment, target):
    """The ring-homomorphic extension of a variable assignment: the sum of
    the term images c prod_v assignment[v]^e, as one target.dot.

    `assignment` maps Variable -> element of `target`, any ring with one(),
    from_rational() and dot(pairs) (a PolyRing, a Lubin-Tate context).  Each
    coefficient is certified by target.from_rational, and a variable of p
    with no image raises ValueError, before a term is skipped for a zero
    factor (a coefficient, or a variable image read off the packed monomial
    under one mask).  Each other term is one pair of the dot: c times every
    power but the last, and the last; each power is formed once per call.
    """
    ring = p.ring
    images = [assignment.get(v) for v in ring.variables]
    fields = [(img, _MASK << s) for img, s in zip(images, ring.shifts)]
    missing = sum(f for img, f in fields if img is None)
    killed = sum(f for img, f in fields if img is not None and img.is_zero())
    one = target.one()
    powers = {}
    pairs = []
    for mono, c in p.terms.items():
        coeff = target.from_rational(c)
        if mono & missing:
            v = next(v for v, (img, f) in zip(ring.variables, fields) if img is None and mono & f)
            raise ValueError(f"no image for {v.name}")
        if mono & killed or coeff.is_zero():
            continue
        left, right = coeff, one
        for idx, e in enumerate(ring.decode(mono)):
            if e:
                w = powers.get((idx, e))
                if w is None:
                    w = powers[(idx, e)] = images[idx] ** e
                if right is not one:  # a factor before this one
                    left = left * right
                right = w
        pairs.append((left, right))
    return target.dot(pairs)


def quotient_to_rnm(p: GradedPolynomial, m: int) -> GradedPolynomial:
    """Image of p under R_n -> R_n<m>: the ring map that kills t_i and all
    its conjugates for i > m and sends every other variable to itself."""
    ring = p.ring
    if ring.kind != "Rn":
        raise ValueError("quotient_to_rnm starts from R_n")
    target = _make_ring("Rnm", ring.n, m, ring.k_max, ring.rational, ring.mod2)
    image = {v: target.var(v) if v.i <= m else target.zero() for v in ring.variables}
    return ring_map(p, image, target)


# ---------------------------------------------------------------------------
# degree-truncated Groebner machinery over F_2
# ---------------------------------------------------------------------------

def _divides(ring, a: int, b: int) -> bool:
    # does monomial a divide b?  With every guard bit of b set, b - a takes
    # each field to 2^10 + b_i - a_i > 0 (exponents are below 2^10), so no
    # field borrows from the next, and the guard stays set iff a_i <= b_i;
    # a negative difference of the degree fields stays above the guard bits
    return ((b | ring.guard) - a) & ring.guard == ring.guard


def _nf(p: GradedPolynomial, reducers) -> GradedPolynomial:
    """Full normal form over F_2 (reduce every reducible monomial).

    `reducers` lists (leading monomial, basis element) pairs; the first whose
    leading monomial divides the current one reduces it.  The live monomials
    of the remainder sit in a set beside a min-heap of packed monomials.

    The heap pops in increasing int order: degree ascending, and within one
    degree descending grevlex.  That is exact because every reducer is
    homogeneous: GroebnerBasis checks its generators, and the S-polynomials
    of homogeneous elements are homogeneous.  So reducing mu adds or cancels
    only monomials of deg mu that are smaller than mu in grevlex, which are
    larger packed ints of the same degree field: each is popped after mu,
    and a popped monomial never comes back.  Different degrees never
    interact, so an input that is not homogeneous is reduced one degree after
    another, lowest first.  A cancelled monomial keeps its heap entry and is
    skipped when popped (lazy deletion).
    """
    ring = p.ring
    live = set(p.num)
    heap = list(live)
    heapq.heapify(heap)
    out = {}
    while heap:
        mono = heapq.heappop(heap)
        if mono not in live:
            continue
        live.remove(mono)
        for lm, g in reducers:
            if _divides(ring, lm, mono):
                break
        else:
            out[mono] = 1
            continue
        q = mono - lm  # packed-int monomial division
        for gm in g.num:
            m2 = gm + q
            if m2 == mono:
                continue
            if m2 in live:
                live.remove(m2)
            else:
                live.add(m2)
                heapq.heappush(heap, m2)
    return GradedPolynomial(ring, out, _checked=True)


# The most standard monomials one basis tabulates normal forms over (the bits
# of a table entry); a fill that would pass it drops the table (GroebnerBasis)
NF_TABLE_LIMIT = 256


class GroebnerBasis:
    """Buchberger output over F_2, truncated to total degree <= D.

    Sound and complete for deciding membership of homogeneous elements of
    degree <= D in a homogeneous ideal: S-pairs whose lcm exceeds D cannot
    influence normal forms at degree <= D.

    normal_form answers from a table of the normal forms of the monomials
    the basis has reduced, the normal-form table of FGLM (Faugere, Gianni,
    Lazard & Mora, JSC 1993): packed monomial -> int bitmask, bit i standing
    for the standard monomial _standard[i].  The table is exact:
      * the full normal form is F_2-linear, so NF(p) is the XOR of NF(mu)
        over the monomials mu of p;
      * it is unique, whatever reducer each step picks, for a basis
        truncated at or above deg p, which the degree check of normal_form
        asks;
      * a monomial mu = q lm(g) of the leading ideal has NF(mu) =
        NF(mu + q g), the XOR of NF(q m) over the tails m of g, and each q m
        lies below mu in grevlex at deg mu: a larger packed int, which _fill
        fills first.
    The table holds normal forms of monomials, shared by every input reduced
    on the basis, never an input or a result.  It spans at most
    NF_TABLE_LIMIT standard monomials, so an entry has at most that many
    bits; a fill that would pass the limit drops the table, and the basis
    reduces through _nf from then on, as Buchberger does.  Fills hold the
    basis's lock, since they number the standard monomials in turn; readers
    take none, since entries and bits are only ever added.
    """

    def __init__(self, ring, generators, degree_bound):
        if not ring.mod2:
            raise ValueError("Groebner machinery runs over the mod-2 ring")
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
        self.ring = ring
        self.degree_bound = degree_bound
        self._reducers = self._buchberger(gens, degree_bound)
        self.basis = [g for _, g in self._reducers]
        self._table = {}  # monomial -> NF bitmask; None once dropped
        self._standard = []  # bit i of an entry -> its standard monomial
        self._lock = threading.Lock()

    def _buchberger(self, gens, D):
        """The basis as (leading monomial, element) pairs, in insertion order."""
        ring = self.ring
        reducers = []
        for g in gens:
            if g.degree <= D:
                g = _nf(g, reducers)
                if not g.is_zero():
                    reducers.append((g.leading_monomial(), g))
        pairs = list(itertools.combinations(range(len(reducers)), 2))
        while pairs:
            i, j = pairs.pop()
            (mi, gi), (mj, gj) = reducers[i], reducers[j]
            lcm = ring.encode(
                tuple(max(a, b) for a, b in zip(ring.decode(mi), ring.decode(mj)))
            )
            if lcm == mi + mj:  # coprime leading monomials: S-poly reduces to 0
                continue
            if ring.mono_degree(lcm) > D:
                continue  # sound to skip for homogeneous ideals
            s = gi * GradedPolynomial(ring, {lcm - mi: 1}, _checked=True) + gj * (
                GradedPolynomial(ring, {lcm - mj: 1}, _checked=True)
            )
            s = _nf(s, reducers)
            if not s.is_zero():
                if s.degree > D:
                    raise ConsistencyFailure("S-polynomial escaped the degree bound")
                reducers.append((s.leading_monomial(), s))
                pairs.extend((t, len(reducers) - 1) for t in range(len(reducers) - 1))
        return reducers

    def normal_form(self, p: GradedPolynomial) -> GradedPolynomial:
        if p.ring is not self.ring:
            raise ValueError("polynomial from a different ambient ring")
        if not p.is_zero() and p.degree > self.degree_bound:
            raise ValueError(
                f"degree {p.degree} exceeds basis bound {self.degree_bound}"
            )
        table, standard = self._table, self._standard
        if table is not None:
            try:
                bits = reduce(xor, map(table.__getitem__, p.num), 0)
            except KeyError:
                table = self._fill(p.num)
                if table is not None:
                    bits = reduce(xor, map(table.__getitem__, p.num), 0)
        if table is None:
            return _nf(p, self._reducers)
        out = {}
        while bits:
            low = bits & -bits
            out[standard[low.bit_length() - 1]] = 1
            bits ^= low
        return GradedPolynomial(self.ring, out, _checked=True)

    def _fill(self, monos):
        """Tabulate the normal forms of monos: the table, or None once dropped.

        The closure of the missing monomials under mu -> the tails q m of its
        first reducer is gathered first, then filled in decreasing packed
        order, so every tail is filled before the monomial it reduces; the
        standard monomials of the closure take the next bits.
        """
        with self._lock:
            table, standard = self._table, self._standard
            if table is None:
                return None
            ring, reducers = self.ring, self._reducers
            tails = {}  # monomial of the closure -> its tails, None if standard
            found = len(standard)
            todo = list(monos)
            while todo:
                mono = todo.pop()
                if mono in tails or mono in table:
                    continue
                for lm, g in reducers:
                    if _divides(ring, lm, mono):
                        q = mono - lm
                        tails[mono] = below = [gm + q for gm in g.num if gm != lm]
                        todo += below
                        break
                else:
                    tails[mono] = None
                    found += 1
                    if found > NF_TABLE_LIMIT:
                        self._table = None
                        return None
            for mono in sorted(tails, reverse=True):
                below = tails[mono]
                if below is None:
                    table[mono] = 1 << len(standard)
                    standard.append(mono)
                else:
                    table[mono] = reduce(xor, map(table.__getitem__, below), 0)
            return table


def ideal_normal_form(p: GradedPolynomial, gens) -> GradedPolynomial:
    """Normal form of p modulo (2, gens), over F_2: zero iff p is a member.

    Reduction mod 2 first is exact because the ambient rings are polynomial
    over Z_(2): an element lies in (2, g_1, ..., g_r) iff its mod-2 reduction
    lies in the ideal of the reductions.  p must be homogeneous (as every
    identity checked here is).  Each call builds its own basis, truncated at
    deg p, keeps none, and reduces on it through the heap (_nf), never
    through the basis's normal-form table: this is the generic route and the
    test oracle of the membership claims, so it shares no basis object and
    no reduction engine with the route it checks.
    """
    pbar = reduce_mod2(p)
    if pbar.is_zero():
        return pbar
    gens_mod2 = [g for g in (reduce_mod2(g) for g in gens) if not g.is_zero()]
    if not gens_mod2:
        return pbar
    return _nf(pbar, GroebnerBasis(pbar.ring, gens_mod2, pbar.degree)._reducers)


def ideal_contains(p: GradedPolynomial, gens) -> bool:
    """Is p in (2, gens) in its ambient ring?  See ideal_normal_form."""
    return ideal_normal_form(p, gens).is_zero()


def f2_membership_linear(p: GradedPolynomial, gens) -> bool:
    """Independent membership route: exhaustive linear algebra on one graded piece.

    Spans { m * g : g in gens, m monomial, deg(m g) = deg(p) } over F_2 and
    tests whether p's coefficient vector lies in the row space.  Exponential in
    spirit but fine on the small cross-check cases; never used as the primary
    decision procedure.
    """
    ring = p.ring
    if not ring.mod2:
        p = reduce_mod2(p)
        gens = [reduce_mod2(g) for g in gens]
        ring = p.ring
    if p.is_zero():
        return True
    if not p.is_homogeneous():
        raise ValueError("linear-algebra membership needs a homogeneous input")
    deg = p.degree
    basis_monos = {m: i for i, m in enumerate(sorted(ring.monomials_of_degree(deg)))}

    def vec(poly):
        b = 0
        for m in poly.num:
            b |= 1 << basis_monos[m]
        return b

    rows = []
    for g in gens:
        if g.is_zero():
            continue
        shift_deg = deg - g.degree
        if shift_deg < 0:
            continue
        for m in ring.monomials_of_degree(shift_deg):
            prod = g * GradedPolynomial(ring, {m: 1}, _checked=True)
            if not prod.is_zero():
                rows.append(vec(prod))
    pivots = {}
    for r in rows:
        f2_reduce(r, pivots)
    return not f2_reduce(vec(p), pivots)


def f2_reduce(row, pivots):
    """Gaussian elimination over F_2 on int bitmask rows, one row at a time.

    Reduces row against pivots, {leading bit: row}, and returns the
    remainder: 0 when row is in their span.  A nonzero remainder joins
    pivots under its leading bit, so len(pivots) is the rank of the rows fed
    in, over F_2 and over every extension field of it.
    """
    while row:
        top = row.bit_length() - 1
        pivot = pivots.get(top)
        if pivot is None:
            pivots[top] = row
            break
        row ^= pivot
    return row


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_to_json(p: GradedPolynomial):
    terms = []
    for mono, c in p.sorted_terms():
        exps = p.ring.decode(mono)
        monomial = {
            v.name: e for v, e in zip(p.ring.variables, exps) if e
        }
        coeff = str(int(c)) if p.ring.mod2 else qq_to_string(c)
        terms.append({"monomial": monomial, "coeff": coeff})
    return {"ring": p.ring.descriptor(), "terms": terms}

