"""Exact coefficient domains.

Rationals (`fractions.Fraction`, exported as QQ) and the 2-local tests on
them, and truncated Witt vectors W(F_{2^d}) modeled as Z_2[x]/(f~) with
coefficients reduced mod 2^N, where f~ is the {0,1}-lift of the chosen
irreducible modulus.  Teichmuller lifts are computed by the fixed-point
iteration z -> z^(2^d).  The coordinate arithmetic itself (the product
reduced by f~ and the Frobenius image, on plain int tuples) is one WittKernel
per (field, N), shared by WittElement and the Lubin-Tate ring.  Each kernel
holds one table of the Teichmuller lifts of k^x, the powers of the lift of
one multiplicative generator; the Frobenius squares the Teichmuller digits
of x read off it, and the torus action of the Lubin-Tate ring reads it.

The residue field k = F_{2^d} = F_2[x]/(f) is W(F_{2^d}) at N = 1: every
coordinate is reduced mod 2, and the kernel's product, masked to one bit, is
the product of F_2[x]/(f).  So k is no separate engine: FiniteFieldSpec
hands out WittElements of precision 1, WittElement.residue maps into them,
and the Frobenius of k is frobenius_lift, which at N = 1 squares.
AtomicCache, the lock-guarded table behind every process-wide cache, lives
here too, and finite_field interns the field specs through one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyFailure

QQ = Fraction  # the rationals of every module of the package


def two_valuation(q) -> int:
    """2-adic valuation of a nonzero rational (an int or a QQ)."""
    n, d = q.numerator, q.denominator
    if n == 0:
        raise ValueError("two_valuation(0) is undefined")
    return ((n & -n).bit_length() - 1) - ((d & -d).bit_length() - 1)


def is_two_local(q) -> bool:
    """True when q lies in Z_(2), i.e. its reduced denominator is odd."""
    return q.denominator & 1 == 1


def rational_mod2(q) -> int:
    """Reduction of a 2-local rational to F_2 (odd denominators are units)."""
    if not is_two_local(q):
        raise ValueError(f"{q} has even denominator")
    return q.numerator & 1


def power(x, e: int, one):
    """x^e for e >= 0 by square-and-multiply from `one`, the 1 of x's ring;
    the last squaring, which no bit reads, is skipped."""
    r = one
    while e:
        if e & 1:
            r = r * x
        e >>= 1
        if e:
            x = x * x
    return r


def qq_to_string(q) -> str:
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


class AtomicCache(dict):
    """A process-wide table of derived objects, one per key.

    `get_or_create` checks and inserts under the table's lock, so racing
    callers get one object for a key: interned rings are matched by identity,
    and a derived table is built once.  Build functions may fill other
    tables, never their own.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def get_or_create(self, key, build):
        with self._lock:
            value = self.get(key)
            if value is None:
                value = self[key] = build()
        return value


DEFAULT_MODULI = {1: (1, 1), 2: (1, 1, 1), 3: (1, 1, 0, 1), 4: (1, 1, 0, 0, 1)}
_FIELDS = AtomicCache()


def field_refusal(d: int, modulus):
    """Why (d, modulus) names no field of degree d, read off the two values
    alone, or None: d has a default modulus, or the modulus is monic of
    degree d.  Irreducibility, which computes, is FiniteFieldSpec's test."""
    if modulus is None:
        return None if d in DEFAULT_MODULI else f"no default modulus for d={d}"
    if len(modulus) != d + 1 or not int(modulus[-1]) & 1:
        return "modulus must be monic of degree d"
    return None


def finite_field(d: int, modulus=None) -> "FiniteFieldSpec":
    """The process-wide FiniteFieldSpec of F_2[x]/(modulus); None names the default.

    The key is the reduced bit tuple, so each field is one object, checked
    once: identity tests on specs hit across contexts, and tables keyed by a
    spec find it without comparing fields.  An invalid modulus raises and
    leaves nothing behind.
    """
    refusal = field_refusal(d, modulus)
    if refusal is not None:
        raise ValueError(refusal)
    mod = tuple(int(b) & 1 for b in modulus or DEFAULT_MODULI[d])
    return _FIELDS.get_or_create((d, mod), lambda: FiniteFieldSpec(d, mod))


@dataclass(frozen=True)
class FiniteFieldSpec:
    """The field F_{2^d} presented as F_2[x]/(modulus).

    modulus is a bit tuple low-to-high of length d+1 with leading bit 1;
    irreducibility is checked at construction (trial division, fine for small
    d).  Its elements are the WittElements of precision 1: k is W(k) mod 2.
    The constructor builds a fresh spec; finite_field returns the shared one.
    """

    d: int
    modulus: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("extension degree must be >= 1")
        mod = tuple(int(b) & 1 for b in self.modulus)
        object.__setattr__(self, "modulus", mod)
        refusal = field_refusal(self.d, mod)
        if refusal is not None:
            raise ValueError(refusal)
        # derived attributes, kept out of the fields so that equality, hashing
        # and repr still see (d, modulus) alone: the modulus as an int (bit i
        # is the coefficient of x^i), and precision N -> the WittKernel of
        # W(F_{2^d}) mod 2^N (see witt_kernel)
        object.__setattr__(self, "modbits", sum(b << i for i, b in enumerate(mod)))
        object.__setattr__(self, "_kernels", AtomicCache())
        if not self._irreducible():
            raise ValueError(f"modulus {list(mod)} is reducible over F_2")

    def _irreducible(self) -> bool:
        # trial division over F_2 on bit-packed ints: a reducible f has a
        # factor of degree <= d/2, so f is irreducible iff no g of degree
        # 1..d//2 divides it
        f = self.modbits
        for g in range(2, 1 << (self.d // 2 + 1)):
            r, width = f, g.bit_length()
            while r.bit_length() >= width:
                r ^= g << (r.bit_length() - width)
            if not r:
                return False
        return True

    def from_bits(self, bits: int) -> "WittElement":
        """The element of k = W(k) mod 2 whose coordinate i is bit i of bits."""
        return _reduced(self, 1, tuple([bits >> i & 1 for i in range(self.d)]))

    @property
    def zero(self):
        return self.from_bits(0)

    @property
    def one(self):
        return self.from_bits(1)

    @property
    def omega(self):
        """The class of x (a generator of the polynomial basis)."""
        if self.d == 1:
            return self.one
        return self.from_bits(2)

    def elements(self):
        for bits in range(1 << self.d):
            yield self.from_bits(bits)

    def to_json(self):
        return {"d": self.d, "modulus": list(self.modulus)}


# ---------------------------------------------------------------------------
# Truncated Witt vectors W(F_{2^d}) = Z_2[x]/(f~) mod 2^N
# ---------------------------------------------------------------------------

class WittElement:
    """Element of Z_2[x]/(f~) with coefficients reduced mod 2^N.

    f~ is the {0,1}-coefficient integer lift of the field modulus, so reduction
    mod 2 of the coefficient vector is exactly the residue map W(k) -> k.

    The public constructor checks and reduces its input.  The arithmetic masks
    its results to [0, 2^N) itself and builds them through _reduced, so no
    result is reduced twice.
    """

    __slots__ = ("spec", "precision", "coeffs")

    def __init__(self, spec, precision, coeffs):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        mask = (1 << precision) - 1
        coeffs = tuple([int(c) & mask for c in coeffs])
        if len(coeffs) != spec.d:
            raise ValueError(f"need exactly {spec.d} coefficients")
        self.spec = spec
        self.precision = precision
        self.coeffs = coeffs

    # -- constructors --

    @staticmethod
    def from_int(spec, precision, c) -> "WittElement":
        if precision < 1:
            raise ValueError("precision must be >= 1")
        low = int(c) & ((1 << precision) - 1)
        return _reduced(spec, precision, (low,) + (0,) * (spec.d - 1))

    @staticmethod
    def zero(spec, precision):
        return WittElement.from_int(spec, precision, 0)

    @staticmethod
    def one(spec, precision):
        return WittElement.from_int(spec, precision, 1)

    # -- structure --

    def _coerce(self, other):
        if isinstance(other, WittElement):
            # specs are almost always one object: test identity before the
            # dataclass __eq__
            if (
                other.spec is not self.spec and other.spec != self.spec
            ) or other.precision != self.precision:
                raise ValueError("mixed Witt-ring arithmetic")
            return other
        if isinstance(other, int):
            return WittElement.from_int(self.spec, self.precision, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        mask = (1 << self.precision) - 1
        return _reduced(
            self.spec,
            self.precision,
            tuple([(a + b) & mask for a, b in zip(self.coeffs, o.coeffs)]),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        mask = (1 << self.precision) - 1
        return _reduced(
            self.spec,
            self.precision,
            tuple([(a - b) & mask for a, b in zip(self.coeffs, o.coeffs)]),
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        mask = (1 << self.precision) - 1
        return _reduced(self.spec, self.precision, tuple([-a & mask for a in self.coeffs]))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        kernel = witt_kernel(self.spec, self.precision)
        product = kernel.mul(self.coeffs, o.coeffs)
        return _reduced(self.spec, self.precision, kernel.masked(product))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, WittElement.one(self.spec, self.precision))

    def residue(self) -> "WittElement":
        """Reduction mod 2 down to k = F_{2^d}, the ring at precision 1."""
        return _reduced(self.spec, 1, tuple([c & 1 for c in self.coeffs]))

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        return any(c & 1 for c in self.coeffs)

    def two_valuation(self):
        """Largest e with self in 2^e * W; equals precision when self is 0."""
        v = self.precision
        for c in self.coeffs:
            if c:
                v = min(v, (c & -c).bit_length() - 1)
        return v

    def inverse(self) -> "WittElement":
        if not self.is_unit():
            raise ValueError(f"{self} reduces to 0 mod 2")
        # lift the residue inverse r^(2^d - 2), then Newton: v <- v(2 - wv)
        r = self.residue() ** ((1 << self.spec.d) - 2)
        v = WittElement(self.spec, self.precision, r.coeffs)
        two = WittElement.from_int(self.spec, self.precision, 2)
        for _ in range(self.precision.bit_length() + 1):
            v = v * (two - self * v)
        if not (self * v - 1).is_zero():
            raise ConsistencyFailure("Newton inversion failed to converge")
        return v

    def __eq__(self, other):
        if isinstance(other, int):
            other = WittElement.from_int(self.spec, self.precision, other)
        return (
            isinstance(other, WittElement)
            and (other.spec is self.spec or other.spec == self.spec)
            and other.precision == self.precision
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.precision, self.coeffs))

    def __repr__(self):
        return f"W({self.spec.d},N={self.precision}):{list(self.coeffs)}"

    def to_json(self):
        return {"precision": self.precision, "coeffs": list(self.coeffs)}


def _reduced(spec, precision, coeffs):
    """A WittElement on a coordinate tuple already in [0, 2^precision), unchecked."""
    w = object.__new__(WittElement)
    w.spec = spec
    w.precision = precision
    w.coeffs = coeffs
    return w


def teichmuller(a: WittElement, N: int) -> WittElement:
    """The Teichmuller lift to precision N of a in k (precision 1).

    Iterates z -> z^(2^d) from the naive {0,1} lift; quadratic 2-adic
    convergence makes this stable within N steps (hard cap 4N).
    """
    spec = a.spec
    z = WittElement(spec, N, a.coeffs)
    q = 1 << spec.d
    for _ in range(4 * N):
        z_next = z**q
        if z_next == z:
            return z
        z = z_next
    raise ConsistencyFailure("Teichmuller iteration did not stabilize within 4N steps")


def _multiplicative_generator(spec):
    """The first element of k whose powers fill k^x, which is cyclic."""
    order = (1 << spec.d) - 1
    for g in spec.elements():
        if not g.is_zero() and len({(g ** i).coeffs for i in range(order)}) == order:
            return g
    raise ConsistencyFailure("no multiplicative generator found")


def _frobenius_basis_images(kernel) -> tuple:
    # coordinates of r^0, ..., r^(d-1) for r = phi(x): the images of the basis
    # 1, x, ..., x^(d-1) under the Frobenius lift.  phi squares each
    # Teichmuller digit, phi(sum_s 2^s T(a_s)) = sum_s 2^s T(a_s)^2, and
    # T(a)^2 = T(a^2) sits in the table of lifts at twice the index of T(a);
    # the digits of x are peeled off by w <- (w - T(a_s)) / 2.
    spec = kernel.spec
    lifts, log = kernel.lifts()
    zero = (0,) * spec.d
    w = (0, 1) + zero[2:] if spec.d > 1 else (-spec.modulus[0] & kernel.mask,)
    r = zero
    for s in range(kernel.precision):
        i = log.get(tuple([c & 1 for c in w]))
        digit, square = (zero, zero) if i is None else (lifts[i], lifts[2 * i % len(lifts)])
        w = tuple([(a - b) >> 1 for a, b in zip(w, digit)])
        r = tuple([a + (b << s) for a, b in zip(r, square)])
    r = kernel.masked(r)
    powers = [lifts[0]]
    for _ in range(spec.d):
        powers.append(kernel.masked(kernel.mul(powers[-1], r)))
    # the certificate of the expansion: phi(x) is a root of f~
    terms = [p for p, b in zip(powers, spec.modulus) if b]
    if any(sum(column) & kernel.mask for column in zip(*terms)):
        raise ConsistencyFailure("the Frobenius image of x is no root of f~")
    return tuple(powers[:-1])


def _coordinate_product(spec: FiniteFieldSpec):
    """The product of two coordinate tuples in Z[x]/(f~), unmasked."""
    d = spec.d
    if d == 1:
        return lambda a, b: (a[0] * b[0],)
    # x^d = -sum_{i<d} f_i x^i, folded in from the top degree down
    taps = tuple(i for i in range(d) if spec.modulus[i])
    high = range(2 * d - 2, d - 1, -1)
    width = 2 * d - 1

    def mul(a, b):
        prod = [0] * width
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in high:
            c = prod[k]
            if c:
                for i in taps:
                    prod[k - d + i] -= c
        return tuple(prod[:d])

    return mul


class WittKernel:
    """Coordinate arithmetic of W(F_{2^d}) mod 2^N on plain int tuples.

    `mul` and `frobenius` return integer coordinates that are reduced by f~
    but not masked, so a caller that sums several results masks once: to
    [0, 2^N) through `masked` (WittElement), or to a coarser 2^j (a term of
    the Lubin-Tate ring).  Both maps are Z-linear in each argument, so
    masking afterwards gives the same residue as masking each step.  One
    kernel exists per (spec, N), from witt_kernel; WittElement arithmetic
    and frobenius_lift run on it.  `lifts` is the kernel's one route from k
    into W(k): the torus action, the Frobenius images and the torsion
    generator of fixed-subring all read it.
    """

    __slots__ = ("spec", "precision", "mask", "mul", "_lifts", "_images")

    def __init__(self, spec, precision):
        self.spec = spec
        self.precision = precision
        self.mask = (1 << precision) - 1
        self.mul = _coordinate_product(spec)
        self._lifts = None  # lazy: the Teichmuller lifts of k^x
        self._images = None  # lazy: the Frobenius images of the basis

    def masked(self, coords) -> tuple:
        mask = self.mask
        return tuple([c & mask for c in coords])

    def lifts(self) -> tuple:
        """(lifts, log), built on first use: lifts[i] holds T(g)^i = T(g^i)
        for the multiplicative generator g of k and i < 2^d - 1, and log maps
        the residue coordinates of g^i to i.  The build lifts g once; unless
        T(g)^(2^d-1) = 1 and g has full order (log has 2^d - 1 keys), it
        raises ConsistencyFailure and stores nothing."""
        if self._lifts is None:
            order = (1 << self.spec.d) - 1
            t = teichmuller(_multiplicative_generator(self.spec), self.precision).coeffs
            lifts, log = [(1,) + (0,) * (self.spec.d - 1)], {}
            for i in range(order):
                log[tuple([c & 1 for c in lifts[i]])] = i
                lifts.append(self.masked(self.mul(lifts[i], t)))
            if lifts.pop() != lifts[0]:
                raise ConsistencyFailure(f"T(g)^{order} != 1")
            if len(log) != order:
                raise ConsistencyFailure(f"g has order below {order}")
            self._lifts = (tuple(lifts), log)
        return self._lifts

    def frobenius(self, coords) -> tuple:
        """The Frobenius lift sum_i c_i phi(x^i), from a table of the basis
        images built on first use (their Teichmuller digits need the kernel)."""
        images = self._images
        if images is None:
            images = self._images = _frobenius_basis_images(self)
        acc = [0] * self.spec.d
        for c, image in zip(coords, images):
            if c:
                for k, b in enumerate(image):
                    acc[k] += c * b
        return tuple(acc)


def witt_kernel(spec: FiniteFieldSpec, N: int) -> WittKernel:
    """The coordinate kernel of W(spec) mod 2^N, one per spec and N.

    The kernels live on the spec, so the lookup on every WittElement
    operation is one dict probe; a miss builds under the table's lock.
    """
    kernel = spec._kernels.get(N)
    if kernel is None:
        kernel = spec._kernels.get_or_create(N, lambda: WittKernel(spec, N))
    return kernel


def frobenius_lift(w: WittElement) -> WittElement:
    """The lift of Frobenius to W(F_{2^d}): the ring map that squares each
    Teichmuller digit, phi(sum_s 2^s T(a_s)) = sum_s 2^s T(a_s)^2.

    The lift is Z_2-linear, so the image is sum_i c_i phi(x^i) over the
    coordinates c_i of w, read off the table of basis images of the
    (spec, N) kernel; phi(x) is expanded in digits read off its table of
    lifts and certified as a root of f~.
    """
    kernel = witt_kernel(w.spec, w.precision)
    return _reduced(w.spec, w.precision, kernel.masked(kernel.frobenius(w.coeffs)))
