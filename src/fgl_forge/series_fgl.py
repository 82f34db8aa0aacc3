"""Truncated power-series calculus: logs, exponentials, formal group laws,
formal sums, strict isomorphisms and their 2-typical coordinates.

One routine reverts series: solve_series(L, S) is the g with L(g) = S.  The
exponential and the F-sum through the logarithm (formal_sum_via_log) are
this one solve, so the claims never form a two-variable law.  The formal
inverse [-1](x) = solve_series(L, -L) and the two-variable routines
(fgl_from_log, fgl_apply, formal_sum, formal_inverse, the strict
isomorphisms) are kept as the test oracles of those routes, in their
definitional forms: one compose takes an inner series in one or two
variables, F(a, b) is a + b + sum c_jk a^j b^k (fgl_apply), [2](x) is
F(x, x), and i(x) = [-1](x) is read off F(x, i(x)) = 0 one order at a time.

Series coefficients live in any ring object exposing zero(), one(),
from_rational() and dot(pairs), its one product kernel (PolyRing.dot,
LTContext.dot; a * b is one pair), the sum of a*b over (a, b) pairs of its
elements, through which every sum of products here goes.  The elements
support +, -, *, ** (integer), ==, and is_zero(), and name their ring as
`.ring` (conjugate_fgl reads the target ring off the image of 1).  Graded
polynomial rings, the Lubin-Tate ring and the residue field (that ring at
truncation order 1) satisfy it, so one engine serves every stage of the
pipeline, and poly_core.ring_map maps polynomials into each of them.
Every series is truncated at a fixed cutoff in the series variable(s); all
identities asserted by this module are exact up to that cutoff.
"""

from __future__ import annotations

from .coefficients import QQ
from .errors import ConsistencyFailure
from .poly_core import (
    SCALAR_TYPES,
    GradedPolynomial,
    V,
    bp_ring,
    from_rational_ring,
)


def _coerce_coeff(ring, c):
    if type(c) is not GradedPolynomial and isinstance(c, SCALAR_TYPES):
        return ring.from_rational(c)
    return c


# ---------------------------------------------------------------------------
# truncated series in one and two variables (no constant term)
# ---------------------------------------------------------------------------

class _TruncatedSeries:
    """What the two kinds share: the coefficient ring, the cutoff and the map
    coeffs from exponent keys (e for TruncatedSeries1, (e1, e2) for
    TruncatedSeries2) to nonzero coefficients.  The results keep the kind of
    self."""

    __slots__ = ("ring", "cutoff", "coeffs")

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if other.ring is not self.ring or other.cutoff != self.cutoff:
            raise ValueError("series from different contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return type(self)(self.ring, out, self.cutoff)

    def __neg__(self):
        return type(self)(self.ring, {k: -c for k, c in self.coeffs.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_coeff(self.ring, c)
        return type(self)(self.ring, {k: c * v for k, v in self.coeffs.items()}, self.cutoff)

    def powers(self, max_power):
        """[None, self, self^2, ..., self^max_power] (index = exponent)."""
        out = [None, self]
        for _ in range(1, max_power):
            out.append(out[-1] * self)
        return out

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.ring is self.ring
            and other.cutoff == self.cutoff
            and other.coeffs == self.coeffs
        )


class TruncatedSeries1(_TruncatedSeries):
    """x-power series sum_{1 <= e <= cutoff} c_e x^e with ring coefficients."""

    __slots__ = ()

    def __init__(self, ring, coeffs, cutoff):
        self.ring = ring
        self.cutoff = cutoff
        clean = {}
        for e, c in coeffs.items():
            if e < 1:
                raise ValueError("series here have no constant term")
            if e <= cutoff and not c.is_zero():
                clean[e] = c
        self.coeffs = clean

    @staticmethod
    def identity(ring, cutoff):
        return TruncatedSeries1(ring, {1: ring.one()}, cutoff)

    @staticmethod
    def monomial(ring, coeff, e, cutoff):
        return TruncatedSeries1(ring, {e: _coerce_coeff(ring, coeff)}, cutoff)

    @staticmethod
    def zero(ring, cutoff):
        return TruncatedSeries1(ring, {}, cutoff)

    def coefficient(self, e):
        return self.coeffs.get(e, self.ring.zero())

    def __mul__(self, other):
        """Series product, truncated.

        The pairs are grouped by output order, so each coefficient is one sum
        of products: one call of the fused kernel over a polynomial ring.  A
        square visits each unordered pair of orders once: (c_a, c_a) at 2a,
        which the kernel squares, and (2 c_a, c_b) at a + b for a < b, none
        when 2 c_a is 0 (over F_2).
        """
        self._check(other)
        X = self.cutoff
        orders = {}
        if other is self:
            terms = sorted(self.coeffs.items())
            for i, (a, ca) in enumerate(terms):
                if 2 * a > X:
                    break
                orders.setdefault(2 * a, []).append((ca, ca))
                if 2 * a == X:
                    break
                twice = ca + ca
                if twice.is_zero():
                    continue
                for b, cb in terms[i + 1:]:
                    if a + b > X:
                        break
                    orders.setdefault(a + b, []).append((twice, cb))
        else:
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    if e <= X:
                        pairs = orders.get(e)
                        if pairs is None:
                            orders[e] = [(c1, c2)]
                        else:
                            pairs.append((c1, c2))
        dot = self.ring.dot
        return TruncatedSeries1(self.ring, {e: dot(pairs) for e, pairs in orders.items()}, X)

    def compose(self, inner):
        """self(inner), for an inner series of either kind, as a series of
        inner's kind; inner has no constant term so this is well-defined.

        Each power of inner in self's support is reached from the previous
        one by squaring while the exponent at most doubles, then by single
        multiplications; a 2-typical log, supported on 2-powers, needs only
        squarings.  Each coefficient of the result is one sum of products
        over the powers.
        """
        self._check(inner)
        orders = {}
        pw, pw_exp = inner, 1
        for e in sorted(self.coeffs):
            while 2 * pw_exp <= e:
                pw = pw * pw
                pw_exp *= 2
            while pw_exp < e:
                pw = pw * inner
                pw_exp += 1
            c = self.coeffs[e]
            for o, v in pw.coeffs.items():
                orders.setdefault(o, []).append((c, v))
        dot = self.ring.dot
        return type(inner)(self.ring, {o: dot(pairs) for o, pairs in orders.items()}, self.cutoff)

    def __repr__(self):
        bits = [f"({c!r})x^{e}" for e, c in sorted(self.coeffs.items())[:8]]
        return " + ".join(bits) + (" + ..." if len(self.coeffs) > 8 else "") or "0"


def solve_series(log: TruncatedSeries1, rhs: TruncatedSeries1) -> TruncatedSeries1:
    """The series g with log(g) = rhs, for a log with leading coefficient 1.

    The coefficient of x^e in log(g) is g_e + sum_{j >= 2} l_j [x^e] g^j, and
    [x^e] g^j uses only g_1 .. g_{e-1}; so g_e = rhs_e - sum_j l_j [x^e] g^j,
    one sum of products per order.  The powers of g in log's support are
    reached as compose reaches them, by squaring while the exponent at most
    doubles and then by multiplying by g, and each is a table
    [x^m] g^p filled by column: column e of every power needs only columns
    below e, so it is final before g_e is solved.  A 2-typical log needs only
    squarings, and a squared row pairs each unordered pair of orders once,
    as a series square does.  It divides by nothing, so it is valid over any
    coefficient ring.  The result is not certified here; series_exp
    certifies its own.
    """
    log._check(rhs)
    ring, X = log.ring, log.cutoff
    one = ring.one()
    if log.coefficient(1) != one:
        raise ValueError("solve_series needs a log with leading coefficient 1")
    g = [None] * (X + 1)  # g[m] = g_m, None for 0; row 0 of the table
    rows, exps = [g], [1]  # rows[i][m] = [x^m] g^{exps[i]}
    chain = []  # (row, source row, squared?): the row is the source squared or times g
    uses = []  # (-l_j, row of g^j) for j >= 2
    for j in sorted(log.coeffs):
        if j == 1:
            continue
        while exps[-1] < j:
            square = 2 * exps[-1] <= j
            chain.append((len(rows), len(rows) - 1, square))
            exps.append(2 * exps[-1] if square else exps[-1] + 1)
            rows.append([None] * (X + 1))
        uses.append((-log.coeffs[j], len(rows) - 1))
    # twice[s][m] = 2 [x^m] g^{exps[s]} (None for 0) for each squared row s,
    # so a square pairs each unordered pair of orders once
    twice = {s: [None] * (X + 1) for _, s, square in chain if square}
    dot = ring.dot
    for e in range(1, X + 1):
        for s, dbl in twice.items():  # column e - 1 is final; a square reads a < X / 2
            v = rows[s][e - 1]
            if v is not None and 2 * (e - 1) < X:
                v = v + v
                if not v.is_zero():
                    dbl[e - 1] = v
        for i, s, square in chain:
            src, q = rows[s], exps[s]  # src[m] is 0 below m = q
            if square:
                dbl = twice[s]
                pairs = [(dbl[a], src[e - a]) for a in range(q, (e + 1) // 2)
                         if dbl[a] is not None and src[e - a] is not None]
                if not e & 1 and src[e // 2] is not None:
                    pairs.append((src[e // 2], src[e // 2]))
            else:
                pairs = [(g[t], src[e - t]) for t in range(1, e - q + 1)
                         if g[t] is not None and src[e - t] is not None]
            if pairs:
                v = dot(pairs)
                if not v.is_zero():
                    rows[i][e] = v
        pairs = [(c, rows[i][e]) for c, i in uses if rows[i][e] is not None]
        r = rhs.coeffs.get(e)
        if r is not None:
            pairs.append((r, one))
        if pairs:
            v = dot(pairs)
            if not v.is_zero():
                g[e] = v
    return TruncatedSeries1(ring, {e: c for e, c in enumerate(g) if c is not None}, X)


def series_exp(log: TruncatedSeries1) -> TruncatedSeries1:
    """Compositional inverse of a series with leading coefficient 1:
    solve_series(log, x), certified by the defining identity log(exp(x)) = x.
    """
    ring, X = log.ring, log.cutoff
    result = solve_series(log, TruncatedSeries1.identity(ring, X))
    if not log.compose(result).coeffs == {1: ring.one()}:
        raise ConsistencyFailure("compositional inverse failed its defining identity")
    return result


# ---------------------------------------------------------------------------
# two-variable truncated series and formal group laws
# ---------------------------------------------------------------------------

class TruncatedSeries2(_TruncatedSeries):
    """Series sum c_{e1 e2} x^{e1} y^{e2}, truncated at e1 + e2 <= cutoff."""

    __slots__ = ()

    def __init__(self, ring, coeffs, cutoff):
        self.ring = ring
        self.cutoff = cutoff
        clean = {}
        for (e1, e2), c in coeffs.items():
            if e1 < 0 or e2 < 0 or e1 + e2 < 1:
                raise ValueError("exponents out of range")
            if e1 + e2 <= cutoff and not c.is_zero():
                clean[(e1, e2)] = c
        self.coeffs = clean

    def coefficient(self, e1, e2):
        return self.coeffs.get((e1, e2), self.ring.zero())

    def __mul__(self, other):
        """Series product, truncated; as TruncatedSeries1.__mul__, one sum of
        products per output (e1, e2)."""
        self._check(other)
        X = self.cutoff
        keys = {}
        for (a1, a2), c1 in self.coeffs.items():
            for (b1, b2), c2 in other.coeffs.items():
                if a1 + a2 + b1 + b2 <= X:
                    k = (a1 + b1, a2 + b2)
                    pairs = keys.get(k)
                    if pairs is None:
                        keys[k] = [(c1, c2)]
                    else:
                        pairs.append((c1, c2))
        dot = self.ring.dot
        return TruncatedSeries2(self.ring, {k: dot(pairs) for k, pairs in keys.items()}, X)

    def __repr__(self):
        bits = [f"({c!r})x^{a}y^{b}" for (a, b), c in sorted(self.coeffs.items())[:8]]
        return " + ".join(bits) + (" + ..." if len(self.coeffs) > 8 else "") or "0"


def _in_x_and_y(f: TruncatedSeries1):
    """The two-variable series f(x) and f(y)."""
    ring, X = f.ring, f.cutoff
    return (TruncatedSeries2(ring, {(e, 0): c for e, c in f.coeffs.items()}, X),
            TruncatedSeries2(ring, {(0, e): c for e, c in f.coeffs.items()}, X))


class FGL:
    """A (commutative, one-dimensional) formal group law truncated at cutoff.

    The unit and commutativity axioms are enforced at construction; exact
    associativity to the cutoff is a property the test suite verifies on every
    family this package constructs.
    """

    __slots__ = ("two_var", "ring", "cutoff")

    def __init__(self, two_var: TruncatedSeries2):
        ring = two_var.ring
        one = ring.one()
        if two_var.coefficient(1, 0) != one or two_var.coefficient(0, 1) != one:
            raise ValueError("formal group law must start x + y + ...")
        for (e1, e2), c in two_var.coeffs.items():
            if (e2 == 0 and e1 != 1) or (e1 == 0 and e2 != 1):
                raise ValueError("unit axiom violated: pure-power term beyond x, y")
            if two_var.coefficient(e2, e1) != c:
                raise ValueError("commutativity violated")
        self.two_var = two_var
        self.ring = ring
        self.cutoff = two_var.cutoff

    def coefficient(self, e1, e2):
        return self.two_var.coefficient(e1, e2)

    def __eq__(self, other):
        return (
            isinstance(other, FGL)
            and other.ring is self.ring
            and other.two_var == self.two_var
        )

    def __repr__(self):
        return f"FGL@{self.ring!r}(cutoff={self.cutoff})"


def additive_fgl(ring, cutoff) -> FGL:
    one = ring.one()
    return FGL(TruncatedSeries2(ring, {(1, 0): one, (0, 1): one}, cutoff))


def fgl_apply(F: FGL, a, b):
    """F(a, b) = a + b + sum c_jk a^j b^k for two series of the same kind
    (both 1-var or both 2-var)."""
    if a.ring is not F.ring or b.ring is not F.ring:
        raise ValueError("series ring differs from the law's ring")
    acc = a + b  # raises ValueError on mismatched cutoffs
    mixed = [(j, k, c) for (j, k), c in F.two_var.coeffs.items() if j and k]
    if not mixed:
        return acc
    pa = a.powers(max(j for j, _, _ in mixed))
    pb = b.powers(max(k for _, k, _ in mixed))
    for j, k, c in mixed:
        acc = acc + (pa[j] * pb[k]).scale(c)
    return acc


# ---------------------------------------------------------------------------
# logarithms and the universal law
# ---------------------------------------------------------------------------

def log_from_v(k_max: int):
    """The l_1..l_{k_max} determined by 2 l_k = 2^{2^k} l_k + sum l_{k-j} v_j^{2^{k-j}} + v_k.

    Returned over Q[v_1..v_{k_max}]; l_0 = 1 is implicit.  The denominator of
    l_k is exactly 2^k (asserted downstream by the 2^k l_k integrality tests).
    """
    ring = bp_ring(k_max, rational=True)
    ls = []
    for k in range(1, k_max + 1):
        rhs = ring.var(V(k))
        for j in range(1, k):
            l_prev = ls[k - j - 1]  # l_{k-j}
            rhs = rhs + l_prev * ring.var(V(j)) ** (1 << (k - j))
        denom = QQ(2) - QQ(2) ** (1 << k)
        ls.append(rhs.scalar_mul(1 / denom))
    return ls


def v_from_log(l_list):
    """Invert log_from_v: v_k = (2 - 2^{2^k}) l_k - sum_{j=1}^{k-1} l_j v_{k-j}^{2^j}.

    The outputs are certified integral: they are converted to the 2-local
    ring, and a ValueError is raised if any coefficient has even
    denominator.
    """
    bases = [lk.scalar_mul(2 - 2 ** (1 << k)) for k, lk in enumerate(l_list, start=1)]
    vs = squares_recursion(bases, l_list)
    return [_integral(vk, f"v_{k}") for k, vk in enumerate(vs, start=1)]


def squares_recursion(bases, cs):
    """The x_k = bases[k-1] - sum_{j=1}^{k-1} cs[j-1] x_{k-j}^{2^j}, k >= 1.

    The triangular recursion of v_from_log and of equivariant_ring.t_level.
    Level k squares each x_i^{2^{k-1-i}} of level k - 1 once (the kernel's
    square), so every power is one squaring, and its sum is one sum of
    products.
    """
    xs = []
    squares = []  # at level k, squares[i - 1] = x_i^{2^{k-i}}
    for k, base in enumerate(bases, start=1):
        squares = [p * p for p in squares]
        pairs = [(cs[j - 1], squares[k - j - 1]) for j in range(1, k)
                 if not squares[k - j - 1].is_zero()]
        xk = base - base.ring.dot(pairs) if pairs else base
        xs.append(xk)
        squares.append(xk)
    return xs


def log_series(l_list, ring, cutoff) -> TruncatedSeries1:
    """log(x) = x + sum l_k x^{2^k} as a truncated series over `ring`."""
    coeffs = {1: ring.one()}
    for k, lk in enumerate(l_list, start=1):
        if (1 << k) <= cutoff:
            coeffs[1 << k] = lk
    return TruncatedSeries1(ring, coeffs, cutoff)


def fgl_from_log(l_list, cutoff) -> FGL:
    """F(x, y) = exp(log x + log y), over the ring of the logarithm.

    The universal law of log_from_v(k) is 2-locally integral through order
    2^{k+1} - 1; a caller that needs it over Z_(2) converts the coefficients
    with from_rational_ring.
    """
    if l_list:
        ring = l_list[0].ring
    else:
        ring = bp_ring(1, rational=True)
    L = log_series(l_list, ring, cutoff)
    Lx, Ly = _in_x_and_y(L)
    return FGL(series_exp(L).compose(Lx + Ly))


def two_series_from_log(l_list, cutoff) -> TruncatedSeries1:
    """[2](x) = exp(2 log x), certified 2-locally integral.

    The one-variable route to the 2-series of fgl_from_log(l_list, cutoff):
    it never forms the two-variable law.  The coefficients are moved to the
    2-local polynomial ring; a ValueError means [2](x) is not defined
    over Z_(2) at this cutoff.
    """
    ring = l_list[0].ring
    L = log_series(l_list, ring, cutoff)
    two = series_exp(L).compose(L.scale(2))
    terms = {e: _integral(c, e) for e, c in two.coeffs.items()}
    return TruncatedSeries1(terms[1].ring, terms, cutoff)  # [2](x) = 2x + ...


def _integral(c, where):
    try:
        return from_rational_ring(c)
    except ValueError as exc:
        raise ValueError(
            f"coefficient at {where} is not 2-locally integral: {c!r}"
        ) from exc


# ---------------------------------------------------------------------------
# series attached to a law
# ---------------------------------------------------------------------------

def two_series(F: FGL) -> TruncatedSeries1:
    """[2](x) = F(x, x)."""
    x = TruncatedSeries1.identity(F.ring, F.cutoff)
    return fgl_apply(F, x, x)


def formal_sum(F: FGL, terms) -> TruncatedSeries1:
    """Sigma^F of monomials c x^e: left-iterated F-sum in the given order.

    `terms` is a list of (coefficient, exponent) pairs with distinct exponents.
    Order-independence up to the cutoff is a theorem (and a test), not an
    assumption of this routine.
    """
    ring, X = F.ring, F.cutoff
    series = [
        TruncatedSeries1.monomial(ring, c, e, X) for c, e in terms if e <= X
    ]
    if not series:
        return TruncatedSeries1.zero(ring, X)
    acc = series[0]
    for s in series[1:]:
        acc = fgl_apply(F, acc, s)
    return acc


def formal_sum_via_log(log: TruncatedSeries1, terms) -> TruncatedSeries1:
    """Sigma^F of monomials c x^e in the law F with logarithm `log`, without F:
    the g with log(g) = sum log(c x^e) (solve_series).

    log(c x^e) = sum_j l_j c^j x^{e j} is written down directly, the powers of
    c reached as compose reaches powers; each coefficient of the sum is one
    sum of products.  formal_sum on F = exp(log x + log y) is its test oracle.
    """
    ring, X = log.ring, log.cutoff
    orders = {}
    for c, e in terms:
        c = _coerce_coeff(ring, c)
        pw, p = c, 1  # pw = c^p
        for j, lj in sorted(log.coeffs.items()):
            if e * j > X:
                break
            while p < j:
                pw, p = (pw * pw, 2 * p) if 2 * p <= j else (pw * c, p + 1)
            orders.setdefault(e * j, []).append((lj, pw))
    dot = ring.dot
    total = TruncatedSeries1(ring, {o: dot(pairs) for o, pairs in orders.items()}, X)
    return solve_series(log, total)


def formal_inverse(F: FGL) -> TruncatedSeries1:
    """The series i(x) with F(x, i(x)) = 0; starts with -x.

    The coefficient of x^e in F(x, i(x)) is i_e plus terms in i_1 .. i_{e-1}
    alone, so i_e is minus the x^e coefficient of
    F(x, i_1 x + .. + i_{e-1} x^{e-1}) with F cut at order e (fgl_apply).
    The result is certified by F(x, i(x)) = 0 at the full cutoff.
    """
    ring, X = F.ring, F.cutoff
    inv = {1: -ring.one()}
    for e in range(2, X + 1):
        law = FGL(TruncatedSeries2(ring, F.two_var.coeffs, e))
        partial = TruncatedSeries1(ring, inv, e)
        val = fgl_apply(law, TruncatedSeries1.identity(ring, e), partial).coefficient(e)
        if not val.is_zero():
            inv[e] = -val
    out = TruncatedSeries1(ring, inv, X)
    if not fgl_apply(F, TruncatedSeries1.identity(ring, X), out).is_zero():
        raise ConsistencyFailure("formal inverse failed F(x, i(x)) = 0")
    return out


def conjugate_fgl(F: FGL, coeff_map) -> FGL:
    """Apply a coefficient-ring homomorphism to every coefficient of F; the
    target ring is the ring of the image of the x coefficient, 1."""
    out = {k: coeff_map(c) for k, c in F.two_var.coeffs.items()}
    return FGL(TruncatedSeries2(out[(1, 0)].ring, out, F.cutoff))


# ---------------------------------------------------------------------------
# strict isomorphisms
# ---------------------------------------------------------------------------

class StrictIso:
    """psi: source -> target with psi(F(x,y)) = G(psi x, psi y), psi = x + ..."""

    __slots__ = ("psi", "source", "target")

    def __init__(self, psi: TruncatedSeries1, source: FGL, target: FGL):
        if psi.coefficient(1) != psi.ring.one():
            raise ValueError("strict isomorphisms have leading coefficient 1")
        if psi.ring is not source.ring or psi.ring is not target.ring:
            raise ValueError("isomorphism and laws must share one ring")
        self.psi = psi
        self.source = source
        self.target = target

    def verify(self):
        """Exact check of psi(F(x,y)) = G(psi x, psi y) to cutoff; quadratic cost."""
        F, G, psi = self.source, self.target, self.psi
        if psi.compose(F.two_var) != fgl_apply(G, *_in_x_and_y(psi)):
            raise ConsistencyFailure("strict isomorphism failed its defining identity")
        return True


def strict_iso_from_t(t_list, G: FGL, source: FGL = None) -> StrictIso:
    """psi(x) = x +^G sum^G t_i x^{2^i} (sums in the target law G).

    When `source` is omitted it is reconstructed as psi^{-1}(G(psi x, psi y)),
    which is exact to the cutoff but costs a two-variable composition.
    """
    ring, X = G.ring, G.cutoff
    terms = [(ring.one(), 1)]
    for i, ti in enumerate(t_list, start=1):
        e = 1 << i
        if e <= X:
            terms.append((_coerce_coeff(ring, ti), e))
    psi = formal_sum(G, terms)
    if source is None:
        source = _pullback_fgl(psi, G)
    return StrictIso(psi, source, G)


def _pullback_fgl(psi: TruncatedSeries1, G: FGL) -> FGL:
    # compositional inverse of psi (ValueError unless psi is strict), then substitute
    return FGL(series_exp(psi).compose(fgl_apply(G, *_in_x_and_y(psi))))


def t_from_strict_iso(iso: StrictIso):
    """Recover the 2-typical coordinates t_i of a strict isomorphism.

    t_{r} is read off at x^{2^r} against the partial reconstruction; if after
    exhausting all 2-powers the reconstruction differs from psi, the
    isomorphism was not 2-typical and a ValueError reports the exponents.
    Applied to equivariant_ring.chain_composite, this is the test oracle of
    t_level, which reads the same coordinates off the logarithm instead.
    """
    psi, G = iso.psi, iso.target
    ring, X = psi.ring, psi.cutoff
    partial = TruncatedSeries1.identity(ring, X)
    ts = []
    r = 1
    while (1 << r) <= X:
        e = 1 << r
        tr = psi.coefficient(e) - partial.coefficient(e)
        ts.append(tr)
        if not tr.is_zero():
            partial = fgl_apply(G, partial, TruncatedSeries1.monomial(ring, tr, e, X))
        r += 1
    residual = psi - partial
    if not residual.is_zero():
        bad = sorted(residual.coeffs)
        raise ValueError(f"residual at exponents {bad}")
    return ts


def compose_iso(iso2: StrictIso, iso1: StrictIso) -> StrictIso:
    """iso2 after iso1 (source of iso2 must equal target of iso1)."""
    if iso2.source != iso1.target:
        raise ValueError("chain does not compose")
    return StrictIso(iso2.psi.compose(iso1.psi), iso1.source, iso2.target)


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------

def height_of_residue_fgl(F: FGL):
    """(h, leading coefficient) of [2](x) = F(x, x) over a graded field of
    characteristic 2; see height_of_two_series."""
    return height_of_two_series(two_series(F))


def height_of_two_series(two: TruncatedSeries1):
    """(h, leading coefficient) of a 2-series over a graded field of characteristic 2.

    The first nonzero coefficient of [2](x) must sit at a power of 2 (a
    Frobenius power), and in a graded field it is a unit.
    """
    if not two.coeffs:
        raise ValueError(f"[2](x) = 0 up to x^{two.cutoff}")
    e = min(two.coeffs)
    if e & (e - 1):
        raise ConsistencyFailure(
            f"first nonzero term of [2] at non-2-power exponent {e}"
        )
    return (e.bit_length() - 1, two.coeffs[e])
