"""Reading the height off the residue formal group law.

Killing the maximal ideal of W(k)[[tau's]][u^(+-1)] leaves K = k[ubar^(+-1)],
which is the same Lubin-Tate ring truncated at order 1 (ctx.residue_ring), and
the pushed-forward formal group law has its 2-series supported in degrees that
detect the height: [2](x) = ubar^(2^h - 1) x^(2^h) + higher terms.  This demo
computes that 2-series at three parameter choices as F(x, x) of the residue
law, checks it against residue_height (which reads the height off the
first v_k whose image mod (tau) is odd instead), confirms the pinned (height,
coefficient) pairs, and factors the 2-series coefficient ladder into unit and
monomial pieces.

Run:  python3 demos/residue_height.py
"""

from fgl_forge.lubin_tate import (
    LTContext,
    d_factors,
    residue_fgl,
    residue_height,
    residue_json,
)
from fgl_forge.series_fgl import height_of_residue_fgl

SCENARIOS = [(2, 1, 1), (2, 2, 2), (3, 1, 1)]

for n, m, d in SCENARIOS:
    ctx = LTContext(n, m, d=d)
    h = ctx.h
    print(f"=== (n, m, d) = ({n}, {m}, {d}): expected height h = {h} ===")

    height, coeff = height_of_residue_fgl(residue_fgl(ctx, cutoff=1 << h))
    print(f"[2](x) = F(x, x) over the residue field starts in degree 2^{height}")
    assert height == h
    K = ctx.residue_ring
    assert coeff.ring is K and coeff == K.u_pow((1 << h) - 1)
    print(f"  leading coefficient = ubar^{(1 << h) - 1}  (a unit: height is exactly {h})")

    report = residue_height(ctx)
    p = report["params"]
    assert p["computed_height"] == h and report["status"] == "verified"
    assert p["coefficient"] == residue_json(coeff)
    print(f"  residue_height report: computed_height={p['computed_height']},"
          f" beta={p['beta']}, unit={p['unit']}")
    print()

print("=== the periodicity element factors into norms of level generators ===")
ctx = LTContext(2, 1, d=1)
p = d_factors(ctx)["params"]
for i, (idx, verdict, res) in enumerate(
        zip(p["indices"], p["verdicts"], p["residues"]), start=1):
    (ue, coeffs), = res
    print(f"  factor {i} = norm of the level-2^{i} generator t_{idx}:"
          f" unit={verdict}, residue ubar^{ue}")
print(f"  product is a unit: {p['product_is_unit']}")

print()
print("all checks verified")
