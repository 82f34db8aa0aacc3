"""From the equivariant logarithm to the generator recursions, at n = 2.

The universal 2-typical formal group law with a C_4-action has a logarithm
l_1, l_2, ... whose denominators are exactly 2^k.  The Araki classes v_k are
read off the logarithm; the level generators t_k^{C_2} coordinatize the
composite of the two twisted strict isomorphisms; and the two generator
families agree modulo the ideal I_k = (2, v_1, ..., v_{k-1}).

Run:  python3 demos/log_and_generators.py
"""

from fgl_forge.coefficients import QQ, two_valuation
from fgl_forge.equivariant_ring import (
    RnContext,
    rn_log,
    t_level,
    v_in_rn,
    verify_tk_recursion,
    verify_tkvk,
)

ctx = RnContext(2, 3)

print("=== the equivariant logarithm (n = 2, k <= 3) ===")
for k, lk in enumerate(rn_log(ctx), start=1):
    scaled = lk.scalar_mul(QQ(2) ** k)
    assert all(two_valuation(c) >= 0 for c in scaled.terms.values())
    print(f"l_{k} has {len(lk.terms)} terms; 2^{k} l_{k} is integral:")
    print(f"  2^{k} l_{k} = {scaled!r}")

print()
print("=== Araki images v_k = image of the universal Araki generator ===")
for k, vk in enumerate(v_in_rn(ctx, ctx.k_max), start=1):
    if len(vk.terms) <= 8:
        print(f"v_{k} ({len(vk.terms)} terms, degree {vk.degree}):")
        print(f"  {vk!r}")
    else:
        print(f"v_{k} ({len(vk.terms)} terms, degree {vk.degree})")

print()
print("=== level generators t_k^(C_2) and the congruence with v_k ===")
for k, tk in enumerate(t_level(ctx, 1), start=1):
    print(f"t_{k}^(C_2) has {len(tk.terms)} terms")
    report = verify_tkvk(ctx, k)
    print(f"  t_{k}^(C_2) = v_{k} mod I_{k}: {report['status']}")

print()
print("=== the level-drop recursion ===")
for k in (1, 2, 3):
    report = verify_tk_recursion(ctx, k)
    how = "exactly" if report["params"]["exact"] else f"mod I_{k}"
    print(f"t_{k}^(C_2) = t_{k} + g(t_{k}) + sum g(t_j) t_(k-j)^(2^j)  holds {how}")

print()
print("all checks verified")
