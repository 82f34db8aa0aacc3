"""The three commuting symmetries and what survives all of them.

The ring W(k)[[tau's]][u^(+-1)] carries a cyclic action gamma of order 2^n, a
torus action f_zeta through the Teichmuller lift of each q-torsion root of
unity in k, and the Galois action sigma on Witt coefficients.  This demo
prints the action of each on the generators, checks the commutation relations
on random elements, and exhibits the character computation that carves out
the subring fixed by torus and Galois together.

Run:  python3 demos/actions_and_fixed_subring.py
"""

import random

from fgl_forge.coefficients import WittElement, frobenius_lift
from fgl_forge.lubin_tate import (
    LTContext,
    LTElement,
    action_table,
    fixed_subring_presentation,
    lt_galois,
    lt_gamma,
    lt_zeta,
)

ctx = LTContext(2, 2, d=2)
print(f"=== context: {ctx!r}, residue field F_{1 << ctx.spec.d} ===")
print(f"q = 2^m - 1 = {ctx.q}, torsion available: alpha = {ctx.alpha}")

NAMES = ["u"] + [ctx.tau_name(i) for i in range(len(ctx.taus))]


def show(label, table):
    print(f"--- {label} ---")
    for name in NAMES:
        rows = table[name]
        desc = " + ".join(
            f"({c['coeffs']})*tau^{tuple(exps)}u^{ue}" for exps, ue, c in rows[:3]
        )
        more = f" + ({len(rows) - 3} more)" if len(rows) > 3 else ""
        print(f"  {name:>7} -> {desc}{more}")


show("gamma (cyclic, order 4)", action_table(ctx, "gamma"))
omega = ctx.spec.omega
show("f_omega (torus, omega a cube root of 1)", action_table(ctx, "zeta", zeta=omega))
show("sigma (Galois, Frobenius on coefficients)", action_table(ctx, "galois"))

print()
print("=== commutation relations on random elements ===")
rng = random.Random(7)


def rand_elt():
    terms = {}
    for _ in range(4):
        exps = [0] * len(ctx.taus)
        for _ in range(rng.randrange(3)):
            exps[rng.randrange(len(exps))] += 1
        key = (tuple(exps), rng.randrange(-3, 4))
        c = WittElement.from_int(ctx.spec, ctx.precision, rng.randrange(-9, 10))
        terms[key] = terms.get(key, WittElement.zero(ctx.spec, ctx.precision)) + c
    return LTElement(ctx, terms)


for _ in range(5):
    x = rand_elt()
    assert lt_gamma(ctx, lt_zeta(ctx, omega, x)) == lt_zeta(ctx, omega, lt_gamma(ctx, x))
    assert lt_gamma(ctx, lt_galois(ctx, x)) == lt_galois(ctx, lt_gamma(ctx, x))
    assert lt_galois(ctx, lt_zeta(ctx, omega, lt_galois(ctx, x))) == lt_zeta(
        ctx, frobenius_lift(omega), x
    )
print("gamma f_zeta = f_zeta gamma, gamma sigma = sigma gamma,"
      " sigma f_zeta sigma = f_(sigma zeta): all hold on 5 random elements")

print()
print("=== the subring fixed by torus and Galois ===")
report = fixed_subring_presentation(ctx)
p = report["params"]
print(f"alpha = {p['alpha']}: a tau-u monomial is fixed iff its character"
      f" exponent is divisible by {p['alpha']}")
print(f"checked {p['monomials_checked']} monomials in the box,"
      f" {p['monomials_fixed']} fixed")
print(f"smallest fixed power of u: u^{p['u_power_generator']}")
assert report["status"] == "verified"

print()
print("all checks verified")
