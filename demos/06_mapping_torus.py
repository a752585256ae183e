"""The mapping-torus construction: oscillating planes and residual decay.

Starting from a framing {V, JV, X, JX} over a circle coordinate, the level-n
plane field D_n oscillates at frequency n^2 and becomes Engel once n is
large enough.  The exact brackets agree with their leading-order expressions
up to corrections of order 1/n, which the decay fit measures.
"""

from engelcalc.engelcheck import totally_real_check
from engelcalc.geiges import (
    build_An, flat_torus_input, leading_order_residual, level_derivation,
    minimal_n_search, residual_decay_fit, twisted_torus_input,
)

print("== the untwisted product: leading terms are exact ==")
flat = flat_torus_input()
print(f"  tilt function a = {flat.a}")
a1, ja1 = build_An(flat, 1)
print(f"  A_1  = {[str(c) for c in a1.coeffs]}")
print(f"  JA_1 = {[str(c) for c in ja1.coeffs]}")
rep = leading_order_residual(flat, 4)
print(f"  residuals at n = 4: {rep.sup_first}, {rep.sup_second} "
      f"(exactly zero: {rep.first_exact_zero and rep.second_exact_zero})")

print("\n== tilting V makes the 1/n corrections visible ==")
twisted = twisted_torus_input()
fit = residual_decay_fit(twisted, (2, 4, 8, 16, 32))
print(f"  levels:      {fit['levels']}")
print(f"  sup |res_1|: {[f'{v:.4f}' for v in fit['sup_first']]}")
print(f"  sup |res_2|: {[f'{v:.2e}' for v in fit['sup_second']]}")
print(f"  log-log slopes: {fit['slope_first']:.3f}, {fit['slope_second']:.3f}")

print("\n== searching for the smallest certified level ==")
for name, inp in (("flat", flat), ("twisted", twisted)):
    res = minimal_n_search(inp, 8)
    first = res.trace[0]
    print(f"  {name}: n* = {res.n_star} "
          f"(level-1 certificates: {first['rank_d']}, {first['rank_e']}, "
          f"{first['rank_tm']})")

print("\n== the totally-real variant ==")
for n in (1, 3, 5):
    ctx = level_derivation(flat, n, "totally_real")
    cert, inv = totally_real_check(ctx), ctx.j_invariance
    print(f"  n = {n}: rank-4 {cert.kind} (witness {cert.witness}), "
          f"J-invariant: {inv.passed}")
