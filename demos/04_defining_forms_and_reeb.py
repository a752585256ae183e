"""Defining forms, the Reeb pair, the rotation identities, and K-structures.

For a complex-line Engel structure, alpha annihilates E = D + [D, D] and
beta = alpha o J completes it.  The pair determines transverse fields T, R;
when J is integrable, J rotates (T, R) back into the adapted frame by exact
formulas, and R commuting with the frame detects metric compatibility.
"""

from engelcalc.catalog import build_family
from engelcalc.engelcheck import (
    Derivation, Frac, j_engel_splitting, jofreeb_residual, k_engel_check,
    transverse_engel_check,
)
from engelcalc.framecalc import exterior_derivative, wedge
from engelcalc.trigring import normalize


def context(name):
    # every stage below (flag, W, forms, structure functions) is derived
    # once, on first use, and shared by the checks
    spec = build_family(name)
    return Derivation(spec.d1, spec.d2, spec.J, spec.space)


print("== forms and Reeb pair on the S^3 x R model ==")
ctx = context("hopf_s3r")
forms, sf = ctx.forms, ctx.sf
print(f"  alpha components: {[str(forms.alpha.component((i,))) for i in range(4)]}")
print(f"  beta  components: {[str(forms.beta.component((i,))) for i in range(4)]}")
# T = K_T / -abdb and R = K_R / abdb, from the kernel fields of
# alpha ^ d(beta) and beta ^ d(beta)
print(f"  abdb = {forms.abdb}")
print(f"  T = K_T / -abdb = {[str(Frac(c, -forms.abdb)) for c in forms.k_t.coeffs]}")
print(f"  R = K_R / abdb = {[str(Frac(c, forms.abdb)) for c in forms.k_r.coeffs]}")
print(f"  structure functions: c_WX = {sf.c_WX}, d_XT = {sf.d_XT}, "
      f"d_WR = {sf.d_WR}, d_XR = {sf.d_XR}")

print("\n== the rotation identities, a theorem once N_J = 0 ==")
res = jofreeb_residual(ctx)
print(f"  J(T) = R + q1 W + q2 JW, J(R) = -T + q2 W - q1 JW: "
      f"q1 = {res.q1}, q2 = {res.q2}")
print(f"  d(alpha)^2 = -2 d_WR alpha^beta^d(beta): {res.dalpha_identity.kind}")

print("\n== the splitting W + JW + JZ + Z, Z = span(R) = span(K_R) ==")
for label, field in zip(("W", "JW", "J K_R", "K_R"), j_engel_splitting(ctx)):
    print(f"  {label:5s} = {[str(c) for c in field.coeffs]}")
# Z ignores the choice of alpha: (lambda beta) ^ d(lambda beta) is
# lambda^2 beta ^ d(beta), since beta ^ beta = 0; shown on the twisted torus,
# whose forms depend on x1, with a lambda that does too
torus = context("torus_trig")
lam = normalize("2 + cos(2*pi*x1)")
scaled = torus.forms.beta.scale(lam)
lhs = wedge(scaled, exterior_derivative(scaled, torus.space))
print(f"  (lambda beta) ^ d(lambda beta) = lambda^2 beta ^ d(beta) "
      f"for lambda = {lam} on torus_trig: "
      f"{lhs == wedge(torus.forms.beta, torus.forms.d_beta).scale(lam * lam)}")

print("\n== transverse symmetry and K-compatibility ==")
rep = k_engel_check(ctx)
print(f"  [W,R] = [X,R] = [T,R] = 0: {rep.passed}")
# the raw Reeb field K_R is transverse to E and spans the Reeb line by
# construction; that it preserves D is the one claim left to certify
cert = transverse_engel_check(ctx)
print(f"  K_R = {[str(c) for c in ctx.forms.k_r.coeffs]} is an Engel field "
      f"({cert.note}): {cert.kind}")

print("\n== and a family without the compatibility ==")
rep = k_engel_check(context("inoue_s0"))
print(f"  passes: {rep.passed}; obstruction coefficients: {rep.obstructions}")
