"""Framed spaces: structure tables, brackets, J, and exterior calculus.

A framed space is four frame fields with a bracket table, plus optional
coordinates the frame knows how to differentiate.  Everything downstream
(brackets, the Nijenhuis tensor, exterior derivatives) is computed exactly.
"""

import itertools

from engelcalc.framecalc import (
    ComplexStructure, FramedSpace, KForm, VecField,
    bracket, exterior_derivative, nijenhuis, wedge,
)
from engelcalc.trigring import parse

print("== the unit-quaternion frame times a line ==")
hopf = FramedSpace(
    frame=("X1", "X2", "X3", "X4"),
    structure={(0, 1): (0, 0, 1, 0),     # [X1, X2] = X3
               (1, 2): (1, 0, 0, 0),     # [X2, X3] = X1
               (0, 2): (0, -1, 0, 0)},   # [X1, X3] = -X2
)
J = ComplexStructure.pairing(0, 1, 2, 3)  # J X1 = X2, J X3 = X4

A = VecField.of(1, 0, 1, 0)               # X1 + X3
JA = J.apply(A)
B = bracket(A, JA, hopf)
C = bracket(A, B, hopf)
print(f"  A       = {[str(c) for c in A.coeffs]}")
print(f"  [A,JA]  = {[str(c) for c in B.coeffs]}   (X3 - X1)")
print(f"  [A,[A,JA]] = {[str(c) for c in C.coeffs]}   (-2 X2)")

print("\n== integrability via the Nijenhuis tensor ==")
worst = max(
    (nijenhuis(J, VecField.basis(i), VecField.basis(j), hopf) for i, j in
     itertools.combinations(range(4), 2)),
    key=lambda n: 0 if n.is_zero() else 1)
print(f"  N vanishes on all frame pairs: {worst.is_zero()}")

print("\n== frames acting on coordinates ==")
kodaira = FramedSpace(
    frame=("X1", "X2", "X3", "X4"), coords=("t",),
    structure={(0, 1): (0, 0, -1, 0)},
    derivation={(3, "t"): 1},             # X4 = d/dt on the circle factor
)
A = VecField.of(parse("sin(t)"), parse("-cos(t)"), 0, 1)
B = bracket(A, J.apply(A), kodaira)
print(f"  oscillating generator: [A, JA] = {[str(c) for c in B.coeffs]}")
print("  (the wave coefficients rotate; the X3 component collapses via "
      "sin^2 + cos^2)")

print("\n== exterior calculus over the coframe ==")
alpha = KForm.one_form([0, -1, 0, 1])     # a4 - a2 on the first space
da = exterior_derivative(alpha, hopf)
print(f"  d(a4 - a2) components: { {k: str(v) for k, v in da.terms.items()} }")
ada = wedge(alpha, da)
print(f"  alpha ^ d(alpha) nonzero (even-contact witness): {not ada.is_zero()}")
dda = exterior_derivative(da, hopf)
print(f"  d(d(alpha)) = 0: {dda.is_zero()}")
