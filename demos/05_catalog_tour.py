"""A tour of the ten example families, including the documented deviations.

Every catalog entry is re-verified on the fly: Engel certificates,
J-invariance, integrability of J where it holds, and agreement of the
computed brackets with the values quoted in the literature.  The three spots
where direct expansion contradicts a quoted value are reported as
deviations.  The spanning conclusion survives without a certificate of its
own: the computed fields (A, JA, [A,JA], [A,[A,JA]]) have determinant
det(D1, D2, E3, [D1, E3]), the flag's pairing u1, on which rank([D, E]) = 4
is certified.
"""

from engelcalc.catalog import (
    FAMILIES, build_family, check_quoted_brackets,
    hyperelliptic_equivariance_check, torus_lattice_gate,
)
from engelcalc.engelcheck import Derivation

print(f"{'family':24s} {'engel':7s} {'J-inv':6s} {'N_J = 0':8s} brackets")
for name in FAMILIES:
    spec = build_family(name)
    ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
    flag, jinv, nij = ctx.flag, ctx.j_invariance, ctx.nijenhuis
    recs = check_quoted_brackets(spec, flag.e3)
    marks = ", ".join(f"{r.name}:{r.status}" for r in recs) or "-"
    print(f"{name:24s} {str(flag.passed):7s} {str(jinv.passed):6s} "
          f"{str(nij.passed):8s} {marks}")

print("\ndeviations in detail:")
for name in FAMILIES:
    spec = build_family(name)
    flag = Derivation(spec.d1, spec.d2, spec.J, spec.space).flag
    for r in check_quoted_brackets(spec, flag.e3):
        if r.status == "DEVIATION":
            rank_tm = flag.certificates["rank_tm"]
            print(f"  {name} {r.name}: computed "
                  f"{[str(c) for c in r.computed.coeffs]}, quoted "
                  f"{[str(c) for c in r.quoted.coeffs]}")
            print(f"      ({r.note}; computed fields still span: u1 = "
                  f"{flag.pairings[0]}, rank_tm {rank_tm.kind})")

print("\nnote: the elliptic_sl2r pairing J X1 = X2, J X3 = X4 is almost")
print("complex only on that bracket table (N(X1, X3) = -2 X2); all Engel")
print("checks are J-agnostic, and the Reeb rotation identities reject it.")

print("\nrotation equivariance of the product construction:")
for k in (2, 3, 4, 6):
    spec = build_family("hyperelliptic_product", {"k": k})
    cert = hyperelliptic_equivariance_check(spec)
    print(f"  k = {k} (n_k = {spec.parameters['n_k']}): {cert.kind}")

print("\nlattice gate for the twisted-torus family:")
for alphas in (("1/2", "1/3", "1/5"), ("3/4", "1/4", "1/2")):
    print(f"  slopes {alphas} -> Q = {torus_lattice_gate(alphas)}")
