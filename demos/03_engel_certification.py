"""Certifying the Engel conditions: rank claims with SYMBOLIC/SAMPLED proofs.

A plane field D is Engel when D + [D, D] has rank 3 and bracketing once more
fills the tangent bundle.  Each rank claim returns a certificate: SYMBOLIC
when the witness determinant normalises to a nonzero constant, SAMPLED when
it is bounded away from zero on a deterministic grid, FAILED with a witness
point otherwise.  Every check reads its target from a ``Derivation``, which
keeps each stage it derives.
"""

from engelcalc.catalog import build_family
from engelcalc.engelcheck import Derivation, totally_real_check
from engelcalc.framecalc import FramedSpace, VecField

print("== a family that certifies symbolically ==")
spec = build_family("inoue_s0")
ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
flag = ctx.flag
for key, cert in flag.certificates.items():
    print(f"  {key}: {cert.kind} (witness {cert.witness or cert.bound})")
print(f"  Engel: {flag.passed}")

w = ctx.w
print(f"  characteristic line field W = {[str(c) for c in w.coeffs]}")

print("\n== a flat plane field fails where it should ==")
abelian = FramedSpace(name="abelian")
flag = Derivation(VecField.basis(0), VecField.basis(1), None, abelian).flag
cert = flag.certificates["rank_e"]
print(f"  rank(D + [D,D]) certificate: {cert.kind} -- {cert.witness}")
print(f"  Engel: {flag.passed}")

print("\n== complex versus totally real planes ==")
spec = build_family("hopf_s3r")
ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
print(f"  J-invariance of <A, JA>: {ctx.j_invariance.passed}")
print(f"  totally-real check on the same plane (must fail): "
      f"{totally_real_check(ctx).passed}")

print("\n== an oscillating example certified on a grid ==")
spec = build_family("torus_trig", {"alpha1": "1/2", "alpha2": "1/3",
                                   "alpha3": "1/5"})
flag = Derivation(spec.d1, spec.d2, spec.J, spec.space).flag
cert = flag.certificates["rank_tm"]
print(f"  twist Q = {spec.parameters['Q']}; top-rank certificate {cert.kind}, "
      f"witness {cert.witness or cert.bound}")
