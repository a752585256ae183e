"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.
"""

import json
import time

from engelcalc.catalog import (
    FAMILIES,
    build_family,
    check_quoted_brackets,
    hyperelliptic_equivariance_check,
)
from engelcalc.engelcheck import (
    Derivation,
    j_engel_splitting,
    j_invariance_check,
    jofreeb_residual,
    k_engel_check,
    nijenhuis_certificate,
    verify_engel,
)
from engelcalc.framecalc import (
    IDENTITY_TOL,
    VecField,
    det_of_fields,
    nijenhuis,
)
from engelcalc.geiges import (
    build_An,
    flat_torus_input,
    leading_order_residual,
    minimal_n_search,
    residual_decay_fit,
    twisted_torus_input,
)
from engelcalc.laws import run_law_suite
from engelcalc.trigring import normalize
from oracles import (
    closed_jr_residual,
    closed_jt_residual,
    minors_of_fields,
    rescaled_reeb_direction,
)


def report(n: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {n}: {detail}"


def test_criterion_1_catalog_soundness():
    t0 = time.time()
    for name in FAMILIES:
        spec = build_family(name)
        # Jacobi is validated symbolically at construction; J*J = -id likewise.
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        flag = verify_engel(ctx)
        assert flag.passed, name
        assert j_invariance_check(ctx).passed, name
        nij = nijenhuis_certificate(ctx)
        if spec.j_integrable:
            assert nij.kind == "SYMBOLIC", name
        else:
            # documented exception: the quoted pairing on elliptic_sl2r is
            # almost complex only; the computed tensor is frozen and checked
            assert name == "elliptic_sl2r"
            assert nijenhuis(spec.J, VecField.basis(0), VecField.basis(2),
                             spec.space) == VecField.of(0, -2, 0, 0)
    for q in ("-2", "0", "1", "3/2"):
        spec = build_family("inoue_spm", {"q": q})
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        assert nijenhuis_certificate(ctx).kind == "SYMBOLIC", q
    elapsed = time.time() - t0
    report(1, elapsed < 60.0,
           f"all 10 families certified (Jacobi, J^2, Nijenhuis-or-documented, "
           f"Engel flag, J-invariance) in {elapsed:.2f}s")


def test_criterion_2_quoted_bracket_reproduction():
    exact = {
        "inoue_s0": {"[A,JA]": VecField.of(1, 1, 2, 0)},
        "inoue_spm": {"[JA,[A,JA]]": VecField.of(-2, 0, 0, 0)},
        "hyperelliptic_solv": {"[A,JA]": VecField.of(1, 0, 0, 0),
                               "[A,[A,JA]]": VecField.of(0, -1, 0, 0)},
        "kodaira_secondary": {"[A,JA]": VecField.of(1, 0, -1, 0)},
        "hopf_s3r": {"[A,JA]": VecField.of(-1, 0, 1, 0)},
        "elliptic_sl2r": {"[A,JA]": VecField.of(-1, 1, 2, 0)},
    }
    deviations = {
        ("hopf_s3r", "[A,[A,JA]]"),
        ("kodaira_primary", "[A,JA]"),
        ("elliptic_sl2r", "[A,[A,JA]]"),
    }
    seen_dev = set()
    for name in FAMILIES:
        spec = build_family(name)
        records = check_quoted_brackets(spec, _context(name).flag.e3)
        for rec in records:
            if (name, rec.name) in deviations:
                assert rec.status == "DEVIATION", (name, rec.name)
                # the computed fields span: their determinant is the flag's
                # pairing u_i, on which engel.rank_tm is certified
                flag = _context(name).flag
                det = det_of_fields([spec.d1, spec.d2] +
                                    [r.computed for r in records])
                i = ("A", "JA").index(spec.expected_brackets[1].first)
                assert det == flag.pairings[i] and flag.certificates["rank_tm"].passed
                seen_dev.add((name, rec.name))
            else:
                assert rec.status == "PASS", (name, rec.name)
                if name in exact and rec.name in exact[name]:
                    assert rec.computed == exact[name][rec.name]
    report(2, seen_dev == deviations,
           "quoted brackets reproduced exactly; the three documented "
           "deviations carry DEVIATION status and keep the rank-4 span")


def _context(name):
    spec = build_family(name)
    return Derivation(spec.d1, spec.d2, spec.J, spec.space)


def test_criterion_3_reeb_rotation_identities():
    assert IDENTITY_TOL == 1e-9  # the vanishing certificates' default tolerance
    # the rotation is a theorem once N_J = 0, so the record certifies
    # nothing; the closed formulas' residuals, formed by fraction arithmetic
    # from the record's structure functions, vanish exactly
    for name in ("hopf_s3r", "hyperelliptic_solv"):
        ctx = _context(name)
        res = jofreeb_residual(ctx)
        assert closed_jt_residual(ctx).is_zero(), name
        assert closed_jr_residual(ctx).is_zero(), name
        assert res.dalpha_identity.kind == "SYMBOLIC", name
    report(3, True, "J(T), J(R) residuals and the d(alpha)^2 identity vanish "
                    "symbolically on hopf_s3r and hyperelliptic_solv")


def test_criterion_4_k_engel():
    for name in ("hopf_s3r", "hyperelliptic_solv"):
        rep = k_engel_check(_context(name))
        assert rep.passed, name
        assert all(c.kind == "SYMBOLIC" for c in rep.commutators.values()), name
    rep = k_engel_check(_context("inoue_s0"))
    assert not rep.passed and rep.obstructions
    report(4, True, "K-compatibility passes on hopf_s3r and hyperelliptic_solv "
                    f"and fails on inoue_s0 with obstruction "
                    f"{sorted(rep.obstructions.items())[0]}")


def test_criterion_5_splitting_invariance():
    # the splitting reads Z = span(R) off the forms; the Reeb direction of
    # each rescaled pair, derived afresh, must span the same line exactly
    for name in FAMILIES:
        spec = build_family(name)
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        *_, z = j_engel_splitting(ctx)
        assert z is ctx.forms.k_r, name
        scalings = ["2", "3/2"]
        if spec.space.coords:
            scalings.append(f"2 + cos({spec.space.coords[0]})")
        for lam in scalings:
            k = rescaled_reeb_direction(ctx.forms.beta, normalize(lam), spec.space)
            assert not k.is_zero(), (name, lam)
            assert all(m.is_zero() for m in minors_of_fields([z, k])), (name, lam)
    report(5, True, "span(R_lambda) = span(R) exactly for lambda in "
                    "{2, 3/2, 2+cos} on every family")


def test_criterion_6_mapping_torus_construction():
    flat = flat_torus_input()
    assert flat.a.is_zero()
    search = minimal_n_search(flat, 16)
    assert search.n_star is not None and search.n_star <= 16
    # on the untwisted input the leading terms are exact
    rep = leading_order_residual(flat, search.n_star)
    assert rep.first_exact_zero and rep.second_exact_zero
    # the tilted input (still a = 0) has genuinely first-order residuals
    twisted = twisted_torus_input()
    assert twisted.a.is_zero()
    fit = residual_decay_fit(twisted, (2, 4, 8, 16, 32))
    assert -1.3 <= fit["slope_first"] <= -0.7, fit
    assert fit["slope_second"] <= -0.7, fit
    n_star = minimal_n_search(twisted, 16).n_star
    assert n_star is not None and n_star <= 16
    d1, d2 = build_An(flat, search.n_star, "totally_real")
    from engelcalc.engelcheck import totally_real_check

    assert totally_real_check(Derivation(d1, d2, flat.J, flat.space)).passed
    for n in range(1, 17):
        dn1, dn2 = build_An(flat, n, "totally_real")
        assert not j_invariance_check(Derivation(dn1, dn2, flat.J, flat.space)).passed, n
    report(6, True,
           f"minimal level n* = {search.n_star} <= 16; first-residual slope "
           f"{fit['slope_first']:.3f} in [-1.3, -0.7]; totally-real variant "
           f"certified and never J-invariant")


def test_criterion_7_equivariance():
    for k in (2, 3, 4, 6):
        spec = build_family("hyperelliptic_product", {"k": k})
        assert spec.parameters["n_k"] == 2 * k + 2
        cert = hyperelliptic_equivariance_check(spec)
        assert cert.kind == "SYMBOLIC", k
    report(7, True, "rotation equivariance symbolic for k in {2, 3, 4, 6} "
                    "with theta_k = 2*pi/k and n_k = 2k+2")


def test_criterion_8_algebraic_law_suite():
    first = run_law_suite(seed=0, cases=1000, tol=1e-12)
    assert first["passed"], first
    assert all(v <= 1e-12 for v in first["worst_residual"].values())
    second = run_law_suite(seed=0, cases=1000, tol=1e-12)
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    assert a == b, "law-suite report is not byte-stable for a fixed seed"
    worst = max(first["worst_residual"].values())
    report(8, True, f"1000 randomized cases per law, worst residual "
                    f"{worst:.2e} <= 1e-12; report byte-stable under the seed")
