import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from engelcalc import engelcheck, framecalc
from engelcalc.engelcheck import (
    Derivation,
    Frac,
    PreconditionError,
    abdb_bracket,
    characteristic_foliation,
    complex_framing,
    defining_forms,
    j_engel_splitting,
    j_invariance_check,
    jofreeb_residual,
    k_engel_check,
    nijenhuis_certificate,
    structure_functions,
    totally_real_check,
    transverse_engel_check,
    verify_engel,
)
from engelcalc.framecalc import (
    ComplexStructure,
    FramedSpace,
    KForm,
    VecField,
    bracket,
    certify_no_common_zero,
    certify_nonvanishing,
    certify_vanishing,
    det_of_fields,
    exterior_derivative,
    wedge,
)
from engelcalc.catalog import FAMILIES, build_family
from engelcalc.laws import _law_space, _random_scalar
from engelcalc.manifest import load_manifest
from engelcalc.trigring import ONE, ZERO, Frequency, TrigScalar, normalize, parse

from oracles import (
    FracField,
    adapted_frame,
    annihilating_form,
    closed_jr_residual,
    closed_jt_residual,
    cramer_coefficients,
    dalpha_squared_scalar,
    direct_form_witnesses,
    direct_w_residuals,
    eight_jd_minors,
    frac_bracket,
    framing_determinant,
    interior,
    minors_of_fields,
    numeric_matrix,
    random_points,
    reeb_pair,
    rescaled_reeb_direction,
    rotation_coefficients,
    six_pair_nijenhuis,
    transverse_minors,
)

J_STD = ComplexStructure.pairing(0, 1, 2, 3)
FIXTURES = Path(__file__).parent / "fixtures"


def family(name, **params):
    return build_family(name, params or None)


# -- verify_engel -----------------------------------------------------------------


def test_verify_engel_inoue_s0_symbolic():
    flag = verify_engel(_context("inoue_s0"))
    assert flag.passed
    assert all(c.kind == "SYMBOLIC" for c in flag.certificates.values())


def test_verify_engel_abelian_fails_at_rank_e():
    space = FramedSpace()
    flag = verify_engel(Derivation(VecField.basis(0), VecField.basis(1), None, space))
    assert not flag.passed
    assert flag.certificates["rank_d"].passed
    assert flag.certificates["rank_e"].kind == "FAILED"


def test_verify_engel_torus_family_with_random_oracle():
    spec = family("torus_trig")
    flag = verify_engel(Derivation(spec.d1, spec.d2, spec.J, spec.space))
    assert flag.passed
    # oracle: the 4x4 determinant with both top generators never degenerates
    b1 = bracket(spec.d1, flag.e3, spec.space)
    b2 = bracket(spec.d2, flag.e3, spec.space)
    rng = random.Random(23)
    for _ in range(200):
        p = {c: rng.uniform(0, 1) for c in spec.space.coords}
        m1 = abs(np.linalg.det(numeric_matrix([spec.d1, spec.d2, flag.e3, b1], p)))
        m2 = abs(np.linalg.det(numeric_matrix([spec.d1, spec.d2, flag.e3, b2], p)))
        assert max(m1, m2) > 1e-6


# -- characteristic foliation -------------------------------------------------------


def test_characteristic_is_inside_distribution():
    for name in ("hopf_s3r", "inoue_s0", "kodaira_primary"):
        spec = family(name)
        w = characteristic_foliation(Derivation(spec.d1, spec.d2, spec.J, spec.space))
        assert all(m.is_zero()
                   for m in minors_of_fields([spec.d1, spec.d2, w])), name


def test_characteristic_inoue_spm_hand_value():
    # with q = 0 the linear system from the constant table gives W along A
    w = characteristic_foliation(_context("inoue_spm"))
    assert all(m.is_zero() for m in minors_of_fields([w, VecField.of(1, 0, 0, 1)]))


def _graph_fields(seed, scalar=_random_scalar):
    """Seeded random D = <E1 + a E3 + b E4, E2 + c E3 + d E4> on the law-suite space."""
    # the law-suite space, with periods declared: its frequencies mix 1 and
    # pi, so sample over [0, 2 pi) in each
    law = _law_space()
    space = FramedSpace(
        law.frame, law.coords,
        structure={ij: v.coeffs for ij, v in law.structure.items()},
        derivation={(i, c): s for i, d in enumerate(law.derivation) for c, s in d.items()},
        periods={"t": Frequency.of(0, 2), "x": Frequency.of(0, 2)},
        name=law.name)
    rng = random.Random(seed)
    a, b, c, d = (scalar(rng, space.coords) for _ in range(4))
    return VecField.of(1, 0, a, b), VecField.of(0, 1, c, d), space


def _sixth_turn_scalar(rng, coords):
    """A random scalar whose waves carry phases k pi/6 that are not quarter turns."""
    out = TrigScalar.constant(Fraction(rng.randint(-3, 3)))
    for _ in range(rng.randint(1, 2)):
        wave = rng.choice((TrigScalar.sine, TrigScalar.cosine))
        freq = Frequency.of(rng.randint(1, 3))
        phase = Frequency.of(0, Fraction(rng.choice((1, 2, 4, 5)), 6))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        out = out + wave({rng.choice(coords): freq}, phase, coeff=coeff)
    return out


def _assert_flag_matches_determinants(monkeypatch, d1, d2, space):
    # the flag reads alpha and its pairings off the rank-E minors; the
    # 4x4 determinants with a basis or a bracket column stay as the reference
    def no_determinant(fields):
        raise AssertionError("the flag took a 4x4 determinant")

    monkeypatch.setattr(framecalc, "det_of_fields", no_determinant)
    monkeypatch.setattr(engelcheck, "det_of_fields", no_determinant, raising=False)
    flag = verify_engel(Derivation(d1, d2, None, space, grid=3, tol=0.0))
    e3 = flag.e3
    for i in range(4):
        assert flag.alpha.component((i,)) == \
            det_of_fields([d1, d2, e3, VecField.basis(i)]), i
    assert flag.alpha == annihilating_form(d1, d2, e3)
    assert flag.pairings == tuple(det_of_fields([d1, d2, e3, bracket(d, e3, space)])
                                  for d in (d1, d2))


@pytest.mark.parametrize("name", FAMILIES)
def test_flag_alpha_and_pairings_are_the_determinants(monkeypatch, name):
    spec = family(name)
    _assert_flag_matches_determinants(monkeypatch, spec.d1, spec.d2, spec.space)


@pytest.mark.parametrize("seed", range(6))
def test_flag_alpha_and_pairings_on_random_fields(monkeypatch, seed):
    _assert_flag_matches_determinants(monkeypatch, *_graph_fields(seed))


def test_flag_pairings_on_rational_pi_phases_agree_in_value():
    # phases pi/3 and pi/6 are not reduced against each other (ROADMAP item
    # 3), so -d(alpha)(D_i, E3) and alpha([D_i, E3]) may differ in
    # representation; as functions they are equal
    rng = random.Random(7)
    for seed in range(10):
        d1, d2, space = _graph_fields(seed, _sixth_turn_scalar)
        flag = verify_engel(Derivation(d1, d2, None, space, grid=3, tol=0.0))
        alpha = annihilating_form(d1, d2, flag.e3)
        for u, d in zip(flag.pairings, (d1, d2)):
            ref = alpha(bracket(d, flag.e3, space))
            for p in random_points(space, rng, 10):
                assert math.isclose(u.evaluate(p), ref.evaluate(p),
                                    rel_tol=1e-9, abs_tol=1e-9), (seed, p)


def _rescaled_torus(scaled):
    """The coordinate torus with f = 2 + cos(2 pi (y1 - x2)) on generator
    ``scaled`` (0 for D1, 1 for D2) of D = <E1 + sin E3 - cos E4,
    E2 + cos E3 + sin E4>, the angle 2 pi x1: the rescaled generator has
    more terms."""
    theta = "2*pi*x1"
    coords = ["x1", "y1", "x2", "y2"]
    man = load_manifest({
        "frame": ["dx1", "dy1", "dx2", "dy2"],
        "coordinates": coords,
        "derivation": {f"d{c}": {c: "1"} for c in coords},
        "distribution": [["1", "0", f"sin({theta})", f"-cos({theta})"],
                         ["0", "1", f"cos({theta})", f"sin({theta})"]],
    })
    d = [man.d1, man.d2]
    d[scaled] = d[scaled].scale(parse("2 + cos(2*pi*y1 - 2*pi*x2)"))
    return d[0], d[1], man.space


def _flag_case(case):
    if case in FAMILIES:
        spec = family(case)
        return spec.d1, spec.d2, spec.space
    if case.startswith("graph"):
        return _graph_fields(int(case[len("graph"):]))
    return _rescaled_torus({"f_on_d1": 0, "f_on_d2": 1}[case])


FLAG_CASES = [*FAMILIES, *(f"graph{seed}" for seed in range(6)), "f_on_d1", "f_on_d2"]


@pytest.mark.parametrize("case", FLAG_CASES)
def test_flag_route_gives_the_direct_alpha_and_pairings(monkeypatch, case):
    # alpha from the minors of (D1, E3) extended by D2, and the pairings
    # from d(alpha) on the pairs' minors, equal the direct forms exactly;
    # on the rescaled torus the pair expanded first is (D1, E3) whichever
    # generator carries f
    d1, d2, space = _flag_case(case)
    pairs = []
    extend = framecalc.extend_minors

    def recording(fields, rows=None, minors=None):
        if len(fields) == 2:
            pairs.append(fields[0])
        return extend(fields, rows, minors)

    ctx = Derivation(d1, d2, None, space, grid=3, tol=0.0)
    ctx.d_minors  # derive the stage before recording
    monkeypatch.setattr(engelcheck, "extend_minors", recording)
    flag = verify_engel(ctx)
    e3 = flag.e3
    alpha = annihilating_form(d1, d2, e3)
    d_alpha = exterior_derivative(alpha, space)
    assert flag.alpha == alpha
    assert flag.pairings == (-d_alpha(d1, e3), -d_alpha(d2, e3))
    if case.startswith("f_on_"):
        assert pairs == [d1, d2]
        assert flag.passed


def test_flag_evaluates_no_form_on_fields_and_expands_each_pair_once(monkeypatch):
    # the pairings are d(alpha) on the minors of (D_i, E3) that the flag
    # already holds, so no 2-form is evaluated on fields and neither pair's
    # minors are expanded twice
    def no_evaluation(self, *fields):
        raise AssertionError("verify_engel evaluated a form on fields")

    expanded = []
    extend = framecalc.extend_minors

    def recording(fields, rows=None, minors=None):
        expanded.append(list(fields))
        return extend(fields, rows, minors)

    for module in (framecalc, engelcheck):
        monkeypatch.setattr(module, "extend_minors", recording)
    for case in FLAG_CASES:
        d1, d2, space = _flag_case(case)
        ctx = Derivation(d1, d2, None, space, grid=3, tol=0.0)
        ctx.d_minors  # derive the stage before counting
        expanded.clear()
        with monkeypatch.context() as m:
            m.setattr(KForm, "__call__", no_evaluation)
            flag = verify_engel(ctx)
        assert flag.pairings is not None, case
        for d in (d1, d2):
            assert sum(fields == [d, flag.e3] for fields in expanded) == 1, case


@pytest.mark.parametrize("name", FAMILIES)
def test_characteristic_pointwise_nullspace_oracle(name):
    # W(p) must span the nullspace of [alpha([D1,E3]), alpha([D2,E3])] at p,
    # and the flag must carry exactly alpha and these two pairings
    spec = family(name)
    ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
    flag = ctx.flag
    w = characteristic_foliation(ctx)
    alpha = annihilating_form(spec.d1, spec.d2, flag.e3)
    u1 = alpha(bracket(spec.d1, flag.e3, spec.space))
    u2 = alpha(bracket(spec.d2, flag.e3, spec.space))
    assert flag.alpha == alpha
    assert flag.pairings == (u1, u2)
    rng = random.Random(4)
    for p in random_points(spec.space, rng, 40):
        lam = np.array([-u2.evaluate(p), u1.evaluate(p)])
        coefs = np.array([[c.evaluate(p) for c in spec.d1.coeffs],
                          [c.evaluate(p) for c in spec.d2.coeffs]])
        expect = lam @ coefs
        got = np.array(w.evaluate(p))
        assert np.max(np.abs(got - expect)) < 1e-9
        # and the defining residual vanishes on the grid point
        assert abs(u1.evaluate(p) * lam[0] + u2.evaluate(p) * lam[1]) < 1e-9


def test_characteristic_requires_certified_flag():
    space = FramedSpace()
    ctx = Derivation(VecField.basis(0), VecField.basis(1), None, space)
    with pytest.raises(PreconditionError):
        characteristic_foliation(ctx)


def _assert_w_stays_in_e(ctx):
    # the direct oracle takes every bracket [W, X], X = D1, D2, E3, in full;
    # characteristic_foliation certifies nothing, as these vanish identically
    residuals = direct_w_residuals(ctx.flag, ctx.w, ctx.space)
    assert all(r.is_zero() for r in residuals)


@pytest.mark.parametrize("name", FAMILIES)
def test_w_direct_residuals_vanish_identically(name):
    spec = family(name)
    _assert_w_stays_in_e(Derivation(spec.d1, spec.d2, spec.J, spec.space, grid=3))


def test_w_direct_residuals_vanish_identically_on_rescaled_torus():
    # D = <f*D1, D2> on the coordinate torus with f = 2 + cos(2 pi (y1 - x2)),
    # the shape of the benchmark's sampled manifests: u1 depends on f and
    # u2 vanishes, so W runs along D2
    f = "(2 + cos(2*pi*y1 - 2*pi*x2))"
    theta = "2*pi*x1"
    coords = ["x1", "y1", "x2", "y2"]
    man = load_manifest({
        "frame": ["dx1", "dy1", "dx2", "dy2"],
        "coordinates": coords,
        "derivation": {f"d{c}": {c: "1"} for c in coords},
        "distribution": [[f, "0", f"{f}*sin({theta})", f"-{f}*cos({theta})"],
                         ["0", "1", f"cos({theta})", f"sin({theta})"]],
    })
    ctx = Derivation(man.d1, man.d2, None, man.space, grid=5)
    flag = ctx.flag
    assert flag.passed
    u1, u2 = flag.pairings
    assert u1.constant_value() is None and u2.is_zero()
    _assert_w_stays_in_e(ctx)


# seeds whose flag passes with two nonconstant pairings of at most 36 terms
@pytest.mark.parametrize("seed", (2, 3, 7, 9))
def test_w_direct_residuals_vanish_identically_on_random_fields(seed):
    d1, d2, space = _graph_fields(seed)
    ctx = Derivation(d1, d2, None, space, grid=3, tol=0.0)
    flag = ctx.flag
    assert flag.passed
    assert all(u.constant_value() is None for u in flag.pairings)
    _assert_w_stays_in_e(ctx)


def test_w_takes_no_minors_and_no_form_evaluation(monkeypatch):
    # W is read off the flag's pairings: no minor is expanded, no form is
    # evaluated and nothing is certified once the flag is derived
    def forbidden(*args, **kwargs):
        raise AssertionError("characteristic_foliation did more than read the flag")

    for fam in FAMILIES:
        spec = family(fam)
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space, grid=3)
        flag = ctx.flag
        with monkeypatch.context() as m:
            for module in (framecalc, engelcheck):
                m.setattr(module, "extend_minors", forbidden)
            for name in ("certify_vanishing", "certify_nonvanishing",
                         "certify_no_common_zero", "bracket"):
                m.setattr(engelcheck, name, forbidden)
            m.setattr(KForm, "__call__", forbidden)
            m.setattr(KForm, "on_minors", forbidden)
            w = ctx.w
        u1, u2 = flag.pairings
        assert w == spec.d1.scale(-u2) + spec.d2.scale(u1), fam


# -- the complex frame and the defining forms hold by construction -------------


def _power(a, n):
    out = ONE
    for _ in range(n):
        out = out * a
    return out


def _assert_is_quotient(num, j, k, ref, a):
    """num / a^(j+k+1), the bracket rule's [u / a^j, v / a^k], is the
    quotient rule's ``ref`` over a^(2(j+k)), cross-multiplied: ref's
    numerator is num a^(j+k-1), or num / a when j = k = 0."""
    if j + k:
        assert num.scale(_power(a, j + k - 1)) == ref.raw
    else:
        assert num == ref.raw.scale(a)


def _assert_chain_brackets_match_the_quotient_rule(ctx, t, r):
    """[W, R] and [JW, R], the context's numerators over abdb^2, and the
    K-check's [T, R] over abdb^3 are the quotient rule's, for the
    reference Reeb pair (t, r)."""
    a, space = ctx.forms.abdb, ctx.space
    _assert_is_quotient(ctx.wr, 0, 1, frac_bracket(FracField(ctx.w), r, space), a)
    _assert_is_quotient(ctx.xr, 0, 1, frac_bracket(FracField(ctx.x), r, space), a)
    made = []
    rule = engelcheck.abdb_bracket

    def recording(*args):
        made.append(rule(*args))
        return made[-1]

    with mock.patch.object(engelcheck, "abdb_bracket", recording):
        k_engel_check(ctx)
    assert len(made) == 1
    _assert_is_quotient(made[0], 1, 1, frac_bracket(t, r, space), a)


def _assert_frame_and_forms_hold(ctx):
    # the claims complex_framing, defining_forms, structure_functions, the
    # transverse check and the K-check no longer certify, checked on oracles
    # that take every bracket, d, wedge, interior product and determinant in
    # full, wherever the flag and JD = D are certified
    space, grid, tol = ctx.space, ctx.grid, ctx.tol
    assert certify_nonvanishing(framing_determinant(ctx), space, grid, tol).passed
    witnesses = direct_form_witnesses(ctx)
    assert certify_no_common_zero(witnesses["alpha_dalpha"], space, grid, tol).passed
    assert certify_nonvanishing(witnesses["abdb"], space, grid, tol).passed
    assert certify_nonvanishing(witnesses["c_WX"], space, grid, tol).passed
    assert witnesses["adab"].is_zero()
    # the raw Reeb field K_R: alpha(K_R) = abdb, beta(K_R) = 0 and
    # i_{K_R}(beta ^ d(beta)) = 0
    forms = ctx.forms
    k_t, k_r = forms.k_t, forms.k_r
    assert forms.alpha(k_r) == forms.abdb
    assert forms.beta(k_r).is_zero()
    beta_dbeta = wedge(forms.beta, exterior_derivative(forms.beta, space))
    assert interior(beta_dbeta, k_r).is_zero()
    # d_XT without the quotient rule is the quotient rule's pairing, term for
    # term, and the three d_* are over abdb^2, as jofreeb_residual reads them
    t, r = reeb_pair(forms)
    direct = frac_bracket(FracField(ctx.x), t, space).pair(forms.alpha)
    sf = ctx.sf
    assert (sf.d_XT.num, sf.d_XT.den) == (direct.num, direct.den)
    assert sf.d_WR.den is sf.d_XT.den is sf.d_XR.den is ctx.abdb2
    assert ctx.abdb2 == forms.abdb * forms.abdb
    _assert_chain_brackets_match_the_quotient_rule(ctx, t, r)
    # the identities the K-check's rows rest on, with each interior product
    # taken term by term: alpha(K_T) = 0 and beta(K_T) = -abdb;
    # d(beta)(K_T, .) and d(beta)(K_R, .) vanish on W and on JW; and
    # d(beta)(W, JW) = -c_WX, with det(W, JW, K_T, K_R) = -abdb c_WX
    assert forms.alpha(k_t).is_zero()
    assert forms.beta(k_t) == -forms.abdb
    for k in (k_t, k_r):
        i_k = interior(forms.d_beta, k)
        assert i_k(ctx.w).is_zero() and i_k(ctx.x).is_zero()
    c_wx = sf.c_WX
    assert interior(forms.d_beta, ctx.w)(ctx.x) == -c_wx
    assert det_of_fields([ctx.w, ctx.x, k_t, k_r]) == -(forms.abdb * c_wx)


@pytest.mark.parametrize("name", FAMILIES)
def test_frame_and_form_conditions_hold_on_every_family(name):
    ctx = _context(name)
    assert ctx.flag.passed and ctx.j_invariance.passed
    _assert_frame_and_forms_hold(ctx)


SAMPLED_FIXTURES = ("sampled_clear_1coord", "sampled_two_direction_3coord",
                    "sampled_zero_off_grid_4coord")


@pytest.mark.parametrize("stem", SAMPLED_FIXTURES)
def test_frame_and_form_conditions_hold_on_sampled_fixtures(stem):
    # the flag passes on SAMPLED certificates on the first two; the third's
    # rank_tm fails, and the checks built on the flag are rejected
    man = load_manifest((FIXTURES / f"{stem}.json").read_text())
    ctx = Derivation(man.d1, man.d2, man.J, man.space)
    assert ctx.j_invariance.passed
    if not ctx.flag.passed:
        assert stem == "sampled_zero_off_grid_4coord"
        for stage in (complex_framing, defining_forms):
            with pytest.raises(PreconditionError):
                stage(ctx)
        return
    _assert_frame_and_forms_hold(ctx)


def _random_j_plane(seed):
    """D = <D1, J D1> on a catalog family's space, D1 with coefficients that
    are constants or one wave of the family's own D1 plus a constant."""
    rng = random.Random(seed)
    spec = family(FAMILIES[seed % len(FAMILIES)])
    pool = [c for c in spec.d1.coeffs if c.constant_value() is None]
    coeffs = []
    for _ in range(4):
        c = TrigScalar.constant(rng.randint(-2, 2))
        if pool and rng.random() < 0.5:
            c = c + rng.choice(pool) * TrigScalar.constant(rng.randint(1, 2))
        coeffs.append(c)
    d1 = VecField.of(*coeffs)
    return Derivation(d1, spec.J.apply(d1), spec.J, spec.space, grid=5, tol=0.0)


def test_frame_and_form_conditions_hold_on_random_j_planes():
    checked = 0
    for seed in range(60):
        ctx = _random_j_plane(seed)
        assert ctx.j_invariance.kind == "SYMBOLIC"
        if ctx.flag.passed:
            _assert_frame_and_forms_hold(ctx)
            checked += 1
    assert checked >= 40


def test_framing_forms_and_structure_functions_certify_nothing(monkeypatch):
    # once the flag and JD = D are derived, the three stages call no
    # certifier and take no 4x4 determinant
    work = ("certify_nonvanishing", "certify_vanishing", "certify_no_common_zero",
            "det_of_fields")
    for fam in FAMILIES:
        ctx = _context(fam)
        ctx.flag, ctx.j_invariance  # derive the certified stages before counting
        with monkeypatch.context() as m:
            calls = {name: _count_calls(m, name, framecalc, engelcheck)
                     for name in work}
            complex_framing(ctx)
            defining_forms(ctx)
            structure_functions(ctx)
        assert {name: len(made) for name, made in calls.items()} == \
            dict.fromkeys(work, 0), fam


def test_defining_forms_reject_a_plane_that_is_not_j_invariant():
    # D = <X1 - X3 - X4, X2> on hopf_s3r is Engel with constant witnesses,
    # but J X2 = -X1 lies outside D
    spec = family("hopf_s3r")
    ctx = Derivation(VecField.of(1, 0, -1, -1), VecField.basis(1), spec.J, spec.space)
    assert ctx.flag.passed
    assert all(c.kind == "SYMBOLIC" for c in ctx.flag.certificates.values())
    assert not ctx.j_invariance.passed
    with pytest.raises(PreconditionError, match="defining forms need JD = D"):
        defining_forms(ctx)


# -- J-invariance / framings ---------------------------------------------------------


def test_j_invariance_of_complex_plane():
    assert j_invariance_check(_context("hopf_s3r")).passed


# -- the J-claims on the witnesses J leaves free --------------------------------

TORUS_COORDS = ("x1", "x2", "x3", "x4")
TORUS = FramedSpace(coords=TORUS_COORDS,
                    derivation={(i, c): 1 for i, c in enumerate(TORUS_COORDS)})
J_PAIRINGS = (J_STD, ComplexStructure.pairing(0, 2, 1, 3),
              ComplexStructure.pairing(0, 3, 2, 1))


def _matmul(a, b):
    return [[sum((a[i][m] * b[m][j] for m in range(4)), ZERO) for j in range(4)]
            for i in range(4)]


@st.composite
def rotated_j(draw, coords=TORUS_COORDS):
    """R J0 R^T, R the rotation of the frame plane (p, q) by k * c for one
    of the coordinates c; non-constant where (p, q) is no J0-line."""
    j0 = draw(st.sampled_from(J_PAIRINGS))
    p, q = draw(st.sampled_from(list(itertools.combinations(range(4), 2))))
    k, c = draw(st.integers(1, 3)), draw(st.sampled_from(coords))
    cos = TrigScalar.cosine({c: Frequency.of(k)})
    sin = TrigScalar.sine({c: Frequency.of(k)})
    r = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    r[p][p], r[p][q], r[q][p], r[q][q] = cos, -sin, sin, cos
    r_t = [list(row) for row in zip(*r)]
    J = ComplexStructure(_matmul(_matmul(r, j0.matrix), r_t))
    assume(any(e.constant_value() is None for row in J.matrix for e in row))
    return J


def _assert_row_decides_nijenhuis(J, space):
    # the certificate on N(E1, E2) and N(E1, E3), two pairs of E1's row, has
    # the kind of the one on all six pairs, and N(J E_i, E_j) = -J N(E_i, E_j)
    # holds exactly on every pair
    cert = nijenhuis_certificate(Derivation(None, None, J, space))
    assert cert.kind == certify_vanishing(six_pair_nijenhuis(J, space), space).kind
    for i in range(4):
        for j in range(4):
            ei, ej = VecField.basis(i), VecField.basis(j)
            assert framecalc.nijenhuis(J, J.apply(ei), ej, space) == \
                -J.apply(framecalc.nijenhuis(J, ei, ej, space))


@settings(max_examples=40, deadline=None)
@given(rotated_j())
def test_nijenhuis_row_of_e1_decides_on_rotated_j(J):
    _assert_row_decides_nijenhuis(J, TORUS)


@pytest.mark.parametrize("name", FAMILIES)
def test_nijenhuis_row_of_e1_decides_on_every_family(name):
    # the family's own J, and the pairings sending E1 to E2, E3 and E4 over
    # its frame, where N(E1, JE1) = 0 holds whatever J is
    spec = family(name)
    for J in (spec.J,) + J_PAIRINGS:
        _assert_row_decides_nijenhuis(J, spec.space)


# the plane fields and their J vary along x1 and x2 only, so that a
# certificate that fails samples a 2-coordinate grid
PLANE_COORDS = TORUS_COORDS[:2]


@st.composite
def torus_scalars(draw, coords=PLANE_COORDS):
    out = TrigScalar.constant(draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, 2)) if coords else 0):
        wave = draw(st.sampled_from((TrigScalar.cosine, TrigScalar.sine)))
        coord = draw(st.sampled_from(coords))
        out = out + wave({coord: Frequency.of(draw(st.integers(1, 2)))},
                         coeff=draw(st.integers(-3, 3)))
    return out


@st.composite
def plane_fields(draw):
    """J and (A, B): A random, B one of JA, f JA + g A, sin(x1) JA (rank
    drops where sin(x1) = 0), or random."""
    J = draw(st.one_of(st.sampled_from(J_PAIRINGS), rotated_j(PLANE_COORDS)))
    a = VecField.of(*draw(st.lists(torus_scalars(), min_size=4, max_size=4)))
    ja = J.apply(a)
    kind = draw(st.sampled_from(("JA", "fJA+gA", "sin(x1)JA", "random")))
    if kind == "JA":
        b = ja
    elif kind == "fJA+gA":
        b = ja.scale(draw(torus_scalars())) + a.scale(draw(torus_scalars()))
    elif kind == "sin(x1)JA":
        b = ja.scale(TrigScalar.sine({"x1": Frequency.of(1)}))
    else:
        b = VecField.of(*draw(st.lists(torus_scalars(), min_size=4, max_size=4)))
    return J, a, b


@settings(max_examples=60, deadline=None)
@given(plane_fields())
def test_j_invariance_on_j_d1_decides_the_eight_minors(case):
    # the four minors of (D1, D2, J D1) vanish exactly when all eight of
    # (D1, D2, J D_i) do, and the certificate passes exactly then
    J, a, b = case
    cert = j_invariance_check(Derivation(a, b, J, TORUS))
    eight = eight_jd_minors(a, b, J)
    assert (cert.kind == "SYMBOLIC") == all(m.is_zero() for m in eight)
    assert cert.passed == certify_vanishing(eight, TORUS).passed


def test_j_invariance_fails_for_totally_real_plane():
    space = FramedSpace()
    d1, d2 = VecField.basis(0), VecField.basis(2)
    ctx = Derivation(d1, d2, J_STD, space)
    cert = j_invariance_check(ctx)
    assert not cert.passed
    assert totally_real_check(ctx).passed


def test_complex_framing_families():
    # the frame (W, [W, JW]) is read off the context's stages, and [W, JW]
    # is the bracket taken in full
    for name in FAMILIES:
        ctx = _context(name)
        w, y = complex_framing(ctx)
        assert w is ctx.w and y is ctx.wx, name
        assert y == bracket(ctx.w, ctx.J.apply(ctx.w), ctx.space), name
    assert complex_framing(_context("hopf_s3r"))[1] == VecField.of(-16, 0, 16, 0)


def test_complex_framing_rejects_non_engel():
    space = FramedSpace()
    with pytest.raises(PreconditionError):
        complex_framing(Derivation(VecField.basis(0), VecField.basis(1), J_STD,
                                   space))


def test_totally_real_check_on_j_invariant_plane_fails():
    assert not totally_real_check(_context("hopf_s3r")).passed


# -- defining forms -------------------------------------------------------------------


def proportional(form: KForm, row) -> bool:
    reference = KForm.one_form(row)
    got = [form.component((i,)) for i in range(4)]
    ref = [reference.component((i,)) for i in range(4)]
    pairs = [(g, r) for g, r in zip(got, ref)]
    # cross-ratio equality g_i r_j = g_j r_i for all pairs
    for i in range(4):
        for j in range(4):
            if not (pairs[i][0] * pairs[j][1] - pairs[j][0] * pairs[i][1]).is_zero():
                return False
    return any(not g.is_zero() for g, _ in pairs)


def test_hopf_forms_match_quoted_class():
    spec = family("hopf_s3r")
    forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
    assert proportional(forms.alpha, [0, -1, 0, 1])    # a4 - a2
    assert proportional(forms.beta, [-1, 0, 1, 0])     # a3 - a1
    # the proportionality factor is positive (same orientation as quoted)
    assert forms.alpha.component((3,)).constant_value().evaluate() > 0


def test_hyperelliptic_forms_match_quoted_class():
    spec = family("hyperelliptic_solv")
    forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
    assert proportional(forms.alpha, [0, 1, 1, 0])     # a2 + a3
    assert proportional(forms.beta, [1, 0, 0, -1])     # a1 - a4


def test_beta_orientation_matches_quoted_pairs():
    # beta(v) = alpha(J v): whatever overall factor alpha carries, beta must
    # carry the same one relative to the quoted pair, never the opposite sign
    for name, alpha_ref, beta_ref in (
            ("hopf_s3r", [0, -1, 0, 1], [-1, 0, 1, 0]),
            ("hyperelliptic_solv", [0, 1, 1, 0], [1, 0, 0, -1])):
        spec = family(name)
        forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
        i = next(k for k, c in enumerate(alpha_ref) if c)
        j = next(k for k, c in enumerate(beta_ref) if c)
        factor_a = forms.alpha.component((i,)).constant_value().evaluate() \
            / alpha_ref[i]
        factor_b = forms.beta.component((j,)).constant_value().evaluate() \
            / beta_ref[j]
        assert factor_a == pytest.approx(factor_b), name


def test_reeb_pair_pairings_are_exact():
    for name in ("hopf_s3r", "hyperelliptic_solv", "inoue_s0", "kodaira_primary"):
        spec = family(name)
        forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
        t, r = reeb_pair(forms)
        # beta(T) = 1 and alpha(R) = 1 exactly, alpha(T) = beta(R) = 0
        assert t.pair(forms.beta).num == t.pair(forms.beta).den
        assert r.pair(forms.alpha).num == r.pair(forms.alpha).den
        assert t.pair(forms.alpha).is_zero()
        assert r.pair(forms.beta).is_zero(), name


def test_hopf_reeb_fields_quoted_directions():
    spec = family("hopf_s3r")
    forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
    assert all(m.is_zero()
               for m in minors_of_fields([forms.k_r, VecField.basis(3)]))
    assert all(m.is_zero()
               for m in minors_of_fields([forms.k_t, VecField.of(-1, 0, 1, 0)]))


def test_defining_forms_reject_uncertified_flag():
    space = FramedSpace()
    ctx = Derivation(VecField.basis(0), VecField.basis(1), J_STD, space)
    with pytest.raises(PreconditionError):
        defining_forms(ctx)


# -- structure functions ----------------------------------------------------------------


def test_hopf_c_wx_direct_pairing_oracle():
    # with the quoted forms alpha = a4 - a2, beta = a3 - a1 and the
    # characteristic section W, the pairing beta([W, JW]) equals 2
    spec = family("hopf_s3r")
    beta = KForm.one_form([-1, 0, 1, 0])
    w = VecField.of(0, 1, 0, 1)            # characteristic direction X2 + X4
    x = spec.J.apply(w)
    assert beta(bracket(w, x, spec.space)) == parse("2")


def test_structure_functions_pipeline_consistency():
    spec = family("hopf_s3r")
    ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
    sf = structure_functions(ctx)
    assert sf.d_WR.is_zero() and sf.d_XR.is_zero()
    # c_WX pairs beta with the framing's bracket stage [W, JW]
    assert sf.c_WX == ctx.forms.beta(ctx.wx)
    assert ctx.wx == bracket(ctx.w, ctx.x, spec.space)


def test_c_wx_factors_through_beta_of_e3():
    # W = l1 D1 + l2 D2 and, for D2 = J D1, JW = -l2 D1 + l1 D2, so
    # [W, JW] = (l1^2 + l2^2) E3 modulo D and c_WX = (l1^2 + l2^2) beta(E3)
    for name in FAMILIES:
        spec = family(name)
        if spec.d2 != spec.J.apply(spec.d1):
            continue
        ctx = _context(name)
        u1, u2 = ctx.flag.pairings
        l1, l2 = -u2, u1
        assert ctx.sf.c_WX == (l1 * l1 + l2 * l2) * ctx.forms.beta(ctx.flag.e3), name


# -- J of the Reeb pair --------------------------------------------------------------


def _context(name):
    spec = family(name)
    return Derivation(spec.d1, spec.d2, spec.J, spec.space)


def _minus_j_of_t_against_r(res_t, res_r, J):
    """-J(res_T) - res_R, cross-multiplied over the two denominators."""
    return (-J.apply(res_t.raw)).scale(res_r.den) - res_r.raw.scale(res_t.den)


@pytest.mark.parametrize("name", ["hopf_s3r", "hyperelliptic_solv"])
def test_jofreeb_residual_symbolically_zero(name):
    # the rotation record certifies nothing; the closed formulas' residuals,
    # formed afresh with the record's q1 and q2, vanish exactly
    ctx = _context(name)
    res = jofreeb_residual(ctx)
    q = (res.q1, res.q2)
    res_t, res_r = closed_jt_residual(ctx, q), closed_jr_residual(ctx, q)
    assert res_t.is_zero() and res_r.is_zero()
    assert _minus_j_of_t_against_r(res_t, res_r, ctx.J).is_zero()
    assert res.dalpha_identity.kind == "SYMBOLIC"


def test_jofreeb_residual_numeric_sampling_agreement():
    # J(T) = R + q1 W + q2 JW and J(R) = -T + q2 W - q1 JW, with the
    # record's q1 and q2, as floats at 100 random points, to 1e-12
    # absolute; torus_trig's fields and q1, q2 reach about 250 in size
    for name in ("hopf_s3r", "torus_trig"):
        ctx = _context(name)
        res = jofreeb_residual(ctx)
        t, r = reeb_pair(ctx.forms)
        fields = {"T": t, "R": r, "JT": t.apply_J(ctx.J), "JR": r.apply_J(ctx.J),
                  "W": FracField(ctx.w), "X": FracField(ctx.x)}
        for p in random_points(ctx.space, random.Random(9), 100):
            v = {k: np.array([c.evaluate(p) for c in f.raw.coeffs]) / f.den.evaluate(p)
                 for k, f in fields.items()}
            q1, q2 = (q.num.evaluate(p) / q.den.evaluate(p) for q in (res.q1, res.q2))
            res_t = v["JT"] - (v["R"] + q1 * v["W"] + q2 * v["X"])
            res_r = v["JR"] - (-v["T"] + q2 * v["W"] - q1 * v["X"])
            assert max(abs(res_t).max(), abs(res_r).max()) < 1e-12, name


@pytest.mark.parametrize("name", ["hopf_s3r", "kodaira_primary"])
def test_jr_residual_is_minus_j_of_the_jt_residual_off_the_identity(name):
    # with T moved off the Reeb field both residuals are nonzero, and
    # J(res_T) = -res_R still holds exactly, by J^2 = -1 alone
    ctx = _context(name)
    forms = ctx.forms
    ctx.sf  # the structure functions read the true T
    # T + W = (K_T - abdb W) / -abdb
    moved_k_t = forms.k_t - ctx.w.scale(forms.abdb)
    vars(ctx)["forms"] = dataclasses.replace(forms, k_t=moved_k_t)
    res_t, res_r = closed_jt_residual(ctx), closed_jr_residual(ctx)
    assert not res_t.is_zero() and not res_r.is_zero()
    assert _minus_j_of_t_against_r(res_t, res_r, ctx.J).is_zero()


def test_a_zero_numerator_is_zero_over_any_denominator():
    den = parse("2 + cos(x1)")
    zero = Frac(ZERO, den)
    assert zero.as_trig() == ZERO and str(zero) == "0"
    assert Frac(parse("cos(x1)"), den).as_trig() is None
    assert Frac(parse("2*cos(x1)"), TrigScalar.constant(2)).as_trig() == parse("cos(x1)")


def _clear_context():
    man = load_manifest((FIXTURES / "sampled_clear_1coord.json").read_text())
    return Derivation(man.d1, man.d2, man.J, man.space)


# the ten families and a fixture whose abdb and c_WX are not constant
CLOSED_FORM_CASES = (*FAMILIES, "sampled_clear_1coord")


def _closed_form_context(case):
    if case.startswith("j_plane"):
        return _random_j_plane(int(case.rsplit("_", 1)[1]))
    return _clear_context() if case == "sampled_clear_1coord" else _context(case)


def _assert_rotation_holds(ctx):
    """The rotation record's q1 and q2 are over abdb^2 c_WX, equal the
    fraction arithmetic's (d_WR + d_XT)/c_WX and d_XR/c_WX, and with them
    the closed formulas' residuals vanish exactly."""
    res = jofreeb_residual(ctx)
    forms, sf = ctx.forms, ctx.sf
    den = forms.abdb * forms.abdb * sf.c_WX
    assert res.q1.den == den and res.q2.den == den
    assert res.q1.den is res.q2.den
    for got, q in zip((res.q1, res.q2), rotation_coefficients(ctx)):
        assert got.num * q.den == q.num * got.den
    q = (res.q1, res.q2)
    assert closed_jt_residual(ctx, q).is_zero()
    assert closed_jr_residual(ctx, q).is_zero()


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_jt_residual_over_abdb2_c_wx_is_the_fraction_arithmetic_one(case):
    # the record's q1 and q2 over abdb^2 c_WX are the ones fraction
    # arithmetic, multiplying unequal denominators, forms, and the rotation
    # identity holds with them; a nonzero N_J rejects the record
    ctx = _closed_form_context(case)
    if not ctx.nijenhuis.passed:
        with pytest.raises(PreconditionError):
            jofreeb_residual(ctx)
        return
    _assert_rotation_holds(ctx)


def test_rotation_holds_on_random_j_planes():
    # every seeded J-plane whose flag passes on a J with N_J = 0
    checked = 0
    for seed in range(60):
        ctx = _random_j_plane(seed)
        if ctx.flag.passed and ctx.nijenhuis.passed:
            _assert_rotation_holds(ctx)
            checked += 1
    assert checked >= 40


# the ten families, and J-planes over kodaira_primary with d_WR != 0
DALPHA_CASES = (*FAMILIES, "j_plane_4", "j_plane_24", "j_plane_54")


@pytest.mark.parametrize("case", DALPHA_CASES)
def test_dalpha_factors_decide_the_wedge_scalar(monkeypatch, case):
    # the factor decision agrees with the d(alpha) ^ d(alpha) scalar, which
    # the record no longer forms
    ctx = _closed_form_context(case)
    assert ctx.flag.passed
    if not ctx.nijenhuis.passed:
        with pytest.raises(PreconditionError):
            jofreeb_residual(ctx)
        return
    ctx.sf  # derive the stages before counting
    wedges = _count_calls(monkeypatch, "wedge", framecalc, engelcheck)
    res = jofreeb_residual(ctx)
    assert wedges == []
    assert res.dalpha_identity.kind == \
        ("SYMBOLIC" if dalpha_squared_scalar(ctx).is_zero() else "FAILED")
    assert ctx.sf.d_WR.is_zero() == (case in FAMILIES)
    if res.dalpha_identity.kind == "FAILED":
        assert not res.dalpha_identity.grid and res.dalpha_identity.bound is None


def test_dalpha_check_decides_d_wr_times_d_xt_plus_c_wx():
    # on a J-plane over kodaira_primary with d_WR != 0, the d(alpha)^2
    # scalar is 2 abdb N_WR (d_XT + c_WX) / c_WX, cross-multiplied, and
    # d_XT + c_WX vanishes nowhere there, so the check fails on its factors
    ctx = _random_j_plane(54)
    assert ctx.flag.passed and ctx.nijenhuis.passed
    sf, abdb = ctx.sf, ctx.forms.abdb
    assert not sf.d_WR.is_zero()
    c_wx, two = sf.c_WX, TrigScalar.constant(2)
    d_xt_plus_c = sf.d_XT.num + c_wx * abdb * abdb  # over abdb^2
    assert dalpha_squared_scalar(ctx) * c_wx * abdb == two * sf.d_WR.num * d_xt_plus_c
    assert certify_nonvanishing(d_xt_plus_c, ctx.space).passed
    assert jofreeb_residual(ctx).dalpha_identity.kind == "FAILED"


def test_a_pi_phase_dalpha_factor_goes_to_the_grid():
    # the exact zero test is incomplete at pi/3 phases: a d_WR numerator
    # that is the zero function without normalising to zero passes on the
    # grid, beside a nonzero d_XT + c_WX, and a nonzero one fails there
    ctx = _context("torus_trig")
    sf = ctx.sf
    assert not (sf.d_XT.num + sf.d_WR.den * sf.c_WX).is_zero()
    hidden_zero = parse("cos(2*pi*x1 + pi/3) + cos(2*pi*x1 - pi/3) - cos(2*pi*x1)")
    nonzero = parse("1/1000*cos(2*pi*x1 + pi/3)")
    assert not hidden_zero.is_zero() and hidden_zero.has_pi_phase()
    for num, kind in ((hidden_zero, "SAMPLED"), (nonzero, "FAILED")):
        vars(ctx)["sf"] = dataclasses.replace(sf, d_WR=Frac(num, sf.d_WR.den))
        cert = jofreeb_residual(ctx).dalpha_identity
        assert cert.kind == kind, kind
        assert cert.grid and cert.bound is not None
        assert cert == certify_vanishing([num], ctx.space, ctx.grid, note=cert.note)


def test_each_j_claim_takes_only_its_deciding_witnesses(monkeypatch):
    # N_J is certified on N(E1, E2) and N(E1, E3), two pairs of four
    # brackets each, and JD = D extends the plane field's minors by J D1 alone
    brackets = _count_calls(monkeypatch, "bracket", framecalc, engelcheck)
    columns = []
    extend = framecalc.extend_minors

    def recording(fields, rows=None, minors=None):
        columns.append((list(fields), minors))
        return extend(fields, rows, minors)

    monkeypatch.setattr(engelcheck, "extend_minors", recording)
    for fam in FAMILIES:
        ctx = _context(fam)
        ctx.d_minors  # derive the stage before counting
        brackets.clear()
        nijenhuis_certificate(ctx)
        assert len(brackets) == 8, fam
        columns.clear()
        j_invariance_check(ctx)
        assert columns == [([ctx.J.apply(ctx.d1)], ctx.d_minors)], fam


def test_jofreeb_gate_rejects_non_integrable():
    spec = family("hopf_s3r")
    bad = build_family("elliptic_sl2r")
    with pytest.raises(PreconditionError):
        jofreeb_residual(Derivation(spec.d1, spec.d2, bad.J, bad.space))


def test_jofreeb_symbolic_on_every_integrable_family():
    from engelcalc.catalog import FAMILIES

    for name in FAMILIES:
        spec = build_family(name)
        if not spec.j_integrable:
            continue
        ctx = _context(name)
        res = jofreeb_residual(ctx)
        assert closed_jt_residual(ctx, (res.q1, res.q2)).is_zero(), name
        assert res.dalpha_identity.kind == "SYMBOLIC", name


def test_jofreeb_gate_rejects_perturbed_pairing():
    # deliberately wrong pairing on the S+- table: squares to -id but its
    # Nijenhuis tensor does not vanish, so the gate must reject it
    spec = build_family("inoue_spm")
    perturbed = ComplexStructure.pairing(0, 3, 1, 2)  # J X1 = X4, J X2 = X3
    ctx = Derivation(None, None, perturbed, spec.space)
    assert nijenhuis_certificate(ctx).kind == "FAILED"
    with pytest.raises(PreconditionError):
        jofreeb_residual(Derivation(spec.d1, spec.d2, perturbed, spec.space))


def test_dalpha_identity_abelian_trivial():
    # on the flat space with a closed alpha both sides vanish
    space = FramedSpace(coords=("t",), derivation={(0, "t"): 1})
    alpha = KForm.one_form([1, 0, 0, 0])
    da = exterior_derivative(alpha, space)
    assert wedge(da, da).is_zero()


def test_jofreeb_nonintegrable_gate_via_nijenhuis_cert():
    spec = family("elliptic_sl2r")
    cert = nijenhuis_certificate(Derivation(None, None, spec.J, spec.space))
    assert cert.kind == "FAILED"


# -- splitting, transverse, K-structure ------------------------------------------------


@pytest.mark.parametrize("name", ["hopf_s3r", "hyperelliptic_solv", "inoue_s0",
                                  "kodaira_primary", "torus_trig"])
def test_splitting_invariance(name):
    # Z = span(R) is exactly the Reeb direction of every rescaled pair,
    # derived afresh, and the four fields of the splitting frame TM
    spec = family(name)
    ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
    split = j_engel_splitting(ctx)
    z = split[3]
    scalings = ["2", "3/2"]
    if spec.space.coords:
        scalings.append(f"2 + cos({spec.space.coords[0]})")
    for lam in scalings:
        k = rescaled_reeb_direction(ctx.forms.beta, normalize(lam), spec.space)
        assert not k.is_zero(), lam
        assert all(m.is_zero() for m in minors_of_fields([z, k])), lam
    frame = certify_nonvanishing(det_of_fields(list(split)), spec.space)
    assert frame.passed


def test_splitting_scaling_by_two_matches_half_reeb():
    spec = family("hopf_s3r")
    forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
    scaled_alpha = forms.alpha.scale(2)
    # rebuild R for 2*alpha by hand: beta scales by 2, beta^dbeta by 4
    from engelcalc.engelcheck import _compose_with_J

    beta2 = _compose_with_J(scaled_alpha, spec.J)
    k2 = wedge(beta2, exterior_derivative(beta2, spec.space)).kernel_field()
    assert all(m.is_zero() for m in minors_of_fields([k2, forms.k_r]))


def test_k_engel_pass_families():
    for name in ("hopf_s3r", "hyperelliptic_solv"):
        rep = k_engel_check(_context(name))
        assert rep.passed, name
        assert all(c.kind == "SYMBOLIC" for c in rep.commutators.values())
        assert rep.dbeta_squared_zero
        assert rep.rescaling_solvable


def test_k_engel_fail_inoue_s0_with_obstruction():
    rep = k_engel_check(_context("inoue_s0"))
    assert not rep.passed
    assert rep.obstructions  # nonzero coefficients reported


def test_k_engel_pass_implies_transverse_consistency():
    # the raw Reeb field is an Engel field, and it spans the line of a frame
    # field that is a transverse symmetry, X4 on hopf_s3r and X3 on
    # hyperelliptic_solv
    for name, idx in (("hopf_s3r", 3), ("hyperelliptic_solv", 2)):
        ctx = _context(name)
        rep = k_engel_check(ctx)
        assert rep.passed
        cert = transverse_engel_check(ctx)
        assert cert.kind == "SYMBOLIC" and cert.note == "L_Z D stays in D", name
        assert all(m.is_zero() for m in minors_of_fields([ctx.forms.k_r,
                                                          VecField.basis(idx)])), name


def _k_check_coefficients(monkeypatch, ctx, targets=None):
    """The commutators ``k_engel_check`` expands, in WR, XR, TR order, as
    fraction fields over abdb^2, abdb^2 and abdb^3, and the fractions it
    forms.

    The stages before the check are derived first, so that every fraction
    recorded is the check's own.  With ``targets`` the commutators' three
    numerators are replaced by these fields, so that the expansion of any
    field in the frame can be read off.
    """
    ctx.sf  # derive c_WX, [W, R] and [JW, R] before recording
    rule, made = engelcheck.abdb_bracket, []
    if targets is not None:
        monkeypatch.setitem(ctx.__dict__, "wr", targets[0])
        monkeypatch.setitem(ctx.__dict__, "xr", targets[1])

        def rule(*args):
            return targets[2]

    def tr(*args):
        made.append(rule(*args))
        return made[-1]

    formed = []

    def recording(num, den=ONE):
        formed.append(Frac(num, den))
        return formed[-1]

    monkeypatch.setattr(engelcheck, "abdb_bracket", tr)
    monkeypatch.setattr(engelcheck, "Frac", recording)
    k_engel_check(ctx)
    wr, xr, abdb2 = ctx.wr, ctx.xr, ctx.abdb2
    monkeypatch.undo()
    return [FracField(wr, abdb2), FracField(xr, abdb2),
            FracField(made[0], abdb2 * ctx.forms.abdb)], formed


def _over_abdb_power(ctx, row, k):
    """The numerator over abdb^k of the field with coefficients ``row`` in
    the frame (W, X, T, R), where T = -K_T / abdb and R = K_R / abdb."""
    c_w, c_x, c_t, c_r = row
    forms = ctx.forms
    d = ctx.w.scale(c_w) + ctx.x.scale(c_x)
    reeb = forms.k_r.scale(c_r) - forms.k_t.scale(c_t)
    return d.scale(_power(forms.abdb, k)) + reeb.scale(_power(forms.abdb, k - 1))


def _assert_matches_cramer(got, target, ctx):
    want = cramer_coefficients(target, ctx)
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert a.num * b.den == b.num * a.den


def _assert_expansions_match_cramer(ctx, comms, formed):
    # four coefficients for each commutator that is not exactly zero, in
    # order, and nothing for a zero one
    nonzero = [comm for comm in comms if not comm.is_zero()]
    assert len(formed) == 4 * len(nonzero)
    for i, comm in enumerate(nonzero):
        _assert_matches_cramer(formed[4 * i:4 * i + 4], comm, ctx)


# seeded J-planes whose K-check fails with nonzero W or X rows over
# denominators that are not constant: seed 1 on [JW, R] alone, 54 on all
# three commutators
K_FAILING_J_PLANES = ("j_plane_1", "j_plane_54")


@pytest.mark.parametrize("name", (*CLOSED_FORM_CASES, *K_FAILING_J_PLANES))
def test_k_check_coframe_matches_cramer(monkeypatch, name):
    # the T and R rows are beta(C) and alpha(C) over den(C), the W and X rows
    # -d(beta)(C, JW) and d(beta)(C, W) over c_WX den(C); all four against
    # Cramer's rule, cross-multiplied; den(C) is abdb^2 for [W, R] and
    # [JW, R] and abdb^3 for [T, R]
    ctx = _closed_form_context(name)
    comms, formed = _k_check_coefficients(monkeypatch, ctx)
    _assert_expansions_match_cramer(ctx, comms, formed)
    nonzero = [comm for comm in comms if not comm.is_zero()]
    assert [f.den for f in formed[2::4]] == [comm.den for comm in nonzero]
    assert [f.den for f in formed[3::4]] == [comm.den for comm in nonzero]
    # c_WX den(C) only for a nonzero W or X row; a zero row is 0 over ONE
    c_wx = ctx.sf.c_WX
    for i, comm in enumerate(nonzero):
        w_row, x_row = formed[4 * i:4 * i + 2]
        want = ONE if w_row.is_zero() and x_row.is_zero() else c_wx * comm.den
        assert w_row.den == x_row.den == want
    if name in K_FAILING_J_PLANES:
        assert any(not f.is_zero() and f.den.constant_value() is None
                   for i in range(0, len(formed), 4) for f in formed[i:i + 2])


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_k_check_decides_each_commutator_exactly(monkeypatch, name):
    # a zero commutator keeps its SYMBOLIC certificate; a nonzero one fails
    # with no grid, through no certifier
    ctx = _closed_form_context(name)
    ctx.sf  # derive the stages before counting
    comms = {"WR": ctx.wr, "XR": ctx.xr,
             "TR": frac_bracket(*reeb_pair(ctx.forms), ctx.space)}
    grids = _count_calls(monkeypatch, "grid_points", framecalc)
    vanishing = _count_calls(monkeypatch, "certify_vanishing", engelcheck)
    rep = k_engel_check(ctx)
    assert grids == []
    assert len(vanishing) == sum(comm.is_zero() for comm in comms.values())
    for key, comm in comms.items():
        cert = rep.commutators[key]
        assert cert.kind == ("SYMBOLIC" if comm.is_zero() else "FAILED"), key
        assert not cert.grid and cert.bound is None
    assert rep.passed == all(comm.is_zero() for comm in comms.values())


@pytest.mark.parametrize("name", ["hopf_s3r", "inoue_s0", "kodaira_primary",
                                  "torus_trig"])
def test_k_check_coframe_expands_every_frame_field(monkeypatch, name):
    # the catalog's commutators have no T component, so expand fields with a
    # nonzero coefficient on each frame field, some of them not constant
    ctx = _context(name)
    basis = adapted_frame(ctx)
    # a coefficient of the frame itself keeps the sampled periods commensurate
    varying = [c for b in basis for c in b.raw.coeffs if c.constant_value() is None]
    wave = normalize(2) + (varying[0] if varying else normalize(3))
    rows = [[normalize(c) for c in row]
            for row in ((1, 2, 3, 4), (wave, -1, 1, 2), (-3, wave, 2, -wave))]
    # [W, R] and [JW, R] are over abdb^2, [T, R] over abdb^3
    targets = [_over_abdb_power(ctx, row, k) for row, k in zip(rows, (2, 2, 3))]
    comms, formed = _k_check_coefficients(monkeypatch, ctx, targets)
    _assert_expansions_match_cramer(ctx, comms, formed)
    for i, row in enumerate(rows):
        for a, c in zip(formed[4 * i:4 * i + 4], row):
            assert a.num == c * a.den


K_FAILING = ("elliptic_sl2r", "inoue_s0", "kodaira_primary", "kodaira_secondary")


@pytest.mark.parametrize("name", FAMILIES)
def test_k_check_expands_only_commutators_that_do_not_vanish(monkeypatch, name):
    # a K-passing family forms no fraction; a failing one forms four for each
    # nonzero commutator; neither takes a minor of its own, as the W and X
    # rows are d(beta) on (C, JW) and (C, W)
    ctx = _context(name)
    ctx.sf  # derive the stages before counting
    # the check's own minors; KForm.__call__ takes minors through framecalc
    calls = _count_calls(monkeypatch, "extend_minors", engelcheck)
    comms, formed = _k_check_coefficients(monkeypatch, ctx)
    assert calls == []
    nonzero = [comm for comm in comms if not comm.is_zero()]
    assert len(formed) == 4 * len(nonzero)
    assert bool(nonzero) == (name in K_FAILING)


def _count_calls(monkeypatch, name, *modules):
    """Count the calls of ``name`` made through any of the modules."""
    calls = []
    original = getattr(framecalc, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_dbeta_squared_is_read_off_the_tr_row(monkeypatch, name):
    # d(beta)^2(W, X, T, R) = 2 c_WX beta([T, R]) and det(W, X, T, R) =
    # c_WX / abdb, so the top coefficient of d(beta) ^ d(beta), taken afresh,
    # is 2 abdb beta([T, R]); the K-check forms no wedge
    ctx = _closed_form_context(name)
    forms = ctx.forms
    ctx.sf  # derive the stages before counting
    wedges = _count_calls(monkeypatch, "wedge", framecalc, engelcheck)
    rep = k_engel_check(ctx)
    assert wedges == []
    dbeta2 = wedge(forms.d_beta, forms.d_beta).component((0, 1, 2, 3))
    tr = frac_bracket(*reeb_pair(forms), ctx.space)
    two = TrigScalar.constant(2)
    assert dbeta2 * tr.den == two * forms.abdb * forms.beta(tr.raw)
    assert rep.dbeta_squared_zero == dbeta2.is_zero()


@pytest.mark.parametrize("name", ["inoue_s0", "kodaira_primary", "torus_trig"])
def test_k_check_takes_no_determinant_of_fields(monkeypatch, name):
    ctx = _context(name)
    ctx.forms, ctx.w  # derive the stages before counting
    calls = _count_calls(monkeypatch, "det_of_fields", framecalc, engelcheck)
    k_engel_check(ctx)
    assert calls == []


def test_each_j_engel_quantity_is_derived_once(monkeypatch):
    # every family under every suite: the forms take d(beta) and no other
    # d, reading d(alpha) off the flag; the K-check runs once per target
    from engelcalc import cli

    done, open_stages = [], []

    def stage(name):
        original = getattr(engelcheck, name)

        def wrapper(*args, **kwargs):
            # name, arguments, the probed calls made inside, result
            record = [name, args, [], None]
            open_stages.append(record)
            try:
                record[3] = original(*args, **kwargs)
            finally:
                done.append(open_stages.pop())
            return record[3]
        for module in (engelcheck, cli):
            monkeypatch.setattr(module, name, wrapper, raising=False)

    def probe(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if open_stages:
                open_stages[-1][2].append((name, args))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("defining_forms", "k_engel_check"):
        stage(name)
    probe(engelcheck, "exterior_derivative")
    for fam in FAMILIES:
        cli.run_verify(fam)

    def runs(name):
        return [(args, calls, result) for stage_name, args, calls, result in done
                if stage_name == name]

    def called(calls, name):
        return [args for call, args in calls if call == name]

    assert len(runs("defining_forms")) == len(FAMILIES)
    for _, calls, forms in runs("defining_forms"):
        assert [form for form, _ in called(calls, "exterior_derivative")] == [forms.beta]
    assert len(runs("k_engel_check")) == len(FAMILIES)


def test_the_reeb_pair_and_the_splitting_take_no_form_work(monkeypatch):
    # the Reeb pair is read off alpha ^ beta ^ d(beta), so the forms evaluate
    # a form on a field only to compose alpha with J; the splitting reads
    # every field off the Derivation: no d, wedge, bracket or certificate
    work = ("exterior_derivative", "wedge", "bracket", "certify_nonvanishing",
            "certify_no_common_zero", "certify_vanishing")
    calls = {name: _count_calls(monkeypatch, name, engelcheck) for name in work}
    pairings = []
    pair = KForm.__call__

    def recording(form, *fields):
        pairings.append((form, fields))
        return pair(form, *fields)

    monkeypatch.setattr(KForm, "__call__", recording)
    for fam in FAMILIES:
        ctx = _context(fam)
        ctx.flag, ctx.w, ctx.j_invariance  # derive the stages before counting
        pairings.clear()
        forms = ctx.forms
        assert [(form is forms.alpha, fields) for form, fields in pairings] == \
            [(True, (ctx.J.apply(VecField.basis(i)),)) for i in range(4)], fam
        for made in calls.values():
            made.clear()
        pairings.clear()
        split = j_engel_splitting(ctx)
        assert split[3] is forms.k_r, fam
        assert {name: len(made) for name, made in calls.items()} == \
            dict.fromkeys(work, 0), fam
        assert pairings == [], fam


def test_plane_field_minors_are_expanded_once(monkeypatch):
    # every family under every suite: the 2x2 minors of (D1, D2) are expanded
    # once per target, as the Derivation's d_minors, and the transverse check
    # takes no minor of two or more columns: it pairs alpha with each
    # [Z, D_i], one column at a time
    from engelcalc import cli

    calls, inside = [], []
    extend = framecalc.extend_minors

    def recording(fields, rows=None, minors=None):
        out = extend(fields, rows, minors)
        calls.append((list(fields), minors, out, bool(inside)))
        return out

    transverse = engelcheck.transverse_engel_check

    def in_transverse(*args, **kwargs):
        inside.append(True)
        try:
            return transverse(*args, **kwargs)
        finally:
            inside.pop()

    for module in (framecalc, engelcheck):
        monkeypatch.setattr(module, "extend_minors", recording)
    monkeypatch.setattr(cli, "transverse_engel_check", in_transverse)
    transverse_runs = 0
    for fam in FAMILIES:
        spec = family(fam)
        calls.clear()
        cli.run_verify(fam)
        plane = [out for fields, minors, out, _ in calls
                 if fields == [spec.d1, spec.d2] and minors is None]
        assert len(plane) == 1, fam
        in_check = [(fields, minors) for fields, minors, _, in_t in calls if in_t]
        if in_check:
            transverse_runs += 1
            assert len(in_check) == 2, fam
            assert all(len(fields) == 1 and minors is None
                       for fields, minors in in_check), fam
    assert transverse_runs


def _transverse_cases():
    """The Derivations the transverse oracle runs on: the ten families,
    ``sampled_clear_1coord`` and the seeded J-planes 0-59 whose flag passes
    (JD = D holds on each by construction)."""
    yield from ((fam, _context(fam)) for fam in FAMILIES)
    yield "sampled_clear_1coord", _clear_context()
    for seed in range(60):
        ctx = _random_j_plane(seed)
        if ctx.flag.passed:
            yield f"j_plane_{seed}", ctx


def test_transverse_claim_agrees_with_the_minors_of_d_and_z_d():
    # [Z, D_i] lies in D exactly when alpha([Z, D_i]) = 0, as
    # beta([Z, D_i]) vanishes identically; against the maximal minors of
    # (D1, D2, [Z, D_i]), taken afresh, on passing and failing claims alike
    failing = 0
    for case, ctx in _transverse_cases():
        assert ctx.j_invariance.passed, case
        z, forms, space = ctx.forms.k_r, ctx.forms, ctx.space
        for gen in (ctx.d1, ctx.d2):
            assert forms.beta(bracket(z, gen, space)).is_zero(), case
        minors = transverse_minors(ctx)
        cert = transverse_engel_check(ctx)
        holds = all(m.is_zero() for m in minors)
        assert cert.passed == holds, case
        assert cert.kind == ("SYMBOLIC" if holds else "FAILED"), case
        failing += not holds
    assert failing >= 20


@pytest.mark.parametrize("name", ["hopf_s3r", "hyperelliptic_solv"])
def test_forms_carry_their_top_terms(monkeypatch, name):
    ctx = _context(name)
    forms = ctx.forms
    ctx.sf, ctx.nijenhuis  # derive the stages before counting
    assert forms.abdb == wedge(wedge(forms.alpha, forms.beta),
                               forms.d_beta).component((0, 1, 2, 3))
    calls = _count_calls(monkeypatch, "wedge", framecalc, engelcheck)
    transverse_engel_check(ctx)
    jofreeb_residual(ctx)
    k_engel_check(ctx)
    assert calls == []


def test_beta_annihilates_distribution_on_all_families():
    from engelcalc.catalog import FAMILIES

    for name in FAMILIES:
        spec = family(name)
        forms = defining_forms(Derivation(spec.d1, spec.d2, spec.J, spec.space))
        for v in (spec.d1, spec.d2):
            assert forms.beta(v).is_zero(), name
            assert forms.alpha(v).is_zero(), name


def test_totally_real_oscillating_variant_passes():
    # D = <V, JV + (1/n) cos(n^2 t) X + (1/n) sin(n^2 t) JX> with n = 3
    from engelcalc.geiges import build_An, flat_torus_input

    inp = flat_torus_input()
    d1, d2 = build_An(inp, 3, "totally_real")
    ctx = Derivation(d1, d2, inp.J, inp.space)
    cert = totally_real_check(ctx)
    assert cert.passed
    assert not j_invariance_check(ctx).passed


@lru_cache(maxsize=None)
def _catalog_abdb(name):
    return _context(name).forms.abdb


@st.composite
def bracket_rule_cases(draw):
    """(u, j, v, k, a, space): exponents j, k in {0, 1, 2}, a a catalog
    family's abdb over its space or a random scalar over the torus, and u, v
    random fields over the same coordinates."""
    j, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        space, a = TORUS, draw(torus_scalars())
        coords = PLANE_COORDS
    else:
        name = draw(st.sampled_from(FAMILIES))
        space, a = family(name).space, _catalog_abdb(name)
        coords = space.coords
    u, v = (VecField.of(*draw(st.lists(torus_scalars(coords), min_size=4,
                                       max_size=4)))
            for _ in range(2))
    return u, j, v, k, a, space


@settings(max_examples=60, deadline=None)
@given(bracket_rule_cases())
def test_the_bracket_rule_is_the_quotient_rule(case):
    # the rule's numerator of [u / a^j, v / a^k] over a^(j+k+1) against the
    # quotient rule's over a^(2(j+k)), cross-multiplied; over a = 1 with
    # j = k = 0 it is the plain bracket
    u, j, v, k, a, space = case
    num = abdb_bracket(u, j, v, k, a, space)
    ref = frac_bracket(FracField(u, _power(a, j)), FracField(v, _power(a, k)), space)
    assert ref.den == _power(a, 2 * (j + k))
    _assert_is_quotient(num, j, k, ref, a)
    assert abdb_bracket(u, 0, v, 0, ONE, space) == bracket(u, v, space)
