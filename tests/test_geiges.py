from dataclasses import replace
from pathlib import Path

import pytest

from engelcalc import engelcheck
from engelcalc.engelcheck import (
    Derivation,
    PreconditionError,
    j_invariance_check,
    totally_real_check,
    verify_engel,
)
from engelcalc.framecalc import ComplexStructure, FramedSpace, VecField, bracket
from engelcalc.geiges import (
    MappingTorusInput,
    _l1_bound,
    build_An,
    flat_torus_input,
    leading_order_residual,
    level_derivation,
    minimal_n_search,
    residual_decay_fit,
    twisted_torus_input,
)
from engelcalc.manifest import load_manifest
from engelcalc.trigring import parse

FIXTURES = Path(__file__).parent / "fixtures"


def test_flat_input_validates():
    inp = flat_torus_input()
    assert inp.a.is_zero()
    assert inp.framing_certificate.kind == "SYMBOLIC"


def test_build_An_direct_substitution():
    inp = flat_torus_input()
    a1, ja1 = build_An(inp, 1)
    assert a1 == VecField.of(1, 0, parse("sin(t)"), parse("-cos(t)"))
    # J A_n = JV + (1/n) cos(n^2 t) X + (1/n) sin(n^2 t) JX
    assert ja1 == VecField.of(0, 1, parse("cos(t)"), parse("sin(t)"))
    a3, ja3 = build_An(inp, 3)
    assert a3 == VecField.of(1, 0, parse("1/3*sin(9*t)"), parse("-1/3*cos(9*t)"))
    assert ja3 == VecField.of(0, 1, parse("1/3*cos(9*t)"), parse("1/3*sin(9*t)"))


def test_build_An_rejects_bad_level():
    with pytest.raises(ValueError):
        build_An(flat_torus_input(), 0)


def test_totally_real_variant_shape():
    inp = flat_torus_input()
    d1, d2 = build_An(inp, 2, "totally_real")
    assert d1 == inp.V
    assert d2 == VecField.of(0, 1, parse("1/2*cos(4*t)"), parse("1/2*sin(4*t)"))


def test_flat_residuals_exactly_zero():
    # with a = 0 and all brackets vanishing the leading terms are exact
    inp = flat_torus_input()
    for n in (1, 2, 5):
        rep = leading_order_residual(inp, n)
        assert rep.first_exact_zero and rep.second_exact_zero
        assert rep.sup_first == 0.0 and rep.sup_second == 0.0


def test_twisted_first_residual_is_tilt_over_n():
    # hand values: residual_1 = (1/n) cos(t) JX and residual_2 =
    # -(1/n^3) sin(t) JX, single waves, so their l1 bounds are the sup norms
    inp = twisted_torus_input()
    for n in (1, 2, 3, 4, 8):
        rep = leading_order_residual(inp, n)
        assert rep.sup_first == pytest.approx(1.0 / n, rel=1e-12)
        assert rep.sup_second == pytest.approx(1.0 / n**3, rel=1e-12)


def test_decay_slope_window():
    fit = residual_decay_fit(twisted_torus_input(), (2, 4, 8, 16, 32))
    assert -1.3 <= fit["slope_first"] <= -0.7
    assert fit["slope_second"] <= -0.7  # decays at least as fast as claimed


def test_decay_fit_slopes_are_exact():
    fit = residual_decay_fit(twisted_torus_input(), (2, 4, 8, 16, 32))
    assert fit["slope_first"] == pytest.approx(-1.0, rel=1e-12)
    assert fit["slope_second"] == pytest.approx(-3.0, rel=1e-12)


def test_level_derivation_scales_the_grid():
    inp = replace(twisted_torus_input(), grid=5, tol=0.5)
    ctx = level_derivation(inp, 3, "totally_real")
    assert (ctx.d1, ctx.d2) == build_An(inp, 3, "totally_real")
    assert (ctx.J, ctx.space, ctx.grid, ctx.tol) == (inp.J, inp.space, 15, 0.5)


def test_minimal_n_search_flat_and_twisted():
    for make in (flat_torus_input, twisted_torus_input):
        res = minimal_n_search(make(), 16)
        assert res.n_star == 1
        assert res.flag is not None and res.flag.passed
        assert "j_invariant" not in res.trace[0]


def test_minimal_n_search_deterministic_trace():
    r1 = minimal_n_search(twisted_torus_input(), 4)
    r2 = minimal_n_search(twisted_torus_input(), 4)
    assert r1.trace == r2.trace and r1.n_star == r2.n_star


def test_minimal_n_search_rejects_bad_nmax():
    with pytest.raises(ValueError):
        minimal_n_search(flat_torus_input(), 0)


def test_monotone_tail_after_first_pass():
    inp = twisted_torus_input()
    res = minimal_n_search(inp, 8)
    n0 = res.n_star
    for n in range(n0, n0 + 5):
        a_n, ja_n = build_An(inp, n)
        assert verify_engel(Derivation(a_n, ja_n, inp.J, inp.space, 17 * n)).passed, n


def _manifest_input():
    # the mapping-torus data every sampled benchmark manifest carries
    mf = load_manifest((FIXTURES / "sampled_clear_1coord.json").read_text())
    mt = mf.mapping_torus
    return MappingTorusInput(space=mf.space, V=mt["V"], X=mt["X"], J=mf.J,
                             t=mt["coordinate"])


INPUTS = {"flat": flat_torus_input, "twisted": twisted_torus_input,
          "manifest": _manifest_input}


def test_span_is_j_invariant_for_every_level():
    # D2 = J D1 on each level, so the minors of (D1, D2, J D1) have a
    # repeated column: minimal_n_search does not certify JD = D
    for name, make in INPUTS.items():
        inp = make()
        for n in (1, 2, 3, 4, 7):
            cert = j_invariance_check(level_derivation(inp, n))
            assert cert.kind == "SYMBOLIC" and cert.passed, (name, n)


def test_minimal_n_search_certifies_no_j_invariance(monkeypatch):
    def forbidden(ctx):
        raise AssertionError("minimal_n_search certified JD = D")

    monkeypatch.setattr(engelcheck, "j_invariance_check", forbidden)
    for make in INPUTS.values():
        res = minimal_n_search(make(), 4)
        assert res.n_star == 1 and res.flag.passed


def test_totally_real_variant_certificates():
    inp = flat_torus_input()
    for n in (1, 2, 3, 5, 8):
        d1, d2 = build_An(inp, n, "totally_real")
        ctx = Derivation(d1, d2, inp.J, inp.space)
        assert totally_real_check(ctx).passed, n
        assert not j_invariance_check(ctx).passed, n


def test_input_rejects_wrong_projection_speed():
    space = FramedSpace(frame=("V", "JV", "X", "JX"), coords=("t",),
                        derivation={(0, "t"): 2}, name="bad")
    with pytest.raises(PreconditionError, match="V\\(t\\) = 1"):
        MappingTorusInput(space=space, V=VecField.basis(0), X=VecField.basis(2),
                          J=ComplexStructure.pairing(0, 1, 2, 3), t="t")


def test_input_rejects_degenerate_framing():
    space = FramedSpace(frame=("V", "JV", "X", "JX"), coords=("t",),
                        derivation={(0, "t"): 1})
    with pytest.raises(PreconditionError, match="frame"):
        MappingTorusInput(space=space, V=VecField.basis(0), X=VecField.basis(0),
                          J=ComplexStructure.pairing(0, 1, 2, 3), t="t")


def test_input_derives_a_and_the_framing_certificate_itself():
    inp = twisted_torus_input()
    for derived in ({"a": parse("5")},
                    {"framing_certificate": inp.framing_certificate}):
        with pytest.raises(TypeError):
            MappingTorusInput(space=inp.space, V=inp.V, X=inp.X, J=inp.J, t="t",
                              **derived)


def test_replace_rederives_a_and_the_framing_certificate():
    inp = replace(twisted_torus_input(), grid=5)
    assert inp.grid == 5 and inp.a.is_zero()
    assert inp.framing_certificate.kind == "SYMBOLIC"
    # with J pairing E1 with E3, JV = E3 - sin(t) E1 moves t and the framing
    # determinant 1 + sin(t)^2 is sampled on the new grid
    other = replace(inp, J=ComplexStructure.pairing(0, 2, 1, 3),
                    X=VecField.basis(1))
    assert other.a == parse("-sin(t)")
    assert other.framing_certificate.kind == "SAMPLED"
    assert other.framing_certificate.grid == {"t": 5}


def test_twisted_bracket_hand_expansion():
    # [A_n, JA_n] = -n sin(n^2 t) X + (cos t + n cos(n^2 t)) JX on the
    # twisted input; frozen from the Leibniz expansion
    inp = twisted_torus_input()
    n = 3
    a_n, ja_n = build_An(inp, n)
    b = bracket(a_n, ja_n, inp.space)
    assert b == VecField.of(0, 0, parse("-3*sin(9*t)"),
                            parse("cos(t) + 3*cos(9*t)"))


def test_l1_bound_does_not_depend_on_term_order():
    # equal residuals whose terms were added in opposite orders get one bound
    waves = [parse("1/10*cos(x)"), parse("1/5*cos(2*x)"), parse("3/10*cos(3*x)")]
    a = waves[0] + waves[1] + waves[2]
    b = waves[2] + waves[1] + waves[0]
    assert a == b
    assert _l1_bound(VecField.of(a, 0, 0, 0)) == _l1_bound(VecField.of(b, 0, 0, 0)) == 0.6
