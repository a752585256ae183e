import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from engelcalc.catalog import (
    FAMILIES,
    build_family,
    check_quoted_brackets,
    hyperelliptic_equivariance_check,
    torus_lattice_gate,
)
from engelcalc.engelcheck import (
    Derivation,
    j_invariance_check,
    nijenhuis_certificate,
    verify_engel,
)
from engelcalc.framecalc import VecField, bracket, det_of_fields
from engelcalc.trigring import parse

from oracles import numeric_bracket, random_points


def constant_table_bracket_oracle(space, v, w):
    """Brute-force bracket for constant fields over a constant table."""
    out = np.zeros(4)
    vv = np.array([c.evaluate({}) for c in v.coeffs])
    ww = np.array([c.evaluate({}) for c in w.coeffs])
    for i in range(4):
        for j in range(4):
            comp = space.structure_bracket(i, j)
            if comp.is_zero():
                continue
            for k in range(4):
                ck = comp.coeffs[k]
                if not ck.is_zero():
                    out[k] += vv[i] * ww[j] * ck.evaluate({})
    return out


def test_family_list_is_complete():
    assert len(FAMILIES) == 10
    assert len(set(FAMILIES)) == 10


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        build_family("nope")


def test_equal_exact_parameters_share_one_spec():
    spec = build_family("hyperelliptic_product")
    assert build_family("hyperelliptic_product", {"k": "2"}) is spec
    assert build_family("hyperelliptic_product", {"k": "4/2"}) is spec
    assert build_family("inoue_s0", {"a": "1", "b": "2/2"}) is build_family("inoue_s0")


def test_distinct_exact_parameters_give_distinct_specs():
    specs = [build_family("hyperelliptic_product", {"k": k}) for k in ("2", "3", "4", "6")]
    assert len({id(s) for s in specs}) == 4
    assert [s.parameters["k"] for s in specs] == [2, 3, 4, 6]
    a, b = build_family("inoue_spm", {"q": "1/2"}), build_family("inoue_spm", {"q": "1/3"})
    assert a is not b and a.J.matrix != b.J.matrix


def test_a_rejected_parameter_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="k in"):
            build_family("hyperelliptic_product", {"k": "5"})
    assert build_family("hyperelliptic_product", {"k": "3"}).parameters["k"] == 3


def test_shared_spec_parameters_are_read_only():
    spec = build_family("torus_trig", {"alpha3": "2/3"})
    assert isinstance(spec.parameters, MappingProxyType)
    with pytest.raises(TypeError):
        spec.parameters["Q"] = Fraction(1)
    assert build_family("torus_trig", {"alpha3": "2/3"}).parameters["Q"] == 3


def test_shared_space_tables_are_read_only():
    # every target of a family reads one space, so no caller may write
    # into its tables
    space = build_family("hopf_s3r").space
    with pytest.raises(TypeError):
        space.derivation[0]["zz"] = 1
    with pytest.raises(TypeError):
        space.structure[(0, 3)] = space.structure[(0, 1)]
    again = build_family("hopf_s3r").space
    assert "zz" not in again.derivation[0] and (0, 3) not in again.structure


def test_inoue_s0_structure_table_quoted():
    spec = build_family("inoue_s0")
    assert spec.space.structure_bracket(0, 3) == VecField.of(-1, 1, 0, 0)
    assert spec.space.structure_bracket(1, 3) == VecField.of(-1, -1, 0, 0)
    assert spec.space.structure_bracket(2, 3) == VecField.of(0, 0, 2, 0)


def test_hopf_structure_table_quoted():
    spec = build_family("hopf_s3r")
    assert spec.space.structure_bracket(0, 1) == VecField.of(0, 0, 1, 0)
    assert spec.space.structure_bracket(1, 2) == VecField.of(1, 0, 0, 0)
    assert spec.space.structure_bracket(2, 0) == VecField.of(0, 1, 0, 0)


def test_elliptic_sl2r_table_and_generator():
    spec = build_family("elliptic_sl2r")
    assert spec.space.structure_bracket(2, 0) == VecField.of(0, -1, 0, 0)
    assert spec.d1 == VecField.of(1, 1, 1, 0)


def test_torus_trig_generator_quoted():
    spec = build_family("torus_trig", {"alpha1": "1/2", "alpha2": "1/3",
                                       "alpha3": "1/5"})
    assert spec.parameters["Q"] == 30
    assert spec.d1 == VecField.of(1, 0, parse("sin(60*pi*x1)"),
                                  parse("-cos(60*pi*x1)"))


def test_inoue_s0_rejects_zero_parameters():
    with pytest.raises(ValueError):
        build_family("inoue_s0", {"a": 0})


def test_all_families_pass_core_checks():
    for name in FAMILIES:
        spec = build_family(name)
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        flag = verify_engel(ctx)
        assert flag.passed, name
        assert j_invariance_check(ctx).passed, name
        nij = nijenhuis_certificate(ctx)
        assert nij.passed == spec.j_integrable, name


def test_quoted_bracket_statuses():
    expected_deviations = {
        ("kodaira_primary", "[A,JA]"),
        ("hopf_s3r", "[A,[A,JA]]"),
        ("elliptic_sl2r", "[A,[A,JA]]"),
    }
    seen = set()
    for name in FAMILIES:
        spec = build_family(name)
        # the quoted [A, JA] is the flag's E3, as A = D1 and JA = D2
        flag = Derivation(spec.d1, spec.d2, spec.J, spec.space).flag
        assert flag.e3 == bracket(spec.d1, spec.d2, spec.space), name
        records = check_quoted_brackets(spec, flag.e3)
        for rec in records:
            if rec.status == "DEVIATION":
                seen.add((name, rec.name))
                # the spanning conclusion survives as engel.rank_tm: the
                # computed fields' determinant is the flag's pairing u_i
                det = det_of_fields([spec.d1, spec.d2] +
                                    [r.computed for r in records])
                i = ("A", "JA").index(spec.expected_brackets[1].first)
                assert det == flag.pairings[i], name
                assert flag.certificates["rank_tm"].passed, name
            else:
                assert rec.status == "PASS", (name, rec.name)
    assert seen == expected_deviations


def test_deviations_verified_by_independent_oracle():
    # the computed values, not the quoted ones, must match a brute-force
    # numeric bracket over the structure constants
    hopf = build_family("hopf_s3r")
    b = bracket(hopf.d1, hopf.d2, hopf.space)
    c = bracket(hopf.d1, b, hopf.space)
    assert np.allclose(constant_table_bracket_oracle(hopf.space, hopf.d1, b),
                       [v.evaluate({}) for v in c.coeffs])
    assert [v.evaluate({}) for v in c.coeffs] == [0, -2, 0, 0]

    sl2 = build_family("elliptic_sl2r")
    b = bracket(sl2.d1, sl2.d2, sl2.space)
    c = bracket(sl2.d1, b, sl2.space)
    assert np.allclose(constant_table_bracket_oracle(sl2.space, sl2.d1, b),
                       [v.evaluate({}) for v in c.coeffs])
    assert [v.evaluate({}) for v in c.coeffs] == [1, 3, 2, 0]

    kod = build_family("kodaira_primary")
    b = bracket(kod.d1, kod.d2, kod.space)
    rng = random.Random(31)
    for p in random_points(kod.space, rng, 30):
        assert np.allclose(numeric_bracket(kod.space, kod.d1, kod.d2, p),
                           [v.evaluate(p) for v in b.coeffs], atol=1e-8)
    assert b.coeffs[2] == parse("-1")  # the deviating third component


def test_inoue_spm_second_bracket_quoted():
    for q in ("0", "1", "-2", "3/2"):
        spec = build_family("inoue_spm", {"q": q})
        b = bracket(spec.d1, spec.d2, spec.space)
        assert b == VecField.of(0, 1, 1, 0), q
        assert bracket(spec.d2, b, spec.space) == VecField.of(-2, 0, 0, 0), q


def test_equivariance_symbolic_for_classified_orders():
    for k in (2, 3, 4, 6):
        spec = build_family("hyperelliptic_product", {"k": k})
        assert spec.parameters["n_k"] == 2 * k + 2
        cert = hyperelliptic_equivariance_check(spec)
        assert cert.kind == "SYMBOLIC", k


def test_equivariance_angle_oracle():
    # independent check at the angle level: n_k*pi/k differs from 2*pi/k by 2*pi
    for k in (2, 3, 4, 6):
        n_k = 2 * k + 2
        assert Fraction(n_k, k) - Fraction(2, k) == 2


def test_equivariance_rejects_other_orders():
    for k in (1, 5, 7):
        with pytest.raises(ValueError):
            build_family("hyperelliptic_product", {"k": k})


def test_equivariance_only_for_product_family():
    with pytest.raises(ValueError):
        hyperelliptic_equivariance_check(build_family("hopf_s3r"))


def test_lattice_gate_examples():
    assert torus_lattice_gate([Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 5)]) == 30
    assert torus_lattice_gate([1, 1, 1]) == 1
    assert torus_lattice_gate(["3/4", "1/4", "1/2"]) == 32


def test_lattice_gate_rejects_floats():
    with pytest.raises(ValueError):
        torus_lattice_gate([0.5, 1, 1])


def test_integrability_over_parameter_samples():
    for q in ("-2", "0", "1", "3/2"):
        spec = build_family("inoue_spm", {"q": q})
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        assert nijenhuis_certificate(ctx).kind == "SYMBOLIC", q
    for a, b in itertools.product(("1", "-2", "3/2"), repeat=2):
        spec = build_family("inoue_s0", {"a": a, "b": b})
        ctx = Derivation(spec.d1, spec.d2, spec.J, spec.space)
        assert nijenhuis_certificate(ctx).kind == "SYMBOLIC", (a, b)


def test_elliptic_sl2r_nonintegrability_witness():
    # N(X1, X3) = -2 X2 under the quoted pairing; checked against the
    # brute-force tensor definition at the frame level
    spec = build_family("elliptic_sl2r")
    from engelcalc.framecalc import nijenhuis

    n = nijenhuis(spec.J, VecField.basis(0), VecField.basis(2), spec.space)
    assert n == VecField.of(0, -2, 0, 0)


def test_bryant_plane_is_kernel_of_the_form():
    # construction validates omega(A) = 0 for both real and imaginary parts;
    # re-check the kernel property numerically at random points
    spec = build_family("torus_bryant")
    rng = random.Random(17)
    for p in random_points(spec.space, rng, 50):
        x1 = p["x1"]
        re = np.array([0, 1, np.cos(2 * x1), -np.sin(2 * x1)])
        im = np.array([-1, 0, np.sin(2 * x1), np.cos(2 * x1)])
        for v in (spec.d1, spec.d2):
            vv = np.array(v.evaluate(p))
            assert abs(re @ vv) < 1e-12 and abs(im @ vv) < 1e-12
