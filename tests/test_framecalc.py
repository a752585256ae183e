import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engelcalc import framecalc
from engelcalc.framecalc import (
    ComplexStructure,
    FramedSpace,
    KForm,
    VecField,
    bracket,
    certify_no_common_zero,
    certify_nonvanishing,
    det_of_fields,
    exterior_derivative,
    extend_minors,
    grid_points,
    nijenhuis,
    wedge,
)
from engelcalc.catalog import FAMILIES, build_family
from engelcalc.laws import _law_space, _random_field
from engelcalc.manifest import space_from_json, space_to_json
from engelcalc.trigring import ONE, ZERO, Frequency, TrigScalar, parse

from oracles import (
    brute_force_certificate,
    cofactor_minor,
    frame_by_frame_derivative,
    interior,
    minors_of_fields,
    numeric_bracket,
    numeric_matrix,
    random_points,
)

J_STD = ComplexStructure.pairing(0, 1, 2, 3)


def hopf_space():
    return FramedSpace(frame=("X1", "X2", "X3", "X4"),
                       structure={(0, 1): (0, 0, 1, 0), (1, 2): (1, 0, 0, 0),
                                  (0, 2): (0, -1, 0, 0)})


def kodaira_space():
    return FramedSpace(frame=("X1", "X2", "X3", "X4"), coords=("t",),
                       structure={(0, 1): (0, 0, -1, 0)},
                       derivation={(3, "t"): 1})


# -- brackets -------------------------------------------------------------------


def test_inoue_s0_bracket_quoted_value():
    # [A, JA] = b X1 + a X2 + 2a X3 for the rotation-scaling solvable table
    a, b = 1, 1
    space = FramedSpace(frame=("X1", "X2", "X3", "X4"),
                        structure={(0, 3): (-a, b, 0, 0), (1, 3): (-b, -a, 0, 0),
                                   (2, 3): (0, 0, 2 * a, 0)})
    A = VecField.of(1, 0, 0, 1)
    assert bracket(A, J_STD.apply(A), space) == VecField.of(b, a, 2 * a, 0)


def test_hyperelliptic_solv_brackets_quoted_values():
    space = FramedSpace(frame=("X1", "X2", "X3", "X4"),
                        structure={(0, 3): (0, 1, 0, 0), (1, 3): (-1, 0, 0, 0)})
    A = VecField.of(1, 0, 0, 1)
    B = bracket(A, J_STD.apply(A), space)
    assert B == VecField.of(1, 0, 0, 0)
    assert bracket(A, B, space) == VecField.of(0, -1, 0, 0)


def test_bracket_antisymmetry_on_random_fields():
    space = hopf_space()
    rng = random.Random(3)
    for _ in range(20):
        v = VecField.of(*(rng.randint(-3, 3) for _ in range(4)))
        assert bracket(v, v, space).is_zero()


def test_kodaira_primary_bracket_sign():
    # the Leibniz expansion yields -X3; the quoted value carries +X3
    space = kodaira_space()
    A = VecField.of(parse("sin(t)"), parse("-cos(t)"), 0, 1)
    B = bracket(A, J_STD.apply(A), space)
    assert B == VecField.of(parse("-sin(t)"), parse("cos(t)"), -1, 0)
    # second bracket agrees with the quoted value
    assert bracket(A, B, space) == VecField.of(parse("-cos(t)"), parse("-sin(t)"),
                                               0, 0)


def test_bracket_matches_numeric_assembly_oracle():
    # evaluate(bracket) against a finite-difference reconstruction
    space = kodaira_space()
    A = VecField.of(parse("sin(t)"), parse("-cos(t)"), 0, 1)
    JA = J_STD.apply(A)
    B = bracket(A, JA, space)
    rng = random.Random(7)
    for p in random_points(space, rng, 25):
        ref = numeric_bracket(space, A, JA, p)
        got = np.array(B.evaluate(p))
        assert np.max(np.abs(got - ref)) < 1e-9


def test_bracket_leibniz_rule():
    space = kodaira_space()
    rng = random.Random(5)
    v = VecField.of(1, parse("cos(t)"), 0, 1)
    w = VecField.of(0, 1, parse("sin(t)"), 0)
    s = parse("2 - sin(t)")
    lhs = bracket(v, w.scale(s), space)
    rhs = w.scale(space.apply(v, s)) + bracket(v, w, space).scale(s)
    assert (lhs - rhs).is_zero()


# -- J --------------------------------------------------------------------------


def test_apply_J_examples():
    assert J_STD.apply(VecField.of(1, 0, 1, 0)) == VecField.of(0, 1, 0, 1)
    v = VecField.of(2, -1, 3, 5)
    assert J_STD.apply(J_STD.apply(v)) == -v


def test_apply_J_inoue_spm_q1():
    J = ComplexStructure([[0, -1, 0, -1], [1, 0, -1, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]])  # q = 1
    assert J.apply(VecField.basis(2)) == VecField.of(0, -1, 0, 1)  # X4 - q X2


def test_complex_structure_rejects_non_square_root():
    with pytest.raises(ValueError):
        ComplexStructure([[0, 1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]])


def test_nijenhuis_abelian_constant_J():
    space = FramedSpace()
    assert nijenhuis(J_STD, VecField.basis(0), VecField.basis(2), space).is_zero()


def test_nijenhuis_hopf_all_pairs():
    space = hopf_space()
    for i, j in itertools.combinations(range(4), 2):
        n = nijenhuis(J_STD, VecField.basis(i), VecField.basis(j), space)
        assert n.is_zero(), (i, j)


def test_nijenhuis_inoue_spm_parameter_sample():
    from engelcalc.trigring import rat
    for q in ("0", "1", "-2", "3/2"):
        qq = rat(q)
        space = FramedSpace(frame=("X1", "X2", "X3", "X4"),
                            structure={(1, 2): (-1, 0, 0, 0),
                                       (1, 3): (0, -1, 0, 0),
                                       (2, 3): (0, 0, 1, 0)})
        J = ComplexStructure([[0, -1, 0, -qq], [1, 0, -qq, 0],
                              [0, 0, 0, -1], [0, 0, 1, 0]])
        for i, j in itertools.combinations(range(4), 2):
            assert nijenhuis(J, VecField.basis(i), VecField.basis(j),
                             space).is_zero(), (q, i, j)


# -- exterior calculus ------------------------------------------------------------


def test_exterior_derivative_of_constant():
    space = hopf_space()
    assert exterior_derivative(KForm.scalar(7), space).is_zero()


def test_exterior_derivative_left_invariant_oracle():
    # for constant forms on a constant table: d a(u, v) = -a([u, v])
    space = hopf_space()
    alpha = KForm.one_form([0, -1, 0, 1])
    da = exterior_derivative(alpha, space)
    basis = [VecField.basis(i) for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        expected = -alpha(bracket(basis[i], basis[j], space))
        assert da.component((i, j)) == expected, (i, j)


def test_exterior_derivative_coordinate_frame():
    space = FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x1",),
                        derivation={(0, "x1"): 1})
    dx1 = KForm.coframe(0)
    assert exterior_derivative(dx1, space).is_zero()


def test_d_squared_zero_on_catalog_style_spaces():
    for space in (hopf_space(), kodaira_space()):
        f = KForm.scalar(parse("3") if not space.coords else parse("sin(t)"))
        df = exterior_derivative(f, space)
        assert exterior_derivative(df, space).is_zero()
        om = KForm.one_form([1, parse("2"), 0, 1] if not space.coords
                            else [parse("cos(t)"), 1, parse("sin(t)"), 0])
        ddo = exterior_derivative(exterior_derivative(om, space), space)
        assert ddo.is_zero()


def test_exterior_derivative_degree_limit():
    space = hopf_space()
    three = KForm.of(3, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        exterior_derivative(three, space)


# the law-suite space, and a catalog space whose derivation table is not the
# coordinate frame (X4 = d/dt) next to a nonzero structure constant
CARTAN_SPACES = {"law_suite": _law_space(),
                 "kodaira_primary": build_family("kodaira_primary").space}
_CARTAN_FREQS = (Frequency.of(1), Frequency.of(2), Frequency.of(0, 1),
                 Frequency.of(0, "1/2"))


@st.composite
def quarter_turn_scalars(draw, coords):
    """Random waves over ``coords`` whose phases are multiples of pi/2."""
    out = TrigScalar.constant(Fraction(draw(st.integers(-3, 3))))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from((TrigScalar.sine, TrigScalar.cosine)))
        phase = Frequency.of(0, Fraction(draw(st.integers(0, 3)), 2))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        out = out + kind({draw(st.sampled_from(coords)): draw(st.sampled_from(_CARTAN_FREQS))},
                         phase, coeff=coeff)
    return out


@st.composite
def cartan_cases(draw):
    name = draw(st.sampled_from(sorted(CARTAN_SPACES)))
    coords = CARTAN_SPACES[name].coords
    rows = [[draw(quarter_turn_scalars(coords)) for _ in range(4)] for _ in range(3)]
    return name, KForm.one_form(rows[0]), VecField.of(*rows[1]), VecField.of(*rows[2])


@settings(max_examples=120, deadline=None)
@given(cartan_cases())
def test_cartan_formula_is_exact(case):
    # d(alpha)(X, Y) = X alpha(Y) - Y alpha(X) - alpha([X, Y]) as ring
    # elements; the flag reads its top pairings off this identity.  Equal
    # scalars print their terms in the same order; the order in which a
    # route inserts them is not part of the identity
    name, alpha, x, y = case
    space = CARTAN_SPACES[name]
    lhs = exterior_derivative(alpha, space)(x, y)
    rhs = (space.apply(x, alpha(y)) - space.apply(y, alpha(x))
           - alpha(bracket(x, y, space)))
    assert lhs == rhs
    assert str(lhs) == str(rhs)


LAW_COORDS = _law_space().coords
THREE_FORM_KEYS = list(itertools.combinations(range(4), 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(quarter_turn_scalars(LAW_COORDS), min_size=8, max_size=8))
def test_a_one_form_on_a_kernel_field_is_its_wedge_with_the_three_form(rows):
    # kernel_field's contract: i_K vol = omega, so theta(K) vol = theta ^ omega
    # for every 1-form theta (contract the zero 5-form theta ^ vol with K);
    # the Reeb pair is normalised by this identity
    theta = KForm.one_form(rows[:4])
    omega = KForm.of(3, dict(zip(THREE_FORM_KEYS, rows[4:])))
    assert theta(omega.kernel_field()) == wedge(theta, omega).component((0, 1, 2, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(quarter_turn_scalars(LAW_COORDS), min_size=5, max_size=5))
def test_rescaling_beta_rescales_beta_dbeta_by_the_square(rows):
    # (lam beta) ^ d(lam beta) = lam^2 beta ^ d(beta), as beta ^ beta = 0:
    # the Reeb direction, and so the splitting, does not depend on alpha
    space = _law_space()
    beta, lam = KForm.one_form(rows[:4]), rows[4]
    scaled = beta.scale(lam)
    lhs = wedge(scaled, exterior_derivative(scaled, space))
    rhs = wedge(beta, exterior_derivative(beta, space))
    for idx in THREE_FORM_KEYS:
        assert lhs.component(idx) == lam * lam * rhs.component(idx)


# the law-suite space, and an abelian space in which two frame fields
# differentiate one coordinate: E1(x) = E2(x) = 1, E2(y) = 1
DIRECTIONAL_SPACES = {
    "law_suite": _law_space(),
    "shared_coordinate": FramedSpace(coords=("x", "y"), derivation={
        (0, "x"): 1, (1, "x"): 1, (1, "y"): 1}),
}


@st.composite
def directional_cases(draw):
    name = draw(st.sampled_from(sorted(DIRECTIONAL_SPACES)))
    coords = DIRECTIONAL_SPACES[name].coords
    v = VecField.of(*(draw(quarter_turn_scalars(coords)) for _ in range(4)))
    return name, v, draw(quarter_turn_scalars(coords))


@settings(max_examples=120, deadline=None)
@given(directional_cases())
def test_apply_matches_the_frame_by_frame_formula(case):
    # v(s) = sum_c v(c) ds/dc equals sum_i v_i E_i(s), as ring elements
    name, v, s = case
    space = DIRECTIONAL_SPACES[name]
    assert space.apply(v, s) == frame_by_frame_derivative(space, v, s)


def test_wedge_basis_evaluation():
    w = wedge(KForm.coframe(0), KForm.coframe(1))
    assert w(VecField.basis(0), VecField.basis(1)) == parse("1")
    assert w(VecField.basis(1), VecField.basis(0)) == parse("-1")


def test_wedge_graded_commutativity():
    rng = random.Random(1)

    def rand_form(deg):
        keys = list(itertools.combinations(range(4), deg))
        return KForm.of(deg, {k: rng.randint(-3, 3) for k in keys})

    for p, q in ((1, 1), (1, 2), (2, 2), (2, 1)):
        a, b = rand_form(p), rand_form(q)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs.terms == rhs.terms


def test_interior_product_algebra():
    # the interior-product oracle: i_v(a ^ b) = a(v) b - b(v) a for
    # 1-forms, and i_K vol = omega for the kernel field K of a 3-form
    # omega, on random data
    rng = random.Random(19)
    vol = KForm.of(4, {(0, 1, 2, 3): 1})
    for _ in range(25):
        a = KForm.one_form([rng.randint(-3, 3) for _ in range(4)])
        b = KForm.one_form([rng.randint(-3, 3) for _ in range(4)])
        v = VecField.of(*(rng.randint(-3, 3) for _ in range(4)))
        lhs = interior(wedge(a, b), v)
        rhs = b.scale(a(v)) - a.scale(b(v))
        assert (lhs - rhs).is_zero()
        omega = KForm.of(3, {idx: rng.randint(-3, 3) for idx in THREE_FORM_KEYS})
        assert interior(vol, omega.kernel_field()) == omega


def test_wedge_with_scalar_form_scales():
    s = parse("2 - cos(t)")
    om = KForm.one_form([1, 0, parse("sin(t)"), 0])
    assert wedge(KForm.scalar(s), om).terms == om.scale(s).terms


def test_wedge_overflow():
    a = KForm.of(3, {(0, 1, 2): 1})
    b = KForm.of(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        wedge(a, b)


def test_hopf_even_contact_form_nonzero():
    space = hopf_space()
    alpha = KForm.one_form([0, -1, 0, 1])
    ada = wedge(alpha, exterior_derivative(alpha, space))
    assert not ada.is_zero()


# -- rank certificates ------------------------------------------------------------


def test_frame_determinant_sl2r_symbolic_constant():
    space = FramedSpace(frame=("X1", "X2", "X3", "X4"),
                        structure={(0, 1): (0, 0, 1, 0), (1, 2): (1, 0, 0, 0),
                                   (0, 2): (0, 1, 0, 0)})
    A = VecField.of(1, 1, 1, 0)
    JA = J_STD.apply(A)
    B = bracket(A, JA, space)
    C = bracket(A, B, space)
    cert = certify_nonvanishing(det_of_fields([A, JA, B, C]), space)
    assert cert.kind == "SYMBOLIC"
    # brute-force oracle: numeric determinant of the constant matrix
    det = np.linalg.det(numeric_matrix([A, JA, B, C], {}))
    assert det == pytest.approx(parse(cert.witness).evaluate({}), abs=1e-9)


def test_frame_determinant_repeated_column_fails():
    space = FramedSpace()
    v = VecField.of(1, 0, 0, 0)
    w = VecField.of(0, 1, 0, 0)
    u = VecField.of(0, 0, 1, 0)
    cert = certify_nonvanishing(det_of_fields([v, v, w, u]), space)
    assert cert.kind == "FAILED" and cert.witness == "identically zero"


def test_frame_determinant_torus_with_sampling_oracle():
    # coefficients with pi-frequency waves; the determinant collapses to a
    # constant symbolically, which a 10^4-point numeric sample must confirm
    space = FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x1",),
                        derivation={(0, "x1"): 1})
    theta = parse("sin(2*pi*x1)"), parse("cos(2*pi*x1)")
    A = VecField.of(1, 0, theta[0], -theta[1])
    JA = VecField.of(0, 1, theta[1], theta[0])
    B = bracket(A, JA, space)
    C = bracket(A, B, space)
    cert = certify_nonvanishing(det_of_fields([A, JA, B, C]), space)
    assert cert.kind == "SYMBOLIC"
    expected = parse(cert.witness).evaluate({})
    rng = random.Random(13)
    worst = min(abs(np.linalg.det(numeric_matrix([A, JA, B, C],
                                                 {"x1": rng.uniform(0, 1)})))
                for _ in range(10_000))
    assert worst == pytest.approx(abs(expected), rel=1e-9)


def test_two_field_rank_by_no_common_zero_of_minors():
    space = FramedSpace()
    cert = certify_no_common_zero(minors_of_fields([VecField.basis(0),
                                                    VecField.basis(2)]), space)
    assert cert.kind == "SYMBOLIC"
    bad = certify_no_common_zero(minors_of_fields([VecField.basis(0),
                                                   VecField.basis(0)]), space)
    assert bad.kind == "FAILED"


def test_determinant_of_no_fields_is_rejected():
    with pytest.raises(ValueError):
        certify_nonvanishing(det_of_fields([]), FramedSpace())


# -- minor plans ---------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 4),
       base=st.integers(0, 3), data=st.data())
def test_extend_minors_matches_the_cofactor_expansion(cold_ring, seed, width, base, data):
    # on random law-suite fields, every width and any requested row sets in
    # any order, with the plans made cold or read warm, and extending the
    # minors of a first block of columns or starting from none
    cold_ring()
    rng = random.Random(seed)
    fields = [_random_field(rng, _law_space().coords) for _ in range(width)]
    every = list(itertools.combinations(range(4), width))
    rows = data.draw(st.none() | st.permutations(every).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda k: perm[:k])))
    start = min(base, width - 1)
    want = {r: cofactor_minor(fields, r) for r in (every if rows is None else rows)}
    for _ in range(2):
        if start:
            got = extend_minors(fields[start:], rows, extend_minors(fields[:start]))
        else:
            got = extend_minors(fields, rows)
        assert list(got) == list(want)
        assert got == want


def test_extend_minors_by_no_columns_gives_the_requested_rows():
    rng = random.Random(8)
    u, v = (_random_field(rng, _law_space().coords) for _ in range(2))
    minors = extend_minors([u, v])
    rows = [(1, 3), (0, 2)]
    got = extend_minors([], rows, minors)
    assert list(got) == rows and all(got[r] is minors[r] for r in rows)
    assert extend_minors([], [], minors) == {}
    assert extend_minors([], minors=minors) == minors
    assert extend_minors([]) == {(): ONE}


def test_a_repeated_column_gives_zero_minors():
    rng = random.Random(5)
    u, v = (_random_field(rng, _law_space().coords) for _ in range(2))
    for fields in ([u, u], [u, v, u], [v, u, v, u]):
        assert all(m == ZERO for m in extend_minors(fields).values()), len(fields)


def test_minor_plans_are_made_once_per_shape_and_hold_no_scalar(cold_ring):
    cold_ring()
    rng = random.Random(6)
    u, v, w = (_random_field(rng, _law_space().coords) for _ in range(3))
    extend_minors([u, v])
    extend_minors([w], minors=extend_minors([u, v]))
    extend_minors([u, v, w], [(0, 1, 3), (1, 2, 3)])
    info = framecalc._minor_plan.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    leaves = []

    def walk(node):
        if isinstance(node, tuple):
            for item in node:
                walk(item)
        else:
            leaves.append(node)

    for width, columns, rows in [(2, 2, None), (3, 1, None),
                                 (3, 3, ((0, 1, 3), (1, 2, 3)))]:
        walk(framecalc._minor_plan(width, columns, rows))
    assert leaves and all(type(x) is int for x in leaves)


def test_minor_plans_keep_a_bounded_number_of_shapes(cold_ring):
    # every order of the requested row sets is its own shape, so a caller
    # passing row sets in new orders does not grow the table past its bound
    cold_ring()
    u, v = (_random_field(random.Random(seed), _law_space().coords) for seed in (7, 8))
    pairs = list(itertools.combinations(range(4), 2))
    full = extend_minors([u, v])
    for order in itertools.islice(itertools.permutations(pairs), 3 * framecalc.PLAN_TABLE_SIZE):
        minors = extend_minors([u, v], order)
        assert list(minors) == list(order) and minors == {r: full[r] for r in order}
    assert framecalc._minor_plan.cache_info().currsize == framecalc.PLAN_TABLE_SIZE


# -- frame tables -------------------------------------------------------------------


@pytest.mark.parametrize("name", FAMILIES)
def test_structure_table_holds_the_nonzero_brackets(name):
    space = build_family(name).space
    brackets = {(i, j): bracket(VecField.basis(i), VecField.basis(j), space)
                for i, j in itertools.combinations(range(4), 2)}
    assert space.structure == {k: v for k, v in brackets.items() if not v.is_zero()}
    assert list(space.structure) == sorted(space.structure)
    for (i, j), v in brackets.items():
        assert space.structure_bracket(i, j) == v
        assert space.structure_bracket(j, i) == -v
    again = space_from_json(space_to_json(space))
    assert again.structure == space.structure
    assert again.derivation == space.derivation


def test_structure_table_in_index_order_and_shared_constants():
    space = hopf_space()  # given as (0, 1), (1, 2), (0, 2)
    assert list(space.structure) == [(0, 1), (0, 2), (1, 2)]
    assert space.structure_bracket(3, 3) is VecField.zero()
    assert space.structure_bracket(0, 3) is VecField.zero()
    assert VecField.basis(2) is VecField.basis(2) == VecField.of(0, 0, 1, 0)
    assert VecField.zero() == VecField.of(0, 0, 0, 0)
    assert all(not row for row in space.derivation)


# -- space validation --------------------------------------------------------------


def test_jacobi_violation_rejected():
    with pytest.raises(ValueError, match="Jacobi"):
        FramedSpace(frame=("a", "b", "c", "d"),
                    structure={(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1),
                               (1, 2): (1, 0, 0, 0), (0, 3): (0, 0, 1, 0)})


def test_jacobi_check_reads_the_structure_table(monkeypatch):
    # the inner brackets [E_j, E_k] are table entries: only the twelve outer
    # brackets (four triples of three terms) are taken
    from engelcalc import framecalc

    calls = []
    bracket_of = framecalc.bracket

    def counting(*args):
        calls.append(args)
        return bracket_of(*args)

    monkeypatch.setattr(framecalc, "bracket", counting)
    space = kodaira_space()
    assert len(calls) == 12
    assert all(v in [VecField.basis(i) for i in range(4)] for v, _, _ in calls)
    assert [w for _, w, _ in calls[:3]] == [space.structure_bracket(1, 2),
                                            space.structure_bracket(2, 0),
                                            space.structure_bracket(0, 1)]


def test_inconsistent_derivation_rejected():
    with pytest.raises(ValueError, match="derivation"):
        FramedSpace(frame=("a", "b", "c", "d"), coords=("t",),
                    structure={(0, 1): (0, 0, -1, 0)},
                    derivation={(2, "t"): 1})


def test_structure_with_undeclared_coordinate_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        FramedSpace(frame=("a", "b", "c", "d"),
                    structure={(0, 1): (parse("sin(t)"), 0, 0, 0)})


def test_grid_uses_one_fundamental_period():
    space = FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x",),
                        derivation={(0, "x"): 1})
    pts, shape = grid_points(space, [parse("sin(6*pi*x)")], 17)
    assert shape == {"x": 17}
    assert len(pts) == 17
    assert max(p["x"] for p in pts) < 1 / 3  # period 2/6
    with pytest.raises(ValueError, match="incommensurate"):
        grid_points(space, [parse("sin(x) + sin(pi*x)")], 17)
    with pytest.raises(ValueError, match="incommensurate"):
        certify_nonvanishing(parse("2 + sin(x) + sin(pi*x)"), space)


def test_declared_period_overrides_derived_one():
    from engelcalc.trigring import Frequency

    space = FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x",),
                        derivation={(0, "x"): 1},
                        periods={"x": Frequency.of(0, 4)})  # 4*pi
    pts, _ = grid_points(space, [parse("sin(x) + sin(pi*x)")], 8)
    assert len(pts) == 8  # incommensurate mix sampled under the declared box
    assert max(p["x"] for p in pts) == pytest.approx(4 * math.pi * 7 / 8)
    witness = parse("3 + sin(x) + sin(pi*x)")
    cert = certify_nonvanishing(witness, space, grid=8, tol=math.inf)
    assert cert.grid == {"x": 8}
    assert (cert.bound, cert.witness_point) == \
        brute_force_certificate([witness], list(pts), "nonvanishing")


def test_declared_period_must_be_nonzero_and_declared():
    from engelcalc.trigring import Frequency

    def space(periods):
        return FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x",),
                           derivation={(0, "x"): 1}, periods=periods)

    with pytest.raises(ValueError, match="period of coordinate 'x' is zero"):
        space({"x": Frequency.of(0, 0)})
    with pytest.raises(ValueError, match="undeclared coordinate 'z'"):
        space({"z": Frequency.of(1)})
    # a negative period spans the same lattice
    pts, _ = grid_points(space({"x": Frequency.of(0, -2)}), [parse("sin(x)")], 4)
    assert [p["x"] for p in pts] == [-2 * math.pi * k / 4 for k in range(4)]
    assert pts.units == (Frequency.of(-1),)


def test_periods_are_read_only():
    # a period written after construction would skip the checks above
    from engelcalc.trigring import Frequency

    periods = {"x": Frequency.of(0, 2)}
    s = FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("x",),
                    derivation={(0, "x"): 1}, periods=periods)
    with pytest.raises(TypeError):
        s.periods["x"] = Frequency.of(0, 0)
    with pytest.raises(TypeError):
        s.periods["z"] = Frequency.of(1)
    with pytest.raises(AttributeError):
        s.periods.update(x=Frequency.of(0, 0))
    periods["x"] = Frequency.of(0, 0)  # the caller's dict is not the space's
    assert dict(s.periods) == {"x": Frequency.of(0, 2)}


def test_jacobi_holds_numerically_at_random_points():
    space = kodaira_space()
    basis = [VecField.basis(i) for i in range(4)]
    rng = random.Random(2)
    for i, j, k in itertools.combinations(range(4), 3):
        jac = (bracket(basis[i], bracket(basis[j], basis[k], space), space)
               + bracket(basis[j], bracket(basis[k], basis[i], space), space)
               + bracket(basis[k], bracket(basis[i], basis[j], space), space))
        for p in random_points(space, rng, 20):
            assert max(abs(v) for v in jac.evaluate(p)) < 1e-9
