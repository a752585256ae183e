"""Builders for the example families of complex-line Engel structures.

Each family packages a framed space, its left-invariant complex structure
(or a coordinate one for the torus models), the distinguished plane field
D = <A, JA>, and the bracket values quoted in the literature for these
homogeneous models.  Where direct expansion of a quoted bracket disagrees
with the quoted value, the expectation is marked as a deviation: the checks
report both values instead of silently adopting either one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .framecalc import (
    DEFAULT_GRID,
    Certificate,
    ComplexStructure,
    FramedSpace,
    VecField,
    bracket,
    certify_vanishing,
)
from .trigring import ONE, ZERO, Frequency, TrigScalar, rat

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "BracketExpectation",
    "build_family",
    "check_quoted_brackets",
    "hyperelliptic_equivariance_check",
    "torus_lattice_gate",
]

FAMILIES = (
    "torus_trig",
    "torus_bryant",
    "hyperelliptic_solv",
    "hyperelliptic_product",
    "kodaira_primary",
    "kodaira_secondary",
    "inoue_s0",
    "inoue_spm",
    "hopf_s3r",
    "elliptic_sl2r",
)


@dataclass(frozen=True)
class BracketExpectation:
    """A quoted bracket value; `deviation` marks a known reference misprint."""

    name: str
    first: str
    second: str
    quoted: VecField
    deviation: str = ""


@dataclass(frozen=True)
class FamilySpec:
    """One catalog target.  ``build_family`` shares one spec per family and
    exact parameters, so the spec is read-only: ``parameters`` is a
    ``MappingProxyType``, and the space, J and fields are immutable values."""

    family: str
    parameters: Mapping[str, Fraction]
    space: FramedSpace
    J: ComplexStructure
    d1: VecField
    d2: VecField
    expected_brackets: tuple[BracketExpectation, ...] = ()
    j_integrable: bool = True
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "parameters",
                           MappingProxyType(dict(self.parameters)))
        self.space.require_coordinates(self.d1.coeffs, f"{self.family} D1")
        self.space.require_coordinates(self.d2.coeffs, f"{self.family} D2")
        for i, row in enumerate(self.J.matrix):
            self.space.require_coordinates(row, f"{self.family} J row {i}")


def _solv_space(name: str, table: Mapping[tuple[int, int], Sequence]) -> FramedSpace:
    return FramedSpace(frame=("X1", "X2", "X3", "X4"), structure=table, name=name)


def _coordinate_space(name: str) -> FramedSpace:
    coords = ("x1", "y1", "x2", "y2")
    return FramedSpace(
        frame=("dx1", "dy1", "dx2", "dy2"),
        coords=coords,
        derivation={(i, coords[i]): 1 for i in range(4)},
        name=name,
    )


# the families' parameter-free coordinate tori and complex structures, each
# built and checked once, so every parameter value of a family shares its
# space and J, and with them its entry in the Nijenhuis memo: J E1 = E2,
# J E3 = E4, and hyperelliptic_product's J E2 = E1, J E3 = E4
_TORUS_TRIG_SPACE = _coordinate_space("torus_trig")
_TORUS_BRYANT_SPACE = _coordinate_space("torus_bryant")
_HYPERELLIPTIC_PRODUCT_SPACE = _coordinate_space("hyperelliptic_product")
_STANDARD_J = ComplexStructure.pairing(0, 1, 2, 3)
_CONJUGATE_J = ComplexStructure.pairing(1, 0, 2, 3)


def torus_lattice_gate(alphas: Sequence) -> Fraction:
    """Product of the denominators of the lattice slopes.

    The twist angle 2*pi*Q*x1 descends to the quotient torus exactly when
    every slope is rational; Q is the product of their denominators.
    Non-rational input is rejected: the construction covers a dense set of
    lattices, not all of them.
    """
    qs = []
    for a in alphas:
        if isinstance(a, float):
            raise ValueError("lattice slopes must be exact rationals, not floats")
        qs.append(rat(a))
    out = Fraction(1)
    for a in qs:
        out *= a.denominator
    return out


def _torus_trig(params: Mapping[str, Fraction]) -> FamilySpec:
    alphas = (params["alpha1"], params["alpha2"], params["alpha3"])
    big_q = torus_lattice_gate(alphas)
    space = _TORUS_TRIG_SPACE
    theta = {"x1": Frequency.of(0, 2 * big_q)}  # 2*pi*Q*x1
    sin_t, cos_t = TrigScalar.sine(theta), TrigScalar.cosine(theta)
    d1 = VecField.of(1, 0, sin_t, -cos_t)
    J = _STANDARD_J
    return FamilySpec(
        family="torus_trig",
        parameters={"alpha1": alphas[0], "alpha2": alphas[1], "alpha3": alphas[2],
                    "Q": big_q},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        notes="coordinate torus with twist angle 2*pi*Q*x1",
    )


def _torus_bryant(params: Mapping[str, Fraction]) -> FamilySpec:
    space = _TORUS_BRYANT_SPACE
    two_x1 = {"x1": Frequency.of(2)}
    s, c = TrigScalar.sine(two_x1), TrigScalar.cosine(two_x1)
    d1 = VecField.of(s, -c, 1, 0)
    J = _STANDARD_J
    d2 = J.apply(d1)
    # D must be the kernel of the defining (1,0)-form, real and imaginary
    # parts separately: re = dy1 + cos(2x1) dx2 - sin(2x1) dy2,
    #                    im = -dx1 + sin(2x1) dx2 + cos(2x1) dy2
    from .framecalc import KForm

    re = KForm.one_form([0, 1, c, -s])
    im = KForm.one_form([-1, 0, s, c])
    for f in (re, im):
        for v in (d1, d2):
            if not f(v).is_zero():
                raise ValueError("Bryant plane is not the kernel of the "
                                 "defining form")
    return FamilySpec(
        family="torus_bryant",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=d2,
        notes="kernel of exp(2i*x1) dw - i dz on the square torus",
    )


def _hyperelliptic_solv(params: Mapping[str, Fraction]) -> FamilySpec:
    space = _solv_space("hyperelliptic_solv",
                        {(0, 3): (0, 1, 0, 0), (1, 3): (-1, 0, 0, 0)})
    J = _STANDARD_J
    d1 = VecField.of(1, 0, 0, 1)
    return FamilySpec(
        family="hyperelliptic_solv",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(1, 0, 0, 0)),
            BracketExpectation("[A,[A,JA]]", "A", "[A,JA]",
                               VecField.of(0, -1, 0, 0)),
        ),
    )


def _hyperelliptic_product(params: Mapping[str, Fraction]) -> FamilySpec:
    k = params["k"]
    if k.denominator != 1 or int(k) not in (2, 3, 4, 6):
        raise ValueError("hyperelliptic_product requires k in {2, 3, 4, 6}")
    k = int(k)
    n_k = 2 * k + 2
    space = _HYPERELLIPTIC_PRODUCT_SPACE
    eta = {"x2": Frequency.of(0, n_k)}  # n_k * pi * x2
    s, c = TrigScalar.sine(eta), TrigScalar.cosine(eta)
    d1 = VecField.of(-s, c, 1, 0)
    # the rotation block turns the (x1, y1) plane the same way J does only
    # for the conjugate orientation on the first factor: J dy1 = dx1
    J = _CONJUGATE_J
    d2 = J.apply(d1)
    expected_d2 = VecField.of(c, s, 0, 1)
    if d2 != expected_d2:
        raise ValueError("hyperelliptic rotation block incompatible with J")
    return FamilySpec(
        family="hyperelliptic_product",
        parameters={"k": Fraction(k), "n_k": Fraction(n_k)},
        space=space,
        J=J,
        d1=d1,
        d2=d2,
        notes="product of elliptic curves, rotation-equivariant plane field",
    )


def _kodaira_primary(params: Mapping[str, Fraction]) -> FamilySpec:
    space = FramedSpace(
        frame=("X1", "X2", "X3", "X4"),
        coords=("t",),
        structure={(0, 1): (0, 0, -1, 0)},
        derivation={(3, "t"): 1},
        name="kodaira_primary",
    )
    J = _STANDARD_J
    t = {"t": Frequency.of(1)}
    s, c = TrigScalar.sine(t), TrigScalar.cosine(t)
    d1 = VecField.of(s, -c, 0, 1)
    return FamilySpec(
        family="kodaira_primary",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation(
                "[A,JA]", "A", "JA",
                VecField.of(-s, c, 1, 0),
                deviation="direct expansion with [X1,X2] = -X3 yields -X3 "
                          "where the quoted value has +X3",
            ),
            BracketExpectation("[A,[A,JA]]", "A", "[A,JA]",
                               VecField.of(-c, -s, 0, 0)),
        ),
    )


def _kodaira_secondary(params: Mapping[str, Fraction]) -> FamilySpec:
    space = _solv_space(
        "kodaira_secondary",
        {(0, 1): (0, 0, -1, 0), (0, 3): (0, 1, 0, 0), (1, 3): (-1, 0, 0, 0)},
    )
    J = _STANDARD_J
    d1 = VecField.of(1, 0, 0, 1)
    return FamilySpec(
        family="kodaira_secondary",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(1, 0, -1, 0)),
            BracketExpectation("[A,[A,JA]]", "A", "[A,JA]",
                               VecField.of(0, -1, 0, 0)),
        ),
    )


def _inoue_s0(params: Mapping[str, Fraction]) -> FamilySpec:
    a = params["a"]
    b = params["b"]
    if a == 0 or b == 0:
        raise ValueError("inoue_s0 requires nonzero parameters a, b")
    space = _solv_space(
        "inoue_s0",
        {(0, 3): (-a, b, 0, 0), (1, 3): (-b, -a, 0, 0), (2, 3): (0, 0, 2 * a, 0)},
    )
    J = _STANDARD_J
    d1 = VecField.of(1, 0, 0, 1)
    return FamilySpec(
        family="inoue_s0",
        parameters={"a": a, "b": b},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(b, a, 2 * a, 0)),
            BracketExpectation(
                "[A,[A,JA]]", "A", "[A,JA]",
                VecField.of(2 * a * b, a * a - b * b, -4 * a * a, 0),
            ),
        ),
        notes="no translation-invariant K-Engel defining forms",
    )


def _inoue_spm(params: Mapping[str, Fraction]) -> FamilySpec:
    q = params["q"]
    space = _solv_space(
        "inoue_spm",
        {(1, 2): (-1, 0, 0, 0), (1, 3): (0, -1, 0, 0), (2, 3): (0, 0, 1, 0)},
    )
    J = ComplexStructure([
        [0, -1, 0, -q],
        [1, 0, -q, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    d1 = VecField.of(1, 0, 0, 1)
    return FamilySpec(
        family="inoue_spm",
        parameters={"q": q},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(0, 1, 1, 0)),
            BracketExpectation("[JA,[A,JA]]", "JA", "[A,JA]",
                               VecField.of(-2, 0, 0, 0)),
        ),
    )


def _hopf_s3r(params: Mapping[str, Fraction]) -> FamilySpec:
    space = _solv_space(
        "hopf_s3r",
        {(0, 1): (0, 0, 1, 0), (1, 2): (1, 0, 0, 0), (0, 2): (0, -1, 0, 0)},
    )
    J = _STANDARD_J
    d1 = VecField.of(1, 0, 1, 0)
    return FamilySpec(
        family="hopf_s3r",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(-1, 0, 1, 0)),
            BracketExpectation(
                "[A,[A,JA]]", "A", "[A,JA]",
                VecField.of(0, 1, 0, 0),
                deviation="direct expansion yields -2*X2 where the quoted "
                          "value is X2 (same line, different scalar)",
            ),
        ),
        notes="R = X4 is a transverse symmetry; the structure is K-compatible",
    )


def _elliptic_sl2r(params: Mapping[str, Fraction]) -> FamilySpec:
    space = _solv_space(
        "elliptic_sl2r",
        {(0, 1): (0, 0, 1, 0), (1, 2): (1, 0, 0, 0), (0, 2): (0, 1, 0, 0)},
    )
    J = _STANDARD_J
    d1 = VecField.of(1, 1, 1, 0)
    return FamilySpec(
        family="elliptic_sl2r",
        parameters={},
        space=space,
        J=J,
        d1=d1,
        d2=J.apply(d1),
        expected_brackets=(
            BracketExpectation("[A,JA]", "A", "JA", VecField.of(-1, 1, 2, 0)),
            BracketExpectation(
                "[A,[A,JA]]", "A", "[A,JA]",
                VecField.of(1, 3, 0, 0),
                deviation="direct expansion yields X1 + 3*X2 + 2*X3; the "
                          "quoted value omits the 2*X3 term",
            ),
        ),
        j_integrable=False,
        notes="the quoted pairing J X1 = X2, J X3 = X4 is almost complex "
              "only: N(X1, X3) = -2*X2 on this bracket table",
    )


_BUILDERS = {
    "torus_trig": _torus_trig,
    "torus_bryant": _torus_bryant,
    "hyperelliptic_solv": _hyperelliptic_solv,
    "hyperelliptic_product": _hyperelliptic_product,
    "kodaira_primary": _kodaira_primary,
    "kodaira_secondary": _kodaira_secondary,
    "inoue_s0": _inoue_s0,
    "inoue_spm": _inoue_spm,
    "hopf_s3r": _hopf_s3r,
    "elliptic_sl2r": _elliptic_sl2r,
}


# the rational parameters each family reads, with their defaults; a family
# not listed reads none
_DEFAULTS: Mapping[str, Mapping[str, str]] = {
    "torus_trig": {"alpha1": "1", "alpha2": "1", "alpha3": "1"},
    "hyperelliptic_product": {"k": "2"},
    "inoue_s0": {"a": "1", "b": "1"},
    "inoue_spm": {"q": "0"},
}

# distinct (family, exact parameters) specs that build_family keeps
SPEC_CACHE_SIZE = 32


def build_family(family: str, params: Mapping[str, object] | None = None) -> FamilySpec:
    """Build a catalog family, overriding its rational parameters if given.

    Raises KeyError for an unknown family, and ValueError for a parameter
    the family does not read, a value that is not an exact rational, or a
    value the family rejects.  Equal exact parameters ("2" and "4/2", or a
    default given explicitly) give the one shared spec of the last
    ``SPEC_CACHE_SIZE`` built; a rejected value raises on every call.
    """
    if family not in _BUILDERS:
        raise KeyError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    defaults = _DEFAULTS.get(family, {})
    params = params or {}
    unknown = [k for k in params if k not in defaults]
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(map(repr, unknown))} "
                         f"for {family}; it takes {', '.join(defaults) or 'none'}")
    exact = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        try:
            exact[key] = rat(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{family} parameter {key}={value} is not an exact "
                             f"rational") from None
    return _cached_spec(family, tuple(exact.items()))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _cached_spec(family: str, exact: tuple[tuple[str, Fraction], ...]) -> FamilySpec:
    # lru_cache stores returns only, so an error is raised again next time
    return _BUILDERS[family](dict(exact))


@dataclass(frozen=True)
class BracketRecord:
    name: str
    computed: VecField
    quoted: VecField
    status: str  # PASS | DEVIATION | FAIL
    note: str = ""


def check_quoted_brackets(spec: FamilySpec, e3: VecField) -> list[BracketRecord]:
    """Compare computed brackets against the quoted expectations.

    ``e3`` is the flag's [D1, D2], the computed [A, JA], as A = D1 and
    JA = D2; every other quoted bracket is taken here.  Expectations marked
    as deviations must reproduce the recorded computed
    value and are reported as DEVIATION.  Anything else mismatching is a
    FAIL.  The spanning conclusion of a deviation needs no certificate of
    its own: with A = D1, JA = D2 and [A, JA] = E3, the computed fields
    (A, JA, [A, JA], [D_i, [A, JA]]) have determinant
    det(D1, D2, E3, [D_i, E3]), the flag's pairing u_i, on which
    ``verify_engel`` certifies rank([D, E]) = 4.  Each deviating family
    quotes [A, [A, JA]] (i = 1), and its u1 is a nonzero constant, the
    ``engel.rank_tm`` witness itself.
    """
    env: dict[str, VecField] = {"A": spec.d1, "JA": spec.d2}
    records: list[BracketRecord] = []
    for exp in spec.expected_brackets:
        computed = (e3 if (exp.first, exp.second) == ("A", "JA")
                    else bracket(env[exp.first], env[exp.second], spec.space))
        env[exp.name] = computed
        if computed == exp.quoted:
            status, note = "PASS", ""
            if exp.deviation:
                status = "FAIL"
                note = "expectation marked deviant but values agree"
        elif exp.deviation:
            status, note = "DEVIATION", exp.deviation
        else:
            status, note = "FAIL", "computed value differs from the quoted one"
        records.append(BracketRecord(exp.name, computed, exp.quoted, status, note))
    return records


def _rotation(entry_cos: TrigScalar, entry_sin: TrigScalar) -> list[list[TrigScalar]]:
    return [[entry_cos, -entry_sin], [entry_sin, entry_cos]]


def hyperelliptic_equivariance_check(spec: FamilySpec,
                                     grid: int = DEFAULT_GRID) -> Certificate:
    """Rotation equivariance of the hyperelliptic plane field, symbolically.

    The tangent map of the generator rotates the (x1, y1) block by the angle
    2*pi/k, while moving the base point by x2 -> x2 + 1/k.  Equivariance is
    the matrix identity R(theta_k) R(n_k pi x2) = R(n_k pi (x2 + 1/k)),
    which holds exactly because n_k pi / k = theta_k + 2 pi.  The second
    generator only translates, so invariance under it amounts to the
    coefficients not involving the translated coordinates.
    """
    if spec.family != "hyperelliptic_product":
        raise ValueError("equivariance check applies to hyperelliptic_product")
    k = int(spec.parameters["k"])
    n_k = int(spec.parameters["n_k"])
    theta = Frequency.of(0, Fraction(2, k))  # 2*pi/k
    r_theta = _rotation(TrigScalar.cosine({}, theta), TrigScalar.sine({}, theta))
    eta = {"x2": Frequency.of(0, n_k)}
    r_x = _rotation(TrigScalar.cosine(eta), TrigScalar.sine(eta))
    shifted = [[e.shift("x2", Fraction(1, k)) for e in row] for row in r_x]
    residuals: list[TrigScalar] = []
    for i in range(2):
        for j in range(2):
            acc = ZERO
            for l in range(2):
                acc = acc + r_theta[i][l] * r_x[l][j]
            residuals.append(acc - shifted[i][j])
    for v in (spec.d1, spec.d2):
        for c in v.coeffs:
            if not c.coordinates() <= {"x2"}:
                residuals.append(ONE)  # translation breaks
    return certify_vanishing(residuals, spec.space, grid,
                             note="rotation equivariance residuals")
