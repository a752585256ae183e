"""Oscillating plane fields on mapping tori and the minimal-twist search.

Given a framing {V, JV, X, JX} with V projecting to the base circle
coordinate t (so V(t) = 1), the twisted plane field at level n is

    A_n = V + (1/n) sin(n^2 t) X - (1/n) cos(n^2 t) JX,      D_n = <A_n, J A_n>.

For n large enough D_n is a complex-line Engel structure; the module builds
the family, compares the exact brackets against their leading-order
expressions, fits the decay rate of the residuals, and searches for the
smallest level with a passing certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .engelcheck import Derivation, EngelFlag, PreconditionError
from .framecalc import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    Certificate,
    ComplexStructure,
    FramedSpace,
    VecField,
    bracket,
    certify_nonvanishing,
    det_of_fields,
)
from .trigring import ONE, Frequency, TrigScalar

__all__ = [
    "MappingTorusInput",
    "flat_torus_input",
    "twisted_torus_input",
    "build_An",
    "level_derivation",
    "leading_order_residual",
    "residual_decay_fit",
    "minimal_n_search",
    "SearchResult",
]


@dataclass(frozen=True)
class MappingTorusInput:
    """Framing data over a circle coordinate; validated at construction.

    ``grid`` and ``tol`` set every certificate's sampling: the framing's rank
    certificate on ``grid`` points per period, and level n on ``grid * n``
    (see ``level_derivation``), each at ``tol``.  ``a`` and
    ``framing_certificate`` are derived here and cannot be passed in.
    """

    space: FramedSpace
    V: VecField
    X: VecField
    J: ComplexStructure
    t: str
    grid: int = DEFAULT_GRID
    tol: float = DEFAULT_TOL
    a: TrigScalar = field(init=False)  # L_{JV} t
    framing_certificate: Certificate = field(init=False)

    def __post_init__(self):
        if self.J is None:
            raise PreconditionError("the mapping torus needs a complex structure J")
        if self.t not in self.space.coords:
            raise PreconditionError(f"coordinate {self.t!r} is not declared")
        vt = self.space.coordinate_derivative(self.V, self.t)
        if vt != ONE:
            raise PreconditionError(f"the framing requires V(t) = 1 exactly, "
                                    f"got {vt}")
        jv = self.J.apply(self.V)
        object.__setattr__(self, "a",
                           self.space.coordinate_derivative(jv, self.t))
        cert = certify_nonvanishing(
            det_of_fields([self.V, jv, self.X, self.J.apply(self.X)]), self.space,
            self.grid, self.tol)
        if not cert.passed:
            raise PreconditionError("V, JV, X, JX do not frame the tangent bundle")
        object.__setattr__(self, "framing_certificate", cert)


def flat_torus_input() -> MappingTorusInput:
    """Product framing on the flat 4-torus: V = d/dt, constant J, a = 0."""
    space = FramedSpace(
        frame=("V", "JV", "X", "JX"),
        coords=("t",),
        derivation={(0, "t"): 1},
        name="flat_torus",
    )
    return MappingTorusInput(
        space=space,
        V=VecField.basis(0),
        X=VecField.basis(2),
        J=ComplexStructure.pairing(0, 1, 2, 3),
        t="t",
    )


def twisted_torus_input() -> MappingTorusInput:
    """Flat torus with V tilted by sin(t) X; still a = 0, but [V, JV] != 0.

    The tilt makes the first-order correction to the bracket expansion
    genuinely nonzero, so residuals decay like 1/n instead of vanishing.
    """
    space = FramedSpace(
        frame=("E1", "E2", "E3", "E4"),
        coords=("t",),
        derivation={(0, "t"): 1},
        name="twisted_torus",
    )
    sin_t = TrigScalar.sine({"t": Frequency.of(1)})
    return MappingTorusInput(
        space=space,
        V=VecField.of(1, 0, sin_t, 0),
        X=VecField.basis(2),
        J=ComplexStructure.pairing(0, 1, 2, 3),
        t="t",
    )


def _waves(inp: MappingTorusInput, n: int) -> tuple[TrigScalar, TrigScalar]:
    freq = {inp.t: Frequency.of(n * n)}
    return TrigScalar.sine(freq), TrigScalar.cosine(freq)


def build_An(inp: MappingTorusInput, n: int,
             variant: str = "j_engel") -> tuple[VecField, VecField]:
    """The level-n plane field generators for either variant.

    j_engel:      (A_n, J A_n) with A_n = V + (1/n) sin(n^2 t) X
                                          - (1/n) cos(n^2 t) JX
    totally_real: (V, JV + (1/n) cos(n^2 t) X + (1/n) sin(n^2 t) JX)
    """
    if n < 1:
        raise ValueError("the level n must be a positive integer")
    s, c = _waves(inp, n)
    inv = Fraction(1, n)
    jx = inp.J.apply(inp.X)
    if variant == "j_engel":
        a_n = inp.V + inp.X.scale(s * inv) - jx.scale(c * inv)
        return a_n, inp.J.apply(a_n)
    if variant == "totally_real":
        jv = inp.J.apply(inp.V)
        return inp.V, jv + inp.X.scale(c * inv) + jx.scale(s * inv)
    raise ValueError(f"unknown variant {variant!r}")


def level_derivation(inp: MappingTorusInput, n: int,
                     variant: str = "j_engel") -> Derivation:
    """The derivation of level n of a variant at the input's ``tol``, sampled
    at ``inp.grid * n`` points per level-1 period, since the waves oscillate
    at frequency n^2."""
    d1, d2 = build_An(inp, n, variant)
    return Derivation(d1, d2, inp.J, inp.space, inp.grid * n, inp.tol)


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms at one level: ``sup_*`` is the largest l1 norm
    sum |c_w| over the four coefficients, an exact bound on the sup norm."""

    n: int
    sup_first: float
    sup_second: float
    first_exact_zero: bool
    second_exact_zero: bool


def _l1_bound(res: VecField) -> float:
    # fsum is correctly rounded, so the bound does not depend on term order
    return max(math.fsum(abs(c.evaluate()) for c in coeff.terms().values())
               for coeff in res.coeffs)


def leading_order_residual(inp: MappingTorusInput, n: int) -> ResidualReport:
    """l1 bounds on the distance of the exact scaled brackets from their
    leading terms.

    The leading expressions are
        (1/n) [A_n, JA_n]            ~ -(s + a c) X + (c - a s) JX
        (1/n^2) [A_n, (1/n)[...]]    ~ -(c - a s) X - (s + a c) JX
    with s, c the level-n waves; the differences are bounded by C/n.
    """
    a_n, ja_n = build_An(inp, n, "j_engel")
    s, c = _waves(inp, n)
    a = inp.a
    jx = inp.J.apply(inp.X)
    inv = Fraction(1, n)

    b1 = bracket(a_n, ja_n, inp.space).scale(inv)
    lead1 = inp.X.scale(-(s + a * c)) + jx.scale(c - a * s)
    res1 = b1 - lead1

    b2 = bracket(a_n, b1, inp.space).scale(inv * inv)
    lead2 = inp.X.scale(-(c - a * s)) + jx.scale(-(s + a * c))
    res2 = b2 - lead2

    return ResidualReport(n, _l1_bound(res1), _l1_bound(res2),
                          res1.is_zero(), res2.is_zero())


def residual_decay_fit(inp: MappingTorusInput,
                       levels: Sequence[int] = (2, 4, 8, 16, 32)) -> dict:
    """Least-squares log-log slopes of both residual l1 bounds over the levels."""
    reports = [leading_order_residual(inp, n) for n in levels]

    def slope(values: Sequence[float]) -> float | None:
        pairs = [(math.log(n), math.log(v))
                 for n, v in zip(levels, values) if v > 0.0]
        if len(pairs) < 2:
            return None
        mx = sum(x for x, _ in pairs) / len(pairs)
        my = sum(y for _, y in pairs) / len(pairs)
        den = sum((x - mx) ** 2 for x, _ in pairs)
        return sum((x - mx) * (y - my) for x, y in pairs) / den

    sup1 = [r.sup_first for r in reports]
    sup2 = [r.sup_second for r in reports]
    return {
        "levels": list(levels),
        "sup_first": sup1,
        "sup_second": sup2,
        "slope_first": slope(sup1),
        "slope_second": slope(sup2),
    }


@dataclass(frozen=True)
class SearchResult:
    n_star: int | None
    flag: EngelFlag | None
    trace: tuple[dict, ...]


def minimal_n_search(inp: MappingTorusInput, n_max: int) -> SearchResult:
    """Smallest level whose plane field D_n = <A_n, J A_n> earns an Engel
    certificate.

    JD_n = D_n holds on every level by construction, so only the flag is
    certified.  With D1 = A_n and D2 = J A_n, the witnesses of JD = D are
    the maximal minors of (D1, D2, J D1) = (A_n, J A_n, J A_n), which have a
    repeated column and vanish identically.

    Levels are swept in order, each on its ``level_derivation``.  The result
    is deterministic; on exhaustion the trace still carries the per-level
    certificates.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    trace: list[dict] = []
    for n in range(1, n_max + 1):
        flag = level_derivation(inp, n).flag
        entry = {"n": n, "passed": flag.passed}
        for key, cert in flag.certificates.items():
            entry[key] = cert.kind
            if cert.bound is not None:
                entry[f"{key}_bound"] = cert.bound
        trace.append(entry)
        if flag.passed:
            return SearchResult(n, flag, tuple(trace))
    return SearchResult(None, None, tuple(trace))
