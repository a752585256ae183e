"""Framed 4-manifolds: vector fields, brackets, exterior calculus, certificates.

A :class:`FramedSpace` is a global frame E_1..E_4 together with a structure
table [E_i, E_j] = sum_k f^k_ij E_k, optional coordinate symbols, and a
derivation table D_ij = E_i(x_j) describing how the frame differentiates the
coordinates.  Coefficients throughout are exact :class:`TrigScalar` values,
so brackets, the Nijenhuis tensor and exterior derivatives are computed in
closed form; rank claims are certified either symbolically (the witness
scalar normalises to a nonzero constant) or by sampling a deterministic grid
over one fundamental period per appearing coordinate.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .trigring import (
    ONE,
    ZERO,
    Frequency,
    TrigLike,
    TrigScalar,
    _float_terms,
    _ordered_terms,
    normalize,
)

__all__ = [
    "VecField",
    "FramedSpace",
    "ComplexStructure",
    "KForm",
    "Certificate",
    "bracket",
    "nijenhuis",
    "exterior_derivative",
    "wedge",
    "det_of_fields",
    "extend_minors",
    "GridPoints",
    "grid_points",
    "single_direction",
    "certify_nonvanishing",
    "certify_no_common_zero",
    "certify_vanishing",
]

DEFAULT_GRID = 17
DEFAULT_TOL = 1e-6
IDENTITY_TOL = 1e-9


def _coerce4(coeffs: Sequence[TrigLike]) -> tuple[TrigScalar, ...]:
    if len(coeffs) != 4:
        raise ValueError("expected 4 frame coefficients")
    return tuple(normalize(c) for c in coeffs)


@dataclass(frozen=True)
class VecField:
    """Vector field given by its coefficient 4-vector over the frame."""

    coeffs: tuple[TrigScalar, TrigScalar, TrigScalar, TrigScalar]

    @staticmethod
    def of(*coeffs: TrigLike) -> "VecField":
        return VecField(_coerce4(coeffs))

    @staticmethod
    def basis(i: int) -> "VecField":
        return _BASIS[i]

    @staticmethod
    def zero() -> "VecField":
        return _ZERO_FIELD

    def __add__(self, other: "VecField") -> "VecField":
        return VecField(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VecField") -> "VecField":
        return VecField(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VecField":
        return VecField(tuple(-a for a in self.coeffs))

    def scale(self, s: TrigLike) -> "VecField":
        s = normalize(s)
        return VecField(tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def evaluate(self, point: Mapping[str, float]) -> tuple[float, float, float, float]:
        return tuple(c.evaluate(point) for c in self.coeffs)

    def coordinates(self) -> set[str]:
        out: set[str] = set()
        for c in self.coeffs:
            out |= c.coordinates()
        return out


# values are immutable, so these are shared
_ZERO_FIELD = VecField((ZERO,) * 4)
_BASIS = tuple(VecField(tuple(ONE if j == i else ZERO for j in range(4)))
               for i in range(4))


class FramedSpace:
    """Frame names, structure table, coordinates, and derivation table.

    Both tables are built once, here, and read as they are, through
    read-only views: ``structure[(i, j)]`` is [E_i, E_j] for i < j, holding
    the nonzero entries only, in (i, j) order; ``derivation[i][coord]`` is
    E_i(coord), holding the nonzero entries only.
    """

    def __init__(
        self,
        frame: Sequence[str] = ("E1", "E2", "E3", "E4"),
        coords: Sequence[str] = (),
        structure: Mapping[tuple[int, int], Sequence[TrigLike]] | None = None,
        derivation: Mapping[tuple[int, str], TrigLike] | None = None,
        periods: Mapping[str, Frequency] | None = None,
        name: str = "",
    ):
        if len(frame) != 4 or len(set(frame)) != 4:
            raise ValueError("frame must consist of 4 distinct names")
        if len(coords) > 4 or len(set(coords)) != len(coords):
            raise ValueError("at most 4 distinct coordinate symbols")
        self.name = name
        self.frame = tuple(frame)
        self.coords = tuple(coords)
        table: dict[tuple[int, int], VecField] = {}
        for (i, j), comp in sorted((structure or {}).items()):
            if not 0 <= i < j < 4:
                raise ValueError(f"structure key must have i < j, got {(i, j)}")
            v = VecField.of(*comp)
            self.require_coordinates(v.coeffs, f"structure [{frame[i]},{frame[j]}]")
            if not v.is_zero():
                table[(i, j)] = v
        self.structure = MappingProxyType(table)
        rows: tuple[dict[str, TrigScalar], ...] = tuple({} for _ in range(4))
        for (i, coord), s in (derivation or {}).items():
            if coord not in self.coords:
                raise ValueError(f"derivation refers to undeclared coordinate {coord!r}")
            s = normalize(s)
            self.require_coordinates([s], f"derivation {frame[i]}({coord})")
            if not s.is_zero():
                rows[i][coord] = s
        self.derivation = tuple(MappingProxyType(row) for row in rows)
        self.periods = MappingProxyType(dict(periods or {}))
        for coord, period in self.periods.items():
            if coord not in self.coords:
                raise ValueError(f"period given for undeclared coordinate {coord!r}")
            if period.is_zero():
                raise ValueError(f"period of coordinate {coord!r} is zero")
        self.validate()

    def require_coordinates(self, scalars: Sequence[TrigScalar], where: str) -> None:
        """Raise ValueError if a scalar names a symbol that is not a declared
        coordinate.  Every scalar that enters a space's tables, plane fields
        or complex structure passes here; the message names the symbol, and
        the scalar as entry k of ``where``, or ``where`` itself for a single
        scalar."""
        for k, s in enumerate(scalars):
            foreign = s.coordinates().difference(self.coords)
            if foreign:
                at = where if len(scalars) == 1 else f"{where} entry {k}"
                raise ValueError(f"{at} uses undeclared coordinate {min(foreign)!r}")

    # -- basic calculus ------------------------------------------------------

    def structure_bracket(self, i: int, j: int) -> VecField:
        """[E_i, E_j] from the table, for any index order."""
        if i > j:
            return -self.structure_bracket(j, i)
        return self.structure.get((i, j), _ZERO_FIELD)

    def apply(self, v: VecField, s: TrigLike) -> TrigScalar:
        """The one directional derivative, v(s) = sum_c v(c) * ds/dc over
        the coordinates c of s in declared order: each partial derivative is
        taken once, and a ``ONE`` factor v(c) forms no product."""
        s = normalize(s)
        coords = s.coordinates()
        out = ZERO
        for coord in self.coords:
            if coord not in coords:
                continue
            vc = self.coordinate_derivative(v, coord)
            if not vc.is_zero():
                ds = s.differentiate(coord)
                out = out + (ds if vc is ONE else vc * ds)
        return out

    def coordinate_derivative(self, v: VecField, coord: str) -> TrigScalar:
        """v(coord) = sum_i v_i * E_i(coord), straight from the derivation
        table; a ``ONE`` factor forms no product."""
        out = ZERO
        for i in range(4):
            d, c = self.derivation[i].get(coord), v.coeffs[i]
            if d is not None and not c.is_zero():
                out = out + (d if c is ONE else c if d is ONE else c * d)
        return out

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Jacobi identity and frame/coordinate compatibility, symbolically."""
        for i, j, k in itertools.combinations(range(4), 3):
            jac = (
                bracket(_BASIS[i], self.structure_bracket(j, k), self)
                + bracket(_BASIS[j], self.structure_bracket(k, i), self)
                + bracket(_BASIS[k], self.structure_bracket(i, j), self)
            )
            if not jac.is_zero():
                raise ValueError(
                    f"structure table violates the Jacobi identity on "
                    f"({self.frame[i]},{self.frame[j]},{self.frame[k]})"
                )
        for i, j in itertools.combinations(range(4), 2):
            br = self.structure.get((i, j), _ZERO_FIELD)
            for coord in self.coords:
                # E_i(E_j(c)) - E_j(E_i(c)) = [E_i, E_j](c)
                lhs = self.apply(_BASIS[i], self.derivation[j].get(coord, ZERO)) - \
                    self.apply(_BASIS[j], self.derivation[i].get(coord, ZERO))
                if lhs != self.coordinate_derivative(br, coord):
                    raise ValueError(
                        f"derivation table inconsistent with brackets on "
                        f"coordinate {coord!r}"
                    )

    # -- periods / sampling ---------------------------------------------------

    def coordinate_period(
        self, coord: str, scalars: Iterable[TrigScalar]
    ) -> tuple[float, Frequency | None]:
        """One fundamental period P of the given scalars in a coordinate, as a
        float, and the exact angular unit 2*pi/P.

        Declared periods win; otherwise the period is derived from the set of
        exact frequencies, which must be commensurate (``_ratio``): the unit
        is the positive generator of their multiples, so each of them is an
        integer multiple of it, and P is 2*pi over the unit's float value, so
        it does not depend on the order of the frequencies.  The unit is None
        when a declared period is neither a rational nor a rational multiple of pi:
        no frequency is then an exact multiple of 2*pi/P.
        """
        if coord in self.periods:
            period = self.periods[coord]
            return period.value(), _angular_unit(period)
        freqs: set[Frequency] = set()
        for s in scalars:
            freqs |= s.frequencies_of(coord)
        if not freqs:
            raise ValueError(f"coordinate {coord!r} does not appear")
        base = next(iter(freqs))
        ratios = [_ratio(f, base) for f in freqs]
        if None in ratios:
            raise ValueError(f"incommensurate frequencies in {coord!r}; declare a period")
        # the generator of the multiples num/den of base is gcd(nums)/lcm(dens)
        unit = base.scale(Fraction(gcd(*(n for n, _ in ratios)),
                                   math.lcm(*(d for _, d in ratios))))
        if unit.value() < 0:
            unit = unit.neg()
        return math.tau / unit.value(), unit

    def __repr__(self) -> str:
        return f"FramedSpace({self.name or ','.join(self.frame)})"


def _ratio(f: Frequency, g: Frequency) -> tuple[int, int] | None:
    """(num, den) with f = num/den * g, in lowest terms with den > 0, on the
    four ints; None when g is zero or f is not a rational multiple of g."""
    rn, rd, pn, pd = f
    gn, gd, hn, hd = g
    if gn:
        num, den = rn * gd, rd * gn
        if pn * hd * den != num * hn * pd:
            return None
    elif hn and not rn:
        num, den = pn * hd, pd * hn
    else:
        return None
    k = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // k, den // k


def _angular_unit(period: Frequency) -> Frequency | None:
    """2*pi / period as an exact frequency, when it is one; the period is
    nonzero."""
    rn, rd, pn, pd = period
    if not pn:
        return Frequency(Fraction(0), Fraction(2 * rd, rn))
    if not rn:
        return Frequency(Fraction(2 * pd, pn), Fraction(0))
    return None


class GridPoints(Sequence):
    """The points of ``itertools.product(*axes)`` over ``coords``, as dicts.

    Points are built only when indexed or iterated.  ``grid_points`` builds
    axis i as the N points k * P_i / N, k < N, of one period P_i, and
    ``units[i]`` is the exact angular unit 2*pi/P_i (None where there is
    none).  ``abs_extreme`` finds the least or greatest |s| over the grid
    without building the points.
    """

    def __init__(self, coords: Sequence[str], axes: Sequence[Sequence[float]],
                 units: Sequence[Frequency | None]):
        self.coords = tuple(coords)
        self.axes = tuple(tuple(a) for a in axes)
        self.units = tuple(units)

    def __len__(self) -> int:
        return math.prod(len(a) for a in self.axes)

    def __getitem__(self, i: int) -> dict[str, float]:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("grid point index out of range")
        combo = []
        for axis in reversed(self.axes):
            i, k = divmod(i, len(axis))
            combo.append(axis[k])
        return dict(zip(self.coords, reversed(combo)))

    def __iter__(self) -> Iterator[dict[str, float]]:
        for combo in itertools.product(*self.axes):
            yield dict(zip(self.coords, combo))

    def abs_extreme(self, s: TrigScalar, pick: Callable) -> tuple[float, int]:
        """``pick`` (min or max) of |s| over the grid, and the index of the
        first grid point where |s| takes that value.

        On a ``grid_points`` grid of N points per axis, the term of frequency
        vector n (in axis units) has at the point of axis indices k the exact
        angle phase + 2*pi*(n.k)/N.  For a scalar of one direction v (see
        ``single_direction``), n = m*v, so the scalar's value there depends
        only on the residue j = <v, k> mod N, each term's angle taken as
        phase + 2*pi*((m*j) mod N)/N: the scalar is tabulated once per
        residue, and j reaches every residue because v is primitive (a zero
        v reaches only 0).  The
        first point of a residue comes from ``_first_index``.  Any other
        scalar is sampled at every point by ``TrigScalar.sample_grid``.
        """
        found = single_direction(s, self.coords, self.units)
        if found is None:
            values = list(map(abs, s.sample_grid(self.coords, self.axes)))
            best = pick(values)
            return best, values.index(best)
        v, multiples = found
        n = len(self.axes[0]) if self.axes else 1
        residues = range(n) if any(v) else range(1)
        steps = [math.tau * r / n for r in range(n)]
        table = [0.0] * len(residues)
        for (is_cos, coeff, phase, _), m in zip(_float_terms(s), multiples):
            wave = math.cos if is_cos else math.sin
            table = [t + coeff * wave(phase + steps[m * j % n])
                     for t, j in zip(table, residues)]
        table = list(map(abs, table))
        best = pick(table)
        return best, min(_first_index(v, j, n)
                         for j in residues if table[j] == best)


def _first_index(v: Sequence[int], j: int, n: int) -> int:
    """Index, in grid order, of the first grid point k with <v, k> = j mod n.

    The axis indices are fixed in order, each to the least value that leaves
    the rest of <v, k> solvable: the indices after position i reach exactly
    the multiples of gcd(n, v[i+1:]) mod n.
    """
    tails = [n]
    for c in reversed(v):
        tails.append(gcd(c, tails[-1]))
    tails.reverse()
    index = 0
    for c, g in zip(v, tails[1:]):
        k = next(k for k in range(n) if (j - c * k) % g == 0)
        j -= c * k
        index = index * n + k
    return index


def single_direction(
    s: TrigScalar,
    coords: Sequence[str],
    units: Sequence[Frequency | None],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The one direction a scalar varies in, counted in exact angular units.

    ``units[i]`` is the unit of ``coords[i]``, and ``coords`` must include
    every coordinate of ``s``.  Counted in these units, each term's frequency
    vector is an integer vector n_t.  When every n_t is m_t * v for integers
    m_t and one primitive integer vector v, returns ``(v, m)`` with m in the
    canonical term order, in which ``_float_terms`` lists the terms: ``s`` is
    then a trigonometric polynomial in the one angle
    theta = sum_i v_i * units[i] * x_i, term t a wave of m_t * theta.  v is
    the first nonzero n_t in that order divided by the gcd of its entries,
    and zero when no term has a frequency.  Returns None when a frequency is
    not an integer multiple of its unit, or two frequency vectors are not
    parallel.
    """
    where = {c: i for i, c in enumerate(coords)}
    vectors = []
    for (_, freqs, _), _ in _ordered_terms(s):
        vec = [0] * len(coords)
        for coord, f in freqs:
            unit = units[where[coord]]
            q = None if unit is None else _ratio(f, unit)
            if q is None or q[1] != 1:
                return None
            vec[where[coord]] = q[0]
        vectors.append(vec)
    lead = next((vec for vec in vectors if any(vec)), [0] * len(coords))
    g = gcd(*lead)
    v = tuple(c // g for c in lead) if g else tuple(lead)
    axis = next((i for i, c in enumerate(v) if c), None)
    multiples = []
    for vec in vectors:
        m = 0 if axis is None else vec[axis] // v[axis]
        if [m * c for c in v] != vec:
            return None
        multiples.append(m)
    return v, tuple(multiples)


def grid_points(
    space: FramedSpace,
    scalars: Sequence[TrigScalar],
    per_axis: int,
) -> tuple[GridPoints, dict[str, int]]:
    """Deterministic grid over one period per coordinate appearing in scalars,
    ``per_axis`` points per axis, with each axis's exact angular unit."""
    coords = sorted(set().union(*(s.coordinates() for s in scalars)) if scalars else set())
    axes: list[list[float]] = []
    units: list[Frequency | None] = []
    shape: dict[str, int] = {}
    for c in coords:
        period, unit = space.coordinate_period(c, scalars)
        axes.append([period * k / per_axis for k in range(per_axis)])
        units.append(unit)
        shape[c] = per_axis
    return GridPoints(coords, axes, units), shape


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of a global scalar claim (nonvanishing or vanishing)."""

    kind: str                      # SYMBOLIC | SAMPLED | FAILED
    claim: str                     # nonvanishing | vanishing
    witness: str = ""              # constant value / "identically zero"
    grid: Mapping[str, int] = field(default_factory=dict)
    bound: float | None = None     # min |value| (nonvanishing) or max (vanishing)
    tolerance: float | None = None
    witness_point: Mapping[str, float] | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.kind != "FAILED"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "claim": self.claim}
        if self.witness:
            out["witness"] = self.witness
        if self.grid:
            out["grid"] = dict(sorted(self.grid.items()))
        if self.bound is not None:
            out["bound"] = self.bound
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.witness_point is not None:
            out["witness_point"] = dict(sorted(self.witness_point.items()))
        if self.note:
            out["note"] = self.note
        return out


def certify_nonvanishing(
    witness: TrigScalar,
    space: FramedSpace,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    note: str = "",
) -> Certificate:
    """Certify that a scalar vanishes nowhere."""
    const = witness.constant_value()
    if const is not None:
        if const.is_zero():
            return Certificate("FAILED", "nonvanishing", witness="identically zero",
                               note=note)
        return Certificate("SYMBOLIC", "nonvanishing", witness=str(const), note=note)
    points, shape = grid_points(space, [witness], grid)
    best, first = points.abs_extreme(witness, min)
    if best > tol:
        return Certificate("SAMPLED", "nonvanishing", grid=shape, bound=best,
                           tolerance=tol, note=note)
    # the witness point is the first minimiser in grid order
    return Certificate("FAILED", "nonvanishing", grid=shape, bound=best,
                       tolerance=tol, witness_point=points[first], note=note)


def certify_no_common_zero(
    scalars: Sequence[TrigScalar],
    space: FramedSpace,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    note: str = "",
) -> Certificate:
    """Certify that the scalars never vanish together.

    The witness is the sum of their squares, added in the given order,
    which is positive exactly where at least one scalar is nonzero.  This is
    the one place such a witness is formed.
    """
    witness = ZERO
    for s in scalars:
        witness = witness + s * s
    return certify_nonvanishing(witness, space, grid, tol, note=note)


def certify_vanishing(
    scalars: Sequence[TrigScalar],
    space: FramedSpace,
    grid: int = DEFAULT_GRID,
    tol: float = IDENTITY_TOL,
    note: str = "",
) -> Certificate:
    """Certify that every scalar in the list is identically zero.

    A nonzero normal form whose phases all have a zero pi part after
    quarter-turn absorption is a nonzero function, the class in which the
    zero test is complete, so a claim on such a scalar fails whatever its
    grid maximum; the grid gives the certificate its bound and witness
    point.  A claim passes as ``SAMPLED`` only when every nonzero scalar
    keeps another rational-pi phase."""
    if all(s.is_zero() for s in scalars):
        return Certificate("SYMBOLIC", "vanishing", witness="identically zero",
                           note=note)
    live = [s for s in scalars if not s.is_zero()]
    points, shape = grid_points(space, live, grid)
    peaks = [points.abs_extreme(s, max) for s in live]
    worst = max(peak for peak, _ in peaks)
    if worst <= tol and all(s.has_pi_phase() for s in live):
        return Certificate("SAMPLED", "vanishing", grid=shape, bound=worst,
                           tolerance=tol, note=note)
    # the witness point is the first maximiser in grid order, over all the
    # scalars; none when every value is zero
    first = min(at for peak, at in peaks if peak == worst)
    return Certificate("FAILED", "vanishing", grid=shape, bound=worst,
                       tolerance=tol, note=note,
                       witness_point=points[first] if worst else None)


# -- brackets and the complex structure ---------------------------------------


def bracket(v: VecField, w: VecField, space: FramedSpace) -> VecField:
    """Lie bracket via the Leibniz rule plus the structure table."""
    if v.is_zero() or w.is_zero():
        return _ZERO_FIELD
    out = [ZERO, ZERO, ZERO, ZERO]
    for k in range(4):
        out[k] = space.apply(v, w.coeffs[k]) - space.apply(w, v.coeffs[k])
    for (i, j), comp in space.structure.items():
        c = v.coeffs[i] * w.coeffs[j] - v.coeffs[j] * w.coeffs[i]
        if c.is_zero():
            continue
        for k in range(4):
            if not comp.coeffs[k].is_zero():
                out[k] = out[k] + c * comp.coeffs[k]
    return VecField(tuple(out))


class ComplexStructure:
    """Endomorphism J over the frame with J*J = -id, checked symbolically."""

    def __init__(self, matrix: Sequence[Sequence[TrigLike]]):
        if len(matrix) != 4 or any(len(row) != 4 for row in matrix):
            raise ValueError("J must be a 4x4 matrix over the frame")
        self.matrix: tuple[tuple[TrigScalar, ...], ...] = tuple(
            tuple(normalize(e) for e in row) for row in matrix
        )
        # J(J E_i) = -E_i on each frame field, through the one action of J
        if any(self.apply(self.apply(e)) != -e for e in _BASIS):
            raise ValueError("J*J differs from -identity")

    @staticmethod
    def pairing(first: int, second: int, third: int, fourth: int) -> "ComplexStructure":
        """J sending E_first -> E_second and E_third -> E_fourth."""
        m = [[ZERO] * 4 for _ in range(4)]
        for a, b in ((first, second), (third, fourth)):
            m[b][a] = ONE
            m[a][b] = TrigScalar.constant(-1)
        return ComplexStructure(m)

    def apply(self, v: VecField) -> VecField:
        """J v, the one action of J."""
        out = []
        for i in range(4):
            acc = ZERO
            for j in range(4):
                if not self.matrix[i][j].is_zero() and not v.coeffs[j].is_zero():
                    acc = acc + self.matrix[i][j] * v.coeffs[j]
            out.append(acc)
        return VecField(tuple(out))


def nijenhuis(J: ComplexStructure, v: VecField, w: VecField,
              space: FramedSpace) -> VecField:
    """N(v,w) = [Jv,Jw] - J[Jv,w] - J[v,Jw] - [v,w]."""
    jv, jw = J.apply(v), J.apply(w)
    return (
        bracket(jv, jw, space)
        - J.apply(bracket(jv, w, space))
        - J.apply(bracket(v, jw, space))
        - bracket(v, w, space)
    )


# -- exterior algebra ----------------------------------------------------------


def _sorted_with_sign(idx: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted index tuple and permutation sign; None for repeated indices."""
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                sign = -sign
    return tuple(sorted(idx)), sign


@dataclass(frozen=True)
class KForm:
    """Exterior form of degree 0..4 over the coframe a_1..a_4."""

    degree: int
    terms: Mapping[tuple[int, ...], TrigScalar]

    @staticmethod
    def of(degree: int, terms: Mapping[tuple[int, ...], TrigLike] | None = None) -> "KForm":
        if not 0 <= degree <= 4:
            raise ValueError("degree must lie in 0..4")
        canon: dict[tuple[int, ...], TrigScalar] = {}
        for idx, c in (terms or {}).items():
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"term index {idx} invalid for degree {degree}")
            c = normalize(c)
            if not c.is_zero():
                canon[tuple(idx)] = c
        return KForm(degree, canon)

    @staticmethod
    def scalar(s: TrigLike) -> "KForm":
        return KForm.of(0, {(): s})

    @staticmethod
    def coframe(i: int) -> "KForm":
        return KForm.of(1, {(i,): 1})

    @staticmethod
    def one_form(row: Sequence[TrigLike]) -> "KForm":
        return KForm.of(1, {(i,): c for i, c in enumerate(row)})

    def component(self, idx: Sequence[int]) -> TrigScalar:
        ss = _sorted_with_sign(idx)
        if ss is None:
            return ZERO
        key, sign = ss
        c = self.terms.get(key, ZERO)
        return c if sign > 0 else -c

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        keys = set(self.terms) | set(other.terms)
        return KForm.of(self.degree, {
            k: self.terms.get(k, ZERO) + other.terms.get(k, ZERO) for k in keys
        })

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.degree, {k: -c for k, c in self.terms.items()})

    def scale(self, s: TrigLike) -> "KForm":
        s = normalize(s)
        return KForm.of(self.degree, {k: s * c for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, *fields: VecField) -> TrigScalar:
        if len(fields) != self.degree:
            raise ValueError(f"degree-{self.degree} form takes {self.degree} arguments")
        return self.on_minors(extend_minors(fields, self.terms))

    def on_minors(self, minors: Mapping[tuple[int, ...], TrigScalar]) -> TrigScalar:
        """The form's value on the k-vector whose maximal minors are
        ``minors``, keyed by sorted row sets: the sum of each term's
        coefficient times the minor on its rows.  On the minors of fields
        F_1..F_k this is the form's value on (F_1, ..., F_k), so a caller
        that already holds those minors pays no second expansion;
        ``minors`` must hold the row set of every term."""
        out = ZERO
        for idx, c in self.terms.items():
            if not minors[idx].is_zero():
                out = out + c * minors[idx]
        return out

    def kernel_field(self) -> VecField:
        """For a 3-form: the vector K with i_K(volume) equal to the form.

        The kernel of a nonzero 3-form in dimension 4 is exactly span(K).
        """
        if self.degree != 3:
            raise ValueError("kernel_field applies to 3-forms")
        comps = []
        for l in range(4):
            rest = tuple(i for i in range(4) if i != l)
            c = self.terms.get(rest, ZERO)
            comps.append(c if l % 2 == 0 else -c)
        return VecField(tuple(comps))


def wedge(a: KForm, b: KForm) -> KForm:
    if a.degree + b.degree > 4:
        raise ValueError("wedge degree exceeds the manifold dimension")
    out: dict[tuple[int, ...], TrigScalar] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            ss = _sorted_with_sign(ia + ib)
            if ss is None:
                continue
            key, sign = ss
            c = ca * cb
            out[key] = out.get(key, ZERO) + (c if sign > 0 else -c)
    return KForm.of(a.degree + b.degree, out)


def exterior_derivative(form: KForm, space: FramedSpace) -> KForm:
    """Palais formula on frame tuples; degree-2 input supported for d(d(.)) checks."""
    if form.degree > 2:
        raise ValueError("exterior derivative supported for degrees 0..2")
    d = form.degree
    out: dict[tuple[int, ...], TrigScalar] = {}
    for idx in itertools.combinations(range(4), d + 1):
        acc = ZERO
        for a in range(d + 1):
            rest = idx[:a] + idx[a + 1:]
            term = space.apply(_BASIS[idx[a]], form.component(rest))
            acc = acc + (term if a % 2 == 0 else -term)
        for a, b in itertools.combinations(range(d + 1), 2):
            br = space.structure.get((idx[a], idx[b]))
            if br is None:
                continue
            rest = tuple(idx[c] for c in range(d + 1) if c not in (a, b))
            val = ZERO
            for k in range(4):
                if not br.coeffs[k].is_zero():
                    val = val + br.coeffs[k] * form.component((k,) + rest)
            acc = acc + (-val if (a + b) % 2 else val)
        if not acc.is_zero():
            out[idx] = acc
    return KForm.of(d + 1, out)


# -- minors and determinants ---------------------------------------------------


# a row set: sorted frame indices, one per row of a square submatrix
Rows = tuple[int, ...]


def extend_minors(
    fields: Sequence[VecField],
    rows: Iterable[Rows] | None = None,
    minors: Mapping[Rows, TrigScalar] | None = None,
) -> dict[Rows, TrigScalar]:
    """Maximal minors of a matrix extended by the columns ``fields``, on the
    sorted row sets ``rows`` (all of them by default), in that order.

    ``minors`` are those of the matrix being extended; by default it has no
    columns, and its one minor, on no rows, is 1.  The columns are appended
    in turn, and each minor is expanded along its new column c against the
    minors before it: on rows r_0 < ... < r_k,

        det = sum_a (-1)^(k - a) * c[r_a] * minor(rows without r_a).

    Each width computes only the row sets that the next, wider one needs,
    and a zero or ``ONE`` factor forms no product.  The row sets, their
    terms and signs depend on the shape alone, so they are read from
    ``_minor_plan``; the walk here forms every product.  Every minor and
    determinant of fields is taken here.
    """
    if minors is None:
        minors = {(): ONE}
    if not fields:
        return dict(minors) if rows is None else {r: minors[r] for r in rows}
    width = len(next(iter(minors), ())) + len(fields)
    plan = _minor_plan(width, len(fields), None if rows is None else tuple(rows))
    for column, step in zip(fields, plan):
        coeffs = column.coeffs
        wider: dict[Rows, TrigScalar] = {}
        for r, expansion in step:
            acc = ZERO
            for i, sub, sign in expansion:
                c, m = coeffs[i], minors[sub]
                if c.is_zero() or m.is_zero():
                    continue
                term = c if m is ONE else m if c is ONE else c * m
                acc = acc + term if sign > 0 else acc - term
            wider[r] = acc
        minors = wider
    return minors


# the plans of the last this many shapes; two catalog and two sampled rounds
# use 31 between them
PLAN_TABLE_SIZE = 64


@lru_cache(maxsize=PLAN_TABLE_SIZE)
def _minor_plan(width: int, columns: int, rows: tuple[Rows, ...] | None) -> tuple:
    """The expansion plan of ``extend_minors`` for one shape: for each
    column appended, in turn, each row set it computes with the (frame
    index, row set without it, sign) of each term of its expansion.

    The key is the final width, the number of columns appended and the
    requested row sets as given, in their order (None for all of them).  A
    plan holds indices and signs only, never a scalar, so no result depends
    on it; the table keeps the last ``PLAN_TABLE_SIZE`` shapes.
    """
    top = list(itertools.combinations(range(4), width) if rows is None else rows)
    # the row sets of each width, from the widest down
    needed = [top]
    for _ in range(columns - 1):
        needed.append(sorted({r[:a] + r[a + 1:] for r in needed[-1]
                              for a in range(len(r))}))
    return tuple(
        tuple((r, tuple((i, r[:a] + r[a + 1:], 1 if (len(r) - 1 - a) % 2 == 0 else -1)
                        for a, i in enumerate(r)))
              for r in step)
        for step in reversed(needed))


def det_of_fields(fields: Sequence[VecField]) -> TrigScalar:
    """Determinant of the 4x4 coefficient matrix (fields as columns)."""
    if len(fields) != 4:
        raise ValueError("need exactly 4 fields for a determinant")
    return extend_minors(fields, [(0, 1, 2, 3)])[(0, 1, 2, 3)]

