"""Independent numeric oracles used across the test suite.

These recompute claims through plain float evaluation (finite differences,
numpy determinants, pointwise linear algebra), never through the symbolic
code paths they are checking.  The one exception, ``direct_w_residuals``, is
the exact expansion that a shortcut in the code replaced.
"""

from __future__ import annotations

import numpy as np

from engelcalc.framecalc import FramedSpace, VecField, bracket


def direct_w_residuals(flag, w: VecField, space: FramedSpace) -> list:
    """alpha([W, X]) for X = D1, D2, E3, with each bracket taken in full."""
    return [flag.alpha(bracket(w, x, space)) for x in (flag.d1, flag.d2, flag.e3)]


def numeric_directional(space: FramedSpace, v: VecField, scalar, point: dict,
                        h: float = 1e-5) -> float:
    """v(scalar)(point) by central finite differences of plain evaluation."""
    out = 0.0
    for i in range(4):
        vi = v.coeffs[i].evaluate(point)
        if vi == 0.0:
            continue
        for coord in space.coords:
            d = space.derivation[i].get(coord)
            if d is None:
                continue
            up = dict(point); up[coord] += h
            dn = dict(point); dn[coord] -= h
            out += vi * d.evaluate(point) * \
                (scalar.evaluate(up) - scalar.evaluate(dn)) / (2 * h)
    return out


def numeric_bracket(space: FramedSpace, v: VecField, w: VecField,
                    point: dict, h: float = 1e-5) -> np.ndarray:
    """[v, w](point) assembled from finite differences plus the table."""
    out = np.zeros(4)
    for k in range(4):
        out[k] = numeric_directional(space, v, w.coeffs[k], point, h) \
            - numeric_directional(space, w, v.coeffs[k], point, h)
    for (i, j), comp in space.structure.items():
        c = v.coeffs[i].evaluate(point) * w.coeffs[j].evaluate(point) \
            - v.coeffs[j].evaluate(point) * w.coeffs[i].evaluate(point)
        for k in range(4):
            ck = comp.coeffs[k]
            if not ck.is_zero():
                out[k] += c * ck.evaluate(point)
    return out


def numeric_matrix(fields, point: dict) -> np.ndarray:
    """Coefficient matrix (fields as columns) evaluated at a point."""
    return np.array([[f.coeffs[row].evaluate(point) for f in fields]
                     for row in range(4)])


def random_points(space: FramedSpace, rng, count: int) -> list[dict]:
    return [{c: rng.uniform(-3.0, 3.0) for c in space.coords}
            for _ in range(count)]


def brute_force_certificate(scalars, points, claim: str) -> tuple[float, dict | None]:
    """(bound, witness point) of a sampled certificate by point-by-point evaluation.

    Nonvanishing takes the smallest |s| of the single scalar, vanishing the
    largest |s| over all scalars; a tie goes to the first point in the order
    given, and vanishing names no point when every value is zero.
    """
    if claim == "nonvanishing":
        (s,) = scalars
        best, at = None, None
        for p in points:
            v = abs(s.evaluate(p))
            if best is None or v < best:
                best, at = v, p
        return best, at
    best, at = 0.0, None
    for p in points:
        for s in scalars:
            v = abs(s.evaluate(p))
            if v > best:
                best, at = v, p
    return best, at
