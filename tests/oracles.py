"""Independent numeric oracles used across the test suite.

These recompute claims through plain float evaluation (finite differences,
numpy determinants, pointwise linear algebra), never through the symbolic
code paths they are checking.  The exceptions, ``direct_w_residuals``,
``direct_product``, ``direct_differentiate`` and ``direct_sum_of_squares``,
are the exact expansions that shortcuts or shared helpers in the code
replaced.
"""

from __future__ import annotations

import numpy as np

from engelcalc.framecalc import FramedSpace, VecField, bracket
from engelcalc.trigring import _CONST_WAVE, _PI_HALF, ZERO, TrigScalar, _angle_add


def direct_w_residuals(flag, w: VecField, space: FramedSpace) -> list:
    """alpha([W, X]) for X = D1, D2, E3, with each bracket taken in full."""
    return [flag.alpha(bracket(w, x, space)) for x in (flag.d1, flag.d2, flag.e3)]


def direct_sum_of_squares(scalars) -> TrigScalar:
    """The sum of the squares of the scalars, added in order from zero."""
    witness = ZERO
    for s in scalars:
        witness = witness + s * s
    return witness


def _wave_product(w1, w2) -> list:
    """Product-to-sum expansion of two waves: each output wave, not yet
    canonical, with the sign of its coefficient, which is 1/2 times that sign."""
    sf, sp = _angle_add(w1, w2)
    df, dp = _angle_add(w1, w2, subtract=True)
    k1, k2 = w1[0], w2[0]
    if k1 == "c" and k2 == "c":
        return [("c", df, dp, 1), ("c", sf, sp, 1)]
    if k1 == "s" and k2 == "s":
        return [("c", df, dp, 1), ("c", sf, sp, -1)]
    if k1 == "s":  # sin * cos
        return [("s", sf, sp, 1), ("s", df, dp, 1)]
    # cos * sin
    return [("s", sf, sp, 1), ("s", df, dp, -1)]


def direct_product(a: TrigScalar, b: TrigScalar) -> TrigScalar:
    """a * b with every product-to-sum wave canonicalised and merged anew."""
    out = TrigScalar()
    for w1, c1 in a.terms().items():
        for w2, c2 in b.terms().items():
            c = c1 * c2
            if w1 == _CONST_WAVE:
                out._merge(w2, c)
            elif w2 == _CONST_WAVE:
                out._merge(w1, c)
            else:
                half = c * _PI_HALF
                for kind, fr, ph, sign in _wave_product(w1, w2):
                    out._add_term(kind, fr, ph, half if sign > 0 else -half)
    return out


def direct_differentiate(s: TrigScalar, coord: str) -> TrigScalar:
    """d s / d coord with every output term canonicalised and merged anew."""
    out = TrigScalar()
    for (kind, fr, ph), c in s.terms().items():
        omega = dict(fr).get(coord)
        if omega is None:
            continue
        dc = c * omega.as_coeff()
        if kind == "c":
            out._add_term("s", dict(fr), ph, -dc)
        else:
            out._add_term("c", dict(fr), ph, dc)
    return out


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
