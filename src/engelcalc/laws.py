"""Seeded randomized suite for the algebraic laws of the calculus.

Checks bracket bilinearity, antisymmetry and the Leibniz rule, the
derivation law of differentiation, d(d(form)) = 0, and agreement of
evaluation with normalisation, over randomly generated scalars and fields.
Everything is driven by one ``random.Random(seed)`` instance, so the
resulting report is reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .framecalc import FramedSpace, KForm, VecField, bracket, exterior_derivative
from .trigring import Frequency, TrigScalar

__all__ = ["run_law_suite"]

_FREQS = (
    Frequency.of(1),
    Frequency.of(2),
    Frequency.of(3),
    Frequency.of(0, 1),
    Frequency.of(0, 2),
    Frequency.of(0, "1/2"),
)


def _law_space() -> FramedSpace:
    # noncommutative frame over two coordinates; the bracket image (E3)
    # must not differentiate the coordinates, or the model is inconsistent
    return FramedSpace(
        frame=("E1", "E2", "E3", "E4"),
        coords=("t", "x"),
        structure={(0, 1): (0, 0, -1, 0)},
        derivation={(3, "t"): 1, (1, "x"): 1},
        name="law_suite",
    )


def _random_scalar(rng: random.Random, coords: tuple[str, ...]) -> TrigScalar:
    out = TrigScalar.constant(Fraction(rng.randint(-3, 3)))
    for _ in range(rng.randint(0, 2)):
        coord = rng.choice(coords)
        freq = rng.choice(_FREQS)
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        wave = TrigScalar.sine if rng.random() < 0.5 else TrigScalar.cosine
        out = out + wave({coord: freq}, coeff=coeff)
    return out


def _random_field(rng: random.Random, coords: tuple[str, ...]) -> VecField:
    return VecField.of(*(_random_scalar(rng, coords) for _ in range(4)))


def _random_point(rng: random.Random, coords: tuple[str, ...]) -> dict[str, float]:
    return {c: rng.uniform(-3.0, 3.0) for c in coords}


def run_law_suite(seed: int = 0, cases: int = 1000, tol: float = 1e-12) -> dict:
    """Run `cases` random instances of each law; returns a stable report dict."""
    rng = random.Random(seed)
    space = _law_space()
    coords = space.coords
    worst = {
        "bracket_bilinear": 0.0,
        "bracket_antisymmetric": 0.0,
        "bracket_leibniz": 0.0,
        "derivation_product_rule": 0.0,
        "d_squared_zero": 0.0,
        "evaluate_normalize": 0.0,
    }
    failures = {k: 0 for k in worst}

    def check(law: str, scalars, point) -> None:
        value = max(abs(s.evaluate(point)) for s in scalars) if scalars else 0.0
        worst[law] = max(worst[law], value)
        if value > tol:
            failures[law] += 1

    for _ in range(cases):
        point = _random_point(rng, coords)
        u = _random_field(rng, coords)
        v = _random_field(rng, coords)
        w = _random_field(rng, coords)
        s = _random_scalar(rng, coords)

        lin = bracket(u + v, w, space) - bracket(u, w, space) - bracket(v, w, space)
        check("bracket_bilinear", lin.coeffs, point)

        uv = bracket(u, v, space)
        anti = uv + bracket(v, u, space)
        check("bracket_antisymmetric", anti.coeffs, point)

        lhs = bracket(u, v.scale(s), space)
        rhs = v.scale(space.apply(u, s)) + uv.scale(s)
        check("bracket_leibniz", (lhs - rhs).coeffs, point)

        a = _random_scalar(rng, coords)
        b = _random_scalar(rng, coords)
        coord = rng.choice(coords)
        prod = (a * b).differentiate(coord) \
            - a.differentiate(coord) * b - a * b.differentiate(coord)
        check("derivation_product_rule", [prod], point)

        form = KForm.one_form([_random_scalar(rng, coords) for _ in range(4)])
        dd = exterior_derivative(exterior_derivative(form, space), space)
        check("d_squared_zero", list(dd.terms.values()), point)

        symbolic = (a + b) * s
        direct = (a.evaluate(point) + b.evaluate(point)) * s.evaluate(point)
        residual = abs(symbolic.evaluate(point) - direct)
        worst["evaluate_normalize"] = max(worst["evaluate_normalize"], residual)
        if residual > tol:
            failures["evaluate_normalize"] += 1

    return {
        "seed": seed,
        "cases": cases,
        "tolerance": tol,
        "worst_residual": {k: worst[k] for k in sorted(worst)},
        "failures": {k: failures[k] for k in sorted(failures)},
        "passed": all(n == 0 for n in failures.values()),
    }
