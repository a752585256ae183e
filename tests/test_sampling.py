"""Grid sampling through the float form and by residue class, against plain
evaluation and against point-by-point oracles."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from engelcalc.framecalc import (
    FramedSpace,
    KForm,
    VecField,
    bracket,
    certify_no_common_zero,
    certify_nonvanishing,
    certify_vanishing,
    exterior_derivative,
    grid_points,
    single_direction,
)
from engelcalc.trigring import Frequency, PiScalar, TrigScalar, parse

from oracles import (
    brute_force_certificate,
    direct_sum_of_squares,
    fraction_period,
    frequency_vectors,
    is_single_direction,
    minors_of_fields,
    residue_values,
)

COORDS = ("a", "b", "c", "d")

# commensurate within each coordinate, so every grid has a derived period
FREQS = {
    "a": [Frequency.of(1), Frequency.of(2), Frequency.of(-3)],
    "b": [Frequency.of(0, 1), Frequency.of(0, 2), Frequency.of(0, "-1/2")],
    "c": [Frequency.of("1/2"), Frequency.of("3/2")],
    "d": [Frequency.of(0, "1/3"), Frequency.of(0, "2/3")],
}
PHASES = [Frequency.of(0), Frequency.of(0, "1/3"), Frequency.of(0, "-2/3"),
          Frequency.of(0, "1/6"), Frequency.of(0, "5/4"), Frequency.of("1/2")]


def space(coords=COORDS, periods=None) -> FramedSpace:
    return FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=coords,
                       derivation={(i, c): 1 for i, c in enumerate(coords)},
                       periods=periods)


@st.composite
def scalars(draw, coords=COORDS, max_waves=4, phases=PHASES):
    """Sums of up to max_waves waves over random subsets of coords, with
    pi-power coefficients and phases drawn from ``phases`` (rational-pi by
    default)."""
    out = TrigScalar.constant(Fraction(draw(st.integers(-2, 2))))
    for _ in range(draw(st.integers(0, max_waves))):
        own = draw(st.lists(st.sampled_from(coords), unique=True, max_size=len(coords)))
        freqs = {c: draw(st.sampled_from(FREQS[c])) for c in own}
        coeff = PiScalar.from_pairs([(draw(st.integers(-2, 2)),
                                      Fraction(draw(st.integers(-3, 3)),
                                               draw(st.integers(1, 4))))])
        wave = draw(st.sampled_from((TrigScalar.cosine, TrigScalar.sine)))
        out = out + wave(freqs, draw(st.sampled_from(phases)), coeff)
    return out


@settings(max_examples=150, deadline=None)
@given(scalars(), st.lists(st.sampled_from(COORDS), unique=True, max_size=4),
       st.integers(1, 3))
def test_grid_sampling_is_bit_identical_to_evaluate(s, extra, per_axis):
    # the grid may also carry coordinates the scalar does not use
    others = [] if s.is_zero() else [s]
    others += [TrigScalar.cosine({c: FREQS[c][0]}) for c in extra]
    points, _ = grid_points(space(), others or [s], per_axis)
    assert s.sample_grid(points.coords, points.axes) == \
        [s.evaluate(p) for p in points]


@settings(max_examples=60, deadline=None)
@given(scalars(), st.permutations(COORDS), st.integers(0, 10_000))
def test_sampling_any_axis_order(s, order, seed):
    # axes need not be sorted or evenly spaced
    axes = [[(seed % 7 + 1) * 0.37 * k - i for k in range(1 + (i + seed) % 3)]
            for i in range(len(order))]
    expected = [s.evaluate(dict(zip(order, combo)))
                for combo in itertools.product(*axes)]
    assert s.sample_grid(order, axes) == expected


def test_sampling_unassigned_coordinate():
    with pytest.raises(ValueError, match="'b'"):
        parse("sin(a + b)").sample_grid(("a",), ([0.0, 1.0],))


def test_grid_points_sequence():
    points, shape = grid_points(space(("a", "b")), [parse("cos(a) + sin(2*pi*b)")], 3)
    assert shape == {"a": 3, "b": 3}
    listed = [dict(zip(points.coords, combo))
              for combo in itertools.product(*points.axes)]
    assert list(points) == listed
    assert [points[i] for i in range(len(points))] == listed
    assert points[-1] == listed[-1]
    with pytest.raises(IndexError):
        points[len(points)]
    assert list(grid_points(space(), [], 5)[0]) == [{}]


def nonzero_fractions():
    return st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@st.composite
def frequencies(draw):
    """A nonzero frequency r + s*pi that is rational, a multiple of pi, or
    mixed, with either sign."""
    kind = draw(st.sampled_from(("rat", "pi", "mixed")))
    r = Fraction(0) if kind == "pi" else draw(nonzero_fractions())
    s = Fraction(0) if kind == "rat" else draw(nonzero_fractions())
    return Frequency(r, s)


@st.composite
def axis_frequencies(draw):
    """Rational multiples of one frequency, and at times a few more drawn
    freely, which are mostly no rational multiple of it."""
    base = draw(frequencies())
    multiples = draw(st.lists(nonzero_fractions(), min_size=1, max_size=5))
    return [base.scale(q) for q in multiples] + \
        draw(st.lists(frequencies(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(axis_frequencies(), st.one_of(st.none(), frequencies()), st.integers(1, 5))
# the unit -1 + pi has a negative rational part; the base -4 + pi is
# negative, so the unit is 4 - pi; 4 + 2*pi is the multiple 4/2 of the unit
# 2 + pi before reduction
@example([Frequency.of(-1, 1), Frequency.of(-3, 3)], None, 3)
@example([Frequency.of(-4, 1), Frequency.of(-8, 2)], None, 3)
@example([Frequency.of(2, 1), Frequency.of(4, 2)], None, 3)
def test_grid_axes_match_the_fraction_derivation(freqs, declared, per_axis):
    # the period bit for bit, the unit and the incommensurate error are the
    # Fraction derivation's, for derived and declared periods alike, and each
    # frequency counts in the unit as the Fractions count it, in the
    # canonical term order
    sp = space(("x",), periods=None if declared is None else {"x": declared})
    live = [TrigScalar.cosine({"x": f}) for f in freqs]
    try:
        period, unit = fraction_period(sp, "x", live)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            grid_points(sp, live, per_axis)
        return
    points, _ = grid_points(sp, live, per_axis)
    assert [x.hex() for x in points.axes[0]] == \
        [(period * k / per_axis).hex() for k in range(per_axis)]
    assert sp.coordinate_period("x", live)[0].hex() == period.hex()
    assert points.units == (unit,)
    waves = sum(live, TrigScalar())
    found = single_direction(waves, points.coords, points.units)
    vectors = frequency_vectors(waves, points)
    assert (found is None) == (vectors is None)
    if found is not None:
        (v,), multiples = found
        assert [{"x": v * m} for m in multiples] == vectors


@st.composite
def directed_scalars(draw, coords=COORDS):
    """Sums of up to four waves whose frequency vectors are integer multiples
    of one vector over a random set of coords: single-direction scalars."""
    own = draw(st.lists(st.sampled_from(coords), unique=True, min_size=1,
                        max_size=len(coords)))
    direction = {c: draw(st.sampled_from(FREQS[c])) for c in own}
    out = TrigScalar.constant(Fraction(draw(st.integers(-2, 2))))
    for _ in range(draw(st.integers(1, 4))):
        m = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        coeff = PiScalar.from_pairs([(draw(st.integers(-2, 2)),
                                      Fraction(draw(st.integers(-3, 3)),
                                               draw(st.integers(1, 4))))])
        wave = draw(st.sampled_from((TrigScalar.cosine, TrigScalar.sine)))
        out = out + wave({c: f.scale(m) for c, f in direction.items()},
                         draw(st.sampled_from(PHASES)), coeff)
    return out


# unit roundoff of a double
ROUNDOFF = 2.0 ** -53


def rounding_bound(s, points) -> float:
    """A bound on |residue value - evaluate| of s at any point of the grid.

    Both routes sum the same float coefficients c_t in term order, so they
    differ only through the angle handed to cos or sin, and through rounding.
    With u the unit roundoff, d the number of axes and T the number of terms:
    - evaluate's angle is phase + sum_c omega_c * x_c.  Every frequency here
      is rational or a rational multiple of pi, so no float period,
      frequency or axis value cancels: each has relative error below 10u,
      each product below 14u, and the d + 1 additions add at most d*u*A,
      A = |phase| + 2*pi + sum_c |omega_c| * max|x_c|.  So its error is at
      most (17 + d)*u*A.
    - the residue angle phase + 2*pi*r/N is within 3u*(|phase| + 2*pi) <= 3u*A
      of an angle congruent to the exact one mod 2*pi.
    - cos and sin are 1-Lipschitz and each rounds within u, and each route
      multiplies by c_t once, so term t differs by at most
      |c_t|*((20 + d)*u*A + 4u).
    - summing T terms in floats adds at most T*u*l1 on each side, l1 the sum
      of the |c_t|.
    So the values differ by at most u*l1*((20 + d)*A_max + 2T + 4), which
    16*(d + 2)*A_max + 2T + 8 exceeds.  min and max of |s| over the grid
    move by no more than the largest pointwise difference.
    """
    reach = {c: max(map(abs, axis)) for c, axis in zip(points.coords, points.axes)}
    l1, angle = 0.0, 0.0
    for (_, fr, ph), c in s.terms().items():
        l1 += abs(c.evaluate())
        angle = max(angle, abs(ph.value()) + 2 * math.pi +
                    sum(abs(f.value()) * reach[coord] for coord, f in fr))
    d = len(points.coords)
    return ROUNDOFF * l1 * (16 * (d + 2) * angle + 2 * len(s.terms()) + 8)


def certificate_values(scalars, points) -> list[list[float]]:
    """Each scalar at each grid point as the certificate reads it: at exact
    residue angles for single-direction scalars, by plain evaluation (which
    ``sample_grid`` matches bit for bit) for the rest."""
    return [residue_values(s, points) if is_single_direction(s, points)
            else [s.evaluate(p) for p in points] for s in scalars]


def assert_matches_oracles(cert, scalars, points, claim):
    # bit for bit against the point-by-point oracle of the route taken
    bound, at = brute_force_certificate(scalars, points, claim,
                                        certificate_values(scalars, points))
    assert (cert.kind, cert.bound, cert.witness_point) == ("FAILED", bound, at)
    # within rounding against plain evaluation everywhere
    plain, _ = brute_force_certificate(scalars, points, claim)
    assert abs(cert.bound - plain) <= max(rounding_bound(s, points) for s in scalars)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(scalars(), directed_scalars()), min_size=1, max_size=3),
       st.integers(1, 5))
def test_certificates_match_brute_force(live, per_axis):
    sp = space()
    live = [s for s in live if not s.is_zero()] or [parse("cos(a)")]
    points, _ = grid_points(sp, live, per_axis)
    assert_matches_oracles(certify_vanishing(live, sp, per_axis, tol=-1.0),
                           live, points, "vanishing")
    witness = live[0]
    if witness.constant_value() is None:
        points, _ = grid_points(sp, [witness], per_axis)
        assert_matches_oracles(certify_nonvanishing(witness, sp, per_axis, tol=math.inf),
                               [witness], points, "nonvanishing")


@settings(max_examples=60, deadline=None)
@given(st.one_of(scalars(), directed_scalars()))
def test_single_direction_matches_parallel_frequency_vectors(s):
    points, _ = grid_points(space(), [s], 3)
    found = single_direction(s, points.coords, points.units)
    assert (found is not None) == is_single_direction(s, points)
    if found is not None:
        v, multiples = found
        assert math.gcd(*v) in (0, 1)
        assert len(multiples) == len(s.terms())


def test_derived_period_is_two_pi_over_the_unit():
    # the unit of 5*pi/3 and pi is pi/3, whichever of them is the base
    sp = space(("x",))
    live = [parse("cos(5/3*pi*x)"), parse("cos(pi*x)")]
    assert sp.coordinate_period("x", live) == (6.0, Frequency.of(0, "1/3"))


def test_residues_reach_past_components_sharing_a_factor_with_n():
    # with unit periods, v = (2, 3) and N = 6: 2*kx alone reaches only even
    # residues and 3*ky only multiples of 3, but together they reach all six.
    # The zero of 1 - cos(theta - pi/3) is at residue 1, first reached at
    # (kx, ky) = (2, 1)
    sp = space(("x", "y"), periods={"x": Frequency.of(1), "y": Frequency.of(1)})
    witness = parse("1 - cos(4*pi*x + 6*pi*y - pi/3)")
    points, _ = grid_points(sp, [witness], 6)
    assert single_direction(witness, points.coords, points.units)[0] == (2, 3)
    cert = certify_nonvanishing(witness, sp, grid=6)
    assert cert.kind == "FAILED" and cert.bound < 1e-15
    assert cert.witness_point == {"x": points.axes[0][2], "y": points.axes[1][1]}
    assert_matches_oracles(cert, [witness], points, "nonvanishing")


def test_mixed_frequencies_count_in_their_own_unit():
    # 1 + pi and 2 + 2*pi are multiples 1 and 2 of the derived unit 1 + pi
    sp = space(("x",))
    witness = parse("1/2 + cos(x + pi*x) + 1/3*sin(2*x + 2*pi*x + 1)")
    points, _ = grid_points(sp, [witness], 9)
    assert points.units == (Frequency.of(1, 1),)
    assert single_direction(witness, points.coords, points.units) == ((1,), (0, 1, 2))
    cert = certify_nonvanishing(witness, sp, grid=9, tol=math.inf)
    assert (cert.bound, cert.witness_point) == brute_force_certificate(
        [witness], points, "nonvanishing", [residue_values(witness, points)])


def test_one_point_per_axis_is_plain_evaluation():
    sp = space(("x", "y"))
    live = [parse("1/3 + cos(2*pi*x + 2*pi*y + 1/2)"), parse("sin(4*pi*y + pi/3)")]
    origin = {"x": 0.0, "y": 0.0}
    cert = certify_nonvanishing(live[0], sp, grid=1, tol=math.inf)
    assert (cert.bound, cert.witness_point) == (abs(live[0].evaluate(origin)), origin)
    cert = certify_vanishing(live, sp, grid=1, tol=-1.0)
    assert cert.bound == max(abs(s.evaluate(origin)) for s in live)
    assert cert.witness_point == origin


def test_vanishing_takes_each_scalar_in_its_own_direction():
    # three directions over a 3-axis grid; the second and third scalars do
    # not depend on every axis, the last not on any of x, y
    sp = space(("x", "y", "z"))
    live = [parse("sin(2*pi*x + 4*pi*y + 1/3)"), parse("3/4*cos(6*pi*y)"),
            parse("1/2*cos(2*pi*z) - 1/5*sin(4*pi*z)")]
    points, _ = grid_points(sp, live, 5)
    directions = [single_direction(s, points.coords, points.units)[0] for s in live]
    assert directions == [(1, 2, 0), (0, 1, 0), (0, 0, 1)]
    cert = certify_vanishing(live, sp, grid=5, tol=-1.0)
    assert_matches_oracles(cert, live, points, "vanishing")
    # every phase has a zero pi part, so the nonzero scalars fail within
    # the tolerance too, and so does a claim that pairs one of them with a
    # pi/3 phase, where the zero test is incomplete; pi/3 phases alone keep
    # the grid's SAMPLED pass
    assert certify_vanishing(live, sp, grid=5, tol=1.0) == \
        dataclasses.replace(cert, tolerance=1.0)
    thirds = [parse("sin(2*pi*x + 4*pi*y + pi/3)"), parse("3/4*cos(6*pi*y + pi/3)"),
              parse("1/2*cos(2*pi*z + pi/3) - 1/5*sin(4*pi*z + pi/3)")]
    assert all(s.has_pi_phase() for s in thirds)
    assert not any(s.has_pi_phase() for s in live)
    assert certify_vanishing([thirds[0], *live[1:]], sp, grid=5, tol=1.0).kind == "FAILED"
    cert = certify_vanishing(thirds, sp, grid=5, tol=1.0)
    assert cert.kind == "SAMPLED"


def test_single_direction_ties_go_to_the_first_point_in_grid_order():
    sp = space(("x", "y"))
    # 1 + cos(2 pi (x + y)) is exactly 0 wherever kx + ky = 2 mod 4
    cert = certify_nonvanishing(parse("1 + cos(2*pi*x + 2*pi*y)"), sp, grid=4)
    assert (cert.kind, cert.bound) == ("FAILED", 0.0)
    assert cert.witness_point == {"x": 0.0, "y": 0.5}
    # |sin 2 pi (x + y)| is exactly 1 at residues 1 and 3
    cert = certify_vanishing([parse("sin(2*pi*x + 2*pi*y)")], sp, grid=4)
    assert (cert.kind, cert.bound) == ("FAILED", 1.0)
    assert cert.witness_point == {"x": 0.0, "y": 0.25}


def test_inexact_declared_period_keeps_the_full_sweep(monkeypatch):
    # a declared period of 1 has the unit 2*pi, of which the frequency 1 is no
    # integer multiple: the witness is sampled point by point, as before
    sp = space(("x", "y"), periods={"x": Frequency.of(1)})
    witness = parse("2 + cos(x) + cos(2*pi*y)")
    points, shape = grid_points(sp, [witness], 7)
    assert points.units[0] is not None
    assert single_direction(witness, points.coords, points.units) is None
    calls = []
    sample_grid = TrigScalar.sample_grid

    def counting(self, *args):
        calls.append(self)
        return sample_grid(self, *args)

    monkeypatch.setattr(TrigScalar, "sample_grid", counting)
    cert = certify_nonvanishing(witness, sp, grid=7, tol=math.inf)
    assert calls == [witness]
    monkeypatch.undo()
    bound, at = brute_force_certificate([witness], points, "nonvanishing")
    assert cert.to_json() == {"kind": "FAILED", "claim": "nonvanishing",
                              "grid": shape, "bound": bound,
                              "tolerance": math.inf, "witness_point": at}


def test_single_direction_witnesses_never_sweep_the_grid(monkeypatch):
    # 17^4 = 83,521 grid points: a single-direction witness is tabulated over
    # 17 residues, and only a witness of two directions reaches sample_grid
    def refuse(*args):
        raise AssertionError("full grid sweep")

    monkeypatch.setattr(TrigScalar, "sample_grid", refuse)
    sp = space()
    wave = parse("2 + cos(2*pi*a + pi*b + 4*pi*c + pi/3*d)")
    witness = wave * wave
    cert = certify_nonvanishing(witness, sp, grid=17)
    assert cert.kind == "SAMPLED" and cert.grid == dict.fromkeys(COORDS, 17)
    assert 1.0 <= cert.bound <= 9.0
    cert = certify_vanishing([wave - 2, parse("sin(2*pi*a)")], sp, grid=17)
    assert cert.kind == "FAILED" and cert.grid == dict.fromkeys(COORDS, 17)
    with pytest.raises(AssertionError, match="full grid sweep"):
        certify_nonvanishing(parse("cos(2*pi*x) + cos(2*pi*y)"),
                             space(("x", "y")), grid=17)


def test_ties_go_to_the_first_point_in_grid_order():
    sp = space(("x", "y"))
    # |cos 2pi x + cos 2pi y| is exactly 0 at (0, 1/2) and at (1/2, 0)
    witness = parse("cos(2*pi*x) + cos(2*pi*y)")
    cert = certify_nonvanishing(witness, sp, grid=4)
    assert (cert.kind, cert.bound) == ("FAILED", 0.0)
    assert cert.witness_point == {"x": 0.0, "y": 0.5}
    points, _ = grid_points(sp, [witness], 4)
    assert brute_force_certificate([witness], list(points), "nonvanishing") == \
        (cert.bound, cert.witness_point)
    # |sin 2pi x| = 1 exactly at x = 1/4 and 3/4, for every y
    live = [parse("sin(2*pi*x)"), parse("1/2*cos(2*pi*y)")]
    cert = certify_vanishing(live, sp, grid=4)
    assert (cert.kind, cert.bound) == ("FAILED", 1.0)
    assert cert.witness_point == {"x": 0.25, "y": 0.0}
    points, _ = grid_points(sp, live, 4)
    assert brute_force_certificate(live, list(points), "vanishing") == \
        (cert.bound, cert.witness_point)


def test_coordinate_free_wave_samples_one_point():
    # cos(pi/3) - 1/2 is not folded to zero by the normal form: its single
    # grid point is the empty one and it fails there
    cert = certify_nonvanishing(parse("cos(pi/3) - 1/2"), space())
    assert cert.kind == "FAILED"
    assert cert.witness_point == {}
    assert cert.bound < 1e-15


def _same_certificate(a, b) -> bool:
    return (a.kind, a.witness, a.bound, a.witness_point) == \
        (b.kind, b.witness, b.bound, b.witness_point)


# tolerances that let a sampled witness pass, fail, or go either way
TOLERANCES = st.sampled_from((-1.0, 1e-6, 0.5, math.inf))


@settings(max_examples=80, deadline=None)
@given(st.lists(scalars(), min_size=1, max_size=4), st.integers(1, 3), TOLERANCES)
def test_no_common_zero_is_nonvanishing_of_the_sum_of_squares(ss, per_axis, tol):
    sp = space()
    cert = certify_no_common_zero(ss, sp, per_axis, tol)
    direct = certify_nonvanishing(direct_sum_of_squares(ss), sp, per_axis, tol)
    assert _same_certificate(cert, direct)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(scalars(max_waves=1), min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.integers(1, 3), TOLERANCES)
def test_no_common_zero_of_minors_is_nonvanishing_of_their_sum_of_squares(rows, per_axis, tol):
    sp = space()
    fields = [VecField.of(*row) for row in rows]
    cert = certify_no_common_zero(minors_of_fields(fields), sp, per_axis, tol)
    direct = certify_nonvanishing(direct_sum_of_squares(minors_of_fields(fields)),
                                  sp, per_axis, tol)
    assert _same_certificate(cert, direct)


# -- one exact value, one float value, whatever the route ---------------------

# phases whose sums stay rational or quarter turns, where the normal form is
# canonical, so two routes to one value give equal exact scalars
CANONICAL_PHASES = [Frequency.of(0), Frequency.of("1/2"), Frequency.of(0, "1/2")]


def _sample_axes(coords, per_axis):
    return [[0.37 * k - 0.11 * i for k in range(per_axis)] for i in range(len(coords))]


@settings(max_examples=80, deadline=None)
@given(scalars(phases=CANONICAL_PHASES), st.integers(1, 3))
def test_a_square_samples_alike_by_either_route(s, per_axis):
    # s * s against a triangle loop of pair products, last term first, which
    # inserts the terms of the same value in another order
    parts = [TrigScalar({w: c}) for w, c in reversed(s.terms().items())]
    triangle = TrigScalar()
    for i, a in enumerate(parts):
        triangle = triangle + a * a
        for b in parts[i + 1:]:
            triangle = triangle + 2 * (a * b)
    square = s * s
    assert triangle == square
    axes = _sample_axes(COORDS, per_axis)
    assert triangle.sample_grid(COORDS, axes) == square.sample_grid(COORDS, axes)


def cartan_space() -> FramedSpace:
    # a noncommutative frame over two coordinates: [E1, E2] = -E3, and E3
    # differentiates neither coordinate
    return FramedSpace(frame=("e1", "e2", "e3", "e4"), coords=("a", "b"),
                       structure={(0, 1): (0, 0, -1, 0)},
                       derivation={(3, "a"): 1, (1, "b"): 1})


@settings(max_examples=40, deadline=None)
@given(st.lists(scalars(coords=("a", "b"), max_waves=2, phases=CANONICAL_PHASES),
                min_size=12, max_size=12), st.integers(1, 3))
def test_d_alpha_samples_alike_by_either_route(coeffs, per_axis):
    # d(alpha)(X, Y) from exterior_derivative against Cartan's formula
    # X alpha(Y) - Y alpha(X) - alpha([X, Y])
    sp = cartan_space()
    alpha = KForm.one_form(coeffs[:4])
    x, y = VecField.of(*coeffs[4:8]), VecField.of(*coeffs[8:])
    palais = exterior_derivative(alpha, sp)(x, y)
    cartan = sp.apply(x, alpha(y)) - sp.apply(y, alpha(x)) - alpha(bracket(x, y, sp))
    assert palais == cartan
    axes = _sample_axes(sp.coords, per_axis)
    assert palais.sample_grid(sp.coords, axes) == cartan.sample_grid(sp.coords, axes)
