"""Grid sampling through the float form, against plain evaluation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engelcalc.framecalc import (
    FramedSpace,
    VecField,
    certify_no_common_zero,
    certify_nonvanishing,
    certify_vanishing,
    global_rank,
    grid_points,
    minors_of_fields,
)
from engelcalc.trigring import Frequency, PiScalar, TrigScalar, parse

from oracles import brute_force_certificate, direct_sum_of_squares

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
def scalars(draw, coords=COORDS, max_waves=4):
    """Sums of up to max_waves waves over random subsets of coords, with
    pi-power coefficients and rational-pi phases."""
    out = TrigScalar.constant(Fraction(draw(st.integers(-2, 2))))
    for _ in range(draw(st.integers(0, max_waves))):
        own = draw(st.lists(st.sampled_from(coords), unique=True, max_size=len(coords)))
        freqs = {c: draw(st.sampled_from(FREQS[c])) for c in own}
        coeff = PiScalar.from_pairs([(draw(st.integers(-2, 2)),
                                      Fraction(draw(st.integers(-3, 3)),
                                               draw(st.integers(1, 4))))])
        wave = draw(st.sampled_from((TrigScalar.cosine, TrigScalar.sine)))
        out = out + wave(freqs, draw(st.sampled_from(PHASES)), coeff)
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


@settings(max_examples=80, deadline=None)
@given(st.lists(scalars(), min_size=1, max_size=3), st.integers(1, 3))
def test_certificates_match_brute_force(live, per_axis):
    sp = space()
    live = [s for s in live if not s.is_zero()] or [parse("cos(a)")]
    points, _ = grid_points(sp, live, per_axis)
    bound, at = brute_force_certificate(live, list(points), "vanishing")
    cert = certify_vanishing(live, sp, per_axis, tol=-1.0)
    assert (cert.kind, cert.bound, cert.witness_point) == ("FAILED", bound, at)
    witness = live[0]
    if witness.constant_value() is None:
        points, _ = grid_points(sp, [witness], per_axis)
        bound, at = brute_force_certificate([witness], list(points), "nonvanishing")
        cert = certify_nonvanishing(witness, sp, per_axis, tol=math.inf)
        assert (cert.kind, cert.bound, cert.witness_point) == ("FAILED", bound, at)


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
def test_global_rank_is_no_common_zero_of_the_minors(rows, per_axis, tol):
    sp = space()
    fields = [VecField.of(*row) for row in rows]
    cert = global_rank(fields, sp, per_axis, tol)
    direct = certify_nonvanishing(direct_sum_of_squares(minors_of_fields(fields)),
                                  sp, per_axis, tol)
    assert _same_certificate(cert, direct)
