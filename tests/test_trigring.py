import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from engelcalc import trigring
from engelcalc.laws import run_law_suite
from engelcalc.trigring import (
    ONE,
    PRODUCT_MEMO_SIZE,
    WAVE_TABLE_SIZE,
    ZERO,
    Frequency,
    PiScalar,
    TrigScalar,
    WaveKey,
    _CONST_WAVE,
    _PRODUCT_ROWS,
    _Parser,
    _angle,
    _angle_products,
    _canonical,
    _partner,
    differentiate,
    evaluate,
    is_identically_zero,
    normalize,
    parse,
)
from oracles import (
    canonical_items,
    direct_difference,
    direct_differentiate,
    direct_product,
    direct_sum,
    reference_product_keys,
)

# the row of trig_i(a) * trig_j(b) in the product-to-sum table
_KINDS = (("c", "c", 0), ("c", "s", 1), ("s", "c", 2), ("s", "s", 3))


def _kind_product(entry, i):
    """The waves of kind product ``i`` of an angle-pair memo entry, each
    ``(key, sign)``, read through the table the product loop uses."""
    return tuple((entry[j][0], entry[j][1] * s) for j, s in _PRODUCT_ROWS[i]
                 if entry[j] is not None)


def test_pythagorean_collapse():
    assert parse("sin(t)*sin(t) + cos(t)*cos(t)") == 1


def test_product_to_sum():
    assert parse("sin(t)*cos(t)") == parse("1/2*sin(2*t)")


def test_pi_frequency_collapse():
    # the wave pair behind rotation blocks at frequency n_k*pi
    s = parse("cos(6*pi*x2)*cos(6*pi*x2) + sin(6*pi*x2)*sin(6*pi*x2)")
    assert s == 1


def test_normalize_idempotent():
    s = parse("2*cos(t) - cos(t) + sin(x)*sin(x)")
    assert normalize(s) is s  # already canonical


def test_non_affine_argument_rejected():
    with pytest.raises(ValueError):
        parse("sin(sin(t))")
    with pytest.raises(ValueError):
        parse("sin(pi*pi*t)")
    with pytest.raises(ValueError):
        parse("t")  # bare coordinates are not trig polynomials


# an angle product with no factor, or a '*' with none after it, was read as a
# factor of 1: cos(x + ) parsed as cos(x + 1) and sin(x*-y) as sin(x - y)
@pytest.mark.parametrize("text, position", [
    ("cos(x + )", 4), ("sin(x + + y)", 4), ("sin(+x)", 2), ("sin()", 2),
    ("cos( - )", 3), ("sin(x - )", 4),
])
def test_an_empty_angle_product_is_rejected(text, position):
    with pytest.raises(ValueError, match=f"^empty product in sin/cos argument "
                                         f"at position {position}$"):
        parse(text)


@pytest.mark.parametrize("text, position", [
    ("sin(x*)", 4), ("sin(x*-y)", 4), ("sin(1*-x)", 4), ("cos(2*pi* + x)", 6),
])
def test_a_dangling_star_in_an_angle_is_rejected(text, position):
    with pytest.raises(ValueError, match=fr"^expected a factor after '\*' at "
                                         fr"position {position}$"):
        parse(text)


@pytest.mark.parametrize("text, position", [
    ("pi^x", 2), ("1//2", 2), ("1/-2", 2), ("cos(()*x)", 3), ("sin(x/y)", 4),
    ("pi^", 2), ("1/", 2),
])
def test_a_missing_integer_names_its_position(text, position):
    with pytest.raises(ValueError, match=f"^expected an integer at position {position}$"):
        parse(text)


def test_a_sign_after_a_factor_starts_the_next_product():
    # a '-' after a first factor of 1 was read as that product's sign
    assert parse("sin(1 - x)") == parse("-sin(x - 1)")
    assert parse("cos(1 - pi*x)") == parse("cos(pi*x - 1)")
    assert parse("sin(-x - 1)") == parse("-sin(x + 1)")


def test_differentiate_chain_rule():
    assert differentiate(parse("sin(2*pi*x1)"), "x1") == parse("2*pi*cos(2*pi*x1)")
    assert differentiate(parse("5"), "t").is_zero()
    assert differentiate(parse("cos(6*pi*x2)"), "x2") == parse("-6*pi*sin(6*pi*x2)")


def test_differentiate_off_coordinate():
    assert differentiate(parse("sin(t)"), "x").is_zero()


def test_evaluate():
    assert evaluate(parse("sin(pi*t)"), {"t": 0.5}) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(parse("1"), {}) == 1.0
    # normal form makes this the constant 1, so the value is exact
    s = parse("sin(t)*sin(t) + cos(t)*cos(t)")
    assert evaluate(s, {"t": 0.37}) == 1.0


def test_evaluate_unassigned_coordinate():
    with pytest.raises(ValueError, match="'t'"):
        evaluate(parse("sin(t)"), {})


def test_is_identically_zero():
    assert is_identically_zero(parse("sin(t)*sin(t) + cos(t)*cos(t) - 1"))
    assert not is_identically_zero(parse("sin(t)"))


def test_phase_reduction_mod_two_pi():
    assert parse("cos(8*pi*x2 + (8/3)*pi)") == parse("cos(8*pi*x2 + (2/3)*pi)")


def test_quarter_turn_phases_absorbed():
    assert parse("cos(t + pi)") == parse("-cos(t)")
    assert parse("sin(pi/2 - 2*t)") == parse("cos(2*t)")
    assert parse("sin(t + pi/2)") == parse("cos(t)")


def test_angle_addition_through_products():
    lhs = parse("cos((2/3)*pi)*cos(8*pi*x2) - sin((2/3)*pi)*sin(8*pi*x2)")
    assert lhs == parse("cos(8*pi*x2 + (2/3)*pi)")


def test_shift_substitution():
    s = parse("cos(6*pi*x2)")
    assert s.shift("x2", Fraction(1, 2)) == parse("-cos(6*pi*x2)")
    assert s.shift("x2", Fraction(1, 3)) == parse("cos(6*pi*x2 + 2*pi)") == s


def test_division_by_constants():
    s = parse("2*pi*cos(t)")
    assert s.div_exact(PiScalar.from_pairs([(1, 2)])) == parse("cos(t)")
    # pi-monomials are units of the Laurent ring, so this is exact
    q = parse("(1 + pi)*cos(t)").div_exact(PiScalar.from_pairs([(1, 1)]))
    assert q == parse("(pi^-1 + 1)*cos(t)")
    # but a non-monomial constant need not divide
    assert parse("(1 + pi)*cos(t)").div_exact(
        PiScalar.from_pairs([(0, 1), (1, -1)])) is None
    assert PiScalar.from_pairs([(2, 4)]).div_exact(
        PiScalar.from_pairs([(1, 2)])) == PiScalar.from_pairs([(1, 2)])


def test_frequency_json_round_trip():
    f = Frequency.of("3/4", "-2/5")
    assert Frequency.from_json(f.to_json()) == f
    assert f.to_json() == {"rat": "3/4", "pi": "-2/5"}


# -- randomized properties ----------------------------------------------------

_COORDS = ("t", "x")
_FREQ_POOL = [Frequency.of(1), Frequency.of(2), Frequency.of(3),
              Frequency.of(0, 1), Frequency.of(0, "1/2"), Frequency.of(0, 2)]


@st.composite
def scalars(draw):
    out = TrigScalar.constant(Fraction(draw(st.integers(-3, 3))))
    for _ in range(draw(st.integers(0, 2))):
        coord = draw(st.sampled_from(_COORDS))
        freq = draw(st.sampled_from(_FREQ_POOL))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        kind = draw(st.sampled_from((TrigScalar.sine, TrigScalar.cosine)))
        out = out + kind({coord: freq}, coeff=coeff)
    return out


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_ring_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), st.sampled_from(_COORDS))
def test_derivation_law(a, b, coord):
    lhs = (a * b).differentiate(coord)
    rhs = a.differentiate(coord) * b + a * b.differentiate(coord)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(scalars(), st.integers(0, 10_000))
def test_evaluate_matches_termwise_float_sum(s, pt_seed):
    rng = random.Random(pt_seed)
    point = {c: rng.uniform(-5, 5) for c in _COORDS}
    # naive reference: evaluate each canonical term independently
    ref = 0.0
    for (kind, freqs, phase), coeff in s.terms().items():
        angle = phase.rat + float(phase.pi) * math.pi
        for coord, f in freqs:
            angle += (float(f.rat) + float(f.pi) * math.pi) * point[coord]
        ref += coeff.evaluate() * (math.cos(angle) if kind == "c"
                                   else math.sin(angle))
    assert s.evaluate(point) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_format_parse_round_trip(s):
    assert parse(str(s)) == s


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), st.integers(0, 10_000))
def test_product_agrees_numerically(a, b, pt_seed):
    rng = random.Random(pt_seed)
    point = {c: rng.uniform(-5, 5) for c in _COORDS}
    lhs = (a * b).evaluate(point)
    assert lhs == pytest.approx(a.evaluate(point) * b.evaluate(point), abs=1e-10)


_PHASES = [Frequency.of(0, 0), Frequency.of(0, "1/2"), Frequency.of(0, 1),
           Frequency.of(0, "3/2"), Frequency.of(0, "2/3"), Frequency.of(0, "8/3"),
           Frequency.of(0, "-1/3"), Frequency.of(1, 0), Frequency.of(-2, "1/2"),
           Frequency.of(0, "7/2"), Frequency.of(0, "-5/2")]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("c", "s")),
       st.sampled_from(_FREQ_POOL + [Frequency.of(-1), Frequency.of(0, "-1/2"),
                                     Frequency.of(0, 0)]),
       st.sampled_from(_PHASES),
       st.integers(0, 10_000))
def test_wave_canonicalization_preserves_semantics(kind, freq, phase, pt_seed):
    # the canonical key (orbit flip, mod-2pi reduction, quarter-turn
    # absorption) must never change the value of the wave
    rng = random.Random(pt_seed)
    t = rng.uniform(-7, 7)
    wave = TrigScalar.cosine if kind == "c" else TrigScalar.sine
    s = wave({"t": freq}, phase)
    angle = (float(freq.rat) + float(freq.pi) * math.pi) * t \
        + float(phase.rat) + float(phase.pi) * math.pi
    expected = math.cos(angle) if kind == "c" else math.sin(angle)
    assert s.evaluate({"t": t}) == pytest.approx(expected, abs=1e-12)
    # and the negated-angle representative lands on the same key
    neg = wave({"t": Frequency(-freq.rat, -freq.pi)},
               Frequency(-phase.rat, -phase.pi))
    if kind == "s":
        neg = -neg
    assert neg == s


def test_zero_scalar_has_no_terms_property():
    rng = random.Random(11)
    z = parse("sin(t)*sin(t) + cos(t)*cos(t) - 1")
    assert z.is_zero()
    for _ in range(100):
        p = {"t": rng.uniform(-10, 10)}
        assert abs(z.evaluate(p)) < 1e-12


# -- Frequency zero fast paths and the float form -----------------------------


def test_frequency_zero_operands():
    from engelcalc.trigring import FREQ_ZERO

    f = Frequency.of("3/4", "-2/5")
    assert f.add(FREQ_ZERO) is f
    assert FREQ_ZERO.add(f) is f
    assert FREQ_ZERO.neg() is FREQ_ZERO
    zero = Frequency.of(0, 0)
    assert zero is not FREQ_ZERO and zero.neg() is zero
    assert f.add(zero) is f and zero.add(f) is f
    assert f.neg().add(f) == FREQ_ZERO
    assert f.add(f.neg()).is_zero()


def test_frequency_equality_and_hash_agree():
    from engelcalc.trigring import FREQ_ZERO

    f = Frequency.of("3/4", "-2/5")
    built = [f.add(f.neg()), Frequency(Fraction(0), Fraction(0)), Frequency.of(0)]
    for z in built:
        assert z == FREQ_ZERO and FREQ_ZERO == z
        assert hash(z) == hash(FREQ_ZERO)
    g = Frequency.of("1/4", 1).add(Frequency.of("1/2", "-7/5"))
    assert g == f and hash(g) == hash(f)
    assert g != Frequency.of("3/4", "2/5")
    assert len({f, g, *built, FREQ_ZERO}) == 2


def test_frequency_is_zero_survives_a_hash_collision():
    from engelcalc.trigring import FREQ_ZERO

    # equality compares all four ints, with no hash pre-check to collide
    f = Frequency.of(1, 0)
    assert not f.is_zero()
    assert f != FREQ_ZERO
    assert f.neg() == Frequency.of(-1, 0)
    assert FREQ_ZERO.add(f).rat == 1
    # a real collision: CPython hashes the ints -1 and -2 alike
    g, h = Frequency.of(-1, 0), Frequency.of(-2, 0)
    assert hash(g) == hash(h) and g != h and len({g, h}) == 2


# mixed signs, and denominators both shared and coprime
_RATIONALS = st.builds(Fraction, st.integers(-80, 80), st.integers(1, 36))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS)
def test_frequency_ints_match_fraction_arithmetic(a, b, c, d, q):
    import copy
    import pickle

    from engelcalc.trigring import _reduce_phase

    f, g = Frequency(a, b), Frequency(c, d)
    assert tuple(f) == (a.numerator, a.denominator, b.numerator, b.denominator)
    assert (f.rat, f.pi) == (a, b)
    total, neg, scaled = f.add(g), f.neg(), f.scale(q)
    assert (total.rat, total.pi) == (a + c, b + d)
    assert (neg.rat, neg.pi) == (-a, -b)
    assert (scaled.rat, scaled.pi) == (a * q, b * q)
    for h in (f, g, total, neg, scaled, f.add(neg), Frequency(a, -b)):
        rn, rd, pn, pd = h
        assert rd > 0 and pd > 0 and math.gcd(rn, rd) == math.gcd(pn, pd) == 1
        assert h.is_zero() == (h.rat == 0 and h.pi == 0)
        reduced = _reduce_phase(h)
        assert (reduced.rat, reduced.pi) == (h.rat, h.pi % 2)
        want = float(h.rat) + float(h.pi) * math.pi
        assert h.value().hex() == want.hex()
        assert hash(h) == hash((rn, rd, pn, pd))
    # every construction route gives an equal key with an equal hash
    parsed = parse(f"cos(t + ({a})*x + ({b})*pi*x)").frequencies_of("x")
    assert parsed == (set() if f.is_zero() else {f})
    routes = [Frequency.of(a, b), Frequency.of(str(a), str(b)),
              Frequency.from_json(f.to_json()), g.add(Frequency(a - c, b - d)),
              Frequency.of(a).add(Frequency.of(0, b)),
              pickle.loads(pickle.dumps(f)), copy.deepcopy(f)]
    for h in routes:
        assert type(h) is Frequency and h == f and hash(h) == hash(f)
    # orientation as defined on Fractions: a leading frequency is not
    # negative in (pi, rat) order, and a constant wave keeps the smaller of
    # its phase and the negated phase in (rat, pi mod 2) order
    if not f.is_zero():
        ((_, ((coord, lead), _), _),) = parse(
            f"sin(({a})*u + ({b})*pi*u + x)").terms()
        assert coord == "u" and lead in (f, f.neg())
        assert (lead.pi, lead.rat) >= (0, 0)
    for r in (c, 0):
        if r or d.denominator > 2:  # not a quarter turn, so never absorbed
            ((_, fr, phase),) = parse(f"cos(({r}) + ({d})*pi)").terms()
            assert fr == ()
            assert (phase.rat, phase.pi) == min((r, d % 2), (-r, -d % 2))


def _float_form(s):
    return tuple((kind == "c", c.evaluate(), ph.value(),
                  tuple((coord, f.value()) for coord, f in fr))
                 for (kind, fr, ph), c in canonical_items(s))


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), st.sampled_from(_COORDS))
def test_float_form_follows_the_terms(a, b, coord):
    # the float form lists the terms in the canonical order, so equal values
    # reached by different routes, which insert their terms in different
    # orders, have equal float forms
    from engelcalc.trigring import _float_terms

    derived = [a + b, a * b, a - b, a.differentiate(coord),
               a.shift(coord, Fraction(1, 3)), parse(str(a))]
    for s in [a, *derived]:
        assert _float_terms(s) == _float_form(s)
    assert _float_terms(a * b) == _float_terms(b * a)
    assert _float_terms(a + b) == _float_terms(b + a)
    assert _float_terms(a - b) == _float_terms(-(b - a))


# -- PiScalar on int triples ----------------------------------------------------

_PI_PAIRS = st.lists(st.tuples(st.integers(-3, 3), _RATIONALS | st.just(Fraction(0))),
                     max_size=5)


def _ref(pairs) -> dict[int, Fraction]:
    """The value of (exponent, coefficient) pairs as a dict of nonzero Fractions."""
    acc: dict[int, Fraction] = {}
    for e, c in pairs:
        acc[e] = acc.get(e, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    return _ref((e1 + e2, c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())


def _ref_str(ref: dict) -> str:
    # the Fraction-pair rendering PiScalar.__str__ has always printed
    parts = []
    for e, c in sorted(ref.items()):
        if e == 0:
            parts.append(str(c))
        else:
            p = "pi" if e == 1 else f"pi^{e}"
            parts.append(p if c == 1 else f"-{p}" if c == -1 else f"{c}*{p}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                              for p in parts[1:])


def _check_piscalar(p: PiScalar, ref: dict) -> None:
    assert p.items() == tuple(sorted(ref.items()))
    assert [e for e, _, _ in p._terms] == sorted(ref)
    for e, n, d in p._terms:
        assert type(n) is int and type(d) is int
        assert n != 0 and d > 0 and math.gcd(n, d) == 1
    assert p.is_zero() == (not ref)
    assert p == PiScalar.from_pairs(ref.items())
    assert hash(p) == hash(tuple(p.items())) == hash(tuple(sorted(ref.items())))
    want = sum(float(c) * math.pi**e for e, c in sorted(ref.items()))
    assert repr(p.evaluate()) == repr(want)  # bit for bit, and 0 for zero
    assert str(p) == _ref_str(ref)
    assert p.to_json() == {str(e): str(c) for e, c in sorted(ref.items())}


@settings(max_examples=300, deadline=None)
@given(_PI_PAIRS, _PI_PAIRS, _RATIONALS, st.integers(-50, 50))
def test_piscalar_ints_match_fraction_arithmetic(pa, pb, q, n):
    import copy
    import pickle

    a, b = PiScalar.from_pairs(pa), PiScalar.from_pairs(pb)
    ra, rb = _ref(pa), _ref(pb)
    _check_piscalar(a, ra)
    _check_piscalar(a + b, _ref([*ra.items(), *rb.items()]))
    _check_piscalar(a - b, _ref([*ra.items(), *((e, -c) for e, c in rb.items())]))
    _check_piscalar(-a, {e: -c for e, c in ra.items()})
    _check_piscalar(a * b, _ref_mul(ra, rb))
    _check_piscalar(a + q, _ref([*ra.items(), (0, q)]))
    _check_piscalar(n * a, _ref_mul(ra, {0: Fraction(n)} if n else {}))
    # exact division, and None exactly when no quotient exists
    if not b.is_zero():
        _check_piscalar((a * b).div_exact(b), ra)
        quot = a.div_exact(b)
        if quot is not None:
            _check_piscalar(quot * b, ra)
        if len(ra) == 1 and len(rb) > 1:
            # a monomial is never a multiple of a polynomial in pi with two
            # or more terms
            assert quot is None
    # comparisons with plain rationals go through the constant term
    assert (PiScalar.of(q) == q) and (PiScalar.of(n) == n)
    assert (a == q) == (ra == ({0: q} if q else {}))
    assert (a == n) == (ra == ({0: Fraction(n)} if n else {}))
    assert hash(PiScalar.of(q)) == hash(tuple(_ref([(0, q)]).items()))
    for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(c) is PiScalar and c == a and hash(c) == hash(a)
        _check_piscalar(c, ra)


@settings(max_examples=300, deadline=None)
@given(_PI_PAIRS, st.integers(-3, 3), _RATIONALS.filter(bool))
def test_division_by_one_power_of_pi_is_exact_on_the_ints(pn, e, q):
    # a single power of pi is a unit: the quotient always exists, q * d == n
    # holds exactly, and no Fraction arithmetic is taken for it
    n, d = PiScalar.from_pairs(pn), PiScalar.from_pairs([(e, q)])
    saved = {name: getattr(Fraction, name)
             for name in ("__add__", "__mul__", "__sub__", "__truediv__")}

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a single-power division")

    for name in saved:
        setattr(Fraction, name, refuse)
    try:
        quot = n.div_exact(d)
    finally:
        for name, op in saved.items():
            setattr(Fraction, name, op)
    assert quot is not None and quot * d == n
    _check_piscalar(quot, {ei - e: c / q for ei, c in _ref(pn).items()})
    s = TrigScalar.constant(n) * TrigScalar.cosine({"t": Frequency.of(1)}) \
        + TrigScalar.constant(n)
    assert s.div_exact(d) * TrigScalar.constant(d) == s


def test_scalar_arithmetic_runs_without_fraction_arithmetic(monkeypatch):
    # PiScalar and Frequency values are ints: ring operations and derivatives
    # on parsed scalars never fall back to Fraction arithmetic
    texts = ["pi^-1*cos(t + pi/3) - (2/3)*sin(2*pi*x - 1/5) + 7/4",
             "(3/5 + pi^2)*sin((5/6)*pi*t + x) - pi^-2*cos(t)*cos((2/3)*pi)",
             "(1/7)*pi*cos((3/2)*t - (1/4)*pi) + sin(x + (7/3)*pi)"]
    scalars = [parse(text) for text in texts]
    ops = [
        lambda a, b: a * b,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: -a,
        lambda a, b: a.differentiate("t"),
        lambda a, b: (a * b).differentiate("x"),
    ]
    pairs = [(a, b) for a in scalars for b in scalars]
    want = [op(a, b) for op in ops for a, b in pairs]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a scalar operation")

    for name in ("__add__", "__mul__", "__sub__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [op(a, b) for op in ops for a, b in pairs]
    monkeypatch.undo()
    assert got == want


# -- the wave-pair memo and differentiate against their per-term loops ---------

_WAVE_COORDS = ("t", "x", "y")
# zero components are dropped, negative leading ones flipped, and the
# rational and rational-pi mixes keep their phases from cancelling
_WAVE_FREQS = _FREQ_POOL + [Frequency.of(0, 0), Frequency.of(-1),
                            Frequency.of(0, "-1/2"), Frequency.of("1/3", "2/5")]
_RATIONALS_SMALL = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
# single powers of pi, and sums of two or three distinct powers down to 1/pi
_COEFFS = st.one_of(
    st.builds(lambda e, q: PiScalar([(e, q)]), st.integers(-1, 1), _RATIONALS_SMALL),
    st.builds(lambda es, qs: PiScalar(zip(es, qs)),
              st.lists(st.integers(-1, 2), min_size=2, max_size=3, unique=True),
              st.lists(_RATIONALS_SMALL, min_size=3, max_size=3)))
# pure constants, which products scale by (ONE returns the other operand)
_CONSTANTS = [ZERO, ONE, TrigScalar.constant(-1),
              TrigScalar.constant(PiScalar([(0, 1), (1, 1)]))]


@st.composite
def wave_sums(draw):
    """Sums of up to four waves on up to three coordinates, some waves of
    constant angle, with rational-pi and quarter-turn phases and
    coefficients of one to three powers of pi; one in five is one of
    ``_CONSTANTS``."""
    if draw(st.integers(0, 4)) == 4:
        return draw(st.sampled_from(_CONSTANTS))
    out = TrigScalar.constant(draw(st.one_of(st.integers(-2, 2).map(Fraction), _COEFFS)))
    for _ in range(draw(st.integers(0, 4))):
        coords = draw(st.lists(st.sampled_from(_WAVE_COORDS), max_size=3,
                               unique=True))
        freqs = {c: draw(st.sampled_from(_WAVE_FREQS)) for c in coords}
        kind = draw(st.sampled_from((TrigScalar.sine, TrigScalar.cosine)))
        out = out + kind(freqs, draw(st.sampled_from(_PHASES)), draw(_COEFFS))
    return out


# edge cases of the single-power path: cos(x) gets 1/2 and then pi/2, a sum
# of two powers; cos(x) cancels at the third pair and comes back at the
# fourth, after cos(3x); and a 1 + pi coefficient on either side
@pytest.mark.parametrize("memo", ("cold", "warm"))
@settings(max_examples=100, deadline=None)
@given(wave_sums(), wave_sums())
@example(a=parse("cos(x) + pi*cos(3*x)"), b=parse("cos(2*x)"))
@example(a=parse("cos(x) - cos(3*x)"), b=parse("cos(2*x) + cos(4*x)"))
@example(a=parse("(1 + pi)*cos(x) + (2/3)*sin(x)"), b=parse("(3/4)*pi*cos(x) + sin(2*x)"))
@example(a=parse("(3/4)*pi*cos(x) + sin(2*x)"), b=parse("(1 + pi)*cos(x) + (2/3)*sin(x)"))
@example(a=parse("1 + pi"), b=parse("(2/3)*pi*cos(x) + (1 + pi)*sin(x)"))
@example(a=parse("(2/3)*pi*cos(x) + (1 + pi)*sin(x)"), b=parse("1 + pi"))
def test_product_matches_the_per_term_loop(cold_ring, memo, a, b):
    # the same terms in the same order, whether or not an angle pair is memoised
    if memo == "cold":
        cold_ring()
    else:
        a * b
    want = list(direct_product(a, b).terms().items())
    assert list((a * b).terms().items()) == want


# odd multiples of pi/4, whose sums and differences are quarter turns: cos of
# a phase-only angle then vanishes too
_WAVE_PHASES = _PHASES + [Frequency.of(0, "1/4"), Frequency.of(0, "-3/4")]


@st.composite
def canonical_waves(draw):
    """Canonical wave keys on up to three coordinates, with integer, rational
    and rational-pi frequencies and quarter-turn and rational-pi phases."""
    coords = draw(st.lists(st.sampled_from(_WAVE_COORDS), max_size=3, unique=True))
    freqs = {c: draw(st.sampled_from(_WAVE_FREQS)) for c in coords}
    canon = _canonical(draw(st.sampled_from(("c", "s"))), freqs,
                       draw(st.sampled_from(_WAVE_PHASES)))
    assume(canon is not None)
    return canon[0]


@st.composite
def angles(draw):
    """The cos and sin keys of one angle: that of a canonical wave other
    than the constant one, phase-only angles included."""
    w = draw(canonical_waves())
    assume(w is not _CONST_WAVE)
    x = _angle(w)[0]
    return {"c": x, "s": _partner(x)}


@settings(max_examples=400, deadline=None)
@given(angles(), angles())
def test_product_keys_are_symmetric(a, b):
    # swapping the two angles gives the same keys, signs and key order for
    # each of the four kind products, so one memo entry serves both orders;
    # __wrapped__ expands the pair without the memo
    ab, ba = _angle_products.__wrapped__(a["c"], b["c"]), \
        _angle_products.__wrapped__(b["c"], a["c"])
    for k1, k2, i in _KINDS:
        assert _kind_product(ab, i) == \
            _kind_product(ba, 2 * "cs".index(k2) + "cs".index(k1))


@settings(max_examples=400, deadline=None)
@given(angles(), angles())
def test_product_keys_match_the_general_path(a, b):
    # the angle-pair waves, their integer and zero-phase shortcuts and the
    # reading of a kind product through the product-to-sum table give exactly
    # the keys of the general frequency arithmetic and phase orientation, for
    # all four kind products
    entry = _angle_products.__wrapped__(a["c"], b["c"])
    for k1, k2, i in _KINDS:
        w1, w2 = a[k1], b[k2]
        assert _angle(w1) == (a["c"], int(a["c"]), i // 2)
        assert _kind_product(entry, i) == reference_product_keys(w1, w2)


def test_four_kind_products_of_an_angle_pair_cost_one_expansion(cold_ring):
    a, b = parse("cos(x + y - pi/3)"), parse("cos(2*x - (1/2)*y)")
    sa, sb = a.differentiate("x"), b.differentiate("x")  # the sin partners
    cold_ring()
    products = [a * b, a * sb, sa * b, sa * sb, sb * sa, b * a]
    assert _angle_products.cache_info().misses == 1
    for (p, q), got in zip([(a, b), (a, sb), (sa, b), (sa, sb), (sb, sa), (b, a)],
                           products):
        assert list(got.terms().items()) == list(direct_product(p, q).terms().items())


def test_swapped_product_adds_no_memo_misses(cold_ring):
    a = parse("cos(x + y) + 2*sin(2*x) - 1")
    b = parse("sin(x - y) + cos(3*y + pi/3) + sin(x/2)")
    cold_ring()
    ab = a * b
    misses = _angle_products.cache_info().misses
    assert misses == 6  # one per pair of angles
    ba = b * a
    assert _angle_products.cache_info().misses == misses
    assert list(ba.terms().items()) == list(direct_product(b, a).terms().items())
    assert ab == ba


def test_product_memo_is_bounded(cold_ring):
    # 2,500 distinct angle pairs, more than the memo holds
    waves = [parse(f"cos({j}*x)") for j in range(1, 51)]
    others = [parse(f"cos({k}*y)") for k in range(1, 51)]
    cold_ring()
    for a in waves:
        for b in others:
            a * b
    info = _angle_products.cache_info()
    assert info.maxsize == PRODUCT_MEMO_SIZE
    assert info.misses > info.maxsize  # the bound was reached
    assert info.currsize <= info.maxsize


def test_the_law_suite_expands_each_angle_pair_once(cold_ring):
    # the law suite's working set fits the memo: no pair is evicted and
    # expanded again
    cold_ring()
    run_law_suite(0, cases=50)
    info = _angle_products.cache_info()
    assert info.misses == info.currsize


def test_a_zero_operand_gives_the_other_itself():
    s = parse("cos(x + y) - 2*sin(x/3 + pi/5) + 3/2")
    assert s + ZERO is s and ZERO + s is s and s - ZERO is s
    assert list((ZERO - s).terms().items()) == list((-s).terms().items())


@settings(max_examples=100, deadline=None)
@given(_COEFFS, _COEFFS)
def test_constants_combine_as_the_per_term_loops(p, q):
    a, b = TrigScalar.constant(p), TrigScalar.constant(q)
    for got, want in ((a * b, direct_product(a, b)), (a + b, direct_sum(a, b)),
                      (a - b, direct_difference(a, b))):
        assert list(got.terms().items()) == list(want.terms().items())


def _parsed(read):
    # the terms of a parse, in order, or the error it raises
    try:
        return list(read().terms().items())
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str),
                 st.from_regex(r"[ ]?[+-]{0,2}[0-9]{0,4}(/[0-9]{1,2})?[ \n]?",
                               fullmatch=True)))
def test_integer_literals_parse_as_the_parser_reads_them(text):
    assert _parsed(lambda: parse(text)) == _parsed(lambda: _Parser(text).parse())


def test_integer_literals_skip_the_tokenizer(monkeypatch):
    def refuse(text):
        raise AssertionError("tokenized an integer literal")

    monkeypatch.setattr(trigring, "_tokenize", refuse)
    assert parse("0").is_zero() and parse("1") == 1 and parse("-17") == -17
    assert parse("007") == 7


@settings(max_examples=300, deadline=None)
@given(canonical_waves())
def test_wave_key_is_its_interned_triple(w):
    import copy
    import pickle

    kind, fr, ph = w
    triple = (kind, fr, ph)
    assert (w[0], w[1], w[2]) == triple and len(w) == 3
    assert w == triple and triple == w and not w != triple
    # the value is the triple's hash, but the key hashes as that plain int
    # (a C slot), so a key is not looked up by its triple
    assert int(w) == hash(triple) and hash(w) == hash(int(w))
    # equal triples, however built, give the same object
    rebuilt = (kind, tuple((c, Frequency(f.rat, f.pi)) for c, f in fr),
               Frequency(ph.rat, ph.pi))
    assert _canonical(kind, dict(rebuilt[1]), rebuilt[2]) == (w, 1)
    assert _canonical(kind, dict(rebuilt[1]), rebuilt[2])[0] is w
    assert pickle.loads(pickle.dumps(w)) is w and copy.deepcopy(w) is w
    # a key outside the table is another object, equal by its triple
    other = WaveKey(rebuilt)
    assert other is not w and other == w and hash(other) == hash(w)
    assert not other != w and {w: 1}[other] == 1


def _ring_results(a, b):
    # every result's terms in order, each key given as its triple
    results = [a * b, b * a, a + b, a - b, b - a, a.differentiate("x"),
               b.differentiate("t"), a * a - b * b]
    return [[(tuple(w), c) for w, c in r.terms().items()] for r in results]


@settings(max_examples=150, deadline=None)
@given(wave_sums(), wave_sums())
def test_no_result_depends_on_the_wave_table(cold_ring, a, b):
    import pickle

    # b's keys come from a fresh table, so the waves it shares with a have
    # two distinct keys; the results must be the cold ones, in term order
    cold_ring()
    b2 = pickle.loads(pickle.dumps(b))
    mixed = _ring_results(a, b2)
    assert (b - b2).is_zero() and b == b2 and hash(b) == hash(b2)
    cold_ring()
    a, b = pickle.loads(pickle.dumps((a, b)))
    assert mixed == _ring_results(a, b)


def test_wave_table_is_bounded(cold_ring, monkeypatch):
    cold_ring()
    want = run_law_suite(0, cases=50)
    made = len(trigring._waves)
    assert made <= WAVE_TABLE_SIZE
    monkeypatch.setattr(trigring, "WAVE_TABLE_SIZE", 64)
    cold_ring()
    assert run_law_suite(0, cases=50) == want
    assert made > 64  # the bound was reached
    assert len(trigring._waves) <= 64
    assert trigring._waves[_CONST_WAVE.triple] is _CONST_WAVE


def test_format_forms_each_wave_text_once(cold_ring, monkeypatch):
    # each wave key keeps its text, so printing scalars again formats no
    # angle; a fresh table's keys form the same text anew
    calls = []
    format_angle = trigring._format_angle

    def counting(fr, ph):
        calls.append((fr, ph))
        return format_angle(fr, ph)

    monkeypatch.setattr(trigring, "_format_angle", counting)
    texts = ["cos(x + y) + 2*sin(2*x) - 1", "sin(x - y) + cos(3*y + pi/3) + 1/2",
             "3*pi*cos(x + y) - sin(y/2)"]
    cold_ring()
    scalars = [parse(t) for t in texts]
    scalars.append(scalars[0] * scalars[1])
    first = [str(s) for _ in range(3) for s in scalars]
    keys = {w for s in scalars for w in s.terms() if w is not _CONST_WAVE}
    assert len(calls) == len(keys)
    assert sorted(calls) == sorted((w[1], w[2]) for w in keys)
    cold_ring()
    calls.clear()
    again = [parse(t) for t in texts]
    again.append(again[0] * again[1])
    assert [str(s) for _ in range(3) for s in again] == first
    assert len(calls) == len(keys)


def test_wave_table_is_thread_safe(cold_ring, monkeypatch):
    import sys
    import threading

    # threads that parse, multiply, differentiate and format while a tiny
    # table keeps starting afresh must all get the serial results and text
    texts = ["cos(x + y) + 2*sin(2*x) - 1", "sin(x - y) + cos(3*y + pi/3) + 1/2",
             "cos(x)*cos(x) - sin(y/2)", "3 + sin(x + 2*y - pi/4)"]

    def work():
        cold_ring()
        ss = [parse(t) for t in texts]
        out = []
        for a in ss:
            for b in ss:
                for r in (a * b, a - b, (a * b).differentiate("x")):
                    out.append((str(r), [(tuple(w), c) for w, c in r.terms().items()]))
        return out

    want = work()
    monkeypatch.setattr(trigring, "WAVE_TABLE_SIZE", 8)
    cold_ring()
    got, errors = [], []

    def worker():
        try:
            for _ in range(10):
                got.append(work())
        except Exception as exc:  # the assertions below report it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(got) == 40 and all(g == want for g in got)


@settings(max_examples=100, deadline=None)
@given(wave_sums(), st.sampled_from(_WAVE_COORDS))
def test_differentiate_keeps_canonical_keys(s, coord):
    d = s.differentiate(coord)
    for key in d.terms():
        kind, fr, ph = key
        assert _canonical(kind, dict(fr), ph) == (key, 1)
    want = list(direct_differentiate(s, coord).terms().items())
    assert list(d.terms().items()) == want


# edge cases of the single-power path: two powers of pi that do not merge,
# a key that cancels, and a 1 + pi coefficient on either side
@settings(max_examples=200, deadline=None)
@given(wave_sums(), wave_sums())
@example(a=parse("cos(x) + (1/6)*sin(x)"), b=parse("pi*cos(x) + (1/3)*sin(x)"))
@example(a=parse("cos(x) - cos(3*x)"), b=parse("cos(3*x) + (1/2)*cos(x)"))
@example(a=parse("(1 + pi)*cos(x) + (5/6)*sin(x)"), b=parse("(2/3)*pi*cos(x) + (1/6)*sin(x)"))
@example(a=parse("(2/3)*pi*cos(x) + (1/6)*sin(x)"), b=parse("(1 + pi)*cos(x) + (5/6)*sin(x)"))
def test_sum_and_difference_match_the_per_term_loop(a, b):
    # the same terms in the same order as merging b's coefficients one by one,
    # negated in full first for a difference; every key cancels in a - a
    assert list((a + b).terms().items()) == list(direct_sum(a, b).terms().items())
    assert list((a - b).terms().items()) == list(direct_difference(a, b).terms().items())
    assert (a - a).is_zero() and (a + -a).is_zero()


def test_products_that_cancel_drop_their_keys():
    # (cos x + sin x)(cos x - sin x) = cos 2x: the two constant halves cancel
    a, b = parse("cos(x) + sin(x)"), parse("cos(x) - sin(x)")
    for got in (a * b, direct_product(a, b)):
        assert list(got.terms().items()) == list(parse("cos(2*x)").terms().items())


@settings(max_examples=100, deadline=None)
@given(wave_sums(), wave_sums())
def test_operations_leave_their_operands_alone(a, b):
    # x * ONE is x itself and a zero product is ZERO, so a result can be an
    # operand or a module constant: no operation, on operands or results,
    # may change one in place
    watched = (a, b, ZERO, ONE)
    before = [list(x.terms().items()) for x in watched]
    results = [a * b, b * a, a * ONE, ONE * a, a * ZERO, ZERO * a, a * -1,
               a + b, a - b, b - a, a + ZERO, ZERO - a, -a]
    for r in results:
        r * b, b * r, r + b, r - b, b - r, r - r, r * r, -r
        r.differentiate("x"), r.shift("t", Fraction(1, 3))
    assert [list(x.terms().items()) for x in watched] == before


def test_the_exact_one_is_the_shared_one():
    # TrigScalar.constant gives ONE for the exact value 1, so the ``is ONE``
    # rules of apply, coordinate_derivative and extend_minors see the ones
    # that enter through parse, derivation tables and catalog coefficients
    from engelcalc.catalog import build_family

    assert parse("1") is ONE
    assert TrigScalar.constant(Fraction(2, 2)) is ONE and normalize(1) is ONE
    assert TrigScalar.constant(PiScalar.from_pairs([(0, 1)])) is ONE
    for name in ("torus_trig", "torus_bryant", "hyperelliptic_product"):
        # the families on the coordinate torus, where E_i(c) = 1
        space = build_family(name).space
        entries = [s for row in space.derivation for s in row.values()]
        assert len(entries) == 4, name
        assert all(s is ONE for s in entries), name
