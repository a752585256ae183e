"""Independent numeric oracles used across the test suite.

These recompute claims through plain float evaluation (finite differences,
numpy determinants, pointwise linear algebra), never through the symbolic
code paths they are checking.  The exceptions, ``annihilating_form``,
``cofactor_minor``, ``minors_of_fields``, ``interior``,
``direct_w_residuals``, ``six_pair_nijenhuis``, ``eight_jd_minors``,
``rotation_coefficients``, ``closed_jr_residual``,
``closed_jt_residual``, ``dalpha_squared_scalar``, ``FracField``,
``frac_bracket``, ``reeb_pair``, ``adapted_frame``, ``frac_sum``,
``frac_product``, ``field_sum``, ``field_scale``,
``rescaled_reeb_direction``, ``direct_product``,
``reference_product_keys``, ``direct_sum``, ``direct_difference``,
``direct_differentiate``, ``direct_sum_of_squares``,
``frame_by_frame_derivative``, ``cramer_coefficients``,
``transverse_minors``, ``framing_determinant`` and
``direct_form_witnesses``, are the exact
expansions that shortcuts or shared helpers in the code replaced (the
complex framing, the three defining-form conditions and c_WX hold by
construction once the flag and JD = D are certified, where the last two
oracles take the framing's 4x4 determinant, alpha, beta, their wedges and
[W, JW] afresh; the flag
reads alpha off the minors of a pair (D_i, E3) it extends by the other
generator, where ``annihilating_form`` takes the maximal minors of
(D1, D2, E3) afresh; ``extend_minors`` walks a plan made once per shape,
where ``cofactor_minor`` expands each minor along its first column, and
``minors_of_fields`` takes every maximal minor of a few fields through it;
the transverse check certifies only that the raw Reeb field K_R preserves
D, where ``interior`` contracts beta ^ d(beta) with K_R term by term, and
certifies it on alpha([K_R, D_i]), where ``transverse_minors`` takes the
maximal minors of (D1, D2, [K_R, D_i]); the
J-claims are certified on the witnesses J leaves free, N_J on two pairs of
E1's frame row and JD = D on J D1, where the two oracles take every frame
pair and both J D_i; the Reeb rotation is a theorem once N_J = 0, and its
record reports q1 and q2 over abdb^2 c_WX, where ``closed_jt_residual``
and ``closed_jr_residual`` form the rotation residuals from the Reeb pair
and the structure functions, with ``rotation_coefficients``' q1 and q2, by
the fraction helpers, which multiply unequal denominators; the chain
carries every field as a numerator over a power of abdb and brackets by
``abdb_bracket``, where ``FracField`` and ``frac_bracket`` take any
denominators and multiply them, and ``reeb_pair`` and ``adapted_frame``
build T, R and the frame (W, JW, T, R) as such fractions; the d(alpha)^2
identity is decided on its two factors, where ``dalpha_squared_scalar``
takes d(alpha) ^ d(alpha); the
splitting reads Z = span(R) off the forms, where
``rescaled_reeb_direction`` derives the Reeb direction of a rescaled pair
afresh; the K-check expands only a commutator that does not vanish, and
reads its four coefficients off the forms, -d(beta)(C, JW) and
d(beta)(C, W) over c_WX den(C) and beta(C) and alpha(C) over den(C),
where ``cramer_coefficients`` takes five 4x4 determinants per commutator; ``FramedSpace.apply`` sums
v(c) * ds/dc over the coordinates c, where the frame-by-frame formula
differentiates s once per frame field; the
ring
loops, and the sum of squares built from them, merge whole ``PiScalar``
coefficients one term at a time by ``PiScalar`` arithmetic, where
``TrigScalar`` merges coefficient runs and takes two single powers of pi
through one rational product or sum, and they build each result through
the ``TrigScalar(terms)`` constructor, the one boundary that takes
``PiScalar`` values; the wave-pair expansion builds every
angle through ``Frequency.add`` and ``neg`` and orients every wave by the
general phase path, where ``_angle_products`` adds integer parts on the ints
and orients a zero phase on the lead frequency alone), ``residue_values``, which
evaluates a grid point by point at each term's exact residue angle, as grid
certificates of single-direction witnesses do by residue class, and
``fraction_period``, the derivation of a coordinate's period and angular
unit on Fractions that the one on the four ints of a frequency replaced.
``canonical_items`` restates the canonical term order, which the float form
and grid certificates follow, on Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from engelcalc.engelcheck import Frac
from engelcalc.framecalc import (
    ComplexStructure,
    FramedSpace,
    KForm,
    VecField,
    bracket,
    det_of_fields,
    exterior_derivative,
    nijenhuis,
    wedge,
)
from engelcalc.trigring import (
    _CONST_WAVE,
    FREQ_ZERO,
    ONE,
    ZERO,
    Frequency,
    PiScalar,
    TrigScalar,
    _QUARTER,
    _canonical,
)

_PI_HALF = PiScalar.from_pairs([(0, Fraction(1, 2))])


def annihilating_form(d1: VecField, d2: VecField, e3: VecField) -> KForm:
    """The 1-form u -> det(D1, D2, E3, u); its kernel is span(D1, D2, E3).

    Expanding the determinant along u, its coefficients are the signed
    maximal minors (-m3, m2, -m1, m0) of (D1, D2, E3).
    """
    m0, m1, m2, m3 = minors_of_fields([d1, d2, e3])
    return KForm.one_form([-m3, m2, -m1, m0])


def cofactor_minor(columns, rows) -> TrigScalar:
    """The determinant of the columns' coefficients on the sorted frame
    indices ``rows``, by cofactor expansion along the first column, each
    minor taken afresh."""
    if not columns:
        return ONE
    first, rest = columns[0], columns[1:]
    out = ZERO
    for a, r in enumerate(rows):
        term = first.coeffs[r] * cofactor_minor(rest, rows[:a] + rows[a + 1:])
        out = out + term if a % 2 == 0 else out - term
    return out


def minors_of_fields(fields) -> list[TrigScalar]:
    """All maximal minors of the 4 x k coefficient matrix, k = len(fields),
    in the order of ``itertools.combinations`` of the rows, each by
    ``cofactor_minor``."""
    fields = list(fields)
    return [cofactor_minor(fields, rows)
            for rows in itertools.combinations(range(4), len(fields))]


def interior(form: KForm, v: VecField) -> KForm:
    """The interior product i_v form, term by term: v's component on the
    index at position p of a term, signed (-1)^p, lands on the term's
    other indices."""
    if form.degree == 0:
        raise ValueError("no interior product with a 0-form")
    out: dict[tuple[int, ...], TrigScalar] = {}
    for idx, c in form.terms.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = v.coeffs[i] * c
            out[rest] = out.get(rest, ZERO) + (-term if pos % 2 else term)
    return KForm.of(form.degree - 1, out)


def direct_w_residuals(flag, w: VecField, space: FramedSpace) -> list:
    """alpha([W, X]) for X = D1, D2, E3, with each bracket taken in full."""
    return [flag.alpha(bracket(w, x, space)) for x in (flag.d1, flag.d2, flag.e3)]


def framing_determinant(ctx) -> TrigScalar:
    """det(W, JW, [W, JW], J[W, JW]) for the W of the Derivation ``ctx``,
    with the bracket and the determinant taken in full."""
    w = ctx.w
    x = ctx.J.apply(w)
    y = bracket(w, x, ctx.space)
    return det_of_fields([w, x, y, ctx.J.apply(y)])


def direct_form_witnesses(ctx) -> dict:
    """The defining-form witnesses of the Derivation ``ctx``, from
    alpha = det(D1, D2, E3, .) and beta = alpha o J taken afresh: the
    coefficients of alpha ^ d(alpha), the top coefficients of
    alpha ^ beta ^ d(beta) and of alpha ^ d(alpha) ^ beta, and
    c_WX = beta([W, JW]), with every bracket, d and wedge taken in full."""
    space, J, w = ctx.space, ctx.J, ctx.w
    alpha = annihilating_form(ctx.d1, ctx.d2, bracket(ctx.d1, ctx.d2, space))
    beta = KForm.one_form([alpha(J.apply(VecField.basis(i))) for i in range(4)])
    alpha_dalpha = wedge(alpha, exterior_derivative(alpha, space))
    top = (0, 1, 2, 3)
    return {
        "alpha_dalpha": list(alpha_dalpha.terms.values()),
        "abdb": wedge(wedge(alpha, beta), exterior_derivative(beta, space)).component(top),
        "adab": wedge(alpha_dalpha, beta).component(top),
        "c_WX": beta(bracket(w, J.apply(w), space)),
    }


def six_pair_nijenhuis(J: ComplexStructure, space: FramedSpace) -> list:
    """The components of N_J(E_i, E_j) on all six frame pairs i < j."""
    return [c for i, j in itertools.combinations(range(4), 2)
            for c in nijenhuis(J, VecField.basis(i), VecField.basis(j), space).coeffs]


def eight_jd_minors(d1: VecField, d2: VecField, J: ComplexStructure) -> list:
    """The maximal minors of (D1, D2, J D1) and of (D1, D2, J D2), each
    taken afresh."""
    return [m for d in (d1, d2) for m in minors_of_fields([d1, d2, J.apply(d)])]


@dataclass(frozen=True)
class FracField:
    """Vector field raw/den with a nowhere-zero scalar denominator."""

    raw: VecField
    den: TrigScalar = ONE

    def is_zero(self) -> bool:
        return self.raw.is_zero()

    def apply_J(self, J: ComplexStructure) -> "FracField":
        return FracField(J.apply(self.raw), self.den)

    def pair(self, form: KForm) -> Frac:
        return Frac(form(self.raw), self.den)


def frac_bracket(a: FracField, b: FracField, space: FramedSpace) -> FracField:
    """[u/s, v/r] = (s r [u,v] - s u(r) v + r v(s) u) / (s r)^2, by the
    quotient rule for any two denominators."""
    u, s = a.raw, a.den
    v, r = b.raw, b.den
    core = bracket(u, v, space).scale(s * r)
    core = core - v.scale(s * space.apply(u, r)) + u.scale(r * space.apply(v, s))
    return FracField(core, s * s * r * r)


def reeb_pair(forms) -> tuple[FracField, FracField]:
    """T = K_T / -abdb and R = K_R / abdb as fraction fields."""
    return FracField(forms.k_t, -forms.abdb), FracField(forms.k_r, forms.abdb)


def adapted_frame(ctx) -> list[FracField]:
    """The frame (W, JW, T, R) of the Derivation ``ctx``."""
    return [FracField(ctx.w), FracField(ctx.x), *reeb_pair(ctx.forms)]


def frac_sum(p: Frac, q: Frac) -> Frac:
    """p + q, over the product of the denominators unless they are equal."""
    if p.den == q.den:
        return Frac(p.num + q.num, p.den)
    return Frac(p.num * q.den + q.num * p.den, p.den * q.den)


def frac_product(p: Frac, q: Frac) -> Frac:
    return Frac(p.num * q.num, p.den * q.den)


def field_sum(a: FracField, b: FracField, sign: int = 1) -> FracField:
    """a + sign b, over the product of the denominators unless they are
    equal."""
    b_raw = b.raw if sign > 0 else -b.raw
    if a.den == b.den:
        return FracField(a.raw + b_raw, a.den)
    return FracField(a.raw.scale(b.den) + b_raw.scale(a.den), a.den * b.den)


def field_scale(a: FracField, q: Frac) -> FracField:
    return FracField(a.raw.scale(q.num), a.den * q.den)


def rotation_coefficients(ctx) -> tuple[Frac, Frac]:
    """q1 = (d_WR + d_XT)/c_WX and q2 = d_XR/c_WX by fraction arithmetic."""
    sf = ctx.sf
    c_inv = Frac(ONE, sf.c_WX)
    return (frac_product(frac_sum(sf.d_WR, sf.d_XT), c_inv),
            frac_product(sf.d_XR, c_inv))


def closed_jt_residual(ctx, q: tuple[Frac, Frac] | None = None) -> FracField:
    """J(T) - R - q1 W - q2 JW, the residual of the closed formula for J(T),
    by fraction arithmetic that multiplies unequal denominators, from the
    stages of the Derivation ``ctx``; (q1, q2) is ``q`` when given, else
    formed from the structure functions."""
    t, r = reeb_pair(ctx.forms)
    q1, q2 = rotation_coefficients(ctx) if q is None else q
    res = field_sum(t.apply_J(ctx.J), r, -1)
    res = field_sum(res, field_scale(FracField(ctx.w), q1), -1)
    return field_sum(res, field_scale(FracField(ctx.x), q2), -1)


def closed_jr_residual(ctx, q: tuple[Frac, Frac] | None = None) -> FracField:
    """J(R) + T - q2 W + q1 JW, the residual of the closed formula for J(R),
    from the stages of the Derivation ``ctx``; (q1, q2) is ``q`` when given,
    else q1 = (d_WR + d_XT)/c_WX and q2 = d_XR/c_WX."""
    t, r = reeb_pair(ctx.forms)
    q1, q2 = rotation_coefficients(ctx) if q is None else q
    res = field_sum(r.apply_J(ctx.J), t)
    res = field_sum(res, field_scale(FracField(ctx.w), q2), -1)
    return field_sum(res, field_scale(FracField(ctx.x), q1))


def dalpha_squared_scalar(ctx) -> TrigScalar:
    """abdb^2 times the top coefficient of
    d(alpha)^2 + 2 d_WR alpha ^ beta ^ d(beta), with d(alpha) ^ d(alpha)
    taken afresh: the scalar whose vanishing ``jofreeb_residual`` decides
    on its two factors, N_WR and N_XT + abdb^2 c_WX."""
    forms, sf = ctx.forms, ctx.sf
    lhs = wedge(forms.d_alpha, forms.d_alpha).component((0, 1, 2, 3))
    return lhs * sf.d_WR.den + TrigScalar.constant(2) * sf.d_WR.num * forms.abdb


def rescaled_reeb_direction(beta: KForm, lam: TrigScalar,
                            space: FramedSpace) -> VecField:
    """The kernel field of (lam beta) ^ d(lam beta), the raw Reeb direction
    of the forms rescaled by lam, with d taken afresh."""
    beta_l = beta.scale(lam)
    return wedge(beta_l, exterior_derivative(beta_l, space)).kernel_field()


def cramer_coefficients(target: FracField, ctx) -> list[Frac] | None:
    """Coefficients of a ``FracField`` target in the adapted frame
    (W, JW, T, R) of the Derivation ``ctx``, by Cramer's rule with one 4x4
    determinant per column; None when the raw frame is degenerate."""
    basis = adapted_frame(ctx)
    raws = [b.raw for b in basis]
    det = det_of_fields(raws)
    if det.is_zero():
        return None
    out = []
    for i in range(4):
        cols = list(raws)
        cols[i] = target.raw
        # clear the denominators: target.raw/target.den = sum coef_i raw_i/den_i
        out.append(Frac(det_of_fields(cols) * basis[i].den, det * target.den))
    return out


def transverse_minors(ctx) -> list[TrigScalar]:
    """The maximal minors of (D1, D2, [K_R, D_i]), i = 1, 2, for the raw
    Reeb field K_R of the Derivation ``ctx``, each taken afresh: where
    D1 ^ D2 != 0 they vanish exactly when each [K_R, D_i] lies in D."""
    z, d1, d2 = ctx.forms.k_r, ctx.d1, ctx.d2
    return [m for d in (d1, d2)
            for m in minors_of_fields([d1, d2, bracket(z, d, ctx.space)])]


def direct_sum_of_squares(scalars) -> TrigScalar:
    """The sum of the squares of the scalars, added in order from zero, by
    the per-term loops ``direct_product`` and ``direct_sum``."""
    witness = ZERO
    for s in scalars:
        witness = direct_sum(witness, direct_product(s, s))
    return witness


def _merge(terms: dict, key, coeff) -> None:
    """terms[key] += coeff for a canonical key, dropping a zero sum."""
    prev = terms.get(key)
    c = coeff if prev is None else prev + coeff
    if c.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = c


def _add_term(terms: dict, kind, freqs, phase, coeff) -> None:
    """Canonicalise one wave and merge its coefficient into ``terms``."""
    if coeff.is_zero():
        return
    canon = _canonical(kind, freqs, phase)
    if canon is None:
        return
    key, sign = canon
    _merge(terms, key, coeff if sign > 0 else -coeff)


def _angle_add(w1, w2, subtract: bool = False) -> tuple[dict, Frequency]:
    fr = dict(w1[1])
    for c, f in w2[1]:
        g = f.neg() if subtract else f
        fr[c] = fr.get(c, FREQ_ZERO).add(g)
    ph = w1[2].add(w2[2].neg() if subtract else w2[2])
    return fr, ph


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


def _reference_orient(kind, fr, phase):
    """Canonical key and sign of a wave whose frequencies are sorted by
    coordinate, zeros dropped, for any phase: the lead frequency (or, with
    none, the phase) fixes the orientation, the phase is reduced mod 2*pi on
    Fractions, and a quarter turn is absorbed into the cos/sin basis.  None
    for sin of the zero angle."""
    sign = 1
    if fr:
        flip = (fr[0][1].pi, fr[0][1].rat) < (0, 0)
    else:
        flip = phase.rat > 0 if phase.rat else (-phase.pi) % 2 < phase.pi % 2
    if flip:
        fr = tuple((c, f.neg()) for c, f in fr)
        phase = phase.neg()
        if kind == "s":
            sign = -sign
    phase = Frequency(phase.rat, phase.pi % 2)
    if phase.rat == 0 and phase.pi.denominator <= 2:
        kind, s2 = _QUARTER[(kind, phase.pi.numerator, phase.pi.denominator)]
        sign *= s2
        phase = FREQ_ZERO
    if kind == "s" and not fr and phase.is_zero():
        return None
    return (kind, fr, phase), sign


def reference_product_keys(w1, w2) -> tuple:
    """The expansion of ``w1 * w2`` that a product reads off the entry of
    ``trigring._angle_products`` through ``_PRODUCT_ROWS``, for two
    canonical waves other than the constant one, with every
    product-to-sum angle built through ``Frequency.add`` and ``neg`` and
    oriented by ``_reference_orient``."""
    out = []
    for kind, fr, ph, sign in _wave_product(w1, w2):
        freqs = tuple(sorted((c, f) for c, f in fr.items() if not f.is_zero()))
        canon = _reference_orient(kind, freqs, ph)
        if canon is not None:
            key, s = canon
            out.append((key, sign * s))
    return tuple(out)


def direct_product(a: TrigScalar, b: TrigScalar) -> TrigScalar:
    """a * b with every product-to-sum wave canonicalised and merged anew."""
    out: dict = {}
    for w1, c1 in a.terms().items():
        for w2, c2 in b.terms().items():
            c = c1 * c2
            if w1 == _CONST_WAVE:
                _merge(out, w2, c)
            elif w2 == _CONST_WAVE:
                _merge(out, w1, c)
            else:
                half = c * _PI_HALF
                for kind, fr, ph, sign in _wave_product(w1, w2):
                    _add_term(out, kind, fr, ph, half if sign > 0 else -half)
    return TrigScalar(out)


def direct_sum(a: TrigScalar, b: TrigScalar) -> TrigScalar:
    """a + b: b's coefficients merged one by one into a copy of a's terms."""
    out = dict(a.terms())
    for key, c in b.terms().items():
        _merge(out, key, c)
    return TrigScalar(out)


def direct_difference(a: TrigScalar, b: TrigScalar) -> TrigScalar:
    """a - b as a + (-b), with -b negated in full first."""
    return direct_sum(a, TrigScalar({key: -c for key, c in b.terms().items()}))


def direct_differentiate(s: TrigScalar, coord: str) -> TrigScalar:
    """d s / d coord with every output term canonicalised and merged anew."""
    out: dict = {}
    for (kind, fr, ph), c in s.terms().items():
        omega = dict(fr).get(coord)
        if omega is None:
            continue
        dc = c * omega.as_coeff()
        if kind == "c":
            _add_term(out, "s", dict(fr), ph, -dc)
        else:
            _add_term(out, "c", dict(fr), ph, dc)
    return TrigScalar(out)


def frame_by_frame_derivative(space: FramedSpace, v: VecField,
                              s: TrigScalar) -> TrigScalar:
    """v(s) = sum_i v_i * sum_c E_i(c) * ds/dc, one frame field at a time."""
    out = ZERO
    for i, vi in enumerate(v.coeffs):
        e_i_s = ZERO
        for coord in s.coordinates():
            d = space.derivation[i].get(coord)
            if d is not None:
                e_i_s = e_i_s + d * s.differentiate(coord)
        out = out + vi * e_i_s
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


def canonical_items(s) -> list:
    """The terms of s, as ``(wave key, PiScalar)`` pairs, in the canonical
    term order, restated on Fractions: by the number of frequencies, then
    each frequency's (coord, rat, pi) in coordinate order, then the phase's
    (rat, pi), then the kind."""
    def key(item):
        kind, fr, ph = item[0]
        return (len(fr), tuple((c, f.rat, f.pi) for c, f in fr), (ph.rat, ph.pi), kind)
    return sorted(s.terms().items(), key=key)


def frequency_vectors(s, points) -> list[dict]:
    """Each term's frequency vector, in the exact angular units of the grid's
    axes, as ``{coord: integer}``, in the canonical term order; None when
    some frequency is not an integer multiple of its unit."""
    out = []
    for (_, fr, _), _ in canonical_items(s):
        vec = {}
        for coord, f in fr:
            u = points.units[points.coords.index(coord)]
            if u is None:
                return None
            q = f.rat / u.rat if u.rat else f.pi / u.pi
            if q.denominator != 1 or f != u.scale(q):
                return None
            vec[coord] = q.numerator
        out.append(vec)
    return out


def is_single_direction(s, points) -> bool:
    """True when the frequency vectors are integral and pairwise parallel."""
    vectors = frequency_vectors(s, points)
    if vectors is None:
        return False
    coords = points.coords
    for a, b in itertools.combinations(vectors, 2):
        for x, y in itertools.combinations(coords, 2):
            if a.get(x, 0) * b.get(y, 0) != a.get(y, 0) * b.get(x, 0):
                return False
    return True


def residue_values(s, points) -> list[float]:
    """s at every point of a ``grid_points`` grid, in grid order, with each
    term's angle taken at its exact residue.

    At the point of axis indices k the term of frequency vector n (in axis
    units) has the exact angle phase + 2*pi*(n . k)/N, which is taken as
    ``phase + math.tau * r / N`` with r = (n . k) mod N; the terms are summed
    in the canonical term order from 0.0.
    """
    n_axis = len(points.axes[0]) if points.axes else 1
    terms = [(kind, c.evaluate(), ph.value(), vec)
             for ((kind, _, ph), c), vec in zip(canonical_items(s),
                                                frequency_vectors(s, points))]
    out = []
    for k in itertools.product(range(n_axis), repeat=len(points.coords)):
        at = dict(zip(points.coords, k))
        total = 0.0
        for kind, coeff, phase, vec in terms:
            r = sum(m * at[coord] for coord, m in vec.items()) % n_axis
            wave = math.cos if kind == "c" else math.sin
            total = total + coeff * wave(phase + math.tau * r / n_axis)
        out.append(total)
    return out


def brute_force_certificate(scalars, points, claim: str,
                            values=None) -> tuple[float, dict | None]:
    """(bound, witness point) of a sampled certificate, point by point.

    ``values`` gives each scalar's values at the points, in order; by default
    each is evaluated at each point.  Nonvanishing takes the smallest |s| of
    the single scalar, vanishing the largest |s| over all scalars; a tie goes
    to the first point in the order given, and vanishing names no point when
    every value is zero.
    """
    points = list(points)
    if values is None:
        values = [[s.evaluate(p) for p in points] for s in scalars]
    if claim == "nonvanishing":
        (column,) = values
        best, at = None, None
        for p, value in zip(points, column):
            v = abs(value)
            if best is None or v < best:
                best, at = v, p
        return best, at
    best, at = 0.0, None
    for i, p in enumerate(points):
        for column in values:
            v = abs(column[i])
            if v > best:
                best, at = v, p
    return best, at


def fraction_period(space: FramedSpace, coord: str, scalars) -> tuple:
    """(float period, exact angular unit) of a coordinate, on Fractions.

    A declared period P gives P's value and 2*pi/P when P is a rational or a
    rational multiple of pi, else no unit.  Otherwise each frequency is
    written as a Fraction times the first one, the base; the unit is g *
    base for g the gcd of those Fractions, turned positive, and the period
    is 2*pi over the unit's value, its rational part plus its pi part times
    pi in floats.  So the period depends on the set of frequencies only,
    not on which of them is the base.
    """
    if coord in space.periods:
        period = space.periods[coord]
        if period.pi == 0 and period.rat != 0:
            return period.value(), Frequency(Fraction(0), 2 / period.rat)
        if period.rat == 0 and period.pi != 0:
            return period.value(), Frequency(2 / period.pi, Fraction(0))
        return period.value(), None
    freqs = set()
    for s in scalars:
        freqs |= s.frequencies_of(coord)
    base = next(iter(freqs))
    g = None
    for f in freqs:
        if base.rat != 0:
            q = f.rat / base.rat
            commensurate = f.pi == q * base.pi
        else:
            q = f.pi / base.pi
            commensurate = f.rat == 0
        if not commensurate:
            raise ValueError(f"incommensurate frequencies in {coord!r}; declare a period")
        if g is None:
            g = q
        else:
            a, b = abs(g), abs(q)
            g = Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                         a.denominator * b.denominator)
    unit = base.scale(g)
    value = float(unit.rat) + float(unit.pi) * math.pi
    if value < 0:
        unit, value = unit.neg(), -value
    return 2.0 * 3.141592653589793 / value, unit
