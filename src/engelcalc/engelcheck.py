"""Certification of Engel flags, defining forms, Reeb fields, and symmetries.

The checks work over a :class:`FramedSpace` with a candidate plane field
D = <D1, D2>, and each reads its target from one :class:`Derivation`, which
keeps every quantity it derives for the checks after it.  Rank claims come
back as :class:`Certificate` values; identity claims (residuals, invariance
of spans) are certified symbolically whenever the normal form collapses,
with deterministic grid sampling as the fallback.

Every denominator of the Reeb chain is a power of the nowhere-zero top
coefficient abdb of alpha ^ beta ^ d(beta): T and R are over abdb, [W, R],
[JW, R] and the d_* over abdb^2, [T, R] over abdb^3.  Each is carried as a
numerator over its power, with ``abdb_bracket`` the one bracket rule, so
every identity check stays in the trig-polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .framecalc import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    Certificate,
    ComplexStructure,
    FramedSpace,
    KForm,
    VecField,
    bracket,
    certify_no_common_zero,
    certify_nonvanishing,
    certify_vanishing,
    exterior_derivative,
    extend_minors,
    nijenhuis,
    wedge,
)
from .trigring import ONE, ZERO, TrigScalar

__all__ = [
    "PreconditionError",
    "EngelFlag",
    "Frac",
    "abdb_bracket",
    "DefiningForms",
    "StructureFunctions",
    "Derivation",
    "verify_engel",
    "characteristic_foliation",
    "j_invariance_check",
    "complex_framing",
    "totally_real_check",
    "defining_forms",
    "structure_functions",
    "nijenhuis_certificate",
    "jofreeb_residual",
    "j_engel_splitting",
    "transverse_engel_check",
    "k_engel_check",
]

class PreconditionError(Exception):
    """A stated precondition does not hold; the check is rejected, not failed."""


# -- quotients over the trig ring ---------------------------------------------


def _div_exact(scalars: Iterable[TrigScalar], s: TrigScalar) -> list[TrigScalar] | None:
    """The scalars / s, when s is a nonzero constant that divides each of
    them exactly, else None: the one exact division, for all types."""
    const = s.constant_value()
    if const is None or const.is_zero():
        return None
    out = [c.div_exact(const) for c in scalars]
    return None if None in out else out


@dataclass(frozen=True)
class Frac:
    """Exact quotient of trig scalars; the denominator vanishes nowhere."""

    num: TrigScalar
    den: TrigScalar = ONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_trig(self) -> TrigScalar | None:
        """Exact TrigScalar value when the denominator divides out; a zero
        numerator is 0 whatever the (nowhere-zero) denominator."""
        if self.num.is_zero():
            return ZERO
        exact = _div_exact([self.num], self.den)
        return None if exact is None else exact[0]

    def __str__(self) -> str:
        exact = self.as_trig()
        if exact is not None:
            return str(exact)
        return f"({self.num}) / ({self.den})"


def abdb_bracket(u: VecField, j: int, v: VecField, k: int, a: TrigScalar,
                 space: FramedSpace) -> VecField:
    """The numerator a [u, v] - k u(a) v + j v(a) u of [u / a^j, v / a^k]
    over a^(j+k+1), by the Leibniz rule [f u, g v] = f g [u, v] + f u(g) v
    - g v(f) u with f = a^-j and g = a^-k: the chain's one bracket rule,
    with a = abdb, and no product of denominators."""
    out = bracket(u, v, space).scale(a)
    if k:
        du = space.apply(u, a)
        out = out - v.scale(du if k == 1 else du * k)
    if j:
        dv = space.apply(v, a)
        out = out + u.scale(dv if j == 1 else dv * j)
    return out


# -- Engel flags ----------------------------------------------------------------


@dataclass(frozen=True)
class EngelFlag:
    """The flag W < D < E < TM with its rank certificates.

    ``alpha`` annihilates E, set once rank(D) = 2 is certified: its
    coefficients are the signed maximal minors of (D1, D2, E3), which also
    witness rank(E) = 3.  ``d_alpha`` is d(alpha), which ``defining_forms``
    reuses, and ``pairings`` are u_i = alpha([D_i, E3]) as functions,
    computed as -d(alpha)(D_i, E3); both are set once rank(E) = 3 is
    certified.  The pairings certify rank([D, E]) = 4, give
    W = -u2 D1 + u1 D2 and normalise alpha.
    """

    d1: VecField
    d2: VecField
    e3: VecField
    certificates: Mapping[str, Certificate]
    alpha: KForm | None = None
    d_alpha: KForm | None = None
    pairings: tuple[TrigScalar, TrigScalar] | None = None

    @property
    def passed(self) -> bool:
        needed = ("rank_d", "rank_e", "rank_tm")
        return all(k in self.certificates and self.certificates[k].passed
                   for k in needed)


def verify_engel(ctx: Derivation) -> EngelFlag:
    """Certify rank(D) = 2, rank(D + [D1,D2]) = 3, and rank([D,E]) = 4.

    rank(D) is witnessed by the six 2x2 minors of (D1, D2), the context's
    ``d_minors``.  rank(E) is witnessed by the coefficients of alpha, the
    maximal minors of (D1, D2, E3).  The top rank is witnessed by the
    pairings u_i = alpha([D_i, E3]) = det(D1, D2, E3, [D_i, E3]): alpha
    kills D_i and E3, so Cartan's formula d(alpha)(X, Y) = X alpha(Y)
    - Y alpha(X) - alpha([X, Y]) gives u_i = -d(alpha)(D_i, E3), and no
    bracket with E3 is taken.  At each point at least one u_i must be
    nonzero, so the sampled witness is their sum of squares.

    Both witnesses are read off the 2x2 minors of (D_i, E3), each set
    expanded once.  E3 is the largest column, so it is taken into the 2x2
    minors of (D1, E3), and the maximal minors of (D1, D2, E3) are expanded
    along D2 instead of E3, through

        det(D1, E3, D2) = -det(D1, D2, E3).

    The pairings are u_i = -d(alpha) evaluated on the pair's minors
    (``KForm.on_minors``).  The minors of (D2, E3) are expanded only once
    rank(E) = 3 is certified, and only on the row sets of d(alpha)'s terms.
    """
    d1, d2, space, grid, tol = ctx.d1, ctx.d2, ctx.space, ctx.grid, ctx.tol
    certs: dict[str, Certificate] = {}
    certs["rank_d"] = certify_no_common_zero(list(ctx.d_minors.values()), space,
                                             grid, tol)
    e3 = bracket(d1, d2, space)
    if not certs["rank_d"].passed:
        return EngelFlag(d1, d2, e3, certs)
    pair = extend_minors([d1, e3])
    # det(D1, E3, D2) = -det(D1, D2, E3)
    minors = [-m for m in extend_minors([d2], minors=pair).values()]
    # u -> det(D1, D2, E3, u) expanded along u, whose kernel is E; its
    # coefficients are the minors up to sign, in the order of extend_minors
    m0, m1, m2, m3 = minors
    alpha = KForm.one_form([-m3, m2, -m1, m0])
    certs["rank_e"] = certify_no_common_zero(minors, space, grid, tol)
    if not certs["rank_e"].passed:
        return EngelFlag(d1, d2, e3, certs, alpha)
    d_alpha = exterior_derivative(alpha, space)
    u1 = -d_alpha.on_minors(pair)
    u2 = -d_alpha.on_minors(extend_minors([d2, e3], d_alpha.terms))
    for u, label in ((u1, "det with [D1,E3]"), (u2, "det with [D2,E3]")):
        const = u.constant_value()
        if const is not None and not const.is_zero():
            certs["rank_tm"] = certify_nonvanishing(u, space, grid, tol, note=label)
            break
    else:
        certs["rank_tm"] = certify_no_common_zero(
            [u1, u2], space, grid, tol, note="sum of squares of the two top minors")
    return EngelFlag(d1, d2, e3, certs, alpha, d_alpha, (u1, u2))


def characteristic_foliation(ctx: Derivation) -> VecField:
    """The line field W = -u2 D1 + u1 D2 in D, with [W, E] inside E, read
    off the pairings u_i = alpha([D_i, E3]) of the context's flag.

    Nothing is left to certify.  [W, E] lies in E when alpha([W, X])
    vanishes for X = D1, D2, E3.  With W = l1 D1 + l2 D2, the Leibniz rule
    [l D, X] = l [D, X] - X(l) D and the linearity of alpha give

        alpha([W, X]) = l1 alpha([D1, X]) + l2 alpha([D2, X])
                        - X(l1) alpha(D1) - X(l2) alpha(D2).

    alpha is det(D1, D2, E3, .), so alpha(D1) = alpha(D2) = alpha(E3) = 0
    identically, and alpha([D1, D2]) = alpha(E3).  The flag's pairings are
    -d(alpha)(D_i, E3), which is alpha([D_i, E3]) by Cartan's formula.  So
    the three residuals are -l2 alpha(E3) = 0, l1 alpha(E3) = 0 and
    l1 u1 + l2 u2 = -u2 u1 + u1 u2 = 0 for (l1, l2) = (-u2, u1).  A passed
    flag certifies that u1 and u2 vanish nowhere together, so W vanishes
    nowhere.
    """
    flag = ctx.flag
    if not flag.passed:
        raise PreconditionError("characteristic foliation needs a certified flag")
    u1, u2 = flag.pairings
    return flag.d1.scale(-u2) + flag.d2.scale(u1)


def j_invariance_check(ctx: Derivation) -> Certificate:
    """JD = D, certified by vanishing of the maximal minors of (D1, D2, J D1),
    extended from the context's 2x2 minors of (D1, D2).

    J D1 alone decides it.  Where D1 ^ D2 != 0, J D1 in D gives
    J D1 = a D1 + b D2 with b != 0, since J has no real eigenvector; then
    J D2 = -(D1 + a J D1) / b lies in D too.  Where D1 ^ D2 = 0, every
    minor of (D1, D2, .) vanishes.  So the four minors vanish exactly when
    the eight of (D1, D2, J D1) and (D1, D2, J D2) do.
    """
    minors = extend_minors([ctx.J.apply(ctx.d1)], minors=ctx.d_minors)
    return certify_vanishing(list(minors.values()), ctx.space, ctx.grid,
                             note="minors of (D1, D2, J D_i)")


def complex_framing(ctx: Derivation) -> tuple[VecField, VecField]:
    """The complex frame (W, [W, JW]) of (TM, J), read from the context: W,
    JW, [W, JW] and J[W, JW] frame TM, so both Chern classes vanish.

    Nothing is left to certify once the flag and JD = D are.  W vanishes
    nowhere and J has no real eigenvector, so W and JW frame D.  With
    W = l1 D1 + l2 D2 and JW = m1 D1 + m2 D2, the Leibniz rule gives
    [W, JW] = (l1 m2 - l2 m1) E3 modulo D, and l1 m2 - l2 m1 vanishes
    nowhere because W and JW are independent; E3 lies outside D by the
    certified rank(E) = 3, so [W, JW] lies outside D.  As JD = D, J acts
    on TM / D, which is a complex line, so the nonzero class of [W, JW]
    and its J-image span it, and the four fields frame TM.
    """
    if not ctx.flag.passed:
        raise PreconditionError("complex framing needs a certified Engel structure")
    if not ctx.j_invariance.passed:
        raise PreconditionError("complex framing needs JD = D")
    return ctx.w, ctx.wx


def totally_real_check(ctx: Derivation) -> Certificate:
    """JD meets D only in zero: det(D1, D2, JD1, JD2) vanishes nowhere.  The
    determinant extends the context's 2x2 minors of (D1, D2)."""
    jd = [ctx.J.apply(ctx.d1), ctx.J.apply(ctx.d2)]
    det = extend_minors(jd, [(0, 1, 2, 3)], ctx.d_minors)[(0, 1, 2, 3)]
    return certify_nonvanishing(det, ctx.space, ctx.grid, ctx.tol,
                                note="rank of (D1, D2, J D1, J D2)")


# -- defining forms and the Reeb distribution -----------------------------------


@dataclass(frozen=True)
class DefiningForms:
    """alpha, beta = alpha o J, their differentials, and the Reeb pair T, R.

    ``abdb`` is the top coefficient of alpha ^ beta ^ d(beta), and ``k_t``
    and ``k_r`` are the kernel fields of alpha ^ d(beta) and of
    beta ^ d(beta): T = K_T / -abdb and R = K_R / abdb.
    """

    alpha: KForm
    beta: KForm
    d_alpha: KForm
    d_beta: KForm
    abdb: TrigScalar
    k_t: VecField
    k_r: VecField
    normalization: str = ""


def _div_form(form: KForm, s: TrigScalar) -> KForm | None:
    """form / s, for a form of any degree, when the division is exact."""
    coeffs = _div_exact(form.terms.values(), s)
    return None if coeffs is None else KForm.of(form.degree,
                                                dict(zip(form.terms, coeffs)))


def _compose_with_J(alpha: KForm, J: ComplexStructure) -> KForm:
    return KForm.one_form([alpha(J.apply(VecField.basis(i))) for i in range(4)])


def defining_forms(ctx: Derivation) -> DefiningForms:
    """Construct alpha (annihilating E), beta = alpha o J, and the Reeb pair
    from the context's flag, for a J-invariant D.

    alpha is normalised, when the pairing is an exactly invertible constant
    c, so that alpha([D1, E3]) = 1 (falling back to [D2, E3], then to the
    raw form), and d(alpha / c) = d(alpha) / c is the flag's d(alpha) over c:
    only d(beta) is taken here.

    The three defining-form conditions hold by construction once the flag
    and JD = D are certified, so nothing is certified here.  alpha =
    det(D1, D2, E3, .) vanishes on D1, D2 and E3 identically and nowhere
    else, by rank(E) = 3, so at each point some Y has alpha(Y) != 0 and
    (D1, D2, E3, Y) is a frame; d is Cartan's, as in ``verify_engel``.

    - alpha ^ d(alpha) != 0: alpha ^ d(alpha)(D_i, E3, Y) =
      alpha(Y) d(alpha)(D_i, E3) = -alpha(Y) u_i, and the flag certifies
      that the pairings u1, u2 vanish nowhere together.  This needs the
      flag only.
    - alpha ^ d(alpha) ^ beta = 0: on the frame it is
      -alpha(Y) (d(alpha) ^ beta)(D1, D2, E3), and that vanishes, as
      beta(D_i) = alpha(J D_i) = 0 by JD = D and d(alpha)(D1, D2) =
      -alpha(E3) = 0.
    - alpha ^ beta ^ d(beta) != 0: E meets JE in a J-invariant space, of
      even dimension, that holds D; E has odd dimension, so E and JE meet
      in D, J E3 lies outside E, and beta(E3) = alpha(J E3) vanishes
      nowhere.  alpha ^ beta vanishes on D and d(beta)(D1, D2) =
      -beta(E3), so alpha ^ beta ^ d(beta)(D1, D2, E3, Y) =
      alpha(Y) beta(E3)^2.

    The Reeb pair is read off alpha ^ beta ^ d(beta), whose top coefficient
    is ``abdb``.  Let K be the kernel field of a 3-form omega, so that
    i_K vol = omega.  For every 1-form theta, theta(K) vol = theta ^ omega:
    contract the zero 5-form theta ^ vol with K.  So the kernel field K_T of
    alpha ^ d(beta) has beta(K_T) = -abdb and alpha(K_T) = 0
    (alpha ^ alpha = 0), and the kernel field K_R of beta ^ d(beta) has
    alpha(K_R) = abdb and beta(K_R) = 0 (beta ^ beta = 0).  T = K_T / -abdb
    and R = K_R / abdb are then the Reeb pair, with beta(T) = alpha(R) = 1,
    and nothing about them is left to certify.
    """
    flag, space = ctx.flag, ctx.space
    if not flag.passed:
        raise PreconditionError("defining forms need a certified Engel flag")
    if not ctx.j_invariance.passed:
        raise PreconditionError("defining forms need JD = D")
    alpha, d_alpha = flag.alpha, flag.d_alpha
    normalization = "raw"
    for pairing, label in zip(flag.pairings, ("[D1,[D1,D2]]", "[D2,[D1,D2]]")):
        scaled = _div_form(alpha, pairing)
        if scaled is not None:
            alpha, d_alpha = scaled, _div_form(d_alpha, pairing)
            normalization = f"alpha({label}) = 1"
            break
    beta = _compose_with_J(alpha, ctx.J)
    d_beta = exterior_derivative(beta, space)
    beta_dbeta = wedge(beta, d_beta)
    abdb = wedge(alpha, beta_dbeta).component((0, 1, 2, 3))
    return DefiningForms(alpha, beta, d_alpha, d_beta, abdb,
                         wedge(alpha, d_beta).kernel_field(),
                         beta_dbeta.kernel_field(), normalization)


@dataclass(frozen=True)
class StructureFunctions:
    """The pairings c_WX, d_XT, d_WR, d_XR of brackets against the forms."""

    c_WX: TrigScalar
    d_XT: Frac
    d_WR: Frac
    d_XR: Frac


def structure_functions(ctx: Derivation) -> StructureFunctions:
    """c_WX = beta([W,X]), d_XT = alpha([X,T]), d_WR = alpha([W,R]) and
    d_XR = alpha([X,R]), with X = JW, from the context's forms and bracket
    stages.

    c_WX vanishes nowhere by construction.  With W = l1 D1 + l2 D2 and
    JW = m1 D1 + m2 D2, [W, JW] = (l1 m2 - l2 m1) E3 modulo D, and beta
    vanishes on D, so c_WX = (l1 m2 - l2 m1) beta(E3): the first factor
    vanishes nowhere as W and JW frame D, and the second as E and JE meet
    in D (``defining_forms``).

    d_XT needs no bracket rule.  T = K_T / r with r = -abdb, so
    [X, T] = [X, K_T] / r - X(r) K_T / r^2, and alpha(K_T) = 0
    (``defining_forms``) leaves d_XT = alpha([X, K_T]) / r, kept as
    -abdb alpha([X, K_T]) over abdb^2.  d_WR and d_XR pair alpha with the
    numerators of [W, R] and [JW, R] over abdb^2 (``abdb_bracket``), so
    each d_* is a numerator over the context's one abdb^2, and
    ``jofreeb_residual`` reads the numerators over it.
    """
    forms, abdb2 = ctx.forms, ctx.abdb2
    d_xt = -(forms.abdb * forms.alpha(bracket(ctx.x, forms.k_t, ctx.space)))
    return StructureFunctions(forms.beta(ctx.wx), Frac(d_xt, abdb2),
                              Frac(forms.alpha(ctx.wr), abdb2),
                              Frac(forms.alpha(ctx.xr), abdb2))


def nijenhuis_certificate(ctx: Derivation) -> Certificate:
    """Certify N_J = 0 (integrability of the context's J) on two pairs,
    N(E1, E2) and N(E1, E3).

    N is a tensor, antisymmetric, and N(Jv, w) = -J N(v, w), so also
    N(v, Jw) = -J N(v, w).  At any point span(E1, JE1) is a plane, so it
    cannot hold both E2 and E3: some E_b, b in {2, 3}, lies outside it, and
    since two distinct J-invariant planes meet only in zero,
    (E1, JE1, E_b, JE_b) is a basis.  If N(E1, E_b) = 0, then so are
    N(E1, JE_b) = N(JE1, E_b) = -J N(E1, E_b) and N(JE1, JE_b) =
    -N(E1, E_b); N(E1, JE1) = -J N(E1, E1) = 0 and N(E_b, JE_b) = 0
    likewise, so N vanishes on that basis.  So the 8 components of
    N(E1, E2) and N(E1, E3) decide the claim.
    """
    e1 = VecField.basis(0)
    scalars = [c for b in (1, 2)
               for c in nijenhuis(ctx.J, e1, VecField.basis(b), ctx.space).coeffs]
    return certify_vanishing(scalars, ctx.space, ctx.grid, note="Nijenhuis tensor")


# distinct (J, space, grid) whose Nijenhuis certificate is kept
NIJENHUIS_MEMO_SIZE = 32


@lru_cache(maxsize=NIJENHUIS_MEMO_SIZE)
def _nijenhuis_of(J: ComplexStructure, space: FramedSpace, grid: int) -> Certificate:
    """The Nijenhuis certificate of J on ``space`` at ``grid``, kept for the
    last ``NIJENHUIS_MEMO_SIZE`` triples.  N_J reads neither the plane field
    nor ``tol``.  J and the space hash by identity, so a shared catalog spec
    hits and an equal J built afresh does not; the memo holds its keys, so
    no key outlives its objects, and a certifier that raises stores
    nothing."""
    return nijenhuis_certificate(Derivation(None, None, J, space, grid))


# -- one derivation per target ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Derivation:
    """The chain flag -> W -> forms -> structure functions of one target.

    Every check of this module takes the context as its one argument and
    reads its target from it.  Each stage is computed on first use by its
    public stage function, called through the module global, and then
    kept, so the checks read it from here instead of deriving it again; a
    stage that raises keeps nothing and raises again when next read.  The
    plane-field stages need ``d1`` and ``d2``, the complex ones ``J``.
    ``d_minors``, the 2x2 minors of (D1, D2), is the one place they are
    expanded: they witness rank(D) = 2, and the JD = D and totally-real
    checks extend them.  The brackets that more than one check reads are
    stages too: ``wx`` = [W, JW] (the complex framing and c_WX), and
    ``wr`` = [W, R] and ``xr`` = [JW, R] (the structure functions and the
    K-check), so each is taken once per target; ``wr`` and ``xr`` are over
    the stage ``abdb2``.
    ``nijenhuis`` alone reads a module memo, ``_nijenhuis_of``, as N_J
    depends on J, the space and the grid only, which many targets share.

    Tolerance policy, for these stages and for the checks that take the
    context: rank and nonvanishing certificates use ``tol``; identity
    certificates (vanishing residuals, invariance of spans, JD = D, the
    Nijenhuis tensor) use ``certify_vanishing``'s default, ``IDENTITY_TOL``.
    """

    d1: VecField | None
    d2: VecField | None
    J: ComplexStructure | None
    space: FramedSpace
    grid: int = DEFAULT_GRID
    tol: float = DEFAULT_TOL

    @cached_property
    def d_minors(self) -> dict[tuple[int, ...], TrigScalar]:
        """The six 2x2 minors of (D1, D2): the rank(D) witness, which the
        JD = D and totally-real checks extend."""
        return extend_minors([self.d1, self.d2])

    @cached_property
    def flag(self) -> EngelFlag:
        return verify_engel(self)

    @cached_property
    def w(self) -> VecField:
        return characteristic_foliation(self)

    @cached_property
    def x(self) -> VecField:
        return self.J.apply(self.w)

    @cached_property
    def j_invariance(self) -> Certificate:
        return j_invariance_check(self)

    @cached_property
    def forms(self) -> DefiningForms:
        return defining_forms(self)

    @cached_property
    def wx(self) -> VecField:
        """[W, JW]."""
        return bracket(self.w, self.x, self.space)

    @cached_property
    def abdb2(self) -> TrigScalar:
        """abdb^2."""
        return self.forms.abdb * self.forms.abdb

    @cached_property
    def wr(self) -> VecField:
        """[W, R] = [W, K_R / abdb], over abdb^2."""
        return abdb_bracket(self.w, 0, self.forms.k_r, 1, self.forms.abdb, self.space)

    @cached_property
    def xr(self) -> VecField:
        """[JW, R] = [JW, K_R / abdb], over abdb^2."""
        return abdb_bracket(self.x, 0, self.forms.k_r, 1, self.forms.abdb, self.space)

    @cached_property
    def sf(self) -> StructureFunctions:
        return structure_functions(self)

    @cached_property
    def nijenhuis(self) -> Certificate:
        return _nijenhuis_of(self.J, self.space, self.grid)


@dataclass(frozen=True)
class JofReebResult:
    """The rotation coefficients q1 and q2 of J(T) = R + q1 W + q2 JW, and
    the certificate of the d(alpha)^2 identity."""

    q1: Frac
    q2: Frac
    dalpha_identity: Certificate


def jofreeb_residual(ctx: Derivation) -> JofReebResult:
    """The rotation of the Reeb pair, J(T) = R + q1 W + q2 JW and
    J(R) = -T + q2 W - q1 JW, with q1 = (d_WR + d_XT)/c_WX and
    q2 = d_XR/c_WX: a theorem once the flag, JD = D and N_J = 0 hold, so
    nothing is certified for it.  A nonzero Nijenhuis tensor rejects it.

    JT - R lies in D: alpha(JT) = beta(T) = 1 = alpha(R) and
    beta(JT) = -alpha(T) = 0 = beta(R), so JT = R + q1 W + q2 JW for some
    q1, q2, and J(R) = -T + q2 W - q1 JW follows by J^2 = -1.  Their values
    come from N_J = 0 (Newlander and Nirenberg 1957): theta = alpha - i beta
    is a (1,0)-form, theta(JV) = i theta(V), and N_J = 0 kills the
    (0,2)-part of d(theta).  With A = d(alpha) and B = d(beta), that is,
    for all U and V,

        A(U, V) - A(JU, JV) = -B(JU, V) - B(U, JV),
        A(JU, V) + A(U, JV) = B(U, V) - B(JU, JV).

    Take U = W and V = T, so JV = R + q1 W + q2 JW.  A(W, T) = 0, as
    [W, E] lies in E and T in E; A(W, JW) = 0, as [D, D] lies in E;
    B(W, T) = B(JW, T) = 0, as i_T B is a multiple of alpha (T is the
    kernel field of alpha ^ d(beta) and alpha(T) = 0); B(W, R) =
    B(JW, R) = 0, as i_R B is a multiple of beta; and Cartan's formula
    gives B(W, JW) = -c_WX, A(W, R) = -d_WR, A(JW, T) = -d_XT and
    A(JW, R) = -d_XR.  The first identity then reads d_XR = q2 c_WX, and
    the second d_WR + d_XT = q1 c_WX.  c_WX vanishes nowhere
    (``structure_functions``), and the d_* are N_WR, N_XT and N_XR over
    abdb^2, so q1 = (N_WR + N_XT) / (abdb^2 c_WX) and
    q2 = N_XR / (abdb^2 c_WX).

    Also decides d(alpha)^2 + 2 d_WR alpha ^ beta ^ d(beta) = 0.  alpha
    vanishes on W, JW and T and is 1 on R, so Cartan's formula gives
    d(alpha)(U, V) = -alpha([U, V]) on frame fields: d(alpha)(W, JW) = 0
    and d(alpha)(W, T) = 0 as above, while d(alpha)(W, R) = -d_WR and
    d(alpha)(JW, T) = -d_XT.  For a 2-form omega,
    (omega ^ omega)(1, 2, 3, 4) =
    2 (omega_12 omega_34 - omega_13 omega_24 + omega_14 omega_23), so
    d(alpha)^2(W, JW, T, R) = 2 d_WR d_XT.  alpha ^ beta is nonzero only on
    (T, R), where it is -1, so (alpha ^ beta ^ d(beta))(W, JW, T, R) =
    -d(beta)(W, JW) = c_WX.  So d(alpha)^2 =
    (2 d_WR d_XT / c_WX) alpha ^ beta ^ d(beta), and the claim is
    d_WR (d_XT + c_WX) = 0, whose factors are N_WR and
    N_XT + abdb^2 c_WX over abdb^2.  A product of two trig polynomials,
    real-analytic functions, is zero only when a factor is, so each factor
    takes the exact zero test, and no d(alpha) ^ d(alpha) is formed.  The
    test is complete only where no phase keeps a pi part
    (``certify_vanishing``): a nonzero factor that keeps one, which may be
    the zero function, goes to the grid on its own, and the claim passes
    when a factor does.
    """
    if not ctx.nijenhuis.passed:
        raise PreconditionError("J is not integrable (nonzero Nijenhuis tensor); "
                                "the Reeb rotation formulas do not apply")
    sf = ctx.sf
    den = ctx.abdb2 * sf.c_WX
    note = "d(alpha)^2 + 2 d_WR alpha^beta^d(beta)"
    # the factors of d_WR (d_XT + c_WX) over abdb^2 each: the product is
    # zero exactly when one of them is
    factors = (sf.d_WR.num, sf.d_XT.num + den)
    zero = [f for f in factors if f.is_zero()]
    if zero:
        dalpha = certify_vanishing(zero[:1], ctx.space, ctx.grid, note=note)
    else:
        sampled = [certify_vanishing([f], ctx.space, ctx.grid, note=note)
                   for f in factors if f.has_pi_phase()]
        dalpha = next((c for c in sampled if c.passed),
                      sampled[0] if sampled else Certificate("FAILED", "vanishing",
                                                             note=note))
    return JofReebResult(Frac(sf.d_WR.num + sf.d_XT.num, den),
                         Frac(sf.d_XR.num, den), dalpha)


# -- splitting, transverse fields, K-structure ----------------------------------


def j_engel_splitting(ctx: Derivation) -> tuple[VecField, VecField,
                                                 VecField, VecField]:
    """The splitting TM = W + JW + JZ + Z of a J-Engel structure, with
    Z = span(R), as the fields (W, JW, J K_R, K_R) read from the context.

    The four fields frame TM.  D is the intersection of ker(alpha) and
    ker(beta): D lies in E = ker(alpha), beta(D) = alpha(JD) = alpha(D) = 0,
    and alpha ^ beta vanishes nowhere, as alpha ^ beta ^ d(beta) vanishes
    nowhere (``defining_forms`` has the proof).  Now alpha(R) = 1 and beta(R) = 0, so alpha(JR) = beta(R)
    = 0 and beta(JR) = -alpha(R) = -1.  Applying alpha to
    a W + b JW + c JR + d R = 0 gives d = 0, then applying beta gives c = 0,
    and W, JW frame D: W vanishes nowhere by the flag's certificates, and J
    has no real eigenvector.

    Z does not depend on the choice of alpha: for a nowhere-zero lambda,
    (lambda beta) ^ d(lambda beta) = lambda^2 beta ^ d(beta) since
    beta ^ beta = 0, so the rescaled forms have the kernel field lambda^2 K_R.
    """
    if not ctx.flag.passed:
        raise PreconditionError("splitting needs a certified Engel structure")
    if not ctx.j_invariance.passed:
        raise PreconditionError("splitting needs JD = D")
    k_r = ctx.forms.k_r
    return ctx.w, ctx.x, ctx.J.apply(k_r), k_r


def transverse_engel_check(ctx: Derivation) -> Certificate:
    """Certify that the raw Reeb field Z = K_R of the context's forms is an
    Engel field: each [Z, D_i] lies in D, certified on the two scalars
    alpha([Z, D_i]).

    That is the one claim about Z that can fail.  Z is the kernel field of
    beta ^ d(beta), i_Z vol = beta ^ d(beta), so by ``defining_forms``
    alpha(Z) = abdb vanishes nowhere and beta(Z) = 0: Z is transverse to E
    and JZ lies in E.  i_Z(beta ^ d(beta)) = i_Z i_Z vol = 0, and Z spans
    the Reeb line, as R = Z / abdb.  None of these is certified.

    D is the intersection of ker(alpha) and ker(beta)
    (``j_engel_splitting``), and beta([Z, D_i]) vanishes identically.
    i_Z(beta ^ d(beta)) = 0 is beta(Z) d(beta) - beta ^ i_Z d(beta), and
    beta(Z) = 0, so beta ^ i_Z d(beta) = 0 and i_Z d(beta) = mu beta for
    some function mu.  By Cartan's formula, with beta(D_i) = 0 and
    beta(Z) = 0,

        beta([Z, D_i]) = Z beta(D_i) - D_i beta(Z) - d(beta)(Z, D_i)
                       = -mu beta(D_i) = 0.

    So [Z, D_i] lies in D exactly when alpha([Z, D_i]) = 0.
    """
    forms, space = ctx.forms, ctx.space
    residuals = [forms.alpha(bracket(forms.k_r, gen, space)) for gen in (ctx.d1, ctx.d2)]
    return certify_vanishing(residuals, space, ctx.grid, note="L_Z D stays in D")


@dataclass(frozen=True)
class KEngelReport:
    passed: bool
    commutators: Mapping[str, Certificate]
    obstructions: Mapping[str, str]
    rescaling_solvable: bool | None
    dbeta_squared_zero: bool
    note: str = ""


def k_engel_check(ctx: Derivation) -> KEngelReport:
    """Diagnose whether R commutes with W, X and T.

    All three commutators vanishing exhibits defining forms and a framing
    admitting a compatible metric with R as a Killing Engel field.  Each
    commutator is decided exactly: one that is not identically zero fails,
    with no grid.  On failure the report carries the expansion of each
    nonzero commutator in the adapted frame (W, X, T, R) plus the
    solvability of the rescaling equation, which for translation-invariant
    data amounts to a_WR = 0; a zero [W, R] has a_WR = 0.

    Each row is read off the forms.  With C = a W + b X + c K_T + d K_R,
    alpha and beta vanish on D = <W, X>, and alpha(K_T) = beta(K_R) = 0,
    alpha(K_R) = abdb and beta(K_T) = -abdb (``defining_forms``), so
    c = -beta(C) / abdb and d = alpha(C) / abdb.  T = K_T / -abdb and
    R = K_R / abdb, so C's coefficients on T and R are beta(C) and
    alpha(C).  For the W and X rows, i_{K_T} d(beta) is a multiple of
    alpha: i_{K_T}(alpha ^ d(beta)) = i_{K_T} i_{K_T} vol = 0, and it is
    alpha(K_T) d(beta) - alpha ^ i_{K_T} d(beta) with alpha(K_T) = 0.
    Likewise i_{K_R} d(beta) is a multiple of beta.  Both vanish on D, so
    d(beta)(K_T, .) and d(beta)(K_R, .) vanish on W and on X, and with
    d(beta)(W, X) = -beta([W, X]) = -c_WX by Cartan's formula,

        d(beta)(C, X) = -a c_WX,    d(beta)(C, W) = b c_WX.

    For C = u / den(C), with den(C) = abdb^2 for [W, R] and [JW, R] and
    abdb^3 for [T, R] (``abdb_bracket``), formed only for a nonzero C, the
    rows are -d(beta)(u, X) and d(beta)(u, W) over c_WX den(C), and
    beta(u) and alpha(u) over den(C).  c_WX vanishes nowhere
    (``structure_functions``).  A zero numerator is 0 over any
    denominator, so c_WX den(C) is formed only for a nonzero W or X row.

    d(beta)^2 = 0 is read off the [T, R] row.  On the frame (W, X, T, R),
    d(beta) is zero on (W, T), (X, T), (W, R) and (X, R), as above, and

        d(beta)^2(W, X, T, R) = 2 d(beta)(W, X) d(beta)(T, R)
                              = 2 c_WX beta([T, R]),

    by Cartan's formula, as beta(T) = 1 and beta(R) = 0.  c_WX vanishes
    nowhere, so d(beta)^2 = 0 exactly when [T, R] is zero or has a zero T
    coefficient, and no d(beta) ^ d(beta) is formed.
    """
    w, x, forms, space = ctx.w, ctx.x, ctx.forms, ctx.space
    abdb = forms.abdb
    # each commutator's numerator and the power of abdb it is over
    comms = {"WR": (ctx.wr, 2), "XR": (ctx.xr, 2),
             "TR": (abdb_bracket(-forms.k_t, 1, forms.k_r, 1, abdb, space), 3)}
    certs: dict[str, Certificate] = {}
    obstructions: dict[str, str] = {}
    a_wr = ZERO
    for key, (u, k) in comms.items():
        note = f"[{key[0]},{key[1]}] = 0"
        if u.is_zero():
            certs[key] = certify_vanishing(list(u.coeffs), space, ctx.grid, note=note)
            continue
        certs[key] = Certificate("FAILED", "vanishing", note=note)
        den = ctx.abdb2 if k == 2 else ctx.abdb2 * abdb
        rows = [-forms.d_beta(u, x), forms.d_beta(u, w)]
        # a zero Frac is 0 over any denominator
        row_den = ONE if all(n.is_zero() for n in rows) else ctx.sf.c_WX * den
        coefs = [Frac(rows[0], row_den), Frac(rows[1], row_den),
                 Frac(forms.beta(u), den), Frac(forms.alpha(u), den)]
        for name, c in zip("WXTR", coefs):
            if not c.is_zero():
                obstructions[f"{key}.{name}"] = str(c)
        if key == "WR":
            a_wr = coefs[0].as_trig()
    decided = a_wr is not None and a_wr.constant_value() is not None
    return KEngelReport(
        passed=all(c.passed for c in certs.values()),
        commutators=certs,
        obstructions=obstructions,
        rescaling_solvable=a_wr.is_zero() if decided else None,
        dbeta_squared_zero="TR.T" not in obstructions,
        note="" if decided else "a_WR is not constant; rescaling equation not decided",
    )
