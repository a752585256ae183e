"""Exact scalar arithmetic for trigonometric polynomials.

A scalar is a finite Fourier sum

    c_0  +  sum_w  c_w * trig(<w, x> + p_w),       trig in {cos, sin},

over formal coordinates x.  Every frequency component and every phase is an
exact value ``r + s*pi`` with rational r, s; coefficients live in the Laurent
ring Q[pi, 1/pi].  (Plain rationals are not closed under differentiation:
d/dt sin(pi*t) = pi*cos(pi*t) pushes pi into the coefficient, and products of
such coefficients push in higher powers.)

Both are stored as reduced ints, and sums, products and derivatives run on
them alone: a ``Frequency`` is the four ints ``(rat_num, rat_den, pi_num,
pi_den)``, and a coefficient its run, a sorted tuple of ``(exp, num, den)``
triples.  A ``TrigScalar``'s term map holds the runs themselves; a
``PiScalar`` wraps one where a coefficient leaves or enters the map, and
its hash is that of its ``(exp, Fraction)`` pairs, which
``PiScalar.items()`` still gives.

Values are kept in a canonical normal form at all times:

* products of waves are expanded by product-to-sum before storage,
* the leading frequency of each wave is sign-normalised,
* phases are reduced mod 2*pi and quarter-turn phases (multiples of pi/2,
  the only ones whose sine and cosine are both rational) are absorbed into
  the cos/sin basis,
* zero coefficients are dropped and ``sin`` of the zero angle never appears.

Semantically equal inputs whose phases are free of rational multiples of pi
other than quarter turns therefore map to identical term maps, and for them
equality and the zero test are syntactic.  Other rational-pi phases are not
reduced against each other: ``parse("cos(pi/3) - 1/2")`` is zero but does not
normalise to zero (open item 3 of ROADMAP.md).  All values are immutable and
all operations are pure.

A term map keeps its terms in the order the operation that built it
inserted them, so equal values reached by different routes can list their
terms differently.  Whatever reads the terms in sequence reads them in one
canonical term order instead (``_order_of``: by the number of
frequencies, the frequencies, the phase, then the kind): the text form, the
float form that ``sample_grid`` and ``evaluate`` sum, and the residue tables
of grid certificates.  So the float value of a scalar at a point, and with
it every sampled bound, depends on its exact value alone.

A product of two waves is expanded and canonicalised once per unordered pair
of their angles: ``_angle_products`` forms the sum and difference angles of
two angles, named by their cos keys, from one merge pass over their
frequencies, and keeps the four oriented waves cos and sin of the difference
and of the sum, each a canonical key and sign (or None where it vanishes).
The four product-to-sum identities are one table, ``_PRODUCT_ROWS``, of
(wave index, sign) pairs, from which a product reads cos*cos, cos*sin,
sin*cos or sin*sin.  The memo keeps the last ``PRODUCT_MEMO_SIZE`` (2,048)
angle pairs in an ``lru_cache``, which holds each workload's working set:
44 ``laws`` rounds meet 1,542 distinct pairs, three ``sampled`` rounds
1,016 and the catalog 32.  At 256 entries the ``laws`` run (seed 0)
expanded 22,088 times; at 2,048 it expands each pair once.  Swapping the
angles only negates their difference, which canonical orientation undoes
(and the swapped product-to-sum sign cancels for a sine), so products look
each pair up in one fixed order, the smaller hash first.  Integer parts are
added without a gcd, and a zero phase skips the phase reduction.

Every canonical wave key is a ``WaveKey``: an int whose value is the hash of
its ``(kind, freqs, phase)`` triple, hashed by ``int``'s own C slot, so term
dicts and the memo never hash the nested tuple again, and match keys by
identity.
``_orient`` makes each key through the wave table, which keeps one key per
triple and starts afresh when it holds ``WAVE_TABLE_SIZE`` waves.  The memo
and the wave table are the module's only state; both are bounded and
thread-safe, and no result depends on either: keys of one wave from
different tables are distinct objects that still compare and hash equal.
Sums and products merge the coefficients' runs (half the product for a
wave pair, negated on the fly for a difference), and a product's
accumulator is its result's term map; a constant operand only scales the
other, and ``ONE`` returns it.  ``TrigScalar.constant`` gives the shared
``ONE`` for the exact value 1, so every 1 that enters through it (``parse``,
``normalize``, frame tables) is that object.  Nearly every coefficient is a single power
of pi, so two single-triple runs take one ``_qmul`` or ``_qadd`` in
products, sums, scalings and derivatives, and only other runs go through
``_pmul`` and ``_merge_runs``.  ``differentiate`` keeps each term's key with cos and
sin swapped, which is canonical as it stands; each key caches that partner,
which also names a sine's angle.  Each key likewise keeps its text, such
as ``sin(2*pi*x)``, once ``format_scalar`` has formed it, so a wave is
formatted once per key, and a fresh table's key forms the same text again.
A zero operand of a sum or difference gives
the other operand (negated for ``0 - x``), and ``parse`` reads an integer
literal without the tokenizer.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "Frequency",
    "PiScalar",
    "TrigScalar",
    "normalize",
    "differentiate",
    "evaluate",
    "is_identically_zero",
    "parse",
    "rat",
]

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def _qadd(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d in lowest terms, for reduced inputs with b, d > 0."""
    if b == d == 1:
        return a + c, 1
    n = a * d + c * b
    b *= d
    g = math.gcd(n, b)
    return n // g, b // g


class Frequency(tuple):
    """Exact frequency/phase value ``rat + pi * pi``.

    Since pi is irrational the value is zero iff both parts are zero, which
    keeps equality and sign-normalisation exact.  The value is stored as the
    four ints ``(rat_num, rat_den, pi_num, pi_den)``, each pair in lowest
    terms with a positive denominator.  Frequencies live inside the wave keys
    of every term map, so equality and hashing are the tuple's own, on ints;
    the hash is ``hash((rat_num, rat_den, pi_num, pi_den))``.  ``rat`` and
    ``pi`` give the two parts as Fractions.  Frequency arithmetic goes
    through ``add``, ``neg`` and ``scale`` only: ``+``, ``*`` and ``<`` are
    the tuple's (concatenation, repetition, order of the raw ints), and a
    frequency equals the plain tuple of its four ints.
    """

    __slots__ = ()

    def __new__(cls, rat_part: Fraction, pi_part: Fraction) -> "Frequency":
        return tuple.__new__(cls, (rat_part.numerator, rat_part.denominator,
                                   pi_part.numerator, pi_part.denominator))

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        return self.rat, self.pi

    @property
    def rat(self) -> Fraction:
        return Fraction(self[0], self[1])

    @property
    def pi(self) -> Fraction:
        return Fraction(self[2], self[3])

    def __repr__(self) -> str:
        return f"Frequency(rat={self.rat!r}, pi={self.pi!r})"

    @staticmethod
    def of(rational: RationalLike = 0, pi_part: RationalLike = 0) -> "Frequency":
        return Frequency(rat(rational), rat(pi_part))

    # the zero fast paths below skip the arithmetic of wave products, where
    # most angle components are absent or cancel
    def is_zero(self) -> bool:
        return self is FREQ_ZERO or (not self[0] and not self[2])

    def neg(self) -> "Frequency":
        rn, rd, pn, pd = self
        if not rn and not pn:
            return self
        return _freq((-rn, rd, -pn, pd))

    def add(self, other: "Frequency") -> "Frequency":
        on, od, qn, qd = other
        if not on and not qn:
            return self
        rn, rd, pn, pd = self
        if not rn and not pn:
            return other
        return _freq(_qadd(rn, rd, on, od) + _qadd(pn, pd, qn, qd))

    def scale(self, q: Fraction) -> "Frequency":
        return Frequency(self.rat * q, self.pi * q)

    def as_coeff(self) -> "PiScalar":
        rn, rd, pn, pd = self
        if not pn:
            return PiScalar._raw(((0, rn, rd),) if rn else ())
        return PiScalar._raw(((0, rn, rd), (1, pn, pd)) if rn else ((1, pn, pd),))

    def value(self) -> float:
        # float(Fraction(n, d)) is n / d, so this rounds as the Fractions did
        rn, rd, pn, pd = self
        return rn / rd + pn / pd * math.pi

    def to_json(self) -> dict:
        return {"rat": str(self.rat), "pi": str(self.pi)}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "Frequency":
        return Frequency(rat(obj["rat"]), rat(obj["pi"]))


def _freq(parts: tuple[int, int, int, int]) -> Frequency:
    # both pairs must already be in lowest terms, with positive denominators
    return tuple.__new__(Frequency, parts)


FREQ_ZERO = Frequency(_ZERO, _ZERO)


def _freq_is_negative(f: Frequency) -> bool:
    # canonical orientation only; does not claim the real value is negative
    rn, _, pn, _ = f
    return (pn, rn) < (0, 0)


class PiScalar:
    """Exact element of Q[pi, 1/pi]: a sum of ``num/den * pi**exp``.

    Stored as a tuple of ``(exp, num, den)`` int triples sorted by exponent,
    each ``num/den`` in lowest terms with ``den > 0`` and ``num != 0``, so
    equal values have equal triples and ``__eq__`` is tuple equality.  Sums
    and products run on these ints (``_qadd``, ``_qmul``), and so does
    ``div_exact`` by a single power of pi, which is a unit of the ring; only
    a divisor with several powers of pi is long-divided as Fractions, and no
    Fraction is stored.
    ``items()`` gives the ``(exp, Fraction)`` pairs, and the hash is
    ``hash(tuple(items()))``, so every dict and set layout is that of the
    Fraction pairs.  The triples are the coefficient's run: a
    ``TrigScalar`` stores runs and makes a ``PiScalar`` only where a
    coefficient leaves or enters its term map.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, RationalLike]] = ()):
        pairs = [(e, rat(c)) for e, c in terms]
        self._terms: tuple[tuple[int, int, int], ...] = _collect(
            (e, q.numerator, q.denominator) for e, q in pairs)

    @staticmethod
    def _raw(terms: tuple[tuple[int, int, int], ...]) -> "PiScalar":
        out = object.__new__(PiScalar)
        out._terms = terms
        return out

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, RationalLike]]) -> "PiScalar":
        return PiScalar(pairs)

    @staticmethod
    def of(x: "PiScalarLike") -> "PiScalar":
        if isinstance(x, PiScalar):
            return x
        q = rat(x)
        return PiScalar._raw(((0, q.numerator, q.denominator),) if q else ())

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((e, Fraction(n, d)) for e, n, d in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PiScalarLike") -> "PiScalar":
        return PiScalar._raw(_merge_runs(self._terms, PiScalar.of(other)._terms))

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar._raw(_neg(self._terms))

    def __sub__(self, other: "PiScalarLike") -> "PiScalar":
        return PiScalar._raw(_merge_runs(self._terms, PiScalar.of(other)._terms, True))

    def __rsub__(self, other: "PiScalarLike") -> "PiScalar":
        return PiScalar.of(other) - self

    def __mul__(self, other: "PiScalarLike") -> "PiScalar":
        return PiScalar._raw(_pmul(self._terms, PiScalar.of(other)._terms))

    __rmul__ = __mul__

    def div_exact(self, other: "PiScalarLike") -> "PiScalar | None":
        """Exact quotient in Q[pi, 1/pi], or None when the division is inexact."""
        d = PiScalar.of(other)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero coefficient")
        if self.is_zero():
            return self
        if len(d._terms) == 1:
            # a single power of pi is a unit: subtract its exponent and
            # multiply by the inverse rational, on the ints
            ((e, n, m),) = d._terms
            inv_n, inv_d = (m, n) if n > 0 else (-m, -n)
            return PiScalar._raw(tuple((ei - e, *_qmul(ni, di, inv_n, inv_d))
                                       for ei, ni, di in self._terms))
        # a sum of powers: shift both to ordinary polynomials and long-divide
        shift_n = self._terms[0][0]
        shift_d = d._terms[0][0]
        num = {e - shift_n: c for e, c in self.items()}
        den = {e - shift_d: c for e, c in d.items()}
        dd = max(den)
        lead = den[dd]
        quot: dict[int, Fraction] = {}
        while num:
            nd = max(num)
            if nd < dd:
                return None
            q = num[nd] / lead
            quot[nd - dd] = q
            for e, c in den.items():
                r = num.get(nd - dd + e, _ZERO) - q * c
                if r == 0:
                    num.pop(nd - dd + e, None)
                else:
                    num[nd - dd + e] = r
        return PiScalar((e + shift_n - shift_d, c) for e, c in quot.items())

    def evaluate(self) -> float:
        return _run_value(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PiScalar.of(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return _join([_format_coeff((t,)) for t in self._terms])

    def __repr__(self) -> str:
        return f"PiScalar({self})"

    def to_json(self) -> dict:
        return {str(e): _qstr(n, d) for e, n, d in self._terms}


def _qmul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b) * (c/d) in lowest terms, for reduced inputs with b, d > 0."""
    if b == d == 1:
        return a * c, 1
    g1 = math.gcd(a, d)
    g2 = math.gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


def _qstr(n: int, d: int) -> str:
    # str(Fraction(n, d)) for reduced n/d with d > 0
    return str(n) if d == 1 else f"{n}/{d}"


def _collect(triples: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Sum reduced ``(exp, num, den)`` triples into the stored form."""
    acc: dict[int, tuple[int, int]] = {}
    for e, n, d in triples:
        prev = acc.get(e)
        acc[e] = (n, d) if prev is None else _qadd(*prev, n, d)
    return tuple(sorted((e, n, d) for e, (n, d) in acc.items() if n))


# a coefficient's run, its sorted (exp, num, den) triples: a PiScalar holds
# one, and a TrigScalar's term map holds one per wave
Run = tuple[tuple[int, int, int], ...]


def _run_value(run: Run) -> float:
    # n / d is float(Fraction(n, d)), so this rounds as the Fractions did
    return sum(n / d * math.pi**e for e, n, d in run)


def _neg(a: Run) -> Run:
    return tuple((e, -n, d) for e, n, d in a)


def _pmul(a: Run, b: Run) -> Run:
    """The run of a product."""
    return _collect((e1 + e2, *_qmul(n1, d1, n2, d2))
                    for e1, n1, d1 in a for e2, n2, d2 in b)


def _merge_runs(a: Run, b: Run, negate: bool = False) -> Run:
    """The run of a + b, or of a - b when ``negate``: one pass over both."""
    out: list[tuple[int, int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ea, na, da = a[i]
        eb, nb, db = b[j]
        if ea < eb:
            out.append(a[i]); i += 1
        elif ea > eb:
            out.append((eb, -nb, db) if negate else b[j]); j += 1
        else:
            n, d = _qadd(na, da, -nb if negate else nb, db)
            if n:
                out.append((ea, n, d))
            i += 1; j += 1
    out.extend(a[i:])
    out.extend(_neg(b[j:]) if negate else b[j:])
    return tuple(out)


_ONE_RUN: Run = ((0, 1, 1),)
_MINUS_ONE_RUN: Run = ((0, -1, 1),)
_HALF_RUN: Run = ((0, 1, 2),)


PiScalarLike = Union[PiScalar, int, str, Fraction]

PI = PiScalar.from_pairs([(1, 1)])

# wave triple: (kind, ((coord, Frequency), ...) sorted by coord, phase Frequency)
Freqs = tuple[tuple[str, Frequency], ...]
Wave = tuple[str, Freqs, Frequency]

# float form of a scalar, see _float_terms
FloatTerms = tuple[tuple[bool, float, float, tuple[tuple[str, float], ...]], ...]


def _q(n: int, d: int) -> int | Fraction:
    # Fraction(n, 1) == n, so ints where they suffice sort the same
    return n if d == 1 else Fraction(n, d)


def _order_of(triple: Wave) -> tuple:
    """The sort key of a wave in the canonical term order: by the number of
    frequencies, then the frequencies by coordinate and value, then the
    phase, then the kind.  Distinct waves have distinct keys, so the order
    of a scalar's terms depends on its value alone.  The key is flat: waves
    with as many frequencies align field by field."""
    kind, fr, (rn, rd, pn, pd) = triple
    key: list = [len(fr)]
    for c, (n, d, m, e) in fr:
        key += (c, _q(n, d), _q(m, e))
    key += (_q(rn, rd), _q(pn, pd), kind)
    return tuple(key)


class WaveKey(int):
    """The interned key of a canonical wave: its triple, hashed once.

    The int value is ``hash(triple)``, and ``hash(key)`` is int's own hash
    of that value, a C slot, so dicts and sets never hash the nested tuple
    again.  Keys come only from ``_wave_key``, one per triple while the wave
    table holds it, so equal keys are almost always the same object and
    dicts match them by identity; ``==`` compares the triples otherwise.  A
    key equals its plain triple but does not hash like it, so a dict keyed
    by keys cannot be searched by triples (the wave table is keyed by
    triples).  ``<`` and ``<=`` order keys by their int value.  Indexing,
    unpacking and ``len`` are the triple's.  The instance dict holds
    ``triple``; ``partner``, the key of the wave with cos and sin swapped
    once ``differentiate`` or a product has needed it; ``order``, its
    sort key in the canonical term order once ``_ordered_terms`` has
    needed it; and ``text``, the wave's text form, such as
    ``cos(2*pi*x - y)``, once ``format_scalar`` has printed it.
    """

    def __new__(cls, triple: Wave) -> "WaveKey":
        key = int.__new__(cls, hash(triple))
        key.triple = triple
        key.partner = None
        key.order = None
        key.text = None
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return self.triple == (other.triple if isinstance(other, WaveKey) else other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = int.__hash__

    def __iter__(self):
        return iter(self.triple)

    def __getitem__(self, i):
        return self.triple[i]

    def __len__(self) -> int:
        return len(self.triple)

    def __repr__(self) -> str:
        return repr(self.triple)

    def __reduce__(self):
        return _wave_key, (self.triple,)


_CONST_WAVE = WaveKey(("c", (), FREQ_ZERO))

_ORDER = operator.attrgetter("order")


def _ordered_terms(s: "TrigScalar") -> list[tuple[WaveKey, Run]]:
    """The terms of ``s`` in the canonical term order, which its text form,
    its float form and grid certificates all follow.  A key's sort key is
    made on first use and kept on the key."""
    terms = s._terms
    for w in terms:
        if w.order is None:
            w.order = _order_of(w.triple)
    return [(w, terms[w]) for w in sorted(terms, key=_ORDER)]


# bound of the wave table below: a full laws run makes 1,665 distinct waves,
# three sampled rounds 1,008 and thirty catalog rounds 311 (seeds 0, 201, 1)
WAVE_TABLE_SIZE = 4096


def _clear_wave_table() -> None:
    """Start an empty wave table, which still maps the constant wave to
    ``_CONST_WAVE``.  Rebinding keeps that mapping in every table a thread
    can see."""
    global _waves
    _waves = {_CONST_WAVE.triple: _CONST_WAVE}


_waves: dict[Wave, WaveKey]
_clear_wave_table()


def _wave_key(triple: Wave) -> WaveKey:
    """The interned key of a canonical wave triple.

    A full table starts afresh.  A key made after that is a distinct object
    from an older key of the same wave; the two still compare and hash
    equal, so no result depends on the table.  For the same reason no lock
    is needed: a thread that races a fresh start may leave its key out of
    the new table, and then lookups of that wave compare triples instead of
    matching by identity.
    """
    table = _waves
    key = table.get(triple)
    if key is None:
        if len(table) >= WAVE_TABLE_SIZE:
            _clear_wave_table()
            table = _waves
        key = table.setdefault(triple, WaveKey(triple))
    return key


def _partner(w: WaveKey) -> WaveKey:
    """The key of ``w`` with cos and sin swapped, for any wave but the
    constant one.  Its frequencies, or with none its phase, fix the
    orientation for both kinds alike, and its phase absorbs no quarter turn,
    so the swapped triple is canonical as it stands."""
    p = w.partner
    if p is None:
        kind, fr, ph = w.triple
        p = _wave_key(("s" if kind == "c" else "c", fr, ph))
        w.partner, p.partner = p, w
    return p

# quarter-turn phase absorption: phase pi-part (num, den) in {0, 1/2, 1, 3/2}
# after mod 2
_QUARTER = {
    ("c", 0, 1): ("c", 1),
    ("c", 1, 2): ("s", -1),
    ("c", 1, 1): ("c", -1),
    ("c", 3, 2): ("s", 1),
    ("s", 0, 1): ("s", 1),
    ("s", 1, 2): ("c", 1),
    ("s", 1, 1): ("s", -1),
    ("s", 3, 2): ("c", -1),
}


def _reduce_phase(p: Frequency) -> Frequency:
    # pn/pd mod 2 is (pn mod 2*pd)/pd, still in lowest terms
    rn, rd, pn, pd = p
    return _freq((rn, rd, pn % (2 * pd), pd))


def _canonical(
    kind: str, freqs: Mapping[str, Frequency], phase: Frequency
) -> tuple[WaveKey, int] | None:
    """Canonical wave key plus the sign picked up by the normalisation.

    Returns None when the wave is identically zero (sin of the zero angle).
    """
    fr = tuple(sorted((c, f) for c, f in freqs.items() if not f.is_zero()))
    return _orient(kind, fr, phase)


def _orient(kind: str, fr: Freqs, phase: Frequency) -> tuple[WaveKey, int] | None:
    # _canonical for frequencies sorted by coordinate, zeros dropped
    if not phase[0] and not phase[2]:
        # the zero phase is reduced already and its quarter turn is the identity
        if fr and _freq_is_negative(fr[0][1]):
            return _wave_key((kind, _neg_freqs(fr), FREQ_ZERO)), -1 if kind == "s" else 1
        return None if kind == "s" and not fr else (_wave_key((kind, fr, FREQ_ZERO)), 1)
    sign = 1
    if fr:
        flip = _freq_is_negative(fr[0][1])
    else:
        # orient the phase so that (rat, pi mod 2) is the smaller of the
        # phase's and its negative's: the rat parts are r and -r, and on a
        # tie at 0 the pi parts share the denominator pd
        rn, _, pn, pd = phase
        flip = rn > 0 if rn else -pn % (2 * pd) < pn % (2 * pd)
    if flip:
        fr = _neg_freqs(fr)
        phase = phase.neg()
        if kind == "s":
            sign = -sign
    phase = _reduce_phase(phase)
    rn, _, pn, pd = phase
    if not rn and pd <= 2:
        kind, s2 = _QUARTER[(kind, pn, pd)]
        sign *= s2
        phase = FREQ_ZERO
    if kind == "s" and not fr and phase.is_zero():
        return None
    return _wave_key((kind, fr, phase)), sign


def _neg_freqs(fr: Freqs) -> Freqs:
    # fr holds no zero frequency
    return tuple((c, _freq((-rn, rd, -pn, pd))) for c, (rn, rd, pn, pd) in fr)


def _sum_and_difference(f1: Freqs, f2: Freqs) -> tuple[Freqs, Freqs]:
    """The frequencies of the angles w1 + w2 and w1 - w2, from those of two
    canonical waves: one merge pass by coordinate, zeros dropped, and a
    shared coordinate's parts added on the ints when every denominator is 1."""
    plus: list[tuple[str, Frequency]] = []
    minus: list[tuple[str, Frequency]] = []
    i = j = 0
    while i < len(f1) and j < len(f2):
        (c1, a), (c2, b) = f1[i], f2[j]
        if c1 < c2:
            plus.append(f1[i]); minus.append(f1[i]); i += 1
        elif c1 > c2:
            plus.append(f2[j]); minus.append((c2, _freq((-b[0], b[1], -b[2], b[3])))); j += 1
        else:
            rn, rd, pn, pd = a
            sn, sd, qn, qd = b
            if rd * pd * sd * qd == 1:
                s, d = _freq((rn + sn, 1, pn + qn, 1)), _freq((rn - sn, 1, pn - qn, 1))
            else:
                s, d = a.add(b), a.add(b.neg())
            if s[0] or s[2]:
                plus.append((c1, s))
            if d[0] or d[2]:
                minus.append((c1, d))
            i += 1; j += 1
    plus.extend(f1[i:]); minus.extend(f1[i:])
    plus.extend(f2[j:]); minus.extend(_neg_freqs(f2[j:]))
    return tuple(plus), tuple(minus)


# bound of the angle-pair memo below, sized to hold the working sets of the
# bench's workloads: a 44-round laws run meets 1,542 distinct unordered angle
# pairs (seeds 0, 7 and 123, and the 1000-case suite alike), three sampled
# rounds 1,016 and the catalog 32.  Misses on a laws run (seed 0) by bound:
# 22,088 at 256, 16,412 at 512, 8,488 at 1,024, 1,572 at 1,536 and 1,542
# (one per pair) at 2,048
PRODUCT_MEMO_SIZE = 2048

# The product-to-sum identities over the waves of a memo entry, which are
# (cos(a - b), sin(a - b), cos(a + b), sin(a + b)): row 2*i + j lists the
# waves of trig_i(a) * trig_j(b) (kind bit 0 for cos, 1 for sin) as
# (wave index, sign), and the product is half the signed sum of its waves.
_PRODUCT_ROWS = (((0, 1), (2, 1)),     # cos a cos b
                 ((3, 1), (1, -1)),    # cos a sin b
                 ((3, 1), (1, 1)),     # sin a cos b
                 ((0, 1), (2, -1)))    # sin a sin b
# a constant times a wave: the entry is that wave alone
_SCALE_ROW = ((0, 1),)


def _angle(w: WaveKey) -> tuple[WaveKey | None, int, int]:
    """The angle of a canonical wave, named by its cos key, with that key's
    hash and the wave's kind bit (0 for cos, 1 for sin); ``(None, 0, 0)``
    for the constant wave, which has no angle to expand."""
    if w is _CONST_WAVE:
        return None, 0, 0
    if w.triple[0] == "c":
        return w, int(w), 0
    p = _partner(w)
    return p, int(p), 1


@functools.lru_cache(maxsize=PRODUCT_MEMO_SIZE)
def _angle_products(a: WaveKey, b: WaveKey) -> tuple:
    """The oriented waves of two angles' difference and sum.

    ``a`` and ``b`` are the cos keys of the angles.  The entry is
    ``(cos(a - b), sin(a - b), cos(a + b), sin(a + b))``, each as ``_orient``
    gives it: the canonical key with the sign the orientation picked up, or
    None for a wave that vanishes (sin of the zero angle, or cos of an angle
    without frequencies whose phase is an odd multiple of pi/2).
    ``_PRODUCT_ROWS`` reads the four kind products off it.
    """
    (_, f1, p1), (_, f2, p2) = a.triple, b.triple
    sf, df = _sum_and_difference(f1, f2)
    sp, dp = p1.add(p2), p1.add(p2.neg())
    return (_orient("c", df, dp), _orient("s", df, dp),
            _orient("c", sf, sp), _orient("s", sf, sp))


class TrigScalar:
    """Canonical trigonometric polynomial over named coordinates.

    The term map holds each wave's coefficient as its run, the sorted
    ``(exp, num, den)`` triples of a ``PiScalar``, and arithmetic works on
    the runs alone; ``PiScalar`` objects are made only where coefficients
    leave or enter the map (``terms()``, ``constant_value()``, the
    constructor, ``div_exact``, formatting).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[WaveKey, PiScalar] | None = None):
        """A scalar from canonical terms: interned keys with nonzero
        ``PiScalar`` coefficients, as ``terms()`` gives them.  Operations
        build their results from runs through ``_raw`` instead."""
        self._terms: dict[WaveKey, Run] = (
            {w: c._terms for w, c in terms.items()} if terms else {})

    @staticmethod
    def _raw(terms: dict[WaveKey, Run]) -> "TrigScalar":
        # takes ownership of a canonical term map of nonzero runs
        out = object.__new__(TrigScalar)
        out._terms = terms
        return out

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(c: PiScalarLike) -> "TrigScalar":
        """The constant c; the exact value 1 gives the shared ``ONE``."""
        c = PiScalar.of(c)
        if c._terms == _ONE_RUN:
            return ONE
        return TrigScalar._raw({} if c.is_zero() else {_CONST_WAVE: c._terms})

    @staticmethod
    def _wave(kind: str, freqs: Mapping[str, Frequency], phase: Frequency,
              coeff: PiScalarLike = 1) -> "TrigScalar":
        run = PiScalar.of(coeff)._terms
        canon = _canonical(kind, freqs, phase) if run else None
        if canon is None:
            return TrigScalar()
        key, sign = canon
        return TrigScalar._raw({key: run if sign > 0 else _neg(run)})

    @staticmethod
    def cosine(freqs: Mapping[str, Frequency], phase: Frequency = FREQ_ZERO,
               coeff: PiScalarLike = 1) -> "TrigScalar":
        return TrigScalar._wave("c", freqs, phase, coeff)

    @staticmethod
    def sine(freqs: Mapping[str, Frequency], phase: Frequency = FREQ_ZERO,
             coeff: PiScalarLike = 1) -> "TrigScalar":
        return TrigScalar._wave("s", freqs, phase, coeff)

    # -- queries ------------------------------------------------------------

    def terms(self) -> Mapping[WaveKey, PiScalar]:
        return {w: PiScalar._raw(r) for w, r in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> PiScalar | None:
        """The value as a PiScalar constant, or None if any wave is present."""
        if not self._terms:
            return PiScalar()
        if len(self._terms) == 1 and _CONST_WAVE in self._terms:
            return PiScalar._raw(self._terms[_CONST_WAVE])
        return None

    def coordinates(self) -> set[str]:
        return {c for w in self._terms for c, _ in w.triple[1]}

    def has_pi_phase(self) -> bool:
        """Whether some phase keeps a pi part after quarter-turn absorption:
        only then can a nonzero normal form be the zero function."""
        return any(w.triple[2][2] for w in self._terms)

    def frequencies_of(self, coord: str) -> set[Frequency]:
        out = set()
        for w in self._terms:
            for c, f in w.triple[1]:
                if c == coord:
                    out.add(f)
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TrigLike") -> "TrigScalar":
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "TrigScalar":
        return TrigScalar._raw({w: _neg(r) for w, r in self._terms.items()})

    def __sub__(self, other: "TrigLike") -> "TrigScalar":
        return self._plus(other, True)

    def __rsub__(self, other: "TrigLike") -> "TrigScalar":
        return normalize(other) - self

    def _plus(self, other: "TrigLike", negate: bool) -> "TrigScalar":
        # other's runs merged into a copy of the terms, negated for a
        # difference; a zero operand gives the other (values are immutable)
        other = normalize(other)
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return -other if negate else other
        terms = dict(a)
        for key, r in b.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = _neg(r) if negate else r
                continue
            if len(prev) == 1 and len(r) == 1 and prev[0][0] == r[0][0]:
                # two single powers of pi: one rational sum
                (e, na, da), (_, nb, db) = prev[0], r[0]
                n, d = _qadd(na, da, -nb if negate else nb, db)
                run = ((e, n, d),) if n else ()
            else:
                run = _merge_runs(prev, r, negate)
            if run:
                terms[key] = run
            else:
                del terms[key]
        return TrigScalar._raw(terms)

    def __mul__(self, other: "TrigLike") -> "TrigScalar":
        other = normalize(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) == 1 and _CONST_WAVE in a:
            return other._scaled(a[_CONST_WAVE])
        if len(b) == 1 and _CONST_WAVE in b:
            return self._scaled(b[_CONST_WAVE])
        # pair products merged as runs, key by key in pair order, as a sum
        # would; single powers of pi on both sides take one rational product
        # and one rational sum, any other run goes through _pmul/_merge_runs
        acc: dict[WaveKey, Run] = {}
        right = [(w, r, _angle(w)) for w, r in b.items()]
        for w1, r1 in a.items():
            x1, h1, k1 = _angle(w1)
            # a wave pair's coefficient is half the product: halve r1 once
            if x1 is None:
                half = None
            elif len(r1) == 1:
                half = ((r1[0][0], *_qmul(r1[0][1], r1[0][2], 1, 2)),)
            else:
                half = _pmul(r1, _HALF_RUN)
            for w2, r2, (x2, h2, k2) in right:
                if x1 is not None and x2 is not None:
                    # swapping the angles only negates their difference, which
                    # canonical orientation undoes: one memo entry per
                    # unordered angle pair, the smaller hash first
                    if h1 <= h2:
                        waves, row = _angle_products(x1, x2), _PRODUCT_ROWS[2 * k1 + k2]
                    else:
                        waves, row = _angle_products(x2, x1), _PRODUCT_ROWS[2 * k2 + k1]
                    c = half
                else:  # a constant times a wave keeps the wave's key
                    waves, row, c = ((w2 if x1 is None else w1, 1),), _SCALE_ROW, r1
                if len(c) == 1 and len(r2) == 1:
                    (e1, n1, d1), (e2, n2, d2) = c[0], r2[0]
                    e = e1 + e2
                    n, d = _qmul(n1, d1, n2, d2)
                    for i, s in row:
                        wave = waves[i]
                        if wave is None:
                            continue
                        key, sign = wave
                        m = n if sign == s else -n
                        prev = acc.get(key)
                        if prev is None:
                            acc[key] = ((e, m, d),)
                            continue
                        if len(prev) == 1 and prev[0][0] == e:
                            tn, td = _qadd(prev[0][1], prev[0][2], m, d)
                            total = ((e, tn, td),) if tn else ()
                        else:
                            total = _merge_runs(prev, ((e, m, d),))
                        if total:
                            acc[key] = total
                        else:
                            del acc[key]
                    continue
                run = _pmul(c, r2)
                for i, s in row:
                    wave = waves[i]
                    if wave is None:
                        continue
                    key, sign = wave
                    prev = acc.get(key)
                    if prev is None:
                        acc[key] = run if sign == s else _neg(run)
                        continue
                    total = _merge_runs(prev, run, sign != s)
                    if total:
                        acc[key] = total
                    else:
                        del acc[key]
        return TrigScalar._raw(acc)

    __rmul__ = __mul__

    def _scaled(self, r: Run) -> "TrigScalar":
        # r is nonzero, so no product vanishes and the keys stay as they are
        if r == _ONE_RUN:
            return self
        if len(r) == 1:
            # a single power of pi: one rational product per single-power term
            ((e, n, d),) = r
            return TrigScalar._raw({
                w: ((e + x[0][0], *_qmul(n, d, x[0][1], x[0][2])),) if len(x) == 1
                else _pmul(r, x)
                for w, x in self._terms.items()})
        return TrigScalar._raw({w: _pmul(r, x) for w, x in self._terms.items()})

    def div_exact(self, divisor: PiScalarLike) -> "TrigScalar | None":
        """Exact quotient by a nonzero constant, or None when it is inexact."""
        d = PiScalar.of(divisor)
        out: dict[WaveKey, Run] = {}
        for w, r in self._terms.items():
            q = PiScalar._raw(r).div_exact(d)
            if q is None:
                return None
            out[w] = q._terms
        return TrigScalar._raw(out)

    # -- calculus -----------------------------------------------------------

    def differentiate(self, coord: str) -> "TrigScalar":
        # a term that has coord has frequencies, so its key with cos and sin
        # swapped is its _partner: distinct terms keep distinct keys, and
        # every coefficient stays nonzero
        terms: dict[WaveKey, Run] = {}
        for w, r in self._terms.items():
            kind, fr, _ = w.triple
            for cd, omega in fr:
                if cd == coord:
                    rn, rd, pn, pd = omega
                    if len(r) == 1 and not (rn and pn):
                        # a single power of pi times a rational or rational-pi
                        # frequency: one rational product
                        ((e, n, d),) = r
                        if pn:
                            n, d = _qmul(n, d, pn, pd)
                            e += 1
                        else:
                            n, d = _qmul(n, d, rn, rd)
                        terms[_partner(w)] = ((e, -n if kind == "c" else n, d),)
                    else:
                        dr = _pmul(r, omega.as_coeff()._terms)
                        terms[_partner(w)] = _neg(dr) if kind == "c" else dr
                    break
        return TrigScalar._raw(terms)

    def shift(self, coord: str, delta: RationalLike) -> "TrigScalar":
        """Exact substitution coord -> coord + delta for rational delta."""
        d = rat(delta)
        out = TrigScalar()
        for w, r in self._terms.items():
            kind, fr, ph = w.triple
            omega = dict(fr).get(coord)
            nph = ph if omega is None else ph.add(omega.scale(d))
            out = out._plus(TrigScalar._wave(kind, dict(fr), nph, PiScalar._raw(r)), False)
        return out

    # -- floating-point evaluation --------------------------------------------

    def evaluate(self, point: Mapping[str, float]) -> float:
        """The value at ``point``: ``sample_grid`` over the one-point grid."""
        return self.sample_grid(tuple(point), [(x,) for x in point.values()])[0]

    def sample_grid(self, coords: Sequence[str],
                    axes: Sequence[Sequence[float]]) -> list[float]:
        """Values at every point of ``itertools.product(*axes)``, in that order.

        ``axes[i]`` lists the values of ``coords[i]``.  A term's angles are
        built axis by axis in its own coordinate order, each prefix shared by
        the points that extend it, and its contributions are summed in the
        canonical term order, so a value depends only on the exact scalar and
        its point, not on the route that built the scalar or on the rest of
        the grid.  A term's wave is computed once per point of its own axes
        and broadcast over the axes it does not depend on.
        """
        where = {c: i for i, c in enumerate(coords)}
        sizes = [len(a) for a in axes]
        total = [0.0] * math.prod(sizes)
        gathers: dict[tuple[int, ...], list[int] | None] = {}
        for is_cos, coeff, phase, freqs in _float_terms(self):
            angles = [phase]
            own: list[int] = []
            for coord, omega in freqs:
                if coord not in where:
                    raise ValueError(f"coordinate '{coord}' not assigned")
                steps = [omega * x for x in axes[where[coord]]]
                angles = [a + step for a in angles for step in steps]
                own.append(where[coord])
            wave = math.cos if is_cos else math.sin
            values = [coeff * w for w in map(wave, angles)]
            key = tuple(own)
            if key not in gathers:
                gathers[key] = _gather_index(key, sizes)
            gather = gathers[key]
            if gather is not None:
                values = list(map(values.__getitem__, gather))
            total = list(map(operator.add, total, values))
        return total

    # -- comparisons / formatting -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, PiScalar)):
            other = TrigScalar.constant(other)
        if not isinstance(other, TrigScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"TrigScalar({format_scalar(self)})"


# the one constant 1, which ``TrigScalar.constant`` returns for the exact
# value 1, so an ``is ONE`` test sees every 1 that enters through it
ONE = TrigScalar._raw({_CONST_WAVE: _ONE_RUN})

TrigLike = Union[TrigScalar, PiScalar, int, str, Fraction]


def _float_terms(s: TrigScalar) -> FloatTerms:
    """The float form of ``s``: one ``(is_cos, coeff, phase, ((coord, omega),
    ...))`` per term, in the canonical term order (``_order_of``), so equal
    scalars have equal float forms however their terms were inserted.

    ``coeff``, ``phase`` and ``omega`` are exactly ``PiScalar.evaluate()`` and
    ``Frequency.value()`` of the exact term; ``sample_grid``, and the residue
    tables of ``framecalc.GridPoints.abs_extreme``, build it once per call.
    """
    out = []
    for w, r in _ordered_terms(s):
        kind, fr, ph = w.triple
        out.append((kind == "c", _run_value(r), ph.value(),
                    tuple((coord, f.value()) for coord, f in fr)))
    return tuple(out)


def _gather_index(own: tuple[int, ...], sizes: Sequence[int]) -> list[int] | None:
    """For each grid point, the index of its projection onto the ``own`` axes.

    The projection grid lists ``own`` in the given order; None when it is
    the whole grid in grid order, so no gather is needed: when ``own`` holds
    every axis with more than one point, in grid order.
    """
    if [a for a in own if sizes[a] > 1] == [a for a, n in enumerate(sizes) if n > 1]:
        return None
    stride = {}
    step = 1
    for axis in reversed(own):
        stride[axis] = step
        step *= sizes[axis]
    index = [0]
    for axis, n in enumerate(sizes):
        st = stride.get(axis, 0)
        index = [i + st * k for i in index for k in range(n)]
    return index


def normalize(x: TrigLike) -> TrigScalar:
    """Canonical normal form of a scalar expression.

    Accepts a TrigScalar (already canonical: this is the identity), an exact
    constant, or an expression string such as ``"sin(t)*cos(t) + 1/2"``.
    """
    if isinstance(x, TrigScalar):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, Fraction, PiScalar)):
        return TrigScalar.constant(x)
    raise TypeError(f"cannot normalise {x!r}")


def differentiate(s: TrigLike, coord: str) -> TrigScalar:
    return normalize(s).differentiate(coord)


def evaluate(s: TrigLike, point: Mapping[str, float]) -> float:
    return normalize(s).evaluate(point)


def is_identically_zero(s: TrigLike) -> bool:
    return normalize(s).is_zero()


ZERO = TrigScalar.constant(0)


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in scalar expression: {text[pos:]!r}")
            break
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect or 'token'} at position {self.pos}")
        self.pos += 1
        return tok

    def parse(self) -> TrigScalar:
        out = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input in scalar expression: {self.toks[self.pos:]}")
        return out

    # scalar grammar: expr := term (('+'|'-') term)*
    def expr(self) -> TrigScalar:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    # term := ['-'] factor ('*' factor)*
    def term(self) -> TrigScalar:
        neg = False
        while self.peek() == "-":
            self.take()
            neg = not neg
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return -out if neg else out

    def factor(self) -> TrigScalar:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        if tok.isdigit():
            return TrigScalar.constant(self.rational())
        if tok == "pi":
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self.signed_int()
            return TrigScalar.constant(PiScalar.from_pairs([(e, 1)]))
        if tok in ("sin", "cos"):
            kind = "s" if tok == "sin" else "c"
            self.take()
            self.take("(")
            freqs, phase = self.affine()
            self.take(")")
            return TrigScalar._wave(kind, freqs, phase)
        raise ValueError(
            f"unsupported factor {tok!r}: coordinates may appear only inside sin/cos"
        )

    def integer(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected an integer at position {self.pos}")
        self.pos += 1
        return int(tok)

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.take()
            return Fraction(num, self.integer())
        return Fraction(num)

    def signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return sign * self.integer()

    # affine angle: sum of products of {rational, pi, coordinate}; signs
    # come before a product's first factor, and every product has one
    def affine(self) -> tuple[dict[str, Frequency], Frequency]:
        freqs: dict[str, Frequency] = {}
        const = FREQ_ZERO
        sign = 1
        while True:
            q, pideg, coord = _ONE, 0, None
            factors, star = 0, False
            while True:
                tok = self.peek()
                if tok == "-" and not factors:
                    self.take()
                    sign = -sign
                    continue
                if tok is not None and tok.isdigit():
                    q *= self.rational()
                elif tok == "pi":
                    self.take()
                    pideg += 1
                elif tok == "(":
                    self.take()
                    q *= self.rational_expr()
                    self.take(")")
                elif tok is not None and tok.isidentifier() and tok not in ("sin", "cos"):
                    if coord is not None:
                        raise ValueError("sin/cos argument must be affine in one "
                                         "coordinate per product")
                    coord = self.take()
                elif star:
                    raise ValueError(f"expected a factor after '*' at position {self.pos}")
                else:
                    break
                factors += 1
                while self.peek() == "/":
                    self.take()
                    q /= Fraction(self.integer())
                star = self.peek() == "*"
                if star:
                    self.take()
            if not factors:
                raise ValueError(f"empty product in sin/cos argument at position {self.pos}")
            if pideg > 1:
                raise ValueError("sin/cos argument may carry at most one factor of pi")
            f = Frequency(q * sign, _ZERO) if pideg == 0 else Frequency(_ZERO, q * sign)
            if coord is None:
                const = const.add(f)
            else:
                freqs[coord] = freqs.get(coord, FREQ_ZERO).add(f)
            tok = self.peek()
            if tok == "+":
                self.take()
                sign = 1
            elif tok == "-":
                self.take()
                sign = -1
            else:
                return freqs, const

    # parenthesised rational inside an angle, e.g. (8/3)*pi*x2
    def rational_expr(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return sign * self.rational()


# an optionally negative decimal integer, as manifests give most constants
_INTEGER = re.compile(r"-?[0-9]+")


def parse(text: str) -> TrigScalar:
    """Parse a sum-of-products expression into canonical normal form.

    Text that is exactly an integer literal, such as ``"0"`` or ``"-1"``, is
    read without the tokenizer."""
    if _INTEGER.fullmatch(text):
        return TrigScalar.constant(int(text))
    return _Parser(text).parse()


# -- formatting ---------------------------------------------------------------


def _format_coeff(r: Run) -> tuple[str, str]:
    """(connector, text) pair for a coefficient's run in a term position."""
    if len(r) == 1:
        ((e, n, d),) = r
        sign = "-" if n < 0 else "+"
        q = _qstr(abs(n), d)
        if e == 0:
            body = q
        else:
            p = "pi" if e == 1 else f"pi^{e}"
            body = p if q == "1" else f"{q}*{p}"
        return sign, body
    return "+", f"({PiScalar._raw(r)})"


def _format_angle(fr: Freqs, ph: Frequency) -> str:
    parts: list[tuple[str, str]] = []

    def add_part(n: int, d: int, pideg: int, coord: str | None) -> None:
        # the part (n/d) * pi**pideg * coord, for reduced n/d with d > 0
        if not n:
            return
        q = _qstr(abs(n), d)
        bits = []
        if q != "1" or (pideg == 0 and coord is None):
            bits.append(q if d == 1 else f"({q})")
        if pideg:
            bits.append("pi")
        if coord:
            bits.append(coord)
        parts.append(("-" if n < 0 else "+", "*".join(bits)))

    for coord, (rn, rd, pn, pd) in (*fr, (None, ph)):
        add_part(rn, rd, 0, coord)
        add_part(pn, pd, 1, coord)
    return _join(parts)


def _join(parts: list[tuple[str, str]]) -> str:
    # "a - b + c" from the (connector, text) parts; a leading "-" stays
    text = "".join(f" {sign} {body}" for sign, body in parts)
    return "-" + text[3:] if text[1:2] == "-" else text[3:]


def format_scalar(s: TrigScalar) -> str:
    """Canonical, re-parseable text form."""
    if s.is_zero():
        return "0"
    parts = []
    for w, r in _ordered_terms(s):
        if w is _CONST_WAVE:
            sign, body = _format_coeff(r)
        else:
            wave = w.text
            if wave is None:
                kind, fr, ph = w.triple
                wave = w.text = (f"{'cos' if kind == 'c' else 'sin'}"
                                 f"({_format_angle(fr, ph)})")
            if r == _ONE_RUN:
                sign, body = "+", wave
            elif r == _MINUS_ONE_RUN:
                sign, body = "-", wave
            else:
                sign, body = _format_coeff(r)
                body = f"{body}*{wave}"
        parts.append((sign, body))
    return _join(parts)
