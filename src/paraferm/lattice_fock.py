"""Weight-truncated exact realization of lattice vertex algebras.

The ambient space is the Fock space of a rank-r lattice with an orthogonal
basis b_1..b_r of prescribed square norms; states are lattice exponentials
e^beta dressed with creation modes b_p(-n).  Two instances are used:

* the rank-k lattice with <b_p,b_q> = 2 delta_pq, whose points are stored
  in half-unit coordinates (even coordinates = the lattice itself, odd ones
  reach the dual), carrying the level-k affine sl2 realization
  H = gamma(-1)1, E = sum_p e^(b_p), F = sum_p e^(-b_p) with
  gamma = b_1 + ... + b_k of norm 2k;
* the rank-one lattice spanned by gamma itself with points stored in units
  of gamma/2k, used for intertwining-operator computations with fractional
  z-powers.

All coefficients are exact rationals, kept as integer numerators over one
positive denominator: a vector holds ``num`` (state -> int) and ``den`` with
the gcd of the numerators prime to ``den``, and every memoised coefficient
table is one dict of integer numerators with its denominator.  The hot loops
add and multiply plain ints; `StateVector.terms`, ``coefficient`` and
``canonical_text`` present the same values as ``Fraction``s, and the public
constructor takes ints or ``Fraction``s.  One fraction-free elimination,
`_insert`, reduces primitive integer rows against pivots on their least
key; the layer bases of `generated_subspace`, `rank` and `nullspace` use it.

A global weight truncation bounds every stored state; creation results
beyond it are dropped and recorded in a sticky ``truncated`` flag (overflow
is a flag, never an exception), so a check consuming flagged vectors can
only report success up to truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import comb, floor, gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import NonIntegralPairing
from .report import Report, make_report

DEFAULT_TRUNCATION = 8


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x):
    """x as an int when it is integral, else as a Fraction: mode indices are
    mostly integers, and int arithmetic on them is much cheaper."""
    x = _rat(x)
    return x.numerator if x.denominator == 1 else x


def _canonical(num: dict, den: int) -> tuple[dict, int]:
    """num/den with zero numerators dropped and the common factor of the
    numerators and den cancelled (den > 0 in and out)."""
    if 0 in num.values():
        num = {s: c for s, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {s: c // g for s, c in num.items()}
            den //= g
    return num, den


def _integral(d: dict) -> tuple[dict, int]:
    """The int or Fraction values of d as nonzero int numerators over their
    least common denominator; for reduced values the gcd of the numerators
    is prime to it."""
    den = lcm(*(x.denominator for x in d.values()))
    return {s: x.numerator * (den // x.denominator) for s, x in d.items() if x}, den


def _add_into(acc: dict, den: int, c: int, num: dict, d: int) -> int:
    """acc/den += c * num/d in place, for int dicts acc and num and an int c;
    returns the new denominator lcm(den, d), to which acc is rescaled."""
    L = lcm(den, d)
    if L != den:
        f = L // den
        for s in acc:
            acc[s] *= f
    f = c * (L // d)
    for s, x in num.items():
        acc[s] = acc.get(s, 0) + f * x
    return L


def _lincomb(pieces) -> tuple[dict, int]:
    """sum c * num / d over the (c, num, d) pieces, in canonical form."""
    acc: dict = {}
    den = 1
    for c, num, d in pieces:
        den = _add_into(acc, den, c, num, d)
    return _canonical(acc, den)


# ---------------------------------------------------------------------------
# lattice contexts and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Orthogonal lattice basis b_1..b_r with <b_p,b_p> = gram[p].

    Point coordinates are integers counting units of b_p/den, so the lattice
    itself consists of the points with all coordinates divisible by den.
    """

    gram: tuple[int, ...]
    den: int
    # memo tables of the mode computations on this lattice, see _per_lattice
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __reduce__(self):
        # pickle the lattice without its tables
        return (Lattice, (self.gram, self.den))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        num = sum(x * y * g for x, y, g in zip(a, b, self.gram))
        return Fraction(num, self.den * self.den)

    def norm(self, a: tuple[int, ...]) -> Fraction:
        return self.pairing(a, a)

    def point_weight(self, a: tuple[int, ...]) -> Fraction:
        return self.norm(a) / 2

    def zero_point(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def gamma(self) -> tuple[int, ...]:
        """The distinguished norm-sum vector b_1 + ... + b_r."""
        return (self.den,) * self.rank

    def add(self, a, b) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def negate(self, a) -> tuple[int, ...]:
        return tuple(-x for x in a)


def rank_lattice(k: int) -> Lattice:
    """Rank-k lattice with all basis norms 2, half-unit coordinates."""
    return Lattice(gram=(2,) * k, den=2)


def gamma_lattice(k: int) -> Lattice:
    """Rank-one lattice spanned by a norm-2k vector, coordinates in 1/2k units."""
    return Lattice(gram=(2 * k,), den=2 * k)


class FockState(NamedTuple):
    """Lattice exponential dressed with creation modes.

    ``modes`` is a sorted tuple of (direction p, mode n >= 1) pairs, repeated
    with multiplicity; it represents prod b_p(-n) applied to e^point.
    """

    point: tuple[int, ...]
    modes: tuple[tuple[int, int], ...]


def _per_lattice(fn):
    """Memoise fn(lat, *args) in a table of lat.memo keyed by args, so the
    table lives and dies with the lattice instance."""

    @wraps(fn)
    def memoised(lat, *args):
        table = lat.memo.get(fn)
        if table is None:
            table = lat.memo[fn] = {}
        hit = table.get(args)
        if hit is None:
            hit = table[args] = fn(lat, *args)
        return hit

    return memoised


@_per_lattice
def _point_weight(lat: Lattice, point) -> Fraction:
    return lat.point_weight(point)


@_per_lattice
def _pairing(lat: Lattice, beta, point) -> int:
    """Numerator of <beta, point> over the table's denominator den^2."""
    return sum(x * y * g for x, y, g in zip(beta, point, lat.gram))


_mode_n = itemgetter(1)


def _mode_weight(s: FockState) -> int:
    return sum(map(_mode_n, s.modes))


def state_weight(lat: Lattice, s: FockState) -> Fraction:
    return _point_weight(lat, s.point) + _mode_weight(s)


def _floor_minus_weight(lat: Lattice, c: Fraction, point) -> int:
    """floor(c - weight(point)), in integers: twice a point weight is its
    self-pairing numerator over den^2."""
    q = 2 * lat.den * lat.den
    return (c.numerator * q - _pairing(lat, point, point) * c.denominator) // (c.denominator * q)


class StateVector:
    """Sparse exact-rational linear combination of Fock states.

    The coefficients are ``num[state] / den``: nonzero int numerators over
    one positive int denominator with gcd(numerators, den) = 1, so equal
    vectors have equal ``num`` and ``den``.  ``terms`` is the same map with
    ``Fraction`` coefficients.  Immutable by convention; all operations
    return fresh vectors.  The ``truncated`` flag is sticky: it is set
    whenever a creation result was dropped for exceeding the truncation, in
    this vector or any ancestor.
    """

    __slots__ = ("lattice", "truncation", "num", "den", "truncated", "_terms")

    def __init__(self, lattice: Lattice, truncation, terms=None, truncated=False):
        acc: dict[FockState, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for s, c in items:
                acc[s] = acc.get(s, 0) + _rat(c)
        self.lattice = lattice
        self.truncation = _rat(truncation)
        self.num, self.den = _integral(acc)
        self.truncated = bool(truncated)
        self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls, lattice: Lattice, truncation=DEFAULT_TRUNCATION) -> "StateVector":
        return cls.exponential(lattice, lattice.zero_point(), truncation)

    @classmethod
    def exponential(cls, lattice, point, truncation=DEFAULT_TRUNCATION) -> "StateVector":
        return cls(lattice, truncation, {FockState(tuple(point), ()): 1})

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> dict[FockState, Fraction]:
        """The coefficients as Fractions, built on first use."""
        if self._terms is None:
            den = self.den
            self._terms = {s: Fraction(c, den) for s, c in self.num.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.num

    def weights(self) -> set[Fraction]:
        return {state_weight(self.lattice, s) for s in self.num}

    def max_weight(self) -> Fraction:
        lat = self.lattice
        # twice the weight of a state, over q = 2 den^2
        q = 2 * lat.den * lat.den
        top = max(
            (_pairing(lat, s.point, s.point) + q * _mode_weight(s) for s in self.num), default=0
        )
        return Fraction(top, q)

    def charge(self) -> Fraction:
        """gamma(0)-eigenvalue; raises if the vector mixes charges."""
        lat = self.lattice
        gamma = lat.gamma()
        vals = {_pairing(lat, gamma, point) for point in {s.point for s in self.num}}
        if len(vals) != 1:
            raise ValueError("vector does not have a single charge")
        return Fraction(vals.pop(), lat.den * lat.den)

    def coefficient(self, state: FockState) -> Fraction:
        return Fraction(self.num.get(state, 0), self.den)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.lattice == other.lattice and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.lattice, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        n = len(self.num)
        return f"StateVector({n} terms, T={self.truncation}, truncated={self.truncated})"

    def canonical_text(self) -> str:
        """Deterministic plain-text dump: one `point | modes | coefficient`
        line per state in canonical order."""
        terms = self.terms
        lines = []
        for s in sorted(terms):
            lines.append(f"{list(s.point)} | {list(s.modes)} | {terms[s]}")
        return "\n".join(lines)

    # -- linear structure ------------------------------------------------------

    def _with(self, num: dict, den: int, truncated=None, truncation=None) -> "StateVector":
        """Internal constructor: the vector num/den on the same lattice (by
        default with the same truncation and flag), put in canonical form.
        num maps states to ints (zeros allowed), den is a positive int and a
        truncation passed in is a Fraction."""
        v = StateVector.__new__(StateVector)
        v.lattice = self.lattice
        v.truncation = self.truncation if truncation is None else truncation
        v.num, v.den = _canonical(num, den)
        v.truncated = self.truncated if truncated is None else truncated
        v._terms = None
        return v

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.lattice != other.lattice:
            raise ValueError("cannot add vectors over different lattices")
        acc = dict(self.num)
        den = _add_into(acc, self.den, 1, other.num, other.den)
        truncation = min(self.truncation, other.truncation)
        return self._with(acc, den, self.truncated or other.truncated, truncation)

    def __neg__(self) -> "StateVector":
        return self._with({s: -c for s, c in self.num.items()}, self.den)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-other)

    def scale(self, c) -> "StateVector":
        c = _rat(c)
        p = c.numerator
        num = {s: p * x for s, x in self.num.items()} if p else {}
        return self._with(num, self.den * c.denominator)

    def is_multiple_of_vacuum(self):
        """The scalar c with self = c * vacuum, or None."""
        if not self.num:
            return Fraction(0)
        if len(self.num) != 1:
            return None
        (s, c), = self.num.items()
        if s.point == self.lattice.zero_point() and not s.modes:
            return Fraction(c, self.den)
        return None


# ---------------------------------------------------------------------------
# Heisenberg modes
# ---------------------------------------------------------------------------


def _insert_mode(modes: tuple, p: int, n: int) -> tuple:
    out = list(modes)
    out.append((p, n))
    out.sort()
    return tuple(out)


def _contractions(modes: tuple, bp):
    """For each distinct b_p(-n) in the sorted mode tuple with bp[p], the
    numerator of <beta, b_p>, nonzero: the tuple with one copy removed, n,
    and the factor n bp[p] times its multiplicity with which beta(n)
    removes it."""
    prev = None
    for idx, pm in enumerate(modes):
        # sorted, so a repeated pair directly follows its first copy
        if pm != prev and bp[pm[0]]:
            yield modes[:idx] + modes[idx + 1:], pm[1], modes.count(pm) * pm[1] * bp[pm[0]]
        prev = pm


def heisenberg_apply(beta, n: int, v: StateVector) -> StateVector:
    """Apply the Heisenberg mode beta(n), beta given in lattice coordinates.

    n > 0 annihilates (contract against matching creation modes with factor
    n <beta, b_p>), n = 0 multiplies by <beta, point>, n < 0 creates; a
    creation result beyond the truncation is dropped and flagged.
    """
    lat = v.lattice
    beta = tuple(beta)
    # <beta, b_p> = beta[p] gram[p] / den and <beta, point> = pairing / den^2
    if n > 0:
        bp = [x * g for x, g in zip(beta, lat.gram)]
        return v._with(_annihilations(bp, v.num).get(n, {}), v.den * lat.den)
    acc: dict[FockState, int] = {}
    if n == 0:
        for s, c in v.num.items():
            pair = _pairing(lat, beta, s.point)
            if pair:
                acc[s] = c * pair
        return v._with(acc, v.den * lat.den * lat.den)
    step = -n
    flagged = v.truncated
    # mode weight a result may carry at each point: state_weight + step <= T
    room: dict[tuple, int] = {}
    for s, c in v.num.items():
        r = room.get(s.point)
        if r is None:
            r = room[s.point] = _floor_minus_weight(lat, v.truncation, s.point)
        if _mode_weight(s) + step > r:
            flagged = True
            continue
        for p, b in enumerate(beta):
            if b:
                key = FockState(s.point, _insert_mode(s.modes, p, step))
                acc[key] = acc.get(key, 0) + c * b
    return v._with(acc, v.den * lat.den, flagged)


def _annihilations(bp, num: dict) -> dict[int, dict]:
    """n -> numerators of beta(n) num for every n >= 1 with a contraction,
    in one pass over num; beta is given by the numerators bp[p] of its
    pairings <beta, b_p> (their denominator is the caller's)."""
    out: dict[int, dict] = {}
    for s, c in num.items():
        for rest, n, f in _contractions(s.modes, bp):
            acc = out.get(n)
            if acc is None:
                acc = out[n] = {}
            key = FockState(s.point, rest)
            acc[key] = acc.get(key, 0) + c * f
    return out


# ---------------------------------------------------------------------------
# lattice vertex operators Y(e^beta, z)
# ---------------------------------------------------------------------------


def _annihilation_layers(lat, beta, modes: tuple) -> list[tuple[dict, int]]:
    """Annihilation half of the exponential field on one mode tuple: layer b
    collects the z^(-b) part as (surviving modes -> numerator, denominator).

    T_0 = id, T_b = -(1/b) sum_{t=1..b} beta(t) T_(b-t).  Independent of the
    lattice point.  Not memoised: `_exp_component` memoises what it builds
    from the layers, and keeping the layers too would cost more memory than
    rebuilding them for each net degree costs time.
    """
    bp = [x * g for x, g in zip(beta, lat.gram)]
    mw = sum(map(_mode_n, modes))
    layers = [({modes: 1}, 1)]
    for b in range(1, mw + 1):
        pieces = []
        for t in range(1, b + 1):
            num, den = layers[b - t]
            acc: dict[tuple, int] = {}
            for mds, c in num.items():
                for rest, n, f in _contractions(mds, bp):
                    if n == t:
                        acc[rest] = acc.get(rest, 0) + c * f
            pieces.append((-1, acc, den * lat.den * b))
        layers.append(_lincomb(pieces))
    return layers


@_per_lattice
def _creation_poly(lat, beta, a: int) -> tuple[dict, int]:
    """Degree-a part of the creation half as (created modes -> numerator,
    denominator): S_0 = id, S_a = (1/a) sum_{t=1..a} beta(-t) S_(a-t)."""
    if a == 0:
        return {(): 1}, 1
    pieces = []
    for t in range(1, a + 1):
        num, den = _creation_poly(lat, beta, a - t)
        acc: dict[tuple, int] = {}
        for mds, c in num.items():
            for p, b in enumerate(beta):
                if b:
                    key = _insert_mode(mds, p, t)
                    acc[key] = acc.get(key, 0) + c * b
        pieces.append((1, acc, den * lat.den * a))
    return _lincomb(pieces)


def _merge_modes(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


@_per_lattice
def _exp_component(lat, beta, modes: tuple, d: int) -> tuple[dict, int]:
    """Net-degree-d part of the normally ordered exponential expansion on one
    mode tuple, sum over b of S_(b+d) T_b merged, as (modes -> numerator,
    denominator); every entry has mode weight (weight of `modes`) + d."""
    pieces = []
    for b, (tnum, tden) in enumerate(_annihilation_layers(lat, beta, modes)):
        a = b + d
        if a < 0 or not tnum:
            continue
        cnum, cden = _creation_poly(lat, beta, a)
        acc: dict[tuple, int] = {}
        for tmds, tc in tnum.items():
            for cmds, cc in cnum.items():
                key = _merge_modes(tmds, cmds)
                acc[key] = acc.get(key, 0) + tc * cc
        pieces.append((1, acc, tden * cden))
    return _lincomb(pieces)


def _point_pairings(lat, beta, v: StateVector) -> dict[tuple, int]:
    """Numerators of <beta, point> over den^2 for each distinct lattice point
    of v; raises unless the pairings agree mod 1."""
    pairs = {point: _pairing(lat, beta, point) for point in {s.point for s in v.num}}
    if len({x % (lat.den * lat.den) for x in pairs.values()}) > 1:
        raise NonIntegralPairing(
            "mode components of the exponential field are ill-defined: "
            "the pairing with the sector is not constant mod 1"
        )
    return pairs


def exp_mode_apply(beta, m, v: StateVector) -> StateVector:
    """Single mode (e^beta)_m of the lattice vertex operator.

    The z-expansion is E^-(-beta,z) E^+(-beta,z) e^beta z^beta with mode m
    at z^(-m-1); m may be fractional when the pairing with the sector is.
    """
    lat = v.lattice
    beta = tuple(beta)
    m = _exact(m)
    # per lattice point: the mode weight a result may carry under the
    # truncation, floor(T - wt(point) - wt(beta) + m + 1), the net degree
    # d = -m - 1 - <beta, point> (None if fractional) and the shifted point,
    # in integers: the pairing is a numerator over den^2
    top = v.truncation - _point_weight(lat, beta) + m + 1
    base = -m - 1
    bn, bd = base.numerator * lat.den * lat.den, base.denominator * lat.den * lat.den
    per_point = {}
    for point, pair in _point_pairings(lat, beta, v).items():
        room = _floor_minus_weight(lat, top, point)
        d, frac = divmod(bn - pair * base.denominator, bd)
        per_point[point] = (room, None if frac else d, lat.add(point, beta))
    flagged = v.truncated
    parts = []
    for s, c in v.num.items():
        room, d, newpoint = per_point[s.point]
        if _mode_weight(s) > room:
            flagged = True
            continue
        if d is None:
            continue
        cnum, cden = _exp_component(lat, beta, s.modes, d)
        if cnum:
            parts.append((c, newpoint, cnum, cden))
    L = lcm(*{cden for _, _, _, cden in parts})
    acc: dict[FockState, int] = {}
    for c, newpoint, cnum, cden in parts:
        f = c * (L // cden)
        for mds, cc in cnum.items():
            key = FockState(newpoint, mds)
            acc[key] = acc.get(key, 0) + f * cc
    return v._with(acc, v.den * L, flagged)


# ---------------------------------------------------------------------------
# general mode application
# ---------------------------------------------------------------------------


def _binom_general(a: int, b: int) -> int:
    """binom(a, b) for integer a of either sign, b >= 0."""
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b) if a >= b else 0
    return (-1) ** b * comb(b - a - 1, b)


def _state_mode_apply(lat, astate: FockState, wa, m, v: StateVector) -> StateVector:
    """Apply the m-th mode of the field of one Fock state to v.

    Peels one creation mode per level: for a = b_p(-n) a', the m-th mode is

        sum_{j<=-n} C(-j-1, n-1) b_p(j) a'_(m-n-j)
      + sum_{j>=0}  C(-j-1, n-1) a'_(m-n-j) b_p(j),

    the two halves of the normally-ordered product of the n-th derivative
    field of b_p with the field of a'.  Bare exponentials bottom out in
    `exp_mode_apply`.
    """
    if not astate.modes:
        return exp_mode_apply(astate.point, m, v)
    p, n = astate.modes[0]
    rest = FockState(astate.point, astate.modes[1:])
    wrest = wa - n
    bcoords = _basis_coords(lat, p)
    # <b_p, b_q> = gram[p] delta_pq is an integer
    bp = [lat.gram[p] if q == p else 0 for q in range(lat.rank)]
    acc: dict[FockState, int] = {}
    den = 1
    flagged = v.truncated
    # annihilation half: b_p(j), j >= 0, hits v first
    hits = _annihilations(bp, v.num)
    for j in (0, *hits):
        w = v._with(hits[j], v.den) if j else heisenberg_apply(bcoords, 0, v)
        if w.is_zero():
            continue
        inner = _state_mode_apply(lat, rest, wrest, m - n - j, w)
        flagged = flagged or inner.truncated
        den = _add_into(acc, den, _binom_general(-j - 1, n - 1), inner.num, inner.den)
    # creation half: b_p(j) for -n >= j >= 1 - n - floor(wt(v) + wt(a') - m),
    # applied last; a lower j leaves a'_(m-n-j) v below the vacuum
    for j in range(-n, -n - floor(v.max_weight() + wrest - m), -1):
        coeff = _binom_general(-j - 1, n - 1)
        if coeff:
            inner = _state_mode_apply(lat, rest, wrest, m - n - j, v)
            if not inner.is_zero() or inner.truncated:
                inner = heisenberg_apply(bcoords, j, inner)
                flagged = flagged or inner.truncated
                den = _add_into(acc, den, coeff, inner.num, inner.den)
    return v._with(acc, den, flagged)


def _basis_coords(lat: Lattice, p: int) -> tuple[int, ...]:
    return tuple(lat.den if q == p else 0 for q in range(lat.rank))


def mode_apply(a: StateVector, m, v: StateVector) -> StateVector:
    """m-th mode of the field of a applied to v, extended linearly in a."""
    if a.lattice != v.lattice:
        raise ValueError("operator and argument live over different lattices")
    lat = v.lattice
    m = _exact(m)
    acc: dict[FockState, int] = {}
    den = 1
    flagged = a.truncated or v.truncated
    for s, c in a.num.items():
        piece = _state_mode_apply(lat, s, state_weight(lat, s), m, v)
        flagged = flagged or piece.truncated
        den = _add_into(acc, den, c, piece.num, a.den * piece.den)
    return v._with(acc, den, flagged, min(a.truncation, v.truncation))


# ---------------------------------------------------------------------------
# distinguished vectors
# ---------------------------------------------------------------------------


def sl2_generators(k: int, truncation=DEFAULT_TRUNCATION):
    """H = gamma(-1)1, E = sum_p e^(b_p), F = sum_p e^(-b_p) in the rank-k
    lattice; their modes give a level-k affine sl2 action."""
    if k < 2:
        raise ValueError("need k >= 2")
    lat = rank_lattice(k)
    T = _rat(truncation)
    vac = StateVector.vacuum(lat, T)
    H = heisenberg_apply(lat.gamma(), -1, vac)
    E = StateVector(lat, T)
    F = StateVector(lat, T)
    for p in range(k):
        E = E + StateVector.exponential(lat, _basis_coords(lat, p), T)
        F = F + StateVector.exponential(lat, lat.negate(_basis_coords(lat, p)), T)
    return H, E, F


def _omega_aff(k: int, H, E, F) -> StateVector:
    return (
        mode_apply(H, -1, H).scale(Fraction(1, 2)) + mode_apply(E, -1, F) + mode_apply(F, -1, E)
    ).scale(Fraction(1, 2 * (k + 2)))


def _omegas(k: int, H, E, F) -> dict[str, StateVector]:
    """omega_aff, omega_h and omega_para, as in `conformal_vectors`."""
    omega_aff = _omega_aff(k, H, E, F)
    omega_h = mode_apply(H, -1, H).scale(Fraction(1, 4 * k))
    return {"omega_aff": omega_aff, "omega_h": omega_h, "omega_para": omega_aff - omega_h}


def conformal_vectors(k: int, truncation=DEFAULT_TRUNCATION) -> dict:
    """The affine, Heisenberg and coset conformal vectors and the weight-3
    primary, realized through modes of H, E, F on the vacuum:

        omega_aff  = ( (1/2) H(-1)H + E(-1)F + F(-1)E ) / 2(k+2)
        omega_h    = H(-1)H / 4k
        omega_para = omega_aff - omega_h
        W3 = k^2 H(-3)1 + 3k H(-2)H(-1)1 + 2 H(-1)^3 1 - 6k H(-1)E(-1)F(-1)1
             + 3k^2 E(-2)F(-1)1 - 3k^2 E(-1)F(-2)1.
    """
    T = _rat(truncation)
    H, E, F = sl2_generators(k, T)
    vac = StateVector.vacuum(H.lattice, T)
    omegas = _omegas(k, H, E, F)
    w3 = (
        mode_apply(H, -3, vac).scale(k * k)
        + mode_apply(H, -2, H).scale(3 * k)
        + mode_apply(H, -1, mode_apply(H, -1, H)).scale(2)
        - mode_apply(H, -1, mode_apply(E, -1, F)).scale(6 * k)
        + mode_apply(E, -2, F).scale(3 * k * k)
        - mode_apply(E, -1, mode_apply(F, -2, vac)).scale(3 * k * k)
    )
    return {**omegas, "W3": w3}


def virasoro_mode(omega: StateVector, n: int, v: StateVector) -> StateVector:
    """L(n) of the Virasoro field of omega: its (n+1)-st mode."""
    return mode_apply(omega, n + 1, v)


def central_charge_of(omega: StateVector) -> Fraction:
    """Read off c from L(2) omega = (c/2) vacuum; raises if not scalar."""
    v = virasoro_mode(omega, 2, omega)
    c = v.is_multiple_of_vacuum()
    if c is None:
        raise ValueError("L(2) of the conformal vector is not a vacuum multiple")
    return 2 * c


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def ope_check(k: int, truncation=4) -> Report:
    """The defining bracket relations of the level-k generators: all twelve
    products A_0 B, A_1 B for A, B in {H, E, F}."""
    T = _rat(truncation)
    H, E, F = sl2_generators(k, T)
    vac = StateVector.vacuum(H.lattice, T)
    zero = StateVector(H.lattice, T)
    identities = [
        ("H0H=0", mode_apply(H, 0, H), zero),
        ("H1H=2k*1", mode_apply(H, 1, H), vac.scale(2 * k)),
        ("H0E=2E", mode_apply(H, 0, E), E.scale(2)),
        ("H1E=0", mode_apply(H, 1, E), zero),
        ("H0F=-2F", mode_apply(H, 0, F), F.scale(-2)),
        ("H1F=0", mode_apply(H, 1, F), zero),
        ("E0F=H", mode_apply(E, 0, F), H),
        ("E1F=k*1", mode_apply(E, 1, F), vac.scale(k)),
        ("E0E=0", mode_apply(E, 0, E), zero),
        ("E1E=0", mode_apply(E, 1, E), zero),
        ("F0F=0", mode_apply(F, 0, F), zero),
        ("F1F=0", mode_apply(F, 1, F), zero),
    ]
    entries = []
    truncated = False
    for name, got, want in identities:
        ok = got == want
        truncated = truncated or got.truncated
        entries.append((name, ok, None if ok else {"got": got.canonical_text()}))
    return make_report(
        "ope",
        {"k": k, "truncation": T},
        entries,
        identity="level-k sl2 bracket relations of H, E, F",
        truncated=truncated,
    )


def singular_vector_check(w: StateVector, omega: StateVector) -> Report:
    """Whether w is annihilated by the raising Virasoro modes of omega."""
    entries = []
    trivial = w.is_zero()
    truncated = w.truncated or omega.truncated
    for n in (1, 2):
        got = virasoro_mode(omega, n, w)
        truncated = truncated or got.truncated
        ok = got.is_zero()
        entries.append(
            (f"L({n})w=0", ok, None if ok else {"got": got.canonical_text()})
        )
    if trivial:
        entries.append(("nonzero-vector", True, {"note": "trivially singular: w = 0"}))
    return make_report(
        "singular-vector",
        {"weights": sorted(str(x) for x in w.weights())},
        entries,
        identity="w is a Virasoro singular vector for omega",
        truncated=truncated,
    )


def ek_power_check(k: int, truncation=None) -> Report:
    """(E_(-1))^k 1 is nonzero of gamma(0)-eigenvalue 2k and is killed by the
    positive Heisenberg modes; the (k+1)-st power vanishes (the realization
    is the simple quotient).  A truncation below k + 2 cannot hold the
    weight-(k+1) power and is raised to k + 2."""
    T = _rat(k + 2 if truncation is None else max(truncation, k + 2))
    H, E, F = sl2_generators(k, T)
    lat = E.lattice
    v = StateVector.vacuum(lat, T)
    for _ in range(k):
        v = mode_apply(E, -1, v)
    v1 = mode_apply(E, -1, v)
    zero = StateVector(lat, T)
    nonzero = not v.is_zero()
    entries = [("(E-1)^k 1 != 0", nonzero, None if nonzero else {"got": "0"})]
    for name, got, want in [
        ("H0 (E-1)^k 1 = 2k (E-1)^k 1", mode_apply(H, 0, v), v.scale(2 * k)),
        ("H1 (E-1)^k 1 = 0", mode_apply(H, 1, v), zero),
        ("H2 (E-1)^k 1 = 0", mode_apply(H, 2, v), zero),
        ("(E-1)^(k+1) 1 = 0", v1, zero),
    ]:
        ok = got == want
        entries.append((name, ok, None if ok else {"got": got.canonical_text()}))
    return make_report(
        "ek-power",
        {"k": k, "truncation": T},
        entries,
        identity="highest power of E(-1) on the vacuum and its Heisenberg eigenvalue",
        truncated=v1.truncated,
    )


def intertwiner_leading_check(k: int, truncation=3) -> Report:
    """Leading modes of the exponential intertwiner between adjacent cosets
    of the rank-one lattice: on e^(-gamma/k) the field of e^(gamma/k) opens
    with 1 * z^(-2/k) + (1/k) gamma(-1)1 * z^(1-2/k)."""
    lat = gamma_lattice(k)
    T = _rat(truncation)
    v = StateVector.exponential(lat, (-2,), T)
    # the mode m sits at z^(-m-1): m = 2/k - 1 at z^(-2/k), one less at z^(1-2/k)
    m0 = Fraction(2, k) - 1
    got0 = exp_mode_apply((2,), m0, v)
    got1 = exp_mode_apply((2,), m0 - 1, v)
    vac = StateVector.vacuum(lat, T)
    want1 = heisenberg_apply(lat.gamma(), -1, vac).scale(Fraction(1, k))
    entries = [
        (
            "coefficient of z^(-2/k) is the vacuum",
            got0 == vac,
            None if got0 == vac else {"got": got0.canonical_text()},
        ),
        (
            "coefficient of z^(1-2/k) is (1/k) gamma(-1)1",
            got1 == want1,
            None if got1 == want1 else {"got": got1.canonical_text()},
        ),
    ]
    return make_report(
        "intertwiner-leading",
        {"k": k, "truncation": T},
        entries,
        identity="leading coefficients of the coset-shift intertwiner",
        truncated=got0.truncated or got1.truncated or want1.truncated,
    )


# ---------------------------------------------------------------------------
# graded bases, generation, kernels
# ---------------------------------------------------------------------------


def _cancel(r: dict, row: dict, key) -> dict:
    """b r - a row for the coprime a, b with a/b = r[key]/row[key], so that
    key drops out; row[key] > 0, so b > 0.  r is consumed."""
    a, b = r[key], row[key]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        r = {s: b * x for s, x in r.items()}
    for s, x in row.items():
        y = r.get(s, 0) - a * x
        if y:
            r[s] = y
        else:
            del r[s]
    return r


def _primitive(r: dict, lead) -> dict:
    """The nonzero int dict r divided by the gcd of its entries, signed so
    that r[lead] > 0."""
    g = gcd(*r.values())
    if r[lead] < 0:
        g = -g
    return r if g == 1 else {s: x // g for s, x in r.items()}


def _insert(ech: dict, r: dict) -> dict:
    """Fraction-free elimination step: reduce the sparse int row r against
    the echelon ech (pivot -> primitive row whose least key is that pivot,
    positive there), pivoting on the least key, and store what is left,
    made primitive, under its least key.  Returns the stored row, or an
    empty dict when r lies in the span of ech.  r is consumed."""
    while r:
        pc = min(r)
        prow = ech.get(pc)
        if prow is None:
            r = ech[pc] = _primitive(r, pc)
            break
        r = _cancel(r, prow, pc)
    return r


@dataclass
class GradedBasis:
    """Exact graded basis of a module realized in the Fock space.

    ``aff_offset`` is the constant difference between the ambient (lattice)
    weight and the weight defined by the realized conformal vector.
    """

    lattice: Lattice
    truncation: Fraction
    layers: dict[Fraction, list[StateVector]] = field(repr=False)
    aff_offset: Fraction = Fraction(0)
    truncated: bool = False

    def dims(self) -> dict[Fraction, int]:
        return {w: len(rows) for w, rows in sorted(self.layers.items()) if rows}

    def charge_dims(self) -> dict[tuple[Fraction, Fraction], int]:
        """Dimensions resolved by (weight relative to the realized conformal
        vector, gamma(0)-eigenvalue)."""
        out: dict[tuple[Fraction, Fraction], int] = {}
        for w, rows in sorted(self.layers.items()):
            for v in rows:
                key = (w - self.aff_offset, v.charge())
                out[key] = out.get(key, 0) + 1
        return out

    def to_obj(self) -> dict:
        """JSON-ready graded-dimension table."""
        return {
            "truncation": str(self.truncation),
            "aff_offset": str(self.aff_offset),
            "dims": {str(w): d for w, d in self.dims().items()},
            "truncated": self.truncated,
        }


def generated_subspace(generators, max_weight, seeds=None) -> GradedBasis:
    """Span of iterated lowering modes g(-t), t >= 1, of the generators
    applied to the seed vectors, graded by ambient weight up to max_weight.

    The generators must be weight-one states whose 0-mode brackets a(0)b
    span exactly the span of the generators, as H, E, F do ([sl2, sl2] =
    sl2).  Then [a(-1), b(-t)] = (a(0)b)(-t-1) makes every g(-t) a sum of
    commutators of (-1)-modes, so layer w is spanned by the (-1)-modes of
    the generators applied to layer w-1, and only those are applied.  A
    generating set failing the condition (say [H] alone, which is abelian)
    raises ValueError.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if any(g.weights() != {1} for g in generators):
        raise ValueError("generators must be weight-one vectors")
    gens = [g.num for g in generators]
    brackets = [mode_apply(a, 0, b).num for a in generators for b in generators]
    if not rank(gens) == rank(brackets) == rank(gens + brackets):
        raise ValueError(
            "the 0-mode brackets of the generators do not span the generators, "
            "so their (-1)-modes do not generate every lowering mode"
        )
    lat = generators[0].lattice
    T = _rat(max_weight)
    if seeds is None:
        seeds = [StateVector.vacuum(lat, T)]
    seeds = [s._with(s.num, s.den, truncation=T) for s in seeds]
    # per weight: the echelon of the layer and its rows as monic vectors
    echelons: dict[Fraction, dict] = {}
    layers: dict[Fraction, list[StateVector]] = {}
    truncated = False

    def insert(w, v: StateVector) -> None:
        r = _insert(echelons.setdefault(w, {}), dict(v.num))
        if r:
            layers.setdefault(w, []).append(v._with(r, r[min(r)]))

    seed_weights = set()
    for s in seeds:
        ws = s.weights()
        if len(ws) != 1:
            raise ValueError("seed vectors must be weight-homogeneous")
        w = ws.pop()
        seed_weights.add(w)
        insert(w, s)
    w0 = min(seed_weights)
    if any((w - w0).denominator != 1 for w in seed_weights):
        raise ValueError("seed weights must differ by integers")
    steps = int(T - w0)
    for d in range(1, steps + 1):
        w = w0 + d
        for v in layers.get(w - 1, ()):
            for g in generators:
                cand = mode_apply(g, -1, v)
                truncated = truncated or cand.truncated
                insert(w, cand)
    return GradedBasis(lattice=lat, truncation=T, layers=layers, truncated=truncated)


def affine_module_basis(k: int, i: int, max_weight) -> GradedBasis:
    """Realization of the i-th level-k affine module inside the (dual) Fock
    space: seeded by the minimal-norm symmetrized top level over the coset
    with the first i half-unit coordinates odd, then closed under lowering
    modes of H, E, F."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}")
    T = _rat(max_weight)
    if T < Fraction(i, 4):
        raise ValueError(f"truncation {T} lies below the top level i/4 = {Fraction(i, 4)}")
    H, E, F = sl2_generators(k, T)
    lat = H.lattice
    if i == 0:
        seeds = [StateVector.vacuum(lat, T)]
    else:
        top = StateVector.exponential(lat, tuple(1 if p < i else 0 for p in range(k)), T)
        seeds = [top]
        cur = top
        for _ in range(i):
            cur = mode_apply(F, 0, cur)
            if cur.is_zero():
                raise AssertionError("top level closed too early")
            seeds.append(cur)
        if not mode_apply(F, 0, cur).is_zero():
            raise AssertionError("top level did not close")
    basis = generated_subspace([H, E, F], T, seeds=seeds)
    T3 = max(T, Fraction(3))
    omega_aff = _omega_aff(k, *sl2_generators(k, T3))
    top = seeds[0]
    l0 = mode_apply(omega_aff, 1, top._with(top.num, top.den, truncation=T3))
    (s0, c0), = top.terms.items()
    aff_weight = l0.coefficient(s0) / c0
    basis.aff_offset = state_weight(lat, s0) - aff_weight
    if basis.aff_offset != Fraction(i * (k - i), 4 * (k + 2)):
        raise AssertionError(f"realized offset {basis.aff_offset} differs from i(k-i)/4(k+2)")
    return basis


def rank(rows) -> int:
    """Rank of the sparse system rows . x = 0 (entries int or Fraction), by
    forward elimination alone."""
    ech: dict = {}
    for row in rows:
        _insert(ech, _integral(row)[0])
    return len(ech)


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace basis of the sparse constraint system rows . x = 0 over the
    rationals (entries int or Fraction), one Fraction vector per free column
    f with x_f = 1: the reduced row echelon basis with canonical
    (smallest-column) pivots.  Elimination runs on integer rows; fractions
    appear only in the returned vectors."""
    ech: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(ech, _integral(row)[0])
    # back-substitution, last pivot first: clear every other pivot column
    red: dict[int, dict[int, int]] = {}
    for pc in sorted(ech, reverse=True):
        r = ech[pc]
        for c in [c for c in r if c != pc and c in red]:
            r = _cancel(r, red[c], c)
        red[pc] = _primitive(r, pc)
    # column f of pivot row pc holds -x_pc * r[pc] for the free f
    cols: dict[int, dict[int, Fraction]] = {}
    for pc in sorted(red):
        r = red[pc]
        for c, x in r.items():
            if c != pc:
                cols.setdefault(c, {})[pc] = Fraction(-x, r[pc])
    return [{f: Fraction(1), **cols.get(f, {})} for f in range(ncols) if f not in red]


def _commutant_systems(basis: GradedBasis, charge: int):
    """Per ambient weight holding vectors of the given gamma(0)-eigenvalue:
    the coset weight, those candidate vectors and the integer rows of
    gamma(m) sum_t x_t num_t = 0 for every m >= 1.  The system is posed on
    the candidates' integer numerators num_t = den_t cands[t]: that rescales
    the coordinates of its solutions and keeps its rank."""
    lat = basis.lattice
    gamma = lat.gamma()
    heis = Fraction(charge * charge, 2 * lat.norm(gamma))
    # numerators of <gamma, b_p>; their common denominator drops out
    bp = [x * g for x, g in zip(gamma, lat.gram)]
    for w, rows in sorted(basis.layers.items()):
        cands = [v for v in rows if v.charge() == charge]
        if not cands:
            continue
        constraints: dict[tuple, dict[int, int]] = {}
        for t, v in enumerate(cands):
            # gamma(m) acts only through the modes b_p(-m) present
            for m, img in _annihilations(bp, v.num).items():
                for s, c in img.items():
                    if c:
                        constraints.setdefault((m, s), {})[t] = c
        yield w - basis.aff_offset - heis, cands, list(constraints.values())


def commutant_kernel(basis: GradedBasis, charge: int) -> dict[Fraction, list[StateVector]]:
    """Per-weight kernel of the non-negative gamma-modes at the given
    gamma(0)-eigenvalue: the graded pieces of the coset multiplicity module.

    Keys are the absolute coset weights: ambient weight minus the affine
    offset minus the Heisenberg contribution charge^2/(2 <gamma,gamma>).
    At each weight the vectors are the reduced-echelon nullspace basis over
    that weight's candidates: each has coefficient 1 on its own free
    candidate and 0 on the other free ones.
    """
    out: dict[Fraction, list[StateVector]] = {}
    for w, cands, rows in _commutant_systems(basis, charge):
        combos = nullspace(rows, len(cands))
        if combos:
            out[w] = [_kernel_vector(basis, cands, x) for x in combos]
    return out


def _kernel_vector(basis: GradedBasis, cands: list[StateVector], x: dict) -> StateVector:
    """sum_t x_t num_t / den_f for a nullspace vector x of the system on the
    numerators, f = max(x) its free column: with cands[t] = num_t / den_t
    this is the combination of the candidates with coefficient 1 on cands[f],
    accumulated in one pass."""
    df = cands[max(x)].den
    used = [cands[t] for t in x]
    return used[0]._with(
        *_lincomb([(c.numerator, cands[t].num, c.denominator * df) for t, c in x.items()]),
        truncated=any(v.truncated for v in used),
        truncation=min([basis.truncation] + [v.truncation for v in used]),
    )


def commutant_dims(basis: GradedBasis, charge: int) -> dict[Fraction, int]:
    """The dimensions `kernel_dims(commutant_kernel(basis, charge))` reads
    off, each as candidates minus the rank of the constraint system, without
    building kernel vectors."""
    out: dict[Fraction, int] = {}
    for w, cands, rows in _commutant_systems(basis, charge):
        dim = len(cands) - rank(rows)
        if dim:
            out[w] = dim
    return out


def kernel_dims(kernel: dict) -> dict[Fraction, int]:
    return {w: len(v) for w, v in sorted(kernel.items())}


def singular_space_dimension(k: int, weight: int = 3, basis: GradedBasis | None = None) -> int:
    """Dimension of the space of Virasoro singular vectors of the coset
    conformal vector inside the given weight slice of the commutant."""
    if basis is None:
        basis = affine_module_basis(k, 0, weight)
    omega = _omegas(k, *sl2_generators(k, max(basis.truncation, 3)))["omega_para"]
    vecs = commutant_kernel(basis, 0).get(_rat(weight), [])
    if not vecs:
        return 0
    constraints: dict[tuple, dict[int, Fraction]] = {}
    for t, v in enumerate(vecs):
        for n in (1, 2):
            img = virasoro_mode(omega, n, v)
            for s, c in img.terms.items():
                constraints.setdefault((n, s), {})[t] = c
    return len(vecs) - rank(list(constraints.values()))


# ---------------------------------------------------------------------------
# randomized spot checks
# ---------------------------------------------------------------------------


def random_state_vector(
    lat: Lattice, truncation, rng: random.Random, nterms=2, max_weight=None
) -> StateVector:
    """Small pseudo-random vector in the even (lattice-point) sector, with
    weights at most max_weight (leaving creation headroom below the
    truncation when max_weight < truncation)."""
    T = _rat(truncation)
    W = T if max_weight is None else _rat(max_weight)
    terms = {}
    for _ in range(nterms):
        while True:
            point = tuple(lat.den * rng.randint(-1, 1) for _ in range(lat.rank))
            budget = W - lat.point_weight(point)
            if budget >= 0:
                break
        modes = []
        while budget >= 1 and rng.random() < Fraction(7, 10):
            n = rng.randint(1, int(budget))
            modes.append((rng.randrange(lat.rank), n))
            budget -= n
        state = FockState(point, tuple(sorted(modes)))
        terms[state] = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    return StateVector(lat, T, terms)


def virasoro_bracket_check(k: int, truncation=5, seed=0) -> Report:
    """[L(m), L(n)] = (m-n) L(m+n) + delta_(m+n,0) (m^3-m)/12 c on sampled
    vectors, for each of the three conformal vectors."""
    T = _rat(truncation)
    vecs = conformal_vectors(k, T)
    rng = random.Random(seed)
    lat = rank_lattice(k)
    samples = [random_state_vector(lat, T, rng, max_weight=T - 2) for _ in range(2)]
    entries = []
    truncated = False
    for name in ("omega_h", "omega_aff", "omega_para"):
        om = vecs[name]
        c = central_charge_of(om)
        for m, n in ((1, -1), (2, -2)):
            for idx, v in enumerate(samples):
                lhs = virasoro_mode(om, m, virasoro_mode(om, n, v)) - virasoro_mode(
                    om, n, virasoro_mode(om, m, v)
                )
                rhs = virasoro_mode(om, m + n, v).scale(m - n)
                if m + n == 0:
                    rhs = rhs + v.scale(Fraction((m**3 - m) * c.numerator, 12 * c.denominator))
                ok = lhs == rhs
                truncated = truncated or lhs.truncated or rhs.truncated
                entries.append(
                    (
                        f"[{name}] [L({m}),L({n})] on sample {idx}",
                        ok,
                        None if ok else {"lhs": lhs.canonical_text(), "rhs": rhs.canonical_text()},
                    )
                )
    return make_report(
        "virasoro-bracket",
        {"k": k, "truncation": T, "seed": seed},
        entries,
        identity="Virasoro commutation relations of the realized conformal vectors",
        truncated=truncated,
    )
