"""Weight-truncated exact realization of lattice vertex algebras.

The ambient space is the Fock space of a rank-r lattice with an orthogonal
basis b_1..b_r of norm den; states are lattice exponentials
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
work in ints: `_lincomb` sums at the lcm of the denominators, and weights
are bounded in units of 1/2den (a point a has weight a.a / 2den), so each
room or recursion bound is floor(c + x / 2den), c one rational per call
and x an int (`_floor_bound`).  `StateVector.terms` and ``canonical_text``
present ``Fraction``s, and the public constructor takes ints or
``Fraction``s.  One fraction-free elimination,
`_insert`, reduces primitive integer rows against pivots on their least
key; the layer bases of `generated_subspace`, `rank` and `nullspace` use it.

`mode_apply` applies the field of a composite vector a in few passes over
its argument v.  All bare exponentials e^beta of a take one pass
(`_exp_modes`, whose one-summand case is `exp_mode_apply`): each (beta,
point) pair's room, degree and shifted point are worked out once, in
integers, each component comes from one memo, and everything is added
into one integer dict over one common denominator; a component whose
net degree is below minus the weight of the modes in beta's support is
memoised as empty without being expanded.  The other states go
by prefix groups: each state b_p(-n) rest is keyed by (n, rest) and a
key's coefficients fold into one pairing vector beta.  Every group whose
rest is the vacuum or one mode b_q(-n')1, as in H, in a conformal
vector's quadratic part and in H(-1)H, joins one more pass
(`_vacuum_modes`, whose one-mode case is `heisenberg_apply`), which
enumerates only the terms of beta(-n)1 or beta(-n) b_q(-n')1 that each
state of v yields.  Each other group goes to `_prefix_mode_apply`, which
peels beta(-n) under one integer bound, F = floor(wt(v) + wt(field) - m),
and applies rest's field through `mode_apply`: one dispatcher routes every
part of a field.

Generated bases are built and reduced in orbit coordinates of the group
that permutes the lattice basis inside consecutive blocks and fixes the
generators and seeds; `generated_subspace` works it out from them, and for
L(k, i) it is G_i = S_i x S_(k-i) (blocks p < i and p >= i), fixing gamma.
The representative of a state sorts its columns (point[p], the mode
numbers in direction p) inside each block.  An invariant vector v is
stored as its orbit totals w_r, the sum of its coefficients over the orbit
of r; for an invariant operator A the orbit totals of A v are
sum_r w_r fold(A r), where fold adds each output coefficient onto the
representative of its state.  No stabiliser factor enters, and a layer
holds the primitive integer rows of its elimination.  The elimination
keys each representative by `_key`, a bytes string that compares as the
state does, so every pivot is the one the states would pick, while the
keys hash once and compare by memcmp; a stored row is read back onto the
representatives (`_unfold`).  v -> w is a
bijection on invariant vectors, so ranks and kernel dimensions are those
of the Fock vectors, and the commutant kernels stay in these coordinates.

A global weight truncation bounds every stored state; creation results
beyond it are dropped and recorded in a sticky ``truncated`` flag (overflow
is a flag, never an exception), so a check consuming flagged vectors can
only report success up to truncation.  `_vacuum_modes` flags per state s
of v: a dropped term flags when its coefficient on s is nonzero, for a pair
when the operator acting first leaves s nonzero.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import wraps
from math import comb, floor, gcd, lcm
from operator import add, itemgetter, mul
from typing import NamedTuple

from .errors import NonIntegralPairing
from .report import Report, make_report

DEFAULT_TRUNCATION = 8


def _rat(x) -> Fraction:
    """x as an exact Fraction; a float is refused rather than rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"inexact value {x!r}: pass an int or a Fraction")
    return Fraction(x)


def _exact(x):
    """x as an int when it is integral, else as a Fraction: mode indices are
    mostly integers, and int arithmetic on them is much cheaper."""
    if isinstance(x, int):
        return x
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


def _lincomb(pieces) -> tuple[dict, int]:
    """sum c * num / d over a list of (c, num, d) pieces, in one pass at the
    lcm L of the d, as (numerators, L); zeros are kept, nothing cancelled."""
    L = lcm(*(d for _, _, d in pieces))
    acc: dict = {}
    for c, num, d in pieces:
        f = c * (L // d)
        for s, x in num.items():
            acc[s] = acc.get(s, 0) + f * x
    return acc, L


# ---------------------------------------------------------------------------
# lattice contexts and states
# ---------------------------------------------------------------------------


class Lattice:
    """Orthogonal lattice basis b_1..b_rank with <b_p,b_p> = den.

    Point coordinates are integers counting units of b_p/den, so the lattice
    itself consists of the points with all coordinates divisible by den.
    As den is also the norm of each b_p, they are dual-lattice coordinates:
    <a, b_p> = a[p] and <a, b> = a.b / den.

    Immutable by convention, like `StateVector`: two lattices are equal, and
    hash alike, when their (rank, den) are; ``memo`` holds the memo tables
    of the mode computations on this instance (see `_per_lattice`).
    """

    __slots__ = ("rank", "den", "memo", "__weakref__")

    def __init__(self, rank: int, den: int):
        if rank < 1 or den < 1:
            raise ValueError(f"need rank >= 1 and den >= 1, got rank={rank}, den={den}")
        self.rank, self.den, self.memo = rank, den, {}

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.rank == other.rank and self.den == other.den

    def __hash__(self):
        return hash((self.rank, self.den))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, den={self.den})"

    def __reduce__(self):
        # pickle the lattice without its tables
        return (Lattice, (self.rank, self.den))

    def pairing(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        return Fraction(_dot(a, b), self.den)

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
        return tuple(map(add, a, b))

    def negate(self, a) -> tuple[int, ...]:
        return tuple(-x for x in a)


def rank_lattice(k: int) -> Lattice:
    """Rank-k lattice with all basis norms 2, half-unit coordinates."""
    return Lattice(rank=k, den=2)


def gamma_lattice(k: int) -> Lattice:
    """Rank-one lattice spanned by a norm-2k vector, coordinates in 1/2k units."""
    return Lattice(rank=1, den=2 * k)


class FockState(NamedTuple):
    """Lattice exponential dressed with creation modes.

    ``point`` has one coordinate per direction, and ``modes`` is a sorted
    tuple of (direction p, mode n >= 1) pairs, 0 <= p < rank, repeated with
    multiplicity; it represents prod b_p(-n) applied to e^point.
    """

    point: tuple[int, ...]
    modes: tuple[tuple[int, int], ...]


def _coords(lat: Lattice, beta) -> tuple[int, ...]:
    """beta as a tuple; ValueError unless it has one coordinate per direction."""
    beta = tuple(beta)
    if len(beta) != lat.rank:
        raise ValueError(f"{beta} has {len(beta)} coordinates, the lattice rank is {lat.rank}")
    return beta


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


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


_mode_n = itemgetter(1)


def _mode_weight(s: FockState) -> int:
    return sum(map(_mode_n, s.modes))


def state_weight(lat: Lattice, s: FockState) -> Fraction:
    return lat.point_weight(s.point) + _mode_weight(s)


def _floor_bound(lat: Lattice, c):
    """x -> floor(c + x / 2den) on ints x; c, an int or Fraction, is read once."""
    q, d = 2 * lat.den, c.denominator
    n, dq = c.numerator * q, d * q
    return lambda x: (n + x * d) // dq


class StateVector:
    """Sparse exact-rational linear combination of Fock states.

    The coefficients are ``num[state] / den``: nonzero int numerators over
    one positive int denominator with gcd(numerators, den) = 1, so equal
    vectors have equal ``num`` and ``den``.  ``terms`` is the same map with
    ``Fraction`` coefficients.  Immutable by convention; all operations
    return fresh vectors.  The ``truncated`` flag is sticky: it is set
    whenever a creation result was dropped for exceeding the truncation, in
    this vector or any ancestor.  The constructor raises ValueError on a
    state that does not fit the lattice (see `FockState`).
    """

    __slots__ = ("lattice", "truncation", "num", "den", "truncated", "_terms")

    def __init__(self, lattice: Lattice, truncation, terms=None, truncated=False):
        acc: dict[FockState, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for s, c in items:
                _coords(lattice, s.point)
                modes = s.modes
                if not (isinstance(modes, tuple) and list(modes) == sorted(modes)
                        and all(0 <= p < lattice.rank and n >= 1 for p, n in modes)):
                    raise ValueError(f"modes {modes!r}: need a sorted tuple of (p, n), "
                                     f"0 <= p < {lattice.rank}, n >= 1")
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

    def charge(self) -> Fraction:
        """gamma(0)-eigenvalue; raises if the vector mixes charges."""
        lat = self.lattice
        gamma = lat.gamma()
        vals = {_dot(gamma, point) for point in {s.point for s in self.num}}
        if len(vals) != 1:
            raise ValueError("vector does not have a single charge")
        return Fraction(vals.pop(), lat.den)

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
        acc, den = _lincomb([(1, self.num, self.den), (1, other.num, other.den)])
        truncation = min(self.truncation, other.truncation)
        return self._with(acc, den, self.truncated or other.truncated, truncation)

    def __neg__(self) -> "StateVector":
        return self._with({s: -c for s, c in self.num.items()}, self.den)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-other)

    def scale(self, c) -> "StateVector":
        c = _exact(c)
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
    i = bisect_right(modes, (p, n))
    return modes[:i] + ((p, n),) + modes[i:]


def _contractions(modes: tuple, beta):
    """For each distinct b_p(-n) in the sorted mode tuple with <beta, b_p> =
    beta[p] nonzero: the index of its first copy, n, and the factor n beta[p]
    times its multiplicity with which beta(n) removes one copy."""
    prev = None
    for idx, pm in enumerate(modes):
        # sorted, so a repeated pair directly follows its first copy
        if pm != prev and beta[pm[0]]:
            yield idx, pm[1], modes.count(pm) * pm[1] * beta[pm[0]]
        prev = pm


def heisenberg_apply(beta, n: int, v: StateVector) -> StateVector:
    """Apply the Heisenberg mode beta(n), beta given in lattice coordinates.

    n > 0 annihilates (contract against matching creation modes with factor
    n <beta, b_p>), n = 0 multiplies by <beta, point>, n < 0 creates; a
    creation result beyond the truncation is dropped and flagged.  beta(n)
    is the n-th mode of the field of beta(-1)1, so this is the one-group
    call of `_vacuum_modes`; ValueError unless n is an int.
    """
    if not isinstance(n, int):
        raise ValueError(f"mode number {n!r}: need an int")
    return _vacuum_modes([(_coords(v.lattice, beta), 1)], n, v)


def _annihilations(beta, num: dict) -> dict[int, dict]:
    """n -> numerators of beta(n) num for every n >= 1 with a contraction,
    in one pass over num; the pairings <beta, b_p> are integers, so the
    denominator is the caller's."""
    out: dict[int, dict] = {}
    for s, c in num.items():
        for idx, n, f in _contractions(s.modes, beta):
            acc = out.get(n)
            if acc is None:
                acc = out[n] = {}
            key = FockState(s.point, s.modes[:idx] + s.modes[idx + 1:])
            acc[key] = acc.get(key, 0) + c * f
    return out


# ---------------------------------------------------------------------------
# lattice vertex operators Y(e^beta, z)
# ---------------------------------------------------------------------------


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
    return _canonical(*_lincomb(pieces))


@_per_lattice
def _exp_component(lat, beta, modes: tuple, d: int) -> tuple[dict, int]:
    """Net-degree-d part of the normally ordered exponential expansion on one
    mode tuple, as (modes -> numerator, denominator); every entry has mode
    weight (weight of `modes`) + d.

    The annihilation half E^+(-beta, z) fixes e^alpha and sends each b_p(-n)
    to b_p(-n) - beta[p] z^(-n), so on r copies of b_p(-n) it is the sum over
    s of C(r, s) (-beta[p])^s z^(-ns) times r - s copies: in integers, one
    kept mode tuple per choice of s for each distinct (p, n).  The z^(-b)
    part of that is merged with the creation half S_(b+d).  The annihilation
    half removes at most the weight of the modes in beta's support and the
    creation half needs b + d >= 0, so below that the component is empty.
    """
    if d + sum(n for p, n in modes if beta[p]) < 0:
        return {}, 1
    kept = [(0, (), 1)]
    for p, n in dict.fromkeys(modes):
        r, c = modes.count((p, n)), -beta[p]
        kept = [
            (b + n * s, mds + ((p, n),) * (r - s), x * comb(r, s) * c**s)
            for s in range(r + 1 if c else 1)
            for b, mds, x in kept
        ]
    pieces = []
    for b, tmds, x in kept:
        a = b + d
        if a >= 0:
            cnum, cden = _creation_poly(lat, beta, a)
            if tmds:
                cnum = {tuple(sorted(tmds + cmds)): cc for cmds, cc in cnum.items()}
            pieces.append((x, cnum, cden))
    if len(pieces) == 1 and pieces[0][0] == 1:
        # one canonical creation table, shifted by a fixed mode tuple
        return pieces[0][1:]
    return _canonical(*_lincomb(pieces))


def _exp_modes(fields, m, v: StateVector) -> StateVector:
    """sum c (e^beta)_m v over the (beta, c) pairs of fields, beta a tuple in
    lattice coordinates and c an int, in one pass over v; m is `_exact`.

    The z-expansion of the field of e^beta is E^-(-beta,z) E^+(-beta,z)
    e^beta z^beta with mode m at z^(-m-1); m may be fractional when the
    pairing with the sector is, and each beta's pairing with the points of v
    must be constant mod 1.
    """
    lat = v.lattice
    # per lattice point a of v and summand: the mode weight a result may
    # carry under the truncation, floor(T + m + 1 - wt(beta) - wt(a)), the
    # net degree d = -m - 1 - <beta, a> and the shifted point, in integers:
    # the pairing is a numerator over den.  A fractional d gives no term
    room = _floor_bound(lat, v.truncation + m)
    mn, md = m.numerator, m.denominator
    bn, bd = -(mn + md) * lat.den, md * lat.den
    per_point: dict[tuple, list] = {s.point: [] for s in v.num}
    norms = {point: _dot(point, point) for point in per_point}
    for beta, c in fields:
        x_beta = 2 * lat.den - _dot(beta, beta)
        pairs = {point: _dot(beta, point) for point in per_point}
        if len({x % lat.den for x in pairs.values()}) > 1:
            raise NonIntegralPairing(
                "mode components of the exponential field are ill-defined: "
                "the pairing with the sector is not constant mod 1"
            )
        for point, pair in pairs.items():
            d, frac = divmod(bn - pair * md, bd)
            if not frac:
                r = room(x_beta - norms[point])
                per_point[point].append((beta, c, r, d, lat.add(point, beta)))
    flagged = v.truncated
    parts = []
    for s, x in v.num.items():
        mw = _mode_weight(s)
        for beta, c, r, d, newpoint in per_point[s.point]:
            # its entries have mode weight mw + d: none, and no flag, if < 0
            if mw + d < 0:
                continue
            if mw > r:
                flagged = True
                continue
            cnum, cden = _exp_component(lat, beta, s.modes, d)
            if cnum:
                parts.append((c * x, newpoint, cnum, cden))
    L = lcm(*{cden for *_, cden in parts})
    acc: dict[FockState, int] = {}
    for cx, newpoint, cnum, cden in parts:
        f = cx * (L // cden)
        for mds, cc in cnum.items():
            key = FockState(newpoint, mds)
            acc[key] = acc.get(key, 0) + f * cc
    return v._with(acc, v.den * L, flagged)


def exp_mode_apply(beta, m, v: StateVector) -> StateVector:
    """Single mode (e^beta)_m of the lattice vertex operator (`_exp_modes`)."""
    return _exp_modes(((_coords(v.lattice, beta), 1),), _exact(m), v)


# ---------------------------------------------------------------------------
# general mode application
# ---------------------------------------------------------------------------


def _binom_general(a: int, b: int) -> int:
    """binom(a, b) for integer a of either sign, b >= 0."""
    if not b:
        return 1
    if a >= 0:
        return comb(a, b) if a >= b else 0
    return (-1) ** b * comb(b - a - 1, b)


def _vacuum_modes(groups, m, v: StateVector) -> StateVector:
    """sum of the m-th modes of the fields of beta(-n)1 and beta(-n) delta(-n2)1
    over the groups (beta, n) and (beta, n, delta, n2), beta and delta in
    lattice coordinates (nonzero in a pair), in one pass over v; m is `_exact`,
    fractional m gives 0.  With c0 = m + 1 less the group's mode numbers,
    beta(-n)1 gives the one term C(-c0-1, n-1) beta(c0) of its derivative
    field, and the pair sum_{j + j2 = c0} C(-j-1, n-1) C(-j2-1, n2-1) beta(j)
    delta(j2), ordered by `_prefix_mode_apply`'s two halves: a state s yields
    (A) beta(j), j = 0 or a mode of s, then delta(c0 - j), and (B) delta(j2),
    j2 >= c0 + n a mode of s, 0 or a creation, then beta(c0 - j2).  The
    operator acting last contracts, takes its zero mode or creates; each
    term of a group has mode weight mw(s) - c0: one room test per group."""
    if isinstance(m, Fraction):
        return v._with({}, 1)
    D, binom, bound = v.lattice.den, _binom_general, _floor_bound(v.lattice, v.truncation)
    # one mode: (beta, c0, den C(-c0-1, n-1)); a pair: (beta, n, delta, n2,
    # c0, its constant term's binomials, (j2, binomials) of each zero or
    # creation j2 in (B)), the binomials that do not depend on the state
    ones, pairs = [], []
    for beta, n, *second in groups:
        c0 = m - n + 1
        if second:
            delta, n2 = second
            c0 -= n2
            pairs.append((beta, n, delta, n2, c0, binom(-c0 - 1, n2 - 1) * binom(-1, n - 1),
                          [(j2, binom(-j2 - 1, n2 - 1) * binom(j2 - c0 - 1, n - 1))
                           for j2 in range(c0 + n, 1)]))
        else:
            ones.append((beta, c0, D * binom(-c0 - 1, n - 1)))
    flagged = v.truncated
    # per point: its room, each group's zero modes and mode tuple -> numerator
    # over v.den den^2 (annihilation factors and one-mode coefficients times den)
    per_point: dict[tuple, tuple] = {}
    for (point, modes), x in v.num.items():
        if point not in per_point:
            per_point[point] = (bound(-_dot(point, point)), [_dot(g[0], point) for g in ones],
                                [(_dot(p[0], point), _dot(p[2], point)) for p in pairs], {})
        room, zones, zpairs, out = per_point[point]
        excess = sum(map(_mode_n, modes)) - room
        # (coefficient, vector, zero mode, j, modes, over): vector(j) acts
        # last, and over marks a group whose creations exceed the room
        terms = [(x * c, beta, z, c0, modes, c0 < excess) for (beta, c0, c), z in zip(ones, zones)]
        # the distinct modes (p, t) of s, their multiplicities, s less one copy
        dist = [(*pt, modes.count(pt), modes[:i] + modes[i + 1:])
                for i, pt in enumerate(modes) if not i or pt != modes[i - 1]] if pairs else ()
        for (beta, n, delta, n2, c0, const, creations), (zb, zd) in zip(pairs, zpairs):
            lo, over = c0 + n, c0 < excess
            # at n = n2 = 1, as in every conformal vector, each binomial is 1
            unit = n == n2 == 1
            terms.append((x * zb * const, delta, zd, c0, modes, over))
            for p, t, r, rest in dist:
                if beta[p]:
                    c = 1 if unit else binom(t - c0 - 1, n2 - 1) * binom(-t - 1, n - 1)
                    terms.append((x * r * t * beta[p] * D * c, delta, zd, c0 - t, rest, over))
                if t >= lo and delta[p]:
                    c = 1 if unit else binom(-t - 1, n2 - 1) * binom(t - c0 - 1, n - 1)
                    terms.append((x * r * t * delta[p] * D * c, beta, zb, c0 - t, rest, over))
            for j2, c in creations:
                c *= x
                terms += [(c * zd, beta, zb, c0, modes, over)] if not j2 else [
                    (c * d, beta, zb, c0 - j2, _insert_mode(modes, q, -j2), over)
                    for q, d in enumerate(delta) if d]
        for c, vec, z, j, rest, over in terms:
            if c and j > 0:
                for idx, t, f in _contractions(rest, vec):
                    if t == j:
                        key = rest[:idx] + rest[idx + 1:]
                        out[key] = out.get(key, 0) + c * f * D
            elif c and j == 0:
                out[rest] = out.get(rest, 0) + c * z
            elif c and over:
                flagged = True
            elif c:
                for p, b in enumerate(vec):
                    if b:
                        key = _insert_mode(rest, p, -j)
                        out[key] = out.get(key, 0) + c * b
    num = {FockState(pt, mds): c for pt, (*_, out) in per_point.items() for mds, c in out.items()}
    return v._with(num, v.den * D * D, flagged)


def _prefix_mode_apply(beta, n: int, rest: StateVector, m, v: StateVector, F) -> StateVector:
    """Apply the m-th mode of the field of beta(-n) rest to v, beta in lattice
    coordinates and rest a one-state vector; F = floor(wv + wt(field) - m),
    wv an upper bound on the weights of v.  The m-th mode is

        sum_{j<=-n} C(-j-1, n-1) beta(j) rest_(m-n-j)
      + sum_{j>=0}  C(-j-1, n-1) rest_(m-n-j) beta(j),

    the two halves of the normally-ordered product of the n-th derivative
    field of beta with the field of rest; each rest_(m') is a `mode_apply`.
    rest_(m') v has weight below F + j, so a creation j <= -F leaves it
    below the vacuum.
    """
    pieces = []
    # annihilation half: beta(j), j >= 0, hits v first and lowers every
    # weight by j
    hits = _annihilations(beta, v.num)
    for j in (0, *hits):
        w = v._with(hits[j], v.den) if j else heisenberg_apply(beta, 0, v)
        if not w.is_zero():
            pieces.append((_binom_general(-j - 1, n - 1), mode_apply(rest, m - n - j, w)))
    # creation half: beta(j) for -n >= j > -F, applied last
    for j in range(-n, -F, -1):
        inner = mode_apply(rest, m - n - j, v)
        if not inner.is_zero() or inner.truncated:
            pieces.append((_binom_general(-j - 1, n - 1), heisenberg_apply(beta, j, inner)))
    flagged = any(piece.truncated for _, piece in pieces)
    return v._with(*_lincomb([(c, piece.num, piece.den) for c, piece in pieces]), flagged)


def _basis_coords(lat: Lattice, p: int) -> tuple[int, ...]:
    return tuple(lat.den if q == p else 0 for q in range(lat.rank))


def mode_apply(a: StateVector, m, v: StateVector) -> StateVector:
    """m-th mode of the field of a applied to v, extended linearly in a.

    The states of a are applied by prefix groups: every state b_p(-n) rest
    (b_p(-n) its first mode) is keyed by (n, rest), and the numerators c_p
    of a key make one pairing vector beta = sum_p c_p b_p (coordinate
    c_p den at p).  The groups whose rest is the vacuum or one mode on it
    (H, and the quadratic part of a conformal vector, one per rest b_q(-1))
    share one `_vacuum_modes` pass; each other group, beta(-n) and the
    one-state vector rest, costs one `_prefix_mode_apply`, which sends rest
    back here, with F from one scan of v.  The bare exponentials of a share
    one pass (`_exp_modes`), and the vacuum's field is the identity.
    """
    if a.lattice != v.lattice:
        raise ValueError("operator and argument live over different lattices")
    lat = v.lattice
    m = _exact(m)
    groups: dict[tuple[int, FockState], list[int]] = {}
    exps = []
    pieces = []
    for s, c in a.num.items():
        if not s.modes:
            if any(s.point):
                exps.append((s.point, c))
            elif m == -1:
                pieces.append((c, v))
            continue
        p, n = s.modes[0]
        key = (n, FockState(s.point, s.modes[1:]))
        beta = groups.get(key)
        if beta is None:
            beta = groups[key] = [0] * lat.rank
        beta[p] = c * lat.den
    if exps:
        pieces.append((1, _exp_modes(exps, m, v)))
    vacuum_groups, top = [], None
    for (n, rest), beta in groups.items():
        if len(rest.modes) < 2 and not any(rest.point):
            second = (y for p, t in rest.modes for y in (_basis_coords(lat, p), t))
            vacuum_groups.append((tuple(beta), n, *second))
            continue
        if top is None:
            # F = floor(wv + wt(beta(-n) rest) - m), with 2den wv the largest
            # a.a + 2den (mode weight) over the states of v; mode weights are ints
            bound = _floor_bound(lat, -m)
            q = 2 * lat.den
            top = max((_dot(s.point, s.point) + q * _mode_weight(s) for s in v.num), default=0)
        F = bound(top + _dot(rest.point, rest.point)) + n + _mode_weight(rest)
        # at v's truncation, not a's: the children drop creations where v's passes do
        rest = a._with({rest: 1}, 1, False, v.truncation)
        pieces.append((1, _prefix_mode_apply(beta, n, rest, m, v, F)))
    if vacuum_groups:
        pieces.append((1, _vacuum_modes(vacuum_groups, m, v)))
    flagged = a.truncated or v.truncated or any(piece.truncated for _, piece in pieces)
    num, den = _lincomb([(c, piece.num, a.den * piece.den) for c, piece in pieces])
    return v._with(num, den, flagged, min(a.truncation, v.truncation))


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
    E = StateVector(lat, T, {FockState(_basis_coords(lat, p), ()): 1 for p in range(k)})
    F = StateVector(lat, T, {FockState(lat.negate(s.point), ()): 1 for s in E.num})
    return H, E, F


def _omegas(k: int, H, E, F) -> dict[str, StateVector]:
    """omega_aff, omega_h and omega_para, as in `conformal_vectors`."""
    hh = mode_apply(H, -1, H)
    omega_aff = (
        hh.scale(Fraction(1, 2)) + mode_apply(E, -1, F) + mode_apply(F, -1, E)
    ).scale(Fraction(1, 2 * (k + 2)))
    omega_h = hh.scale(Fraction(1, 4 * k))
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


def _identities(cases) -> tuple[list, bool]:
    """Report entries for the vector identities got == want of the (name,
    got, want) cases, and whether any vector compared was truncated.  A
    failing entry's witness shows both sides."""
    entries = []
    truncated = False
    for name, got, want in cases:
        truncated = truncated or got.truncated or want.truncated
        sides = None
        if got != want:
            sides = {"got": got.canonical_text(), "want": want.canonical_text()}
        entries.append((name, sides is None, sides))
    return entries, truncated


def ope_check(k: int, truncation=4) -> Report:
    """The defining bracket relations of the level-k generators: all twelve
    products A_0 B, A_1 B for A, B in {H, E, F}.  A truncation below 1
    would drop H = gamma(-1)1 but not E and F, which are built directly, and
    fail falsely, so it is raised to 1.  At T >= 1 no term is dropped: the
    0- and 1-modes of weight-one fields never raise weight."""
    T = _rat(max(truncation, 1))
    H, E, F = sl2_generators(k, T)
    vac = StateVector.vacuum(H.lattice, T)
    zero = StateVector(H.lattice, T)
    entries, truncated = _identities([
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
    ])
    return make_report(
        "ope",
        {"k": k, "truncation": T},
        entries,
        identity="level-k sl2 bracket relations of H, E, F",
        truncated=truncated,
    )


def singular_vector_check(w: StateVector, omega: StateVector) -> Report:
    """Whether w is annihilated by the raising Virasoro modes of omega."""
    zero = StateVector(w.lattice, w.truncation)
    entries, truncated = _identities(
        (f"L({n})w=0", virasoro_mode(omega, n, w), zero) for n in (1, 2)
    )
    if w.is_zero():
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
    weight-(k+1) power and is raised to k + 2.  At T >= k + 2 no term is
    dropped: every vector compared has weight at most k + 1."""
    T = _rat(k + 2 if truncation is None else max(truncation, k + 2))
    H, E, F = sl2_generators(k, T)
    lat = E.lattice
    v = StateVector.vacuum(lat, T)
    for _ in range(k):
        v = mode_apply(E, -1, v)
    zero = StateVector(lat, T)
    nonzero = not v.is_zero()
    entries, truncated = _identities([
        ("H0 (E-1)^k 1 = 2k (E-1)^k 1", mode_apply(H, 0, v), v.scale(2 * k)),
        ("H1 (E-1)^k 1 = 0", mode_apply(H, 1, v), zero),
        ("H2 (E-1)^k 1 = 0", mode_apply(H, 2, v), zero),
        ("(E-1)^(k+1) 1 = 0", mode_apply(E, -1, v), zero),
    ])
    return make_report(
        "ek-power",
        {"k": k, "truncation": T},
        [("(E-1)^k 1 != 0", nonzero, None if nonzero else {"got": "0"})] + entries,
        identity="highest power of E(-1) on the vacuum and its Heisenberg eigenvalue",
        truncated=truncated,
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
    vac = StateVector.vacuum(lat, T)
    entries, truncated = _identities([
        ("coefficient of z^(-2/k) is the vacuum", exp_mode_apply((2,), m0, v), vac),
        (
            "coefficient of z^(1-2/k) is (1/k) gamma(-1)1",
            exp_mode_apply((2,), m0 - 1, v),
            heisenberg_apply(lat.gamma(), -1, vac).scale(Fraction(1, k)),
        ),
    ])
    return make_report(
        "intertwiner-leading",
        {"k": k, "truncation": T},
        entries,
        identity="leading coefficients of the coset-shift intertwiner",
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# orbit coordinates
# ---------------------------------------------------------------------------


def _columns(s: FockState) -> list[tuple[int, tuple[int, ...]]]:
    """The columns of s: per direction p, (point[p], the mode numbers in
    direction p)."""
    ns: list[list[int]] = [[] for _ in s.point]
    for p, n in s.modes:
        ns[p].append(n)
    return list(zip(s.point, map(tuple, ns)))


def _from_columns(cols) -> FockState:
    return FockState(
        tuple(x for x, _ in cols), tuple((p, n) for p, (_, ns) in enumerate(cols) for n in ns)
    )


def _symmetry(lat: Lattice, vectors) -> tuple[int, ...]:
    """The block sizes b1, b2, ... of the group S_b1 x S_b2 x ... fixing every
    vector: directions p and p+1 share a block when swapping their columns
    leaves each vector unchanged, and these swaps generate each block's
    symmetric group."""
    blocks = [1]
    for p in range(lat.rank - 1):
        if all(v.num.get(_swap(s, p)) == c for v in vectors for s, c in v.num.items()):
            blocks[-1] += 1
        else:
            blocks.append(1)
    return tuple(blocks)


def _swap(s: FockState, p: int) -> FockState:
    """s with its columns p and p+1 exchanged."""
    cols = _columns(s)
    cols[p], cols[p + 1] = cols[p + 1], cols[p]
    return _from_columns(cols)


def _representative(s: FockState, blocks) -> FockState:
    """The representative of the orbit of s: its columns sorted inside each
    block."""
    cols = _columns(s)
    lo = 0
    for b in blocks:
        cols[lo:lo + b] = sorted(cols[lo:lo + b])
        lo += b
    return _from_columns(cols)


def _key(s: FockState) -> bytes:
    """A bytes key that compares as s does: the point, each coordinate
    offset by 128, then two bytes (p, n) per mode.  The point has one byte
    per direction, so a longer mode tuple extends its key as it extends the
    tuple; `bytes` raises rather than wraps a value outside 0..255.  Bytes
    cache their hash and compare by memcmp."""
    return bytes([a + 128 for a in s.point] + [x for mode in s.modes for x in mode])


def _fold(lat: Lattice, blocks, num: dict) -> dict[bytes, int]:
    """The orbit totals of num, keyed by the `_key` of each representative:
    each coefficient added onto the representative of its state, zero
    totals dropped.  Per group, lat.memo holds one pair of tables: each
    state's key, and each key's representative for `_unfold`."""
    tables = lat.memo.get((_fold, blocks))
    if tables is None:
        tables = lat.memo[(_fold, blocks)] = ({}, {})
    keys, states = tables
    acc: dict[bytes, int] = {}
    for s, c in num.items():
        x = keys.get(s)
        if x is None:
            r = _representative(s, blocks)
            x = keys[s] = _key(r)
            states[x] = r
        acc[x] = acc.get(x, 0) + c
    return {x: c for x, c in acc.items() if c} if 0 in acc.values() else acc


def _unfold(lat: Lattice, blocks, row: dict) -> dict[FockState, int]:
    """row, keyed by `_fold`'s keys, keyed by the representatives again."""
    states = lat.memo[(_fold, blocks)][1]
    return {states[x]: c for x, c in row.items()}


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


class GradedBasis(NamedTuple):
    """Exact graded basis of a module realized in the Fock space, in orbit
    coordinates of the group S_b1 x S_b2 x ... with block sizes ``blocks``
    that `generated_subspace` works out: it permutes the lattice basis
    inside consecutive blocks and fixes every vector of the module.

    A layer vector is stored by its orbit totals on representatives, w_r
    the sum of its Fock coefficients over the orbit of r: the primitive
    integer row of the layer's elimination (denominator 1, positive at its
    least state).  `commutant_kernel` returns vectors in the same form; the
    Fock vector of w puts w_r / |O(r)| on each state of the orbit of r.
    Every row is charge-homogeneous, and ``charges`` holds the
    gamma(0)-eigenvalue of each, in the order of ``layers``.
    ``aff_offset`` is the constant difference between the ambient (lattice)
    weight and the weight defined by the realized conformal vector:
    i(k-i)/4(k+2) for `affine_module_basis`, 0 for a bare
    `generated_subspace` basis.  The basis is an immutable named tuple, so
    a field is changed only by `_replace`, which returns a new basis.

    ``budget``, when set, maps each charge lam to an ambient weight bound
    t(lam), and the basis was built inside the charge cone of that budget
    (see `generated_subspace`): charge lam is complete up to t(lam), other
    charges and weights only in part.  `bound` says how far a charge may be
    read and the kernels read no further, and `charge_dims` reports only
    the (weight, charge) pairs inside the budget.
    """

    lattice: Lattice
    truncation: Fraction
    layers: dict[Fraction, list[StateVector]]
    charges: dict[Fraction, list[int]]
    blocks: tuple[int, ...]
    aff_offset: Fraction = Fraction(0)
    truncated: bool = False
    budget: dict[int, Fraction] | None = None

    def bound(self, charge: int) -> Fraction:
        """The ambient weight up to which the charge is complete: its budget,
        or the truncation when there is none; raises ValueError for a charge
        the budget does not hold."""
        if self.budget is None:
            return self.truncation
        if charge not in self.budget:
            raise ValueError(f"charge {charge} lies outside the budget {sorted(self.budget)}")
        return self.budget[charge]

    def charge_dims(self) -> dict[tuple[Fraction, int], int]:
        """Dimensions resolved by (weight relative to the realized conformal
        vector, gamma(0)-eigenvalue); with a budget, only the pairs inside
        it, each charge up to its bound."""
        budget = self.budget
        out: dict[tuple[Fraction, int], int] = {}
        for w, charges in sorted(self.charges.items()):
            for q in charges:
                if budget is None or (q in budget and w <= budget[q]):
                    key = (w - self.aff_offset, q)
                    out[key] = out.get(key, 0) + 1
        return out


def _cone(budget: dict[int, Fraction], step: int, w: Fraction) -> set[int]:
    """The charges q a row of weight w may have and still feed some budgeted
    charge lam by weight t(lam): |q - lam| <= step floor(t(lam) - w), step the
    largest generator charge."""
    out: set[int] = set()
    for lam, t in budget.items():
        if t >= w:
            r = step * floor(t - w)
            out.update(range(lam - r, lam + r + 1))
    return out


def generated_subspace(generators, max_weight, seeds=None, budget=None) -> GradedBasis:
    """Span of iterated lowering modes g(-t), t >= 1, of the generators
    applied to the seed vectors, graded by ambient weight up to max_weight.

    The generators must be weight-one states whose 0-mode brackets a(0)b
    span exactly the span of the generators, as H, E, F do ([sl2, sl2] =
    sl2).  Then [a(-1), b(-t)] = (a(0)b)(-t-1) makes every g(-t) a sum of
    commutators of (-1)-modes, so layer w is spanned by the (-1)-modes of
    the generators applied to layer w-1, and only those are applied.  A
    generating set failing the condition (say [H] alone, which is abelian)
    raises ValueError.  The seeds must share one weight, at most max_weight,
    as the vacuum and the F(0)-orbit of a top level do.  Generators and
    seeds must each have one charge (gamma(0)-eigenvalue), as H, E, F
    (charges 0, 2, -2) and the top-level seeds of `affine_module_basis` do;
    then every candidate g(-1) v has the charge of v plus that of g, known
    before it is built.  The elimination never mixes charges: a row is
    reduced only against pivots on its own states, which share its charge.
    So every layer row is charge-homogeneous, and the charge-q rows of
    layer w are the reduced span of the charge-q candidates alone.

    ``budget`` maps charges lam to ambient weight bounds t(lam) <=
    max_weight.  A row of layer w and charge q reaches charge lam by weight
    t(lam) only through floor(t(lam) - w) more (-1)-modes, each moving the
    charge by at most step, the largest generator charge; so g(-1) is
    applied to v only where the candidate's charge lies in the cone of
    layer w, the charges q with |q - lam| <= step floor(t(lam) - w) for some
    lam, worked out once per layer.  A row outside the cone never feeds a
    budgeted charge below its bound, and candidates of other charges never
    touch the elimination of charge q, so every budgeted charge is built up
    to its bound exactly as without a budget (rows, order and all).  The
    basis records the budget (see `GradedBasis`).  Without a budget the
    same loop builds every charge.

    The span is built in orbit coordinates of the group `_symmetry` works
    out: the permutations of the lattice basis inside consecutive blocks
    that fix every generator and seed (the vacuum seed gives S_rank).  So
    every vector of the span is invariant, and each is stored by its orbit
    totals on representatives (see `GradedBasis`).  For an invariant
    operator A the orbit totals of A v are sum_r w_r fold(A r), fold adding
    each output coefficient onto the representative of its state, so g(-1)
    is applied to the representatives and each candidate is folded before
    it is reduced.  v -> w is a bijection on invariant vectors, so the layer
    dimensions do not depend on the group.
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
    if budget is not None:
        budget = {q: _rat(t) for q, t in budget.items()}
        if not budget or max(budget.values()) > T:
            raise ValueError(f"need a nonempty budget with every bound at most {T}")
    if seeds is None:
        seeds = [StateVector.vacuum(lat, T)]
    blocks = _symmetry(lat, [*generators, *seeds])
    seeds = [s._with(s.num, s.den, truncation=T) for s in seeds]
    # gamma = (den, ..., den), so a charge <gamma, point> / den is an int
    gen_charges = [int(g.charge()) for g in generators]
    step = max(map(abs, gen_charges))
    # per weight: the echelon of the layer, its rows as den-1 vectors and
    # their charges
    echelons: dict[Fraction, dict] = {}
    layers: dict[Fraction, list[StateVector]] = {}
    charges: dict[Fraction, list[int]] = {}
    truncated = any(s.truncated for s in seeds)

    def insert(w, v: StateVector, q: int) -> None:
        r = _insert(echelons.setdefault(w, {}), _fold(lat, blocks, v.num))
        if r:
            layers.setdefault(w, []).append(v._with(_unfold(lat, blocks, r), 1))
            charges.setdefault(w, []).append(q)

    seed_weights = set().union(*(s.weights() for s in seeds))
    if len(seed_weights) != 1:
        raise ValueError("seed vectors must share one weight")
    w0, = seed_weights
    if w0 > T:
        raise ValueError(f"seed weight {w0} lies above max_weight {T}")
    for s in seeds:
        insert(w0, s, int(s.charge()))
    for d in range(1, int(T - w0) + 1):
        w = w0 + d
        cone = None if budget is None else _cone(budget, step, w)
        # the previous layer's insertion order keeps the fill-in low (ROADMAP)
        for v, qv in zip(layers.get(w - 1, ()), charges.get(w - 1, ())):
            for g, qg in zip(generators, gen_charges):
                q = qv + qg
                if cone is None or q in cone:
                    cand = mode_apply(g, -1, v)
                    truncated = truncated or cand.truncated
                    insert(w, cand, q)
    return GradedBasis(
        lattice=lat, truncation=T, layers=layers, charges=charges, blocks=blocks,
        truncated=truncated, budget=budget,
    )


def affine_module_basis(k: int, i: int, max_weight, budget=None) -> GradedBasis:
    """Realization of the i-th level-k affine module inside the (dual) Fock
    space: seeded by the minimal-norm symmetrized top level over the coset
    with the first i half-unit coordinates odd, then closed under lowering
    modes of H, E, F.  `generated_subspace` builds the basis in orbit
    coordinates of the group it works out from the seeds, H, E and F:
    S_i x S_(k-i), permuting the lattice basis inside p < i and p >= i.
    With a budget (charge -> ambient weight bound, each at most max_weight)
    only the charge cone of the budget is built.  ``aff_offset`` is the
    closed form i(k-i)/4(k+2), set by `_replace` on the bare basis of
    `generated_subspace`: the top level has ambient weight i/4 and
    omega_aff weight i(i+2)/4(k+2), which the tests measure."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}")
    T = _rat(max_weight)
    if T < Fraction(i, 4):
        raise ValueError(f"truncation {T} lies below the top level i/4 = {Fraction(i, 4)}")
    # H = gamma(-1)1 needs T1 >= 1; generated_subspace cuts at T
    T1 = max(T, Fraction(1))
    H, E, F = sl2_generators(k, T1)
    cur = StateVector.exponential(H.lattice, tuple(1 if p < i else 0 for p in range(k)), T1)
    seeds = [cur]
    for _ in range(i):
        cur = mode_apply(F, 0, cur)
        if cur.is_zero():
            raise AssertionError("top level closed too early")
        seeds.append(cur)
    if not mode_apply(F, 0, cur).is_zero():
        raise AssertionError("top level did not close")
    basis = generated_subspace([H, E, F], T, seeds=seeds, budget=budget)
    return basis._replace(aff_offset=Fraction(i * (k - i), 4 * (k + 2)))


def _echelon(rows) -> dict:
    ech: dict = {}
    for row in rows:
        _insert(ech, _integral(row)[0])
    return ech


def rank(rows) -> int:
    """Rank of the sparse system rows . x = 0 (entries int or Fraction), by
    forward elimination alone."""
    return len(_echelon(rows))


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace basis of the sparse constraint system rows . x = 0 over the
    rationals (entries int or Fraction), one Fraction vector per free column
    f with x_f = 1: the reduced row echelon basis with canonical
    (smallest-column) pivots.  Elimination runs on integer rows; fractions
    appear only in the returned vectors."""
    ech = _echelon(rows)
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
    the coset weight, those candidate vectors and, per candidate, its
    images under gamma(m) for every m >= 1, keyed by bytes([m]) and the
    `_key` of the state, one bytes key ordered as (m, state).  The
    candidates are the layer's primitive integer rows, so the kernel
    vectors sum_t x_t cands[t] are the solutions x of the system whose
    columns are the images.  gamma is fixed by the basis's group, so the
    images are folded: an invariant vector vanishes exactly when its orbit
    totals do.  The charge is read up to `GradedBasis.bound`, which raises
    ValueError for a charge outside the basis's budget."""
    lat = basis.lattice
    gamma = lat.gamma()
    heis = Fraction(charge * charge, 2 * lat.norm(gamma))
    bound = basis.bound(charge)
    for w, rows in sorted(basis.layers.items()):
        if w > bound:
            break
        cands = [v for v, q in zip(rows, basis.charges[w]) if q == charge]
        if not cands:
            continue
        # gamma(m) acts only through the modes b_p(-m) present
        images = [
            {bytes([m]) + x: c for m, img in _annihilations(gamma, v.num).items()
             for x, c in _fold(lat, basis.blocks, img).items()}
            for v in cands
        ]
        yield w - basis.aff_offset - heis, cands, images


def commutant_kernel(basis: GradedBasis, charge: int) -> dict[Fraction, list[StateVector]]:
    """Per-weight kernel of the non-negative gamma-modes at the given
    gamma(0)-eigenvalue: the graded pieces of the coset multiplicity module.

    Keys are the absolute coset weights: ambient weight minus the affine
    offset minus the Heisenberg contribution charge^2/(2 <gamma,gamma>).
    At each weight the vectors are the reduced-echelon nullspace basis over
    that weight's candidates: each has coefficient 1 on its own free
    candidate and 0 on the other free ones.  Like the layers, they are
    orbit totals on the representatives of the basis's group (see
    `GradedBasis`).
    """
    out: dict[Fraction, list[StateVector]] = {}
    zero = StateVector(basis.lattice, basis.truncation)
    for w, cands, images in _commutant_systems(basis, charge):
        # one constraint row per (m, state) over the candidates
        rows: dict[tuple, dict[int, int]] = {}
        for t, img in enumerate(images):
            for key, c in img.items():
                rows.setdefault(key, {})[t] = c
        combos = nullspace(list(rows.values()), len(cands))
        if combos:
            out[w] = [sum((cands[t].scale(c) for t, c in x.items()), zero) for x in combos]
    return out


def commutant_dims(basis: GradedBasis, charge: int) -> dict[Fraction, int]:
    """The number of `commutant_kernel(basis, charge)` vectors per weight,
    each as candidates minus the rank of their images (a row rank is a
    column rank), without building kernel vectors."""
    out: dict[Fraction, int] = {}
    for w, cands, images in _commutant_systems(basis, charge):
        dim = len(cands) - rank(images)
        if dim:
            out[w] = dim
    return out


def singular_space_dimension(k: int) -> int:
    """Dimension of the space of Virasoro singular vectors of the coset
    conformal vector inside the weight-3 slice of the commutant, the weight
    of W3: the kernel vectors minus the rank of their L(1) and L(2) images.
    omega_para is fixed by S_k, so the images of the kernel's orbit totals
    are folded, one row per kernel vector.  The basis holds charge 0 alone,
    the one the kernel reads."""
    omega = _omegas(k, *sl2_generators(k, 3))["omega_para"]
    basis = affine_module_basis(k, 0, 3, budget={0: 3})
    images = []
    for v in commutant_kernel(basis, 0).get(3, []):
        row: dict[bytes, Fraction] = {}
        for n in (1, 2):
            img = virasoro_mode(omega, n, v)
            for x, c in _fold(basis.lattice, basis.blocks, img.num).items():
                row[bytes([n]) + x] = Fraction(c, img.den)
        images.append(row)
    return len(images) - rank(images)


# ---------------------------------------------------------------------------
# randomized spot checks
# ---------------------------------------------------------------------------


def random_state_vector(
    lat: Lattice, truncation, rng: random.Random, nterms=2, max_weight=None
) -> StateVector:
    """Small pseudo-random vector in the even (lattice-point) sector, with
    weights at most max_weight (leaving creation headroom below the
    truncation when max_weight < truncation).  A negative max_weight, which
    no lattice point meets, raises ValueError."""
    T = _rat(truncation)
    W = T if max_weight is None else _rat(max_weight)
    if W < 0:
        raise ValueError(f"need max_weight >= 0, got {W}")
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
    vectors, for each of the three conformal vectors.  The samples have
    weight at most T - 2 (T < 2 raises ValueError), so no term is dropped:
    L(n) with n >= -2 raises weight by at most 2."""
    T = _rat(truncation)
    vecs = _omegas(k, *sl2_generators(k, T))
    rng = random.Random(seed)
    lat = vecs["omega_h"].lattice
    samples = [random_state_vector(lat, T, rng, max_weight=T - 2) for _ in range(2)]
    cases = []
    for name in ("omega_h", "omega_aff", "omega_para"):
        om = vecs[name]
        c = central_charge_of(om)
        # L(n)v for n = -2..2, each built once per sample
        images = [{n: virasoro_mode(om, n, v) for n in range(-2, 3)} for v in samples]
        for m, n in ((1, -1), (2, -2)):
            for idx, (v, L) in enumerate(zip(samples, images)):
                lhs = virasoro_mode(om, m, L[n]) - virasoro_mode(om, n, L[m])
                rhs = L[m + n].scale(m - n)
                if m + n == 0:
                    rhs = rhs + v.scale(Fraction((m**3 - m) * c.numerator, 12 * c.denominator))
                cases.append((f"[{name}] [L({m}),L({n})] on sample {idx}", lhs, rhs))
    entries, truncated = _identities(cases)
    return make_report(
        "virasoro-bracket",
        {"k": k, "truncation": T, "seed": seed},
        entries,
        identity="Virasoro commutation relations of the realized conformal vectors",
        truncated=truncated,
    )
