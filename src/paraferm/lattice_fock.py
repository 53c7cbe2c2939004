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

All coefficients are exact rationals.  A global weight truncation bounds
every stored state; creation results beyond it are dropped and recorded in
a sticky ``truncated`` flag (overflow is a flag, never an exception), so a
check consuming flagged vectors can only report success up to truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import comb, floor, isqrt
from typing import NamedTuple

from .errors import NonIntegralPairing
from .report import Report, make_report

DEFAULT_TRUNCATION = 8


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _accumulate(acc: dict, key, c) -> None:
    """acc[key] += c for a nonzero c; a new key stores c itself and a sum of
    zero deletes the key, so acc never holds a zero coefficient."""
    old = acc.get(key)
    if old is None:
        acc[key] = c
        return
    new = old + c
    if new:
        acc[key] = new
    else:
        del acc[key]


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

    def basis_pairing(self, beta: tuple[int, ...], p: int) -> Fraction:
        """<beta, b_p>."""
        return Fraction(beta[p] * self.gram[p], self.den)

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
def _pairing(lat: Lattice, beta, point) -> Fraction:
    return lat.pairing(beta, point)


def state_weight(lat: Lattice, s: FockState) -> Fraction:
    return _point_weight(lat, s.point) + sum(n for _, n in s.modes)


def _mode_weight(s: FockState) -> int:
    return sum(n for _, n in s.modes)


class StateVector:
    """Sparse exact-rational linear combination of Fock states.

    Immutable by convention; all operations return fresh vectors.  The
    ``truncated`` flag is sticky: it is set whenever a creation result was
    dropped for exceeding the truncation, in this vector or any ancestor.
    """

    __slots__ = ("lattice", "truncation", "terms", "truncated")

    def __init__(self, lattice: Lattice, truncation, terms=None, truncated=False):
        self.lattice = lattice
        self.truncation = _rat(truncation)
        self.terms: dict[FockState, Fraction] = {}
        self.truncated = bool(truncated)
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for s, c in items:
                c = _rat(c)
                if c:
                    _accumulate(self.terms, s, c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls, lattice: Lattice, truncation=DEFAULT_TRUNCATION) -> "StateVector":
        return cls.exponential(lattice, lattice.zero_point(), truncation)

    @classmethod
    def exponential(cls, lattice, point, truncation=DEFAULT_TRUNCATION) -> "StateVector":
        return cls(lattice, truncation, {FockState(tuple(point), ()): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set[Fraction]:
        return {state_weight(self.lattice, s) for s in self.terms}

    def max_weight(self) -> Fraction:
        return max(self.weights(), default=Fraction(0))

    def charge(self) -> Fraction:
        """gamma(0)-eigenvalue; raises if the vector mixes charges."""
        gamma = self.lattice.gamma()
        vals = {_pairing(self.lattice, gamma, point) for point in {s.point for s in self.terms}}
        if len(vals) != 1:
            raise ValueError("vector does not have a single charge")
        return vals.pop()

    def coefficient(self, state: FockState) -> Fraction:
        return self.terms.get(state, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        return hash((self.lattice, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        n = len(self.terms)
        return f"StateVector({n} terms, T={self.truncation}, truncated={self.truncated})"

    def canonical_text(self) -> str:
        """Deterministic plain-text dump: one `point | modes | coefficient`
        line per state in canonical order."""
        lines = []
        for s in sorted(self.terms):
            lines.append(f"{list(s.point)} | {list(s.modes)} | {self.terms[s]}")
        return "\n".join(lines)

    # -- linear structure ------------------------------------------------------

    def _with(self, terms: dict, truncated=None, truncation=None) -> "StateVector":
        """Internal constructor: a vector on the same lattice (by default with
        the same truncation and flag) that takes a dict built in this module
        as it is, without normalising.  The dict holds no zero coefficient and
        only Fraction values; a truncation passed in is a Fraction."""
        v = StateVector.__new__(StateVector)
        v.lattice = self.lattice
        v.truncation = self.truncation if truncation is None else truncation
        v.terms = terms
        v.truncated = self.truncated if truncated is None else truncated
        return v

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.lattice != other.lattice:
            raise ValueError("cannot add vectors over different lattices")
        acc = dict(self.terms)
        for s, c in other.terms.items():
            _accumulate(acc, s, c)
        truncation = min(self.truncation, other.truncation)
        return self._with(acc, self.truncated or other.truncated, truncation)

    def __neg__(self) -> "StateVector":
        return self._with({s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-other)

    def scale(self, c) -> "StateVector":
        c = _rat(c)
        if not c:
            return self._with({})
        return self._with({s: c * v for s, v in self.terms.items()})

    def is_multiple_of_vacuum(self):
        """The scalar c with self = c * vacuum, or None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) != 1:
            return None
        (s, c), = self.terms.items()
        if s.point == self.lattice.zero_point() and not s.modes:
            return c
        return None


# ---------------------------------------------------------------------------
# Heisenberg modes
# ---------------------------------------------------------------------------


def _insert_mode(modes: tuple, p: int, n: int) -> tuple:
    out = list(modes)
    out.append((p, n))
    out.sort()
    return tuple(out)


def _contractions(modes: tuple, n: int, bp):
    """For each distinct b_p(-n) in the sorted mode tuple with bp[p] =
    <beta, b_p> nonzero: the tuple with one copy removed, and the factor
    n <beta, b_p> times its multiplicity with which beta(n) removes it."""
    prev = None
    for idx, pm in enumerate(modes):
        # sorted, so a repeated pair directly follows its first copy
        if pm != prev and pm[1] == n and bp[pm[0]]:
            yield modes[:idx] + modes[idx + 1:], modes.count(pm) * n * bp[pm[0]]
        prev = pm


def heisenberg_apply(beta, n: int, v: StateVector) -> StateVector:
    """Apply the Heisenberg mode beta(n), beta given in lattice coordinates.

    n > 0 annihilates (contract against matching creation modes with factor
    n <beta, b_p>), n = 0 multiplies by <beta, point>, n < 0 creates; a
    creation result beyond the truncation is dropped and flagged.
    """
    lat = v.lattice
    beta = tuple(beta)
    if n > 0:
        return _annihilate([lat.basis_pairing(beta, p) for p in range(lat.rank)], n, v)
    acc: dict[FockState, Fraction] = {}
    flagged = v.truncated
    if n == 0:
        for s, c in v.terms.items():
            pair = _pairing(lat, beta, s.point)
            if pair:
                _accumulate(acc, s, c * pair)
    else:
        step = -n
        for s, c in v.terms.items():
            if state_weight(lat, s) + step > v.truncation:
                flagged = True
                continue
            for p in range(lat.rank):
                if beta[p]:
                    _accumulate(
                        acc,
                        FockState(s.point, _insert_mode(s.modes, p, step)),
                        c * Fraction(beta[p], lat.den),
                    )
    return v._with(acc, flagged)


def _annihilate(bp, n: int, v: StateVector) -> StateVector:
    """beta(n) for n >= 1, beta given by its pairings bp[p] = <beta, b_p>."""
    acc: dict[FockState, Fraction] = {}
    for s, c in v.terms.items():
        for rest, f in _contractions(s.modes, n, bp):
            _accumulate(acc, FockState(s.point, rest), c * f)
    return v._with(acc)


# ---------------------------------------------------------------------------
# lattice vertex operators Y(e^beta, z)
# ---------------------------------------------------------------------------


@_per_lattice
def _annihilation_layers(lat, beta, modes: tuple):
    """Annihilation half of the exponential field on one mode tuple: layer b
    collects the z^(-b) part as a map (surviving modes) -> coefficient.

    T_0 = id, T_b = -(1/b) sum_{t=1..b} beta(t) T_(b-t).  Independent of the
    lattice point, hence memoised per (beta, modes).
    """
    bp = [lat.basis_pairing(beta, p) for p in range(lat.rank)]
    mw = sum(n for _, n in modes)
    layers: list[dict[tuple, Fraction]] = [{modes: Fraction(1)}]
    for b in range(1, mw + 1):
        acc: dict[tuple, Fraction] = {}
        for t in range(1, b + 1):
            for mds, c in layers[b - t].items():
                for rest, f in _contractions(mds, t, bp):
                    _accumulate(acc, rest, c * f)
        layers.append({m: v / -b for m, v in acc.items()})
    return layers


@_per_lattice
def _creation_poly(lat, beta, a: int) -> dict[tuple, Fraction]:
    """Degree-a part of the creation half as a map (created modes) ->
    coefficient: S_0 = id, S_a = (1/a) sum_{t=1..a} beta(-t) S_(a-t)."""
    if a == 0:
        return {(): Fraction(1)}
    acc: dict[tuple, Fraction] = {}
    for t in range(1, a + 1):
        for mds, c in _creation_poly(lat, beta, a - t).items():
            for p in range(lat.rank):
                if beta[p]:
                    _accumulate(acc, _insert_mode(mds, p, t), c * Fraction(beta[p], lat.den))
    return {m: c / a for m, c in acc.items()}


def _merge_modes(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


@_per_lattice
def _exp_component(lat, beta, modes: tuple, d: int) -> dict[tuple, Fraction]:
    """Net-degree-d part of the normally ordered exponential expansion on one
    mode tuple: sum over b of S_(b+d) T_b, merged; every entry has mode
    weight (weight of `modes`) + d."""
    layers = _annihilation_layers(lat, beta, modes)
    acc: dict[tuple, Fraction] = {}
    for b in range(len(layers)):
        a = b + d
        if a < 0 or not layers[b]:
            continue
        cre = _creation_poly(lat, beta, a)
        for tmds, tc in layers[b].items():
            for cmds, cc in cre.items():
                _accumulate(acc, _merge_modes(tmds, cmds), tc * cc)
    return acc


def _point_pairings(lat, beta, v: StateVector) -> dict[tuple, Fraction]:
    """<beta, point> for each distinct lattice point of v; raises unless
    they agree mod 1."""
    pairs = {point: _pairing(lat, beta, point) for point in {s.point for s in v.terms}}
    if len({x % 1 for x in pairs.values()}) > 1:
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
    m = _rat(m)
    wtb = lat.point_weight(beta)
    # per lattice point: the mode weight a result may carry under the
    # truncation, the net degree d (None if fractional), the shifted point
    per_point = {}
    for point, pair in _point_pairings(lat, beta, v).items():
        d = -m - 1 - pair
        room = floor(v.truncation - _point_weight(lat, point) - wtb + m + 1)
        per_point[point] = (room, int(d) if d.denominator == 1 else None, lat.add(point, beta))
    acc: dict[FockState, Fraction] = {}
    flagged = v.truncated
    for s, c in v.terms.items():
        room, d, newpoint = per_point[s.point]
        if _mode_weight(s) > room:
            flagged = True
            continue
        if d is None:
            continue
        for mds, cc in _exp_component(lat, beta, s.modes, d).items():
            _accumulate(acc, FockState(newpoint, mds), c * cc)
    return v._with(acc, flagged)


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


def _add_scaled(acc: dict, v: StateVector, c) -> None:
    """acc += c v for a nonzero c."""
    for s, x in v.terms.items():
        _accumulate(acc, s, c * x)


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
    bp = [lat.gram[p] if q == p else 0 for q in range(lat.rank)]
    acc: dict[FockState, Fraction] = {}
    flagged = v.truncated
    # annihilation half: b_p(j) hits v first
    maxj = 0
    for s in v.terms:
        for _, nn in s.modes:
            maxj = max(maxj, nn)
    for j in range(0, maxj + 1):
        coeff = _binom_general(-j - 1, n - 1)
        if not coeff:
            continue
        w = _annihilate(bp, j, v) if j else heisenberg_apply(bcoords, 0, v)
        if w.is_zero():
            continue
        inner = _state_mode_apply(lat, rest, wrest, m - n - j, w)
        flagged = flagged or inner.truncated
        _add_scaled(acc, inner, coeff)
    # creation half: b_p(j), j <= -n, applied last
    wvmax = v.max_weight()
    j = -n
    while wvmax + wrest - m + n + j - 1 >= 0:
        coeff = _binom_general(-j - 1, n - 1)
        if coeff:
            inner = _state_mode_apply(lat, rest, wrest, m - n - j, v)
            if not inner.is_zero() or inner.truncated:
                inner = heisenberg_apply(bcoords, j, inner)
                flagged = flagged or inner.truncated
                _add_scaled(acc, inner, coeff)
        j -= 1
    return v._with(acc, flagged)


def _basis_coords(lat: Lattice, p: int) -> tuple[int, ...]:
    return tuple(lat.den if q == p else 0 for q in range(lat.rank))


def mode_apply(a: StateVector, m, v: StateVector) -> StateVector:
    """m-th mode of the field of a applied to v, extended linearly in a."""
    if a.lattice != v.lattice:
        raise ValueError("operator and argument live over different lattices")
    lat = v.lattice
    m = _rat(m)
    acc: dict[FockState, Fraction] = {}
    flagged = a.truncated or v.truncated
    for s, c in a.terms.items():
        piece = _state_mode_apply(lat, s, state_weight(lat, s), m, v)
        flagged = flagged or piece.truncated
        _add_scaled(acc, piece, c)
    return v._with(acc, flagged, min(a.truncation, v.truncation))


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


def theta_involution(v: StateVector) -> StateVector:
    """Lift of the -1 lattice isometry: e^point -> e^(-point), modes flip sign."""
    lat = v.lattice
    return v._with(
        {
            FockState(lat.negate(s.point), s.modes): -c if len(s.modes) % 2 else c
            for s, c in v.terms.items()
        }
    )


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
    )


# ---------------------------------------------------------------------------
# graded bases, generation, kernels
# ---------------------------------------------------------------------------


class _Echelon:
    """Leading-term-reduced spanning set with canonical state-order pivots."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[StateVector] = []
        self.pivots: dict[FockState, int] = {}

    def reduce(self, v: StateVector) -> StateVector:
        terms = dict(v.terms)
        while terms:
            lead = max(terms)
            idx = self.pivots.get(lead)
            if idx is None:
                break
            c = -terms[lead]
            for s, rv in self.rows[idx].terms.items():
                _accumulate(terms, s, c * rv)
        return v._with(terms)

    def insert(self, v: StateVector) -> bool:
        r = self.reduce(v)
        if r.is_zero():
            return False
        lead = max(r.terms)
        r = r.scale(1 / r.terms[lead])
        self.pivots[lead] = len(self.rows)
        self.rows.append(r)
        return True


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
    span, brackets = _Echelon(), _Echelon()
    for a in generators:
        span.insert(a)
        for b in generators:
            brackets.insert(mode_apply(a, 0, b))
    if len(brackets.rows) != len(span.rows) or any(span.reduce(r).terms for r in brackets.rows):
        raise ValueError(
            "the 0-mode brackets of the generators do not span the generators, "
            "so their (-1)-modes do not generate every lowering mode"
        )
    lat = generators[0].lattice
    T = _rat(max_weight)
    if seeds is None:
        seeds = [StateVector.vacuum(lat, T)]
    seeds = [s._with(dict(s.terms), truncation=T) for s in seeds]
    layers: dict[Fraction, _Echelon] = {}
    truncated = False

    def layer(w) -> _Echelon:
        return layers.setdefault(w, _Echelon())

    seed_weights = set()
    for s in seeds:
        ws = s.weights()
        if len(ws) != 1:
            raise ValueError("seed vectors must be weight-homogeneous")
        w = ws.pop()
        seed_weights.add(w)
        layer(w).insert(s)
    w0 = min(seed_weights)
    if any((w - w0).denominator != 1 for w in seed_weights):
        raise ValueError("seed weights must differ by integers")
    steps = int(T - w0)
    for d in range(1, steps + 1):
        w = w0 + d
        tgt = layer(w)
        for v in layer(w - 1).rows:
            for g in generators:
                cand = mode_apply(g, -1, v)
                truncated = truncated or cand.truncated
                if not cand.is_zero():
                    tgt.insert(cand)
    return GradedBasis(
        lattice=lat,
        truncation=T,
        layers={w: ech.rows for w, ech in layers.items() if ech.rows},
        truncated=truncated,
    )


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
    l0 = mode_apply(omega_aff, 1, top._with(dict(top.terms), truncation=T3))
    (s0, c0), = top.terms.items()
    aff_weight = l0.coefficient(s0) / c0
    basis.aff_offset = state_weight(lat, s0) - aff_weight
    if basis.aff_offset != Fraction(i * (k - i), 4 * (k + 2)):
        raise AssertionError(f"realized offset {basis.aff_offset} differs from i(k-i)/4(k+2)")
    return basis


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace basis of the sparse constraint system rows . x = 0 over the
    rationals; reduced row echelon with canonical (smallest-column) pivots."""
    ech: list[tuple[int, dict]] = []
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for pc, prow in ech:
            cv = r.get(pc)
            if cv:
                cv = -cv
                for c, v in prow.items():
                    _accumulate(r, c, cv * v)
        if not r:
            continue
        pc = min(r)
        inv = 1 / _rat(r[pc])
        r = {c: v * inv for c, v in r.items()}
        for idx, (opc, orow) in enumerate(ech):
            cv = orow.get(pc)
            if cv:
                cv = -cv
                new = dict(orow)
                for c, v in r.items():
                    _accumulate(new, c, cv * v)
                ech[idx] = (opc, new)
        ech.append((pc, r))
    pivots = {pc for pc, _ in ech}
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: Fraction(1)}
        for pc, r in ech:
            v = r.get(f)
            if v:
                x[pc] = -v
        out.append(x)
    return out


def commutant_kernel(basis: GradedBasis, charge: int) -> dict[Fraction, list[StateVector]]:
    """Per-weight kernel of the non-negative gamma-modes at the given
    gamma(0)-eigenvalue: the graded pieces of the coset multiplicity module.

    Keys are the absolute coset weights: ambient weight minus the affine
    offset minus the Heisenberg contribution charge^2/(2 <gamma,gamma>).
    """
    lat = basis.lattice
    gamma = lat.gamma()
    gnorm = lat.norm(gamma)
    heis = Fraction(charge * charge, 2 * gnorm)
    out: dict[Fraction, list[StateVector]] = {}
    for w, rows in sorted(basis.layers.items()):
        cands = [v for v in rows if v.charge() == charge]
        if not cands:
            continue
        constraints: dict[tuple, dict[int, Fraction]] = {}
        for t, v in enumerate(cands):
            mmax = int(w) + 1
            for m in range(1, mmax + 1):
                img = heisenberg_apply(gamma, m, v)
                for s, c in img.terms.items():
                    constraints.setdefault((m, s), {})[t] = c
        combos = nullspace(list(constraints.values()), len(cands))
        if not combos:
            continue
        kvecs = []
        for x in combos:
            vec = StateVector(lat, basis.truncation)
            for t, c in x.items():
                vec = vec + cands[t].scale(c)
            kvecs.append(vec)
        out[w - basis.aff_offset - heis] = kvecs
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
    return len(nullspace(list(constraints.values()), len(vecs)))


# ---------------------------------------------------------------------------
# randomized spot checks and enumeration oracles
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
        while budget >= 1 and rng.random() < 0.7:
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


def sector_graded_dims(lat: Lattice, sector, max_weight) -> dict[Fraction, int]:
    """Dimension of each weight slice of one lattice-coset Fock sector,
    counted by direct enumeration of points and mode partitions."""
    T = _rat(max_weight)
    sector = tuple(sector)
    points = [()]
    for r in sector:
        new = []
        bound = isqrt(int(2 * T * lat.den * lat.den / min(lat.gram))) + lat.den
        for prefix in points:
            c = r % lat.den - lat.den * (bound // lat.den + 1)
            while c <= bound:
                new.append(prefix + (c,))
                c += lat.den
        points = new
    dims: dict[Fraction, int] = {}
    for point in points:
        w0 = lat.point_weight(point)
        if w0 > T:
            continue
        n = 0
        while w0 + n <= T:
            cnt = _colored_partitions(n, lat.rank)
            dims[w0 + n] = dims.get(w0 + n, 0) + cnt
            n += 1
    return dict(sorted(dims.items()))


def _colored_partitions(n: int, colors: int) -> int:
    if n == 0:
        return 1
    table = [1] + [0] * n
    for part in range(1, n + 1):
        # `colors` independent kinds of each part size
        for _ in range(colors):
            for total in range(part, n + 1):
                table[total] += table[total - part]
    return table[n]
