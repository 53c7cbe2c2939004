"""Exact truncated power series in q with rational exponents.

A :class:`QSeries` stores a finite sparse map exponent -> coefficient with
both entries exact rationals, together with a hard truncation T: every
stored exponent is < T, and arithmetic never pretends to know more.  The
truncation of a sum or product is the minimum of the operand truncations.
A product is computed on an integer grid and converted back once per term.
A sum and a geometric multiple hand raw (key, coefficient) pairs, repeated
keys, zeros and terms at or above the truncation included, to the one
normaliser, the constructor.  The character building blocks make their
terms normal as they go (distinct exponents below T, nonzero Fraction
coefficients) and skip it; `coset_theta` is the one block read as ints,
by the decomposition check, which so runs no series arithmetic.

The module also provides the standard character building blocks: the
Heisenberg (free boson) character, the theta series of a rescaled rank-one
coset and their product (the character of a lattice coset module).

:class:`ZQSeries` is the two-variable variant graded by an integer charge
exponent in z and a rational conformal weight in q.  It exists only for the
callers of `characters.affine_sl2_char`; the strings and the z = 1 series
are read from the character's int rows.

No floating point is used anywhere; exponent and coefficient arithmetic is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt, lcm

from .errors import BadResidue, ZeroConstantTerm


def _rat(x) -> Fraction:
    """x as an exact Fraction; a float is refused rather than rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"inexact value {x!r}: pass an int or a Fraction")
    return Fraction(x)


class _Series:
    """The one normaliser and the equality of both series types: the
    constructor sums raw (key, coefficient) pairs, a dict or any iterable,
    over keys that a subclass's `_key` normalises and returns with their
    q-exponent.  Terms at or above the truncation and zero sums are dropped."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation):
        T = _rat(truncation)
        acc: dict = {}
        key_of = self._key
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            key, e = key_of(key)
            if e >= T:
                continue
            c = _rat(c)
            if not c:
                continue
            s = acc.get(key)
            s = c if s is None else s + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        self.terms = acc
        self.truncation = T

    @classmethod
    def _normal(cls, terms: dict, truncation: Fraction):
        """Internal constructor: terms already normal (distinct keys, nonzero
        Fraction coefficients, exponents below the Fraction truncation),
        stored as they are."""
        series = cls.__new__(cls)
        series.terms = terms
        series.truncation = truncation
        return series

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms


class QSeries(_Series):
    """Truncated formal series sum c_e q^e with exact rational e and c_e.

    Invariants: no stored coefficient is zero and every stored exponent is
    strictly below ``truncation``.
    """

    __slots__ = ()

    @staticmethod
    def _key(e):
        e = _rat(e)
        return e, e

    # -- basic queries ----------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the lowest term, or None if zero."""
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def __repr__(self):
        body = " + ".join(
            f"{c}*q^({e})" for e, c in sorted(self.terms.items())[:6]
        )
        more = " + ..." if len(self.terms) > 6 else ""
        return f"QSeries({body or '0'}{more}; T={self.truncation})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        return QSeries([*self.terms.items(), *other.terms.items()],
                       min(self.truncation, other.truncation))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product truncated at T, the smaller truncation, on an integer grid:
        T and both operands' exponents lie on (1/D)Z, D the lcm of their
        denominators, and each operand's coefficients are ints over the lcm
        of its coefficient denominators.  The int double loop walks `other`
        by ascending exponent and breaks at T; each output term then makes
        one Fraction pair."""
        T = min(self.truncation, other.truncation)
        D = lcm(T.denominator, *(e.denominator for e in self.terms),
                *(e.denominator for e in other.terms))
        (a, ca), (b, cb) = _on_grid(self.terms, D), _on_grid(other.terms, D)
        top = T.numerator * (D // T.denominator)
        acc: dict[int, int] = {}
        for n1, c1 in a:
            lim = top - n1
            for n2, c2 in b:
                if n2 >= lim:
                    break
                n = n1 + n2
                acc[n] = acc.get(n, 0) + c1 * c2
        return QSeries._normal(
            {Fraction(n, D): Fraction(c, ca * cb) for n, c in acc.items() if c}, T
        )

    def shift(self, delta) -> "QSeries":
        """Multiply by q^delta: exponents and truncation move together."""
        d = _rat(delta)
        return QSeries._normal({e + d: c for e, c in self.terms.items()}, self.truncation + d)

    def inverse(self) -> "QSeries":
        """Inverse, up to truncation, of a series with nonzero constant term
        and no term below q^0 (else ValueError; `divide` shifts first).

        All exponents of one series and its truncation lie on a grid (1/D)Z;
        the inverse is solved term by term on that grid.
        """
        a0 = self.terms.get(Fraction(0))
        if not a0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        if min(self.terms) < 0:
            raise ValueError(f"cannot invert a series with a term at q^{min(self.terms)}")
        D = lcm(self.truncation.denominator, *(e.denominator for e in self.terms))
        # support of the positive-exponent part, in grid units
        supp = sorted((int(e * D), c) for e, c in self.terms.items() if e > 0)
        n_grid = int(self.truncation * D)
        inv = {0: 1 / a0}
        for i in range(1, n_grid):
            s = Fraction(0)
            for ia, ca in supp:
                if ia > i:
                    break
                prev = inv.get(i - ia)
                if prev is not None:
                    s += ca * prev
            if s:
                inv[i] = -s / a0
        return QSeries({Fraction(i, D): c for i, c in inv.items()}, self.truncation)

    def divide(self, other: "QSeries") -> "QSeries":
        """Exact quotient self/other.

        The divisor may have a nonzero leading term at any exponent e0; the
        result is reliable below min(self.T, other.T) - e0.
        """
        lead = other.leading()
        if lead is None:
            raise ZeroConstantTerm("division by the zero series")
        e0, _ = lead
        return self.shift(-e0) * other.shift(-e0).inverse()


def _on_grid(terms: dict, D: int) -> tuple[list[tuple[int, int]], int]:
    """(exponent * D, coefficient * C) int pairs by ascending exponent, and C,
    the lcm of the coefficient denominators; D must clear every exponent."""
    C = lcm(*(c.denominator for c in terms.values()))
    return sorted((e.numerator * (D // e.denominator), c.numerator * (C // c.denominator))
                  for e, c in terms.items()), C


# -- character building blocks ----------------------------------------------


def _grid_product(rows: dict[int, list[int]], factors, E: int) -> dict[int, list[int]]:
    """Multiply sum rows[z][e] z^z q^e (integers e = 0..E) in place by the
    product of (1 - z^a q^n)^(-1) over (a, n) in factors, n >= 1.

    One ascending sweep per factor: rows are walked in the direction of a,
    so row z - a already holds the product when row z reads it.
    """
    for a, n in factors:
        lo, hi = min(rows), max(rows)
        reach = abs(a) * (E // n)
        for z in range(lo, hi + reach + 1) if a >= 0 else range(hi, lo - reach - 1, -1):
            src = rows.get(z - a)
            # a row that shifts out of the grid adds nothing: make no new row
            if src is None or not any(src[: E + 1 - n]):
                continue
            row = rows.setdefault(z, [0] * (E + 1))
            for e in range(n, E + 1):
                row[e] += src[e - n]
    return rows


def heisenberg_char(rank: int, T) -> QSeries:
    """Character prod_{n>=1} (1-q^n)^(-rank): rank-colored partition counts."""
    if rank < 0:
        raise ValueError("rank must be a non-negative integer")
    T = _rat(T)
    E = ceil(T) - 1
    if E < 0:
        return QSeries._normal({}, T)
    factors = [(0, n) for n in range(1, E + 1) for _ in range(rank)]
    row = _grid_product({0: [1] + [0] * E}, factors, E)[0]
    return QSeries._normal({Fraction(e): Fraction(c) for e, c in enumerate(row) if c}, T)


def coset_theta(k: int, s: int, T) -> QSeries:
    """Theta series sum_{n in Z} q^((2kn+s)^2/4k) of the coset (s/2k)-shifted
    rank-one lattice of norm 2k, truncated at T."""
    if k < 1:
        raise ValueError("level k must be a positive integer")
    if not 0 <= s < 2 * k:
        raise BadResidue(f"residue s={s} out of range 0..{2 * k - 1}")
    T = _rat(T)
    bound = 4 * k * T
    # every m = 2kn+s with m^2 < 4kT has |m| <= b (none when T <= 0); m
    # and -m may both lie in the class
    b = isqrt(max(int(bound), 0)) + 1
    squares: dict[int, int] = {}
    for m in range(-b + (s + b) % (2 * k), b + 1, 2 * k):
        if m * m < bound:
            squares[m * m] = squares.get(m * m, 0) + 1
    return QSeries._normal({Fraction(sq, 4 * k): Fraction(c) for sq, c in squares.items()}, T)


def lattice_coset_char(k: int, s: int, T) -> QSeries:
    """Graded dimensions of the coset module: theta series times the rank-one
    Heisenberg character."""
    return coset_theta(k, s, T) * heisenberg_char(1, T)


# -- two-variable series ------------------------------------------------------


class ZQSeries(_Series):
    """Series in z (integer exponents) and q (rational exponents < truncation).

    Used for characters graded by (charge, conformal weight); per q-power the
    z-support is finite.
    """

    __slots__ = ()

    @staticmethod
    def _key(key):
        z, e = key
        if isinstance(z, float) or z != int(z):
            raise ValueError(f"charge {z!r} is not an exact integer")
        e = _rat(e)
        return (int(z), e), e

    def mul_geometric_inverse(self, zexp: int, qexp) -> "ZQSeries":
        """Multiply by (1 - z^zexp q^qexp)^(-1) with qexp > 0."""
        qexp = _rat(qexp)
        if qexp <= 0:
            raise ValueError("geometric factor needs positive q-exponent")
        T = self.truncation
        return ZQSeries((((z + n * zexp, e + n * qexp), c) for (z, e), c in self.terms.items()
                         for n in range(ceil((T - e) / qexp))), T)

    def __repr__(self):
        return f"ZQSeries({len(self.terms)} terms; T={self.truncation})"
