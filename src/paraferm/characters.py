"""Two-variable affine sl2 characters, coset string functions by two
independent routes, and character-level verification of the decomposition
identities.

The level-k character of the i-th integrable module is computed from the
affine Weyl alternating sum: with h = i(i+2)/4(k+2) the top weight,

  ch_i(z,q) * D(z,q)
      = sum_{n in Z} q^(n(i+1) + n^2(k+2)) (z^(i+2n(k+2)) - z^(-i-2-2n(k+2)))

  D(z,q) = (1 - z^-2) prod_{n>=1} (1-q^n)(1-z^2 q^n)(1-z^-2 q^n),

graded so that z tracks the Cartan eigenvalue and q the absolute conformal
weight (after the overall shift by q^h).  Each numerator term divided by
(1 - z^-2) is a finite symmetric z-block, so the division is exact.
`_affine_rows` divides by (1 - z^-2) and the (1 - z^(+-2) q^n) only, so
its int rows are those of ch_i x prod_{n>=1} (1-q^n); `affine_sl2_char`
divides by the (1 - q^n) too and makes a ZQSeries.

String functions are extracted from one charge slice (Kac-Peterson): the
z^m slice of ch_i is c^i_(m mod 2k) q^(m^2/4k) / prod_{n>=1} (1-q^n), so
row m, at the least |m| of the string's class and read from h - m^2/4k, is
the string, cut at T from a character read m^2/4k above T by `_strings`,
the one reader, which also sums the rows.  Every series the reader and the
decomposition check handle lies on the grid h + Z: those column sums, each
string (offset h - m^2/4k) and each theta_(i-2j) x string_j.  So the reader
returns int lists, each with the offset of its first entry, and the check
compares the column sums with sum_j theta_(i-2j) x string_j entry by entry,
which reads every other slice of the class; no check takes supplied
strings.  One private converter, `_series`, turns the int form into the
QSeries that `string_function` and `all_string_functions` hand out.
The string ints must also agree with the kernel dimensions computed in the
Fock realization (`string_dual_route_check`), which is the central oracle
of the whole suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

from . import lattice_fock
from .errors import BadLabel, IdentityFailed
from .qseries import QSeries, ZQSeries, _grid_product, _rat, coset_theta
from .report import Report, make_report


def affine_top_weight(k: int, i: int) -> Fraction:
    return Fraction(i * (i + 2), 4 * (k + 2))


def _affine_rows(k: int, i: int, T) -> tuple[list[Fraction], dict[int, list[int]]]:
    """The character of the i-th integrable level-k module times
    prod_{n>=1} (1-q^n), below T, as int rows z -> [c_0, ..., c_E], c_e the
    coefficient of z^z q^(h+e), and the exponents h + e, e = 0..E (both
    empty when T <= h)."""
    if k < 1 or not 0 <= i <= k:
        raise BadLabel(f"no integrable module (k={k}, i={i})")
    T = _rat(T)
    h = affine_top_weight(k, i)
    Trel = T - h
    if Trel <= 0:
        return [], {}
    # relative to h every exponent is an integer e = 0..E
    E = ceil(Trel) - 1
    rows: dict[int, list[int]] = {}
    nbound = isqrt(int(Trel)) + 2
    for n in range(-nbound - 1, nbound + 2):
        dep = n * (i + 1) + n * n * (k + 2)
        if dep > E:
            continue
        a = i + 2 * n * (k + 2)
        # (z^a - z^(-a-2)) / (1 - z^-2) is the symmetric block of span a
        if a >= 0:
            sign, span = 1, a
        else:
            sign, span = -1, -a - 2
        for t in range(span + 1):
            rows.setdefault(span - 2 * t, [0] * (E + 1))[dep] += sign
    _grid_product(rows, [(a, n) for n in range(1, E + 1) for a in (2, -2)], E)
    return [h + e for e in range(E + 1)], rows


def affine_sl2_char(k: int, i: int, T) -> ZQSeries:
    """Character of the i-th integrable level-k module, graded by (Cartan
    eigenvalue, absolute conformal weight), truncated at q-exponent T: the
    rows of `_affine_rows` divided by prod_{n>=1} (1-q^n)."""
    exps, rows = _affine_rows(k, i, T)
    _grid_product(rows, [(0, n) for n in range(1, len(exps))], len(exps) - 1)
    return ZQSeries((((z, e), c) for z, row in rows.items() for e, c in zip(exps, row)), T)


# a series on o + Z as (o, [c_0, c_1, ...]), c_e the coefficient of q^(o + e)
_Ints = tuple[Fraction, list[int]]


def _min_charge_rep(k: int, i: int, j: int) -> int:
    """The charge m of least |m| in the class i-2j mod 2k (m = k, not -k)."""
    s = (i - 2 * j) % (2 * k)
    return s if s <= k else s - 2 * k


def _strings(k: int, i: int, js, T) -> tuple[_Ints, list[_Ints]]:
    """The one reader of strings, on ints: from the int rows of module i
    read at T plus the largest m^2/4k over the least charges m of js, the
    column sums (the z = 1 series times prod_{n>=1} (1-q^n)) as (h, ints)
    and the (i, j) string of each j in js, row m, as (h - m^2/4k, ints).
    A pair (o, c) stands for sum_e c[e] q^(o + e), one entry per step below
    T.  A string with a negative entry, or whose first nonzero entry is not
    1, raises IdentityFailed."""
    if k < 1 or not 0 <= i <= k:
        raise BadLabel(f"no integrable module (k={k}, i={i})")
    T = _rat(T)
    ms = [_min_charge_rep(k, i, j) for j in js]
    _, rows = _affine_rows(k, i, T + max(Fraction(m * m, 4 * k) for m in ms))
    h = affine_top_weight(k, i)
    z1 = (h, [sum(col) for col in zip(*rows.values())][: max(ceil(T - h), 0)])
    strings = []
    for j, m in zip(js, ms):
        offset = h - Fraction(m * m, 4 * k)
        # the entries e with offset + e < T; row m reaches that far
        n = max(ceil(T - offset), 0)
        string = rows.get(m, [0] * n)[:n]
        for e, c in enumerate(string):
            if c < 0:
                raise IdentityFailed(
                    f"string (k={k}, i={i}, j={j}) has coefficient {c} < 0 at {offset + e}"
                )
        lead = next((c for c in string if c), 1)
        if lead != 1:
            raise IdentityFailed(
                f"string (k={k}, i={i}, j={j}) has leading coefficient {lead} != 1"
            )
        strings.append((offset, string))
    return z1, strings


def _series(offset: Fraction, ints: list[int], T) -> QSeries:
    """The QSeries sum_e ints[e] q^(offset + e) truncated at T, every
    entry below T: the one converter from the int form of `_strings` to
    the series the public string functions hand out."""
    return QSeries._normal({offset + e: Fraction(c) for e, c in enumerate(ints) if c}, _rat(T))


def string_function(k: int, i: int, j: int, T) -> QSeries:
    """The (i, j) string, the character of the coset module labelled
    (i, j mod k), read from one charge slice: with m the least charge of the
    class i-2j mod 2k, the z^m slice of ch_i times q^(-m^2/4k) and Euler's
    function prod_{n>=1} (1-q^n), exact below T and truncated there."""
    return _series(*_strings(k, i, [j], T)[1][0], T)


def all_string_functions(k: int, i: int, T) -> list[QSeries]:
    """The k strings of module i, indexed by j, each exact below T and
    truncated there, read from one character."""
    return [_series(*string, T) for string in _strings(k, i, range(k), T)[1]]


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------


def decomposition_check_lki(k: int, i: int, max_weight) -> Report:
    """Exact equality of graded dimensions: the full module character at
    z = 1 equals the sum over j of (coset character) x (string function).
    The character and the k strings are one read, so every charge slice the
    strings need is exact below max_weight.

    Both sides lie on h + Z and are compared as int lists, entry by entry,
    each times prod_{n>=1} (1-q^n), which starts with 1: the column sums of
    `_strings` with sum_j theta_(i-2j) x string_j, theta from `coset_theta`.
    String j starts at h - m^2/4k, m the least charge of its class, and every
    exponent m'^2/4k of theta, m' in that class, exceeds m^2/4k by an
    integer.  Only a failing entry divides both sides by that product, up to
    it, for a witness of graded dimensions in Fractions."""
    T = _rat(max_weight)
    (h, lhs), strings = _strings(k, i, range(k), T)
    n = len(lhs)
    rhs = [0] * n
    for j, (offset, string) in enumerate(strings):
        # shift = m^2/4k: q^(m'^2/4k) x string_j starts d = m'^2/4k - shift
        # steps above h
        shift = h - offset
        for e, c in coset_theta(k, (i - 2 * j) % (2 * k), shift + n).terms.items():
            d, c = int(e - shift), c.numerator
            for x, y in zip(range(d, n), string):
                rhs[x] += c * y
    bad = next((e for e in range(n) if lhs[e] != rhs[e]), None)
    witness = None
    if bad is not None:
        dims = _grid_product({0: lhs[: bad + 1], 1: rhs[: bad + 1]},
                             [(0, p) for p in range(1, bad + 1)], bad)
        witness = {
            "first_failing_exponent": h + bad,
            "lhs": Fraction(dims[0][bad]),
            "rhs": Fraction(dims[1][bad]),
        }
    return make_report(
        "lki-decomposition" if i else "lk0-decomposition",
        {"k": k, "i": i, "max_weight": T},
        [(f"module {i} decomposition to weight {T}", bad is None, witness)],
        identity="graded dimensions of the affine module equal the coset-sum",
    )


# ---------------------------------------------------------------------------
# dual route: string functions vs Fock-realization kernels
# ---------------------------------------------------------------------------


def string_dual_route_check(k: int, i: int, max_weight, j: int | None = None) -> Report:
    """Compare each string, as the ints `_strings` reads, with the kernel
    dimensions of the Fock realization, exactly, below max_weight: every
    weight where either side has a term is compared.

    With j omitted, all k strings of the sector are checked against one
    shared realization.  A disagreement is an implementation bug; its entry
    fails with the mismatching weights, ascending, as witness.

    The kernel at charge lam covers coset weights below max_weight once the
    realization holds that charge up to ambient weight t(lam) = max_weight
    + lam^2/4k + i(k-i)/4(k+2), the Heisenberg part and the affine offset
    added back.  Only the charges lam of the checked strings are read, so
    the basis is built inside the charge cone of that budget: H, E and F
    have charges 0, +2 and -2, so a row of weight w and charge q can feed
    charge lam by weight t(lam) only if |q - lam| <= 2 floor(t(lam) - w).
    Rows are charge-homogeneous and the elimination never mixes charges,
    so each read charge is built exactly as in the whole module (see
    `lattice_fock.generated_subspace`).
    """
    if k < 2:
        raise BadLabel(f"no Fock realization at k={k}: need k >= 2")
    if not 0 <= i <= k:
        raise BadLabel(f"no integrable module (k={k}, i={i})")
    if j is not None and not 0 <= j < k:
        raise BadLabel(f"no string (k={k}, j={j}): need 0 <= j < k")
    T = _rat(max_weight)
    js = list(range(k)) if j is None else [j]
    lams = {jj: _min_charge_rep(k, i, jj) for jj in js}
    delta = Fraction(i * (k - i), 4 * (k + 2))
    # per read charge, the ambient weight its kernel needs to cover coset
    # weights up to T
    budget = {lam: T + Fraction(lam * lam, 4 * k) + delta for lam in lams.values()}
    # the basis holds at least the top level, i/4: a window with no coset
    # weight below T (say T <= 0) reads no kernel
    top = max(*budget.values(), Fraction(i, 4))
    basis = lattice_fock.affine_module_basis(k, i, top, budget=budget)
    entries = []
    for jj, (offset, ints) in zip(js, _strings(k, i, js, T)[1]):
        st = {offset + e: c for e, c in enumerate(ints)}
        ker = lattice_fock.commutant_dims(basis, lams[jj])
        mism = [
            {"weight": w, "string": st.get(w, 0), "kernel": ker.get(w, 0)}
            for w in sorted(st.keys() | ker.keys())
            if w < T and st.get(w, 0) != ker.get(w, 0)
        ]
        entries.append(
            (
                f"string (i={i}, j={jj}) equals kernel dimensions below {T}",
                not mism,
                None if not mism else {"mismatches": mism},
            )
        )
    return make_report(
        "string-dual-route",
        {"k": k, "i": i, "j": "all" if j is None else j, "max_weight": T},
        entries,
        identity="two independent computations of the coset graded dimensions",
        truncated=basis.truncated,
    )


def w_minimal_central_charge(k: int) -> Fraction:
    """Central charge -(k-1)((k+1)p - kq)(kp - (k+1)q)/(pq) of the (p,q)
    minimal-series W_k-algebra at (p, q) = (k+1, k+2), where it simplifies
    to 2(k-1)/(k+2)."""
    p, q = k + 1, k + 2
    return Fraction(-(k - 1) * ((k + 1) * p - k * q) * (k * p - (k + 1) * q), p * q)
