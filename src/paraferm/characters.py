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

String functions are extracted from one charge slice (Kac-Peterson): the
z^m slice of ch_i is c^i_(m mod 2k) q^(m^2/4k) / prod_{n>=1} (1-q^n), so
the slice at the least |m| of the string's class, times q^(-m^2/4k) and
Euler's function prod_{n>=1} (1-q^n), is the string: a plain QSeries, cut
at T from a character read m^2/4k above T by `_strings`, the one reader.
The decomposition check compares that character with the sum over the
strings of (string) x (lattice-coset character), which reads every other
slice of the class; no check takes supplied strings.
The string coefficients must also agree with the kernel dimensions computed
in the Fock realization (`string_dual_route_check`), which is the central
oracle of the whole suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

from . import lattice_fock
from .errors import BadLabel, IdentityFailed
from .qseries import QSeries, ZQSeries, _grid_product, _rat, euler_function, lattice_coset_char
from .report import Report, make_report


def affine_top_weight(k: int, i: int) -> Fraction:
    return Fraction(i * (i + 2), 4 * (k + 2))


def affine_sl2_char(k: int, i: int, T) -> ZQSeries:
    """Character of the i-th integrable level-k module, graded by (Cartan
    eigenvalue, absolute conformal weight), truncated at q-exponent T."""
    if k < 1 or not 0 <= i <= k:
        raise BadLabel(f"no integrable module (k={k}, i={i})")
    T = _rat(T)
    h = affine_top_weight(k, i)
    Trel = T - h
    if Trel <= 0:
        return ZQSeries({}, T)
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
    _grid_product(rows, [(a, n) for n in range(1, E + 1) for a in (0, 2, -2)], E)
    exps = [h + e for e in range(E + 1)]
    return ZQSeries({(z, exps[e]): c for z, row in rows.items() for e, c in enumerate(row) if c}, T)


def _min_charge_rep(k: int, i: int, j: int) -> int:
    """The charge m of least |m| in the class i-2j mod 2k (m = k, not -k)."""
    s = (i - 2 * j) % (2 * k)
    return s if s <= k else s - 2 * k


def _strings(k: int, i: int, js, T) -> tuple[ZQSeries, list[QSeries]]:
    """The one reader of strings: the character of module i read at T plus
    the largest m^2/4k over the least charges m of js, and the (i, j) string
    of each j in js, truncated at T like Euler's function."""
    if k < 1 or not 0 <= i <= k:
        raise BadLabel(f"no integrable module (k={k}, i={i})")
    T = _rat(T)
    ms = [_min_charge_rep(k, i, j) for j in js]
    ch = affine_sl2_char(k, i, T + max(Fraction(m * m, 4 * k) for m in ms))
    euler = euler_function(T)
    strings = [ch.charge_slice(m).shift(Fraction(-m * m, 4 * k)) * euler for m in ms]
    for j, string in zip(js, strings):
        for e, c in string.terms.items():
            if c < 0:
                raise IdentityFailed(f"string (k={k}, i={i}, j={j}) has coefficient {c} < 0 at {e}")
        lead = string.leading()
        if lead is not None and lead[1] != 1:
            raise IdentityFailed(
                f"string (k={k}, i={i}, j={j}) has leading coefficient {lead[1]} != 1"
            )
    return ch, strings


def string_function(k: int, i: int, j: int, T) -> QSeries:
    """The (i, j) string, the character of the coset module labelled
    (i, j mod k), read from one charge slice: with m the least charge of the
    class i-2j mod 2k, the z^m slice of ch_i times q^(-m^2/4k) and Euler's
    function prod_{n>=1} (1-q^n), exact below T and truncated there."""
    return _strings(k, i, [j], T)[1][0]


def all_string_functions(k: int, i: int, T) -> list[QSeries]:
    """The k strings of module i, indexed by j, each exact below T and
    truncated there, read from one character."""
    return _strings(k, i, range(k), T)[1]


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------


def decomposition_check_lki(k: int, i: int, max_weight) -> Report:
    """Exact equality of graded dimensions: the full module character equals
    the sum over j of (coset character) x (string function), charges folded.
    The character and the k strings are one read, so every charge slice the
    strings need is exact below max_weight."""
    T = _rat(max_weight)
    ch, strings = _strings(k, i, range(k), T)
    lhs = ch.specialize_z1().truncate(T)
    rhs = QSeries({}, T)
    for j, string in enumerate(strings):
        rhs = rhs + lattice_coset_char(k, (i - 2 * j) % (2 * k), T) * string
    bad = lhs.disagreements(rhs)
    witness = None
    if bad:
        e = bad[0]
        witness = {
            "first_failing_exponent": e, "lhs": lhs.coefficient(e), "rhs": rhs.coefficient(e)
        }
    return make_report(
        "lki-decomposition" if i else "lk0-decomposition",
        {"k": k, "i": i, "max_weight": T},
        [(f"module {i} decomposition to weight {T}", not bad, witness)],
        identity="graded dimensions of the affine module equal the coset-sum",
    )


# ---------------------------------------------------------------------------
# dual route: string functions vs Fock-realization kernels
# ---------------------------------------------------------------------------


def string_dual_route_check(k: int, i: int, max_weight, j: int | None = None) -> Report:
    """Compare the string function with the kernel dimensions of the Fock
    realization, exactly, as two series below max_weight: every weight where
    either route has a term is compared.

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
    for jj, st in zip(js, _strings(k, i, js, T)[1]):
        ker = QSeries(lattice_fock.commutant_dims(basis, lams[jj]), T)
        mism = [
            {"weight": w, "string": int(st.coefficient(w)), "kernel": int(ker.coefficient(w))}
            for w in st.disagreements(ker)
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
