"""Simple-module labels for both algebras, top weights, group actions and
the identification search.

Coset side: labels (i, j) with 0 <= i <= k and j mod k, subject to the
equivalence (i, j) ~ (k-i, j-i); the canonical representatives satisfy
0 <= j < i <= k and the top weight of the class is P(i,j)/2k(k+2) with

    P(i, j) = k(i-2j) - (i-2j)^2 + 2k(i-j+1) j.

W side: unordered pairs {a, b} of residues mod k, canonically 0 <= a <= b
<= k-1, with top weight (-a^2 + a(k(2k+3) - 2b(k+1)) + b(k-b)) / 2k(k+2)
evaluated on the canonical order.

Labels are validated named tuples of ints; ``topweight_num`` is the top
weight times 2k(k+2), and every top-weight comparison here compares ints.

Both families carry a Z_k simple-current action and an order-two twist;
`identify` reconstructs the only two weight-preserving, current-equivariant
matchings between the families by the minimal-top-weight / integrality
induction, one matching per admissible image of the first current.  The
induction runs on canonical ints and fills each matching row by row; it is
held, checked and serialised as int pairs (i, j) -> (a, b), and no label is
built unless an error names it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AmbiguousIdentification, BadLabel, NoIdentification
from .report import Report, make_report


class ParaLabel(namedtuple("ParaLabel", "k i j")):
    """Canonical coset-module label: 0 <= j < i <= k, a named tuple.  It
    equals a WLabel holding the same three ints, so the two families share
    no container; no label reaches a report (json would write a list)."""

    __slots__ = ()

    def __new__(cls, k: int, i: int, j: int):
        if not (0 <= j < i <= k):
            raise BadLabel(f"non-canonical coset label ({i},{j}) at k={k}")
        return tuple.__new__(cls, (k, i, j))

    def __str__(self):
        return f"M[{self.i},{self.j}]"

    @property
    def topweight_num(self) -> int:
        """P(i,j), the top weight times 2k(k+2)."""
        k, i, j = self
        return k * (i - 2 * j) - (i - 2 * j) ** 2 + 2 * k * (i - j + 1) * j

    @property
    def topweight(self) -> Fraction:
        return Fraction(self.topweight_num, 2 * self.k * (self.k + 2))

    def twist(self) -> ParaLabel:
        """Order-two twist (i,j) -> (i, i-j)."""
        return para_normalize(self.k, self.i, self.i - self.j)

    def current(self, p: int) -> ParaLabel:
        """Fusion with the p-th simple current: (i,j) -> (i, j+p)."""
        _check_current(self.k, p)
        return para_normalize(self.k, self.i, self.j + p)


class WLabel(namedtuple("WLabel", "k a b")):
    """Canonical W-module label: unordered pair 0 <= a <= b <= k-1, a named
    tuple that equals a ParaLabel of the same ints (see ParaLabel)."""

    __slots__ = ()

    def __new__(cls, k: int, a: int, b: int):
        if not (0 <= a <= b < k):
            raise BadLabel(f"non-canonical W label ({a},{b}) at k={k}")
        return tuple.__new__(cls, (k, a, b))

    def __str__(self):
        return f"W[{self.a},{self.b}]"

    @property
    def topweight_num(self) -> int:
        """The top weight times 2k(k+2)."""
        return _w_topweight_num(*self)

    @property
    def topweight(self) -> Fraction:
        return Fraction(self.topweight_num, 2 * self.k * (self.k + 2))

    def twist(self) -> WLabel:
        """Order-two twist {a,b} -> {-a,-b}."""
        return w_label(self.k, -self.a, -self.b)

    def current(self, p: int) -> WLabel:
        """Fusion with the p-th simple current: {a,b} -> {a+p, b+p}."""
        _check_current(self.k, p)
        return w_label(self.k, self.a + p, self.b + p)


def _w_topweight_num(k: int, a: int, b: int) -> int:
    """The top weight of {a, b} times 2k(k+2), evaluated on the canonical
    order (residues mod k, the smaller in the quadratic slot)."""
    a, b = a % k, b % k
    if a > b:
        a, b = b, a
    return -(a * a) + a * (k * (2 * k + 3) - 2 * b * (k + 1)) + b * (k - b)


def _check_current(k: int, p: int) -> None:
    if not 0 <= p < k:
        raise BadLabel(f"current index {p} out of range 0..{k - 1}")


def para_normalize(k: int, i: int, j: int) -> ParaLabel:
    """Canonical representative of (i, j mod k) under (i,j) ~ (k-i, j-i)."""
    if k < 1:
        raise BadLabel(f"need k >= 1, got k={k}")
    if not 0 <= i <= k:
        raise BadLabel(f"first index {i} out of range 0..{k}")
    j %= k
    if j < i:
        return ParaLabel(k, i, j)
    return ParaLabel(k, k - i, (j - i) % k)


def w_label(k: int, a: int, b: int) -> WLabel:
    if k < 1:
        raise BadLabel(f"need k >= 1, got k={k}")
    a %= k
    b %= k
    if a > b:
        a, b = b, a
    return WLabel(k, a, b)


def enumerate_simples(k: int) -> list[ParaLabel]:
    """The k(k+1)/2 canonical coset labels, built without ParaLabel's check."""
    if k < 2:
        raise BadLabel("need k >= 2")
    return [tuple.__new__(ParaLabel, (k, i, j)) for i in range(1, k + 1) for j in range(i)]


def enumerate_w_simples(k: int) -> list[WLabel]:
    return [WLabel(k, a, b) for a in range(k) for b in range(a, k)]


# ---------------------------------------------------------------------------
# identification search
# ---------------------------------------------------------------------------


@dataclass
class Bijection:
    """One matching of the two simple-module families as canonical int
    pairs ((i, j), (a, b)), one per coset label (k, i, j) in label order,
    each with its W image (k, a, b); `to_obj` hands them to json as they are."""

    k: int
    form: str  # "form1" | "form2"
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = field(repr=False)

    def preserves_topweights(self) -> bool:
        return next(_topweight_mismatches(self.k, self.pairs), None) is None

    def to_obj(self) -> dict:
        return {"k": self.k, "form": self.form, "pairs": self.pairs}


def _topweight_mismatches(k: int, pairs):
    """Positions of the canonical int pairs ((i, j), (a, b)) whose P(i, j)
    and W numerator differ: the labels' topweight_num, regrouped, on ints."""
    w_lin, w_b = k * (2 * k + 3), 2 * (k + 1)
    for t, ((i, j), (a, b)) in enumerate(pairs):
        d = i - 2 * j
        if (k - d) * d + 2 * k * (i - j + 1) * j != (w_lin - w_b * b - a) * a + (k - b) * b:
            yield t


def _coset_topweight(k: int, s: int) -> int:
    """4k(k+2) times the least conformal weight in the charge-s coset, s mod 2k."""
    s %= 2 * k
    return min(s, 2 * k - s) ** 2 * (k + 2)


def _stage_candidates(k: int, p: int) -> list[tuple[int, int, int]]:
    """The W-classes (k, a, b) of minimal top weight p(k-p)/2k(k+2) among
    those not yet matched at stage p: exactly {0, k-p} and {0, p}, one class
    when 2p = k.  The numerator of {0, b} is b(k-b), p(k-p) for both."""
    return [(k, 0, k - p)] if 2 * p == k else [(k, 0, k - p), (k, 0, p)]


def _obstruction_integral(k: int, p: int, sigma: int, cand: tuple[int, int, int]) -> bool:
    """Whether matching the stage-p seed to `cand` = (k, a, b) keeps the
    difference of top weights of two summands of the same simple module integral.

    Fusing the first current summand (coset charge shift -2, W-image the
    sigma-th current) against the candidate summand sitting over coset
    charge p produces a summand over charge p - 2 whose W-part is the
    current shift {a + sigma, b + sigma}; within one simple module all weight
    differences are integers.  The test is on 4k(k+2) times the difference.
    """
    _, a, b = cand
    diff = (
        _coset_topweight(k, p - 2)
        + 2 * _w_topweight_num(k, a + sigma, b + sigma)
        - _coset_topweight(k, p)
        - 2 * _w_topweight_num(k, a, b)
    )
    return diff % (4 * k * (k + 2)) == 0


def identify(k: int) -> list[Bijection]:
    """Reconstruct the exactly-two admissible matchings.

    The seed current (of top weight (k-1)/k) can match only the first or
    last W current; each choice propagates through the stages p = 1 ..
    floor(k/2), where the candidate pair of minimal top weight is pruned by
    the integrality obstruction and the survivor is spread over the stage
    by current equivariance.  It runs on canonical ints, row by row: row i
    holds the images of (i, 0..i-1).  Stage 0 fills row k with the currents
    {j, j}; stage p fills row p with the survivor's (sigma j)-th currents,
    j < p, and row k-p with those of j >= p, rows that meet only at 2p = k.
    Labels are built only to name them in an error.
    """
    if k < 3:
        raise BadLabel("identification needs k >= 3")
    order = [(i, j) for i in range(1, k + 1) for j in range(i)]
    stages = [(p, _stage_candidates(k, p)) for p in range(1, k // 2 + 1)]
    results: list[Bijection] = []
    for sigma in (1, -1):
        shifts = [sigma * j % k for j in range(k)]
        rows = [[]] * k + [[(s, s) for s in shifts]]  # row 0 stays empty
        for p, cands in stages:
            survivors = [c for c in cands if _obstruction_integral(k, p, sigma, c)]
            if not survivors:
                raise NoIdentification(f"no consistent stage-{p} assignment at k={k}")
            if len(survivors) > 1:
                labels = [WLabel(*c) for c in survivors]
                raise AmbiguousIdentification(
                    f"stage-{p} assignment not unique at k={k}: {labels}"
                )
            _, a0, b0 = survivors[0]
            a_row, b_row = [(a0 + s) % k for s in shifts], [(b0 + s) % k for s in shifts]
            images = [(a, b) if a <= b else (b, a) for a, b in zip(a_row, b_row)]
            rows[p], rows[k - p] = images[:p], images[p:]
            if 2 * p == k and images[:p] != images[p:]:
                j = next(j for j in range(p) if images[j] != images[p + j])
                raise NoIdentification(
                    f"inconsistent images for {ParaLabel(k, p, j)} at k={k}: "
                    f"{WLabel(k, *images[j])} vs {WLabel(k, *images[p + j])}"
                )
        flat = [image for row in rows for image in row]
        if len(flat) != len(order) or len(set(flat)) != len(order):
            raise NoIdentification(f"stage assembly is not a bijection at k={k}")
        pairs = tuple(zip(order, flat))
        results.append(Bijection(k, "form1" if sigma == 1 else "form2", pairs))
    return results


def topweight_match_check(k: int) -> Report:
    """Coset and W-side top weights agree on every label (i, j) under the
    first matching (i, j) -> {j, j - i}."""
    if k < 2:
        raise BadLabel("need k >= 2")
    grid = [(i, j) for i in range(k + 1) for j in range(k)]
    # para_normalize(k, i, j) and w_label(k, j, j - i) on ints
    pairs = [((i, j), (j, j - i + k)) if j < i else ((k - i, j - i), (j - i, j)) for i, j in grid]
    bad = [{"i": grid[t][0], "j": grid[t][1]} for t in _topweight_mismatches(k, pairs)]
    witness = {"mismatches": bad} if bad else None
    entries = [(f"top weights match on all {k * (k + 1) // 2} classes", not bad, witness)]
    return make_report(
        "top-weight-match",
        {"k": k},
        entries,
        identity="coset and W-side top weights agree under the first matching",
    )


def identify_check(k: int) -> Report:
    """`identify` finds exactly two weight-preserving matchings; an error fails the first entry."""
    try:
        bijs = identify(k)
        found = {"count": len(bijs)}
    except (NoIdentification, AmbiguousIdentification) as err:
        bijs, found = [], {"error": type(err).__name__, "message": str(err)}
    moved = [b.to_obj() for b in bijs if not b.preserves_topweights()]
    entries = [
        ("exactly two identifications", len(bijs) == 2, found),
        ("both preserve top weights", not moved, {"bijections": moved} if moved else None),
        ("bijections", True, {"bijections": [b.to_obj() for b in bijs]}),
    ]
    return make_report(
        "identify",
        {"k": k},
        entries,
        identity="the two matchings of the simple-module families",
    )
