"""Simple-module labels for both algebras, top weights, group actions and
the identification search.

Coset side: labels (i, j) with 0 <= i <= k and j mod k, subject to the
equivalence (i, j) ~ (k-i, j-i); the canonical representatives satisfy
0 <= j < i <= k and the top weight of the class is P(i,j)/2k(k+2) with

    P(i, j) = k(i-2j) - (i-2j)^2 + 2k(i-j+1) j.

W side: unordered pairs {a, b} of residues mod k, canonically 0 <= a <= b
<= k-1, with top weight (-a^2 + a(k(2k+3) - 2b(k+1)) + b(k-b)) / 2k(k+2)
evaluated on the canonical order.

Both families carry a Z_k simple-current action and an order-two twist;
`identify` reconstructs the only two weight-preserving, current-equivariant
matchings between the families by the minimal-top-weight / integrality
induction, one matching per admissible image of the first current.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AmbiguousIdentification, BadLabel, NoIdentification
from .report import Report, make_report


@dataclass(frozen=True, order=True)
class ParaLabel:
    """Canonical coset-module label: 0 <= j < i <= k."""

    k: int
    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.j < self.i <= self.k):
            raise BadLabel(f"non-canonical coset label ({self.i},{self.j}) at k={self.k}")

    def __str__(self):
        return f"M[{self.i},{self.j}]"


@dataclass(frozen=True, order=True)
class WLabel:
    """Canonical W-module label: unordered pair 0 <= a <= b <= k-1."""

    k: int
    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a <= self.b < self.k):
            raise BadLabel(f"non-canonical W label ({self.a},{self.b}) at k={self.k}")

    def __str__(self):
        return f"W[{self.a},{self.b}]"


def para_normalize(k: int, i: int, j: int) -> ParaLabel:
    """Canonical representative of (i, j mod k) under (i,j) ~ (k-i, j-i)."""
    if not 0 <= i <= k:
        raise BadLabel(f"first index {i} out of range 0..{k}")
    j %= k
    if j < i:
        return ParaLabel(k, i, j)
    return ParaLabel(k, k - i, (j - i) % k)


def w_label(k: int, a: int, b: int) -> WLabel:
    a %= k
    b %= k
    if a > b:
        a, b = b, a
    return WLabel(k, a, b)


def para_p_value(k: int, i: int, j: int) -> int:
    """P(i,j) on the canonical representative; 2k(k+2) times the top weight."""
    lab = para_normalize(k, i, j)
    i, j = lab.i, lab.j
    return k * (i - 2 * j) - (i - 2 * j) ** 2 + 2 * k * (i - j + 1) * j


def topweight_para(k: int, i: int, j: int) -> Fraction:
    return Fraction(para_p_value(k, i, j), 2 * k * (k + 2))


def topweight_w(k: int, a: int, b: int) -> Fraction:
    """Top weight of the W-side label, evaluated on the canonical order
    (smaller residue in the quadratic slot)."""
    lab = w_label(k, a, b)
    a, b = lab.a, lab.b
    num = -(a * a) + a * (k * (2 * k + 3) - 2 * b * (k + 1)) + b * (k - b)
    return Fraction(num, 2 * k * (k + 2))


def label_topweight(label) -> Fraction:
    if isinstance(label, ParaLabel):
        return topweight_para(label.k, label.i, label.j)
    if isinstance(label, WLabel):
        return topweight_w(label.k, label.a, label.b)
    raise BadLabel(f"not a module label: {label!r}")


def theta_act(label):
    """Order-two twist: (i,j) -> (i, i-j) on the coset side,
    {a,b} -> {-a,-b} on the W side."""
    if isinstance(label, ParaLabel):
        return para_normalize(label.k, label.i, (label.i - label.j) % label.k)
    if isinstance(label, WLabel):
        return w_label(label.k, -label.a, -label.b)
    raise BadLabel(f"not a module label: {label!r}")


def simple_current_act(p: int, label):
    """Fusion with the p-th simple current: (i,j) -> (i, j+p) on the coset
    side, {a,b} -> {a+p, b+p} on the W side."""
    if isinstance(label, ParaLabel):
        if not 0 <= p < label.k:
            raise BadLabel(f"current index {p} out of range 0..{label.k - 1}")
        return para_normalize(label.k, label.i, (label.j + p) % label.k)
    if isinstance(label, WLabel):
        if not 0 <= p < label.k:
            raise BadLabel(f"current index {p} out of range 0..{label.k - 1}")
        return w_label(label.k, label.a + p, label.b + p)
    raise BadLabel(f"not a module label: {label!r}")


def para_current(k: int, j: int) -> ParaLabel:
    """The j-th simple current of the coset family: the class of (0, j)."""
    return para_normalize(k, 0, j)


def w_current(k: int, j: int) -> WLabel:
    return w_label(k, j, j)


def enumerate_simples(k: int) -> list[ParaLabel]:
    """The k(k+1)/2 canonical coset labels."""
    if k < 2:
        raise BadLabel("need k >= 2")
    return [ParaLabel(k, i, j) for i in range(1, k + 1) for j in range(i)]


def enumerate_w_simples(k: int) -> list[WLabel]:
    return [WLabel(k, a, b) for a in range(k) for b in range(a, k)]


# ---------------------------------------------------------------------------
# identification search
# ---------------------------------------------------------------------------


@dataclass
class Bijection:
    """One matching of the two simple-module families."""

    k: int
    form: str  # "form1" | "form2"
    mapping: dict[ParaLabel, WLabel] = field(repr=False)

    def pairs(self) -> list[tuple[ParaLabel, WLabel]]:
        return sorted(self.mapping.items())

    def preserves_topweights(self) -> bool:
        return all(
            label_topweight(p) == label_topweight(w) for p, w in self.mapping.items()
        )

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "form": self.form,
            "pairs": [[[p.i, p.j], [w.a, w.b]] for p, w in self.pairs()],
        }


def form1_map(k: int) -> dict[ParaLabel, WLabel]:
    """(i,j) -> {j, j-i} mod k."""
    return {
        lab: w_label(k, lab.j, lab.j - lab.i) for lab in enumerate_simples(k)
    }


def form2_map(k: int) -> dict[ParaLabel, WLabel]:
    """(i,j) -> {-j, i-j} mod k."""
    return {
        lab: w_label(k, -lab.j, lab.i - lab.j) for lab in enumerate_simples(k)
    }


def _coset_topweight(k: int, s: int) -> Fraction:
    """Minimal conformal weight in the charge-s lattice coset, s mod 2k."""
    s %= 2 * k
    return Fraction(min(s, 2 * k - s) ** 2, 4 * k)


def _stage_candidates(k: int, p: int) -> list[WLabel]:
    """The W-classes of minimal top weight p(k-p)/2k(k+2) among those not
    yet matched at stage p: exactly {0, k-p} and {0, p}."""
    target = Fraction(p * (k - p), 2 * k * (k + 2))
    cands = []
    for lab in (w_label(k, 0, (k - p) % k), w_label(k, 0, p)):
        if lab not in cands and topweight_w(k, lab.a, lab.b) == target:
            cands.append(lab)
    return cands


def _obstruction_integral(k: int, p: int, sigma: int, cand: WLabel) -> bool:
    """Whether matching the stage-p seed to `cand` keeps the difference of
    top weights of two summands of the same simple module integral.

    Fusing the first current summand (coset charge shift -2, W-image the
    sigma-th current) against the candidate summand sitting over coset
    charge p produces a summand over charge p - 2 whose W-part is the
    current shift of the candidate; within one simple module all weight
    differences are integers.
    """
    fused = simple_current_act(sigma % k, cand)
    diff = (
        _coset_topweight(k, p - 2)
        + label_topweight(fused)
        - _coset_topweight(k, p)
        - label_topweight(cand)
    )
    return diff.denominator == 1


def identify(k: int) -> list[Bijection]:
    """Reconstruct the exactly-two admissible matchings.

    The seed current (of top weight (k-1)/k) can match only the first or
    last W current; each choice propagates through the stages i = 1 ..
    floor(k/2), where the candidate pair of minimal top weight is pruned by
    the integrality obstruction and the survivor is spread over the stage
    by current equivariance.
    """
    if k < 3:
        raise BadLabel("identification needs k >= 3")
    results: list[Bijection] = []
    for sigma in (1, -1):
        mapping: dict[ParaLabel, WLabel] = {}
        # currents: stage 0
        for j in range(k):
            mapping[para_current(k, j)] = w_current(k, (sigma * j) % k)
        for p in range(1, k // 2 + 1):
            cands = _stage_candidates(k, p)
            if 2 * p < k:
                survivors = [c for c in cands if _obstruction_integral(k, p, sigma, c)]
            else:
                # middle stage of even k: the minimal weight is attained once
                survivors = [w_label(k, 0, k // 2)]
            if not survivors:
                raise NoIdentification(f"no consistent stage-{p} assignment at k={k}")
            if len(survivors) > 1:
                raise AmbiguousIdentification(
                    f"stage-{p} assignment not unique at k={k}: {survivors}"
                )
            seed_image = survivors[0]
            for j in range(k):
                para = para_normalize(k, p, j)
                image = seed_image
                if j:
                    image = w_label(
                        k, seed_image.a + sigma * j, seed_image.b + sigma * j
                    )
                prev = mapping.get(para)
                if prev is not None and prev != image:
                    raise NoIdentification(
                        f"inconsistent images for {para} at k={k}: {prev} vs {image}"
                    )
                mapping[para] = image
        labels = enumerate_simples(k)
        if set(mapping) != set(labels) or len(set(mapping.values())) != len(labels):
            raise NoIdentification(f"stage assembly is not a bijection at k={k}")
        results.append(Bijection(k, "form1" if sigma == 1 else "form2", mapping))
    return results


def topweight_match_check(k: int) -> Report:
    """Coset and W-side top weights agree on every label (i, j) under the
    first matching (i, j) -> {j, j - i}."""
    bad = []
    for i in range(k + 1):
        for j in range(k):
            para = topweight_para(k, i, j)
            img = w_label(k, j, j - i)
            if para != topweight_w(k, img.a, img.b):
                bad.append({"i": i, "j": j})
    n = len(enumerate_simples(k))
    witness = None if not bad else {"mismatches": bad}
    entries = [(f"top weights match on all {n} classes", not bad, witness)]
    return make_report(
        "top-weight-match",
        {"k": k},
        entries,
        identity="coset and W-side top weights agree under the first matching",
    )


def identify_check(k: int) -> Report:
    """`identify` finds exactly two matchings, and both preserve top weights."""
    bijs = identify(k)
    moved = [b.to_obj() for b in bijs if not b.preserves_topweights()]
    entries = [
        ("exactly two identifications", len(bijs) == 2, {"count": len(bijs)}),
        ("both preserve top weights", not moved, {"bijections": moved} if moved else None),
        ("bijections", True, {"bijections": [b.to_obj() for b in bijs]}),
    ]
    return make_report(
        "identify",
        {"k": k},
        entries,
        identity="the two matchings of the simple-module families",
    )
