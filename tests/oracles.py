"""Independent brute-force oracles shared by the test modules.

Everything here recomputes expected values by direct enumeration or by a
separate construction, never through the code paths under test.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import ceil, comb, isqrt, perm

from paraferm.characters import affine_sl2_char, all_string_functions
from paraferm.fusion_identify import (
    ParaLabel,
    WLabel,
    enumerate_simples,
    enumerate_w_simples,
    para_normalize,
    w_label,
)
from paraferm.lattice_fock import (
    FockState,
    StateVector,
    mode_apply,
    sl2_generators,
    state_weight,
)
from paraferm.qseries import QSeries, ZQSeries, lattice_coset_char
from paraferm.report import Report, make_report

Q = Fraction


def colored_partition_count(n: int, colors: int) -> int:
    """Multisets of (part >= 1, color) pairs summing to n."""

    def count(n, max_part):
        if n == 0:
            return 1
        if max_part == 0:
            return 0
        total = 0
        m = 0
        while m * max_part <= n:
            ways = comb(m + colors - 1, colors - 1) if m else 1
            total += ways * count(n - m * max_part, max_part - 1)
            m += 1
        return total

    return count(n, n)


def colored_partitions_table(n: int, colors: int) -> int:
    """Same count via the generating-function recurrence (cheap for large n)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for _ in range(colors):
            for total in range(part, n + 1):
                table[total] += table[total - part]
    return table[n]


def euler_function(T) -> QSeries:
    """Euler's function prod_{n>=1} (1-q^n) below T, by the pentagonal
    number theorem: sum_{n in Z} (-1)^n q^(n(3n-1)/2)."""
    terms, n = {}, 0
    # n and -n give the pentagonal numbers n(3n-1)/2 and n(3n+1)/2, one sign
    while n * (3 * n - 1) // 2 < T:
        for e in (n * (3 * n - 1) // 2, n * (3 * n + 1) // 2):
            terms[e] = -1 if n % 2 else 1
        n += 1
    return QSeries(terms, T)


def fraction_product(a: QSeries, b: QSeries) -> QSeries:
    """a * b by the plain Fraction double loop over every pair of terms,
    each exponent sum compared with the smaller truncation: no grid."""
    T = min(a.truncation, b.truncation)
    acc: dict[Fraction, Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if e1 + e2 < T:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return QSeries(acc, T)


def affine_char_cascade(k: int, i: int, T) -> ZQSeries:
    """The affine Weyl alternating sum divided by the denominator one
    geometric factor at a time through ``ZQSeries.mul_geometric_inverse``,
    with Fraction exponents throughout (no integer grid)."""
    T = Q(T)
    h = Q(i * (i + 2), 4 * (k + 2))
    Trel = T - h
    if Trel <= 0:
        return ZQSeries({}, T)
    terms: dict[tuple[int, Fraction], Fraction] = {}
    nbound = isqrt(int(Trel)) + 2
    for n in range(-nbound - 1, nbound + 2):
        dep = n * (i + 1) + n * n * (k + 2)
        if dep >= Trel:
            continue
        a = i + 2 * n * (k + 2)
        sign, span = (1, a) if a >= 0 else (-1, -a - 2)
        for t in range(span + 1):
            key = (span - 2 * t, Q(dep))
            terms[key] = terms.get(key, 0) + sign
    num = ZQSeries(terms, Trel)
    n = 1
    while n < Trel:
        num = num.mul_geometric_inverse(0, n)
        num = num.mul_geometric_inverse(2, n)
        num = num.mul_geometric_inverse(-2, n)
        n += 1
    return shift_q(num, h)


def shift_q(series: ZQSeries, delta) -> ZQSeries:
    """series times q^delta, its truncation moved along."""
    d = Q(delta)
    return ZQSeries({(z, e + d): c for (z, e), c in series.terms.items()}, series.truncation + d)


def q_slice(series: ZQSeries, e) -> dict[int, Fraction]:
    """The z-polynomial of series at the q-exponent e."""
    e = Q(e)
    return {z: c for (z, ee), c in series.terms.items() if ee == e}


def decomposition_by_series(k: int, i: int, T) -> dict | None:
    """The decomposition of module i as series arithmetic: the public
    character at z = 1 against the sum over j of `lattice_coset_char` times
    the public string, each product and sum a QSeries.  None when the two
    agree below T, else the first failing exponent with both coefficients."""
    T = Q(T)
    lhs = QSeries([(e, c) for (_, e), c in affine_sl2_char(k, i, T).terms.items()], T)
    rhs = QSeries({}, T)
    for j, string in enumerate(all_string_functions(k, i, T)):
        rhs = rhs + lattice_coset_char(k, (i - 2 * j) % (2 * k), T) * string
    a, b = lhs.terms, rhs.terms
    bad = sorted(e for e in a.keys() | b.keys() if e < T and a.get(e, 0) != b.get(e, 0))
    if not bad:
        return None
    e = bad[0]
    return {"first_failing_exponent": e, "lhs": a.get(e, Q(0)), "rhs": b.get(e, Q(0))}


def brute_force_identifications(k: int) -> list[dict]:
    """Enumerate every weight-preserving bijection between the two label
    families that maps currents to currents multiplicatively and commutes
    with the current action; no minimality or integrality arguments."""
    paras = enumerate_simples(k)
    ws = enumerate_w_simples(k)
    w_by_weight: dict[Fraction, list] = {}
    for w in ws:
        w_by_weight.setdefault(w.topweight, []).append(w)

    units = [u for u in range(1, k) if Q(u * (k - u), k) == Q(k - 1, k)]
    found = []
    stages = list(range(1, k // 2 + 1))
    stage_cands = {
        p: w_by_weight.get(para_normalize(k, p, 0).topweight, [])
        for p in stages
    }
    for u in units:
        for choice in product(*(stage_cands[p] for p in stages)):
            mapping = {}
            ok = True
            for j in range(k):
                mapping[para_normalize(k, 0, j)] = w_label(k, u * j, u * j)
            for p, img in zip(stages, choice):
                for j in range(k):
                    para = para_normalize(k, p, j)
                    w = w_label(k, img.a + u * j, img.b + u * j)
                    if mapping.setdefault(para, w) != w:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if set(mapping) != set(paras):
                continue
            if len(set(mapping.values())) != len(paras):
                continue
            if any(
                p.topweight != w.topweight for p, w in mapping.items()
            ):
                continue
            if mapping not in found:
                found.append(mapping)
    return found


def form1_map(k: int) -> dict:
    """The first matching in closed form: (i,j) -> {j, j-i} mod k."""
    return {lab: w_label(k, lab.j, lab.j - lab.i) for lab in enumerate_simples(k)}


def form2_map(k: int) -> dict:
    """The second matching in closed form: (i,j) -> {-j, i-j} mod k."""
    return {lab: w_label(k, -lab.j, lab.i - lab.j) for lab in enumerate_simples(k)}


def label_mapping(bijection) -> dict:
    """A Bijection's int pairs as the ParaLabel -> WLabel dict they stand
    for, in their order; each label is built through its validating
    constructor, so a non-canonical pair raises BadLabel."""
    k = bijection.k
    return {ParaLabel(k, i, j): WLabel(k, a, b) for (i, j), (a, b) in bijection.pairs}


def identify_report_by_labels(k: int) -> Report:
    """The `identify` report built on labels: the closed-form matchings as
    ParaLabel -> WLabel dicts, each serialised in sorted label order, their
    top weights compared through `.topweight_num`."""
    maps = {"form1": form1_map(k), "form2": form2_map(k)}
    objs = {
        form: {"k": k, "form": form, "pairs": [[[p.i, p.j], [w.a, w.b]] for p, w in sorted(m.items())]}
        for form, m in maps.items()
    }
    moved = [
        objs[form]
        for form, m in maps.items()
        if any(p.topweight_num != w.topweight_num for p, w in m.items())
    ]
    entries = [
        ("exactly two identifications", len(maps) == 2, {"count": len(maps)}),
        ("both preserve top weights", not moved, {"bijections": moved} if moved else None),
        ("bijections", True, {"bijections": list(objs.values())}),
    ]
    return make_report(
        "identify", {"k": k}, entries, identity="the two matchings of the simple-module families"
    )


def topweight_match_report_by_labels(k: int) -> Report:
    """The `top-weight-match` report built on labels: for every (i, j) in
    0..k x 0..k-1, `para_normalize(k, i, j)` against `w_label(k, j, j - i)`
    through `.topweight_num`."""
    bad = [
        {"i": i, "j": j}
        for i in range(k + 1)
        for j in range(k)
        if para_normalize(k, i, j).topweight_num != w_label(k, j, j - i).topweight_num
    ]
    n = len(enumerate_simples(k))
    entries = [(f"top weights match on all {n} classes", not bad, {"mismatches": bad} if bad else None)]
    return make_report(
        "top-weight-match",
        {"k": k},
        entries,
        identity="coset and W-side top weights agree under the first matching",
    )


def symbol_product_coefficient(m: int, r: int, n: int) -> int:
    """Coefficient [n]_r - (-1)^r [m]_r of J^(m+n-r) in the r-th symbol
    product of J^m with J^n, for m, n >= 0 (perm(n, r) = [n]_r there)."""
    return perm(n, r) - (-1) ** r * perm(m, r)


def heisenberg_mode(beta, j: int, u: StateVector) -> StateVector:
    """The Heisenberg mode beta(j) on u, beta in lattice coordinates, in
    Fractions one state at a time: j > 0 removes each copy of b_p(-j) with
    factor j <beta, b_p> = j beta[p], j = 0 multiplies by <beta, point>, and
    j < 0 adds b_p(j) with coefficient beta[p] / den; a created state of
    weight above the truncation is dropped and flags the result."""
    lat, T = u.lattice, u.truncation
    terms: dict[FockState, Fraction] = {}
    flagged = u.truncated
    for s, c in u.terms.items():
        if j > 0:
            for i, (p, t) in enumerate(s.modes):
                if t == j:
                    key = FockState(s.point, s.modes[:i] + s.modes[i + 1:])
                    terms[key] = terms.get(key, 0) + c * j * beta[p]
        elif j == 0:
            pair = Q(sum(b * a for b, a in zip(beta, s.point)), lat.den)
            terms[s] = terms.get(s, 0) + c * pair
        elif state_weight(lat, s) - j > T:
            flagged = True
        else:
            for p, b in enumerate(beta):
                key = FockState(s.point, tuple(sorted(s.modes + ((p, -j),))))
                terms[key] = terms.get(key, 0) + c * Q(b, lat.den)
    return StateVector(lat, T, terms, flagged)


def heisenberg_field_mode(prefix, m, v: StateVector) -> StateVector:
    """The m-th mode of the field of beta_1(-n_1) ... beta_r(-n_r)1 on v,
    prefix = ((beta_1, n_1), ...) with each beta in lattice coordinates, from
    the iterate formula in `heisenberg_mode` calls.  The field of
    beta(-n) rest has the m-th mode

        sum_{j <= -n} C(-j-1, n-1) beta(j) rest_(m-n-j)
      + sum_{j >= 0}  C(-j-1, n-1) rest_(m-n-j) beta(j),

    the vacuum's field is the identity (so with rest = 1 only j = m - n + 1
    is left), and a fractional m gives zero.  j runs over the explicit window
    |j| <= W, W = ceil(weight of the state) + n_1 + ... + n_r + |m| + 1,
    outside which every term vanishes.  Each state of v is taken alone, at
    every level, so a dropped creation flags the result exactly when it hits
    a state it leaves nonzero."""
    lat, T = v.lattice, v.truncation
    total = StateVector(lat, T, truncated=v.truncated)
    if Q(m).denominator != 1:
        return total
    for s, c in v.terms.items():
        u = StateVector(lat, T, {s: c}, v.truncated)
        if not prefix:
            total = total + (u if m == -1 else u.scale(0))
            continue
        (beta, n), rest = prefix[0], prefix[1:]
        W = ceil(state_weight(lat, s)) + sum(nn for _, nn in prefix) + abs(m) + 1
        # with rest the vacuum, only rest_(-1) is nonzero
        for j in range(-W, W + 1) if rest else [m - n + 1]:
            if -n < j < 0 or abs(j) > W:
                continue
            if j < 0:
                piece = heisenberg_mode(beta, j, heisenberg_field_mode(rest, m - n - j, u))
            else:
                piece = heisenberg_field_mode(rest, m - n - j, heisenberg_mode(beta, j, u))
            total = total + piece.scale(_binomial(-j - 1, n - 1))
    return total


def exp_component(lat, beta, modes: tuple, d: int) -> dict[tuple, Fraction]:
    """The z^d part of E^-(-beta, z) E^+(-beta, z) on prod b_p(-n), the sorted
    mode tuple modes, beta in lattice coordinates: sorted mode tuple ->
    nonzero Fraction, every entry of mode weight wt(modes) + d.  Both
    exponentials are summed term by term, E^+(-beta, z) = sum_k A^k / k! with
    A = -sum_(n>=1) beta(n) z^(-n) / n, where beta(n) removes each copy of
    b_p(-n) with factor n beta[p], and E^-(-beta, z) as `_creation_part`."""
    # (z-power, modes) -> coefficient of A^k / k!; A^k = 0 beyond len(modes)
    power = {(0, modes): Q(1)}
    annihilated = dict(power)
    for k in range(1, len(modes) + 1):
        nxt: dict = {}
        for (e, mds), c in power.items():
            for i, (p, n) in enumerate(mds):
                if beta[p]:
                    key = (e - n, mds[:i] + mds[i + 1:])
                    nxt[key] = nxt.get(key, 0) - c * Q(beta[p], k)
        power = nxt
        for key, c in power.items():
            annihilated[key] = annihilated.get(key, 0) + c
    out: dict = {}
    for (e, rest), c in annihilated.items():
        if c and d - e >= 0:
            for cmds, cc in _creation_part(lat.den, tuple(beta), d - e).items():
                key = tuple(sorted(rest + cmds))
                out[key] = out.get(key, 0) + c * cc
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def _creation_part(den: int, beta: tuple, a: int) -> dict[tuple, Fraction]:
    """The z^a part of E^-(-beta, z) = sum_k B^k / k! with B = sum_(n>=1)
    beta(-n) z^n / n and beta(-n) = sum_p (beta[p] / den) b_p(-n), as sorted
    created mode tuple -> Fraction."""
    power = {(0, ()): Q(1)}
    part = {(): Q(1)} if a == 0 else {}
    for k in range(1, a + 1):
        nxt: dict = {}
        for (e, mds), c in power.items():
            for n in range(1, a - e + 1):
                for p, b in enumerate(beta):
                    if b:
                        key = (e + n, tuple(sorted(mds + ((p, n),))))
                        nxt[key] = nxt.get(key, 0) + c * Q(b, den * n * k)
        power = nxt
        for (e, mds), c in power.items():
            if e == a:
                part[mds] = part.get(mds, 0) + c
    return part


def _binomial(a: int, b: int) -> Fraction:
    """a (a-1) ... (a-b+1) / b! for any integer a, b >= 0."""
    num = 1
    for t in range(b):
        num *= a - t
    return Q(num, perm(b))


def all_modes_affine_dims(k: int, i: int, max_weight) -> dict[Fraction, int]:
    """Graded dimensions of the i-th level-k affine module in the Fock space,
    generated the long way: layer d is spanned by g(-t) applied to layer
    d - t for every t = 1..d and g in H, E, F, starting from the F(0)-orbit
    of the top exponential.  Ranks come from a plain reduced row echelon,
    not from lattice_fock's echelon."""
    T = Q(max_weight)
    H, E, F = sl2_generators(k, T)
    lat = H.lattice
    cur = StateVector.exponential(lat, tuple(1 if p < i else 0 for p in range(k)), T)
    w0 = Q(i, 4)
    layers = {w0: []}
    while not cur.is_zero():
        _rref_insert(layers[w0], cur.terms)
        cur = mode_apply(F, 0, cur)
    for d in range(1, int(T - w0) + 1):
        rows: list[dict] = []
        for t in range(1, d + 1):
            for r in layers[w0 + d - t]:
                v = StateVector(lat, T, r)
                for g in (H, E, F):
                    _rref_insert(rows, mode_apply(g, -t, v).terms)
        layers[w0 + d] = rows
    return {w: len(rows) for w, rows in layers.items() if rows}


def _rref_insert(rows: list[dict], vec: dict) -> None:
    """Add vec to the span of rows, kept in reduced row echelon form: each
    row has a pivot that no other row holds."""
    r = dict(vec)
    for row in rows:
        pivot = next(iter(row))
        c = r.get(pivot)
        if c:
            for key, x in row.items():
                r[key] = r.get(key, 0) - c * x
            r = {key: x for key, x in r.items() if x}
    if not r:
        return
    pivot = next(iter(r))
    r = {key: x / r[pivot] for key, x in r.items()}
    for idx, row in enumerate(rows):
        c = row.get(pivot)
        if c:
            new = {key: row.get(key, 0) - c * r.get(key, 0) for key in {**row, **r}}
            rows[idx] = {key: x for key, x in new.items() if x}
    rows.append(r)


def sector_graded_dims(lat, sector, max_weight) -> dict[Fraction, int]:
    """Dimension of each weight slice of one lattice-coset Fock sector,
    counted by direct enumeration of points and mode partitions."""
    T = Q(max_weight)
    sector = tuple(sector)
    points = [()]
    for r in sector:
        new = []
        bound = isqrt(int(2 * T * lat.den)) + lat.den
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
            dims[w0 + n] = dims.get(w0 + n, 0) + colored_partitions_table(n, lat.rank)
            n += 1
    return dict(sorted(dims.items()))


def theta_involution(v: StateVector) -> StateVector:
    """Lift of the -1 lattice isometry: e^point -> e^(-point), and every
    creation mode changes sign, so a state with an odd number of modes
    changes sign."""
    lat = v.lattice
    return StateVector(
        lat,
        v.truncation,
        {
            FockState(lat.negate(s.point), s.modes): -c if len(s.modes) % 2 else c
            for s, c in v.terms.items()
        },
        v.truncated,
    )


def rref_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace basis of rows . x = 0 from a dense Fraction reduced row
    echelon form, pivots taken column by column: one vector per free column
    f, with x_f = 1, zero at the other free columns, zeros left out."""
    mat = [[Q(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: Q(1)}
        for i, pc in enumerate(pivots):
            if mat[i][f]:
                x[pc] = -mat[i][f]
        out.append(x)
    return out


def expand(basis, v: StateVector) -> StateVector:
    """The Fock vector of the orbit totals v on representatives of basis's
    group: coefficient w_r / |O(r)| on each state of the orbit of r, the
    orbit enumerated by `orbit_by_permutations`."""
    terms = {}
    for r, c in v.terms.items():
        orbit = orbit_by_permutations(r, basis.blocks)
        for s in orbit:
            terms[s] = c / len(orbit)
    return StateVector(v.lattice, v.truncation, terms, v.truncated)


def commutant_kernel_oracle(basis, charge) -> dict[Fraction, list[StateVector]]:
    """The commutant kernel in Fractions on every Fock state: per weight, the
    candidates of the given charge as Fock vectors (`expand`), the Fraction
    rows of gamma(m) on them, their `rref_nullspace` and the combinations
    sum_t x_t cand_t."""
    lat = basis.lattice
    gamma = lat.gamma()
    heis = Q(charge * charge, 2 * lat.norm(gamma))
    out = {}
    for w, layer in sorted(basis.layers.items()):
        cands = [expand(basis, v) for v in layer if v.charge() == charge]
        rows: dict[tuple, dict[int, Fraction]] = {}
        for t, v in enumerate(cands):
            for m in range(1, int(w) + 2):
                for s, c in heisenberg_mode(gamma, m, v).terms.items():
                    rows.setdefault((m, s), {})[t] = c
        vecs = []
        for x in rref_nullspace(list(rows.values()), len(cands)):
            vec = StateVector(lat, basis.truncation)
            for t, c in x.items():
                vec = vec + cands[t].scale(c)
            vecs.append(vec)
        if vecs:
            out[w - basis.aff_offset - heis] = vecs
    return out


def orbit_by_permutations(r: FockState, blocks) -> list[FockState]:
    """Every state of the orbit of r under the permutations of the lattice
    directions inside consecutive blocks, in canonical order: all b!
    orderings of each block's columns (point entry, mode numbers), repeats
    dropped and sorted, combined block by block."""
    ns: list[list[int]] = [[] for _ in r.point]
    for p, n in r.modes:
        ns[p].append(n)
    cols = list(zip(r.point, map(tuple, ns)))
    lo, parts = 0, []
    for b in blocks:
        parts.append(sorted(set(permutations(cols[lo:lo + b]))))
        lo += b
    out = []
    for choice in product(*parts):
        cs = [c for part in choice for c in part]
        modes = tuple((p, n) for p, (_, ms) in enumerate(cs) for n in ms)
        out.append(FockState(tuple(x for x, _ in cs), modes))
    return out
