"""Graded symbol algebra with one generator J^m in each weight m+1.

Products are taken at the level of the associated graded of the standard
decreasing filtration, where the r-th product collapses to a single term

    J^m_r J^n = ([n]_r - (-1)^r [m]_r) J^(m+n-r),

with [n]_a = n(n-1)...(n-a+1) the falling factorial.  The central term of
the underlying operator product lands in the coefficient field and plays no
role in generation questions, so it is dropped here.
"""

from __future__ import annotations

from bisect import bisect_left


def falling_factorial(n: int, a: int) -> int:
    """[n]_a = n(n-1)...(n-a+1); [n]_0 = 1."""
    if a < 0:
        raise ValueError("a must be non-negative")
    out = 1
    for t in range(a):
        out *= n - t
    return out


def generation_closure(seeds, bound: int) -> set[int]:
    """Indices m <= bound reachable from the seeds by iterated products with
    nonzero coefficient (seeds included)."""
    if bound < max(seeds, default=0):
        raise ValueError("bound must be at least max(seeds)")
    kept = {m for m in seeds if 0 <= m <= bound}
    return kept | set(derivation_chains(kept, bound))


def derivation_chains(seeds, bound: int) -> dict[int, tuple[int, int, int]]:
    """One witness product (m, r, n) per reachable non-seed index, for
    non-negative seed indices."""
    seeds = set(seeds)
    if any(m < 0 for m in seeds):
        raise ValueError("seed indices must be non-negative")
    reached = set(seeds)
    witness: dict[int, tuple[int, int, int]] = {}
    # the targets within the bound not yet reached, ascending
    missing = [t for t in range(bound + 1) if t not in reached]
    frontier = set(seeds)
    while frontier:
        new = set()
        for m in frontier:
            for n in sorted(reached):
                for a, b in ((m, n), (n, m)):
                    # t = a + b - r stays within the bound from r = lo on,
                    # and [a]_r = [b]_r = 0 beyond r = max(a, b): the
                    # targets fill [min(a, b), a + b - lo]
                    lo = max(0, a + b - bound)
                    i = bisect_left(missing, min(a, b))
                    if i == len(missing) or missing[i] > a + b - lo:
                        continue
                    fa, fb = falling_factorial(a, lo), falling_factorial(b, lo)
                    for r in range(lo, max(a, b) + 1):
                        t = a + b - r
                        if t not in reached and t not in new and fb - (-1) ** r * fa:
                            new.add(t)
                            witness[t] = (a, r, b)
                            del missing[bisect_left(missing, t)]
                        fa *= a - r
                        fb *= b - r
        reached |= new
        frontier = new
    return witness
