"""Ring arithmetic, inversion and the character building blocks."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraferm.errors import BadResidue, ZeroConstantTerm
from oracles import colored_partition_count, fraction_product
from paraferm.qseries import (
    QSeries,
    ZQSeries,
    coset_theta,
    euler_function,
    heisenberg_char,
    lattice_coset_char,
)

Q = Fraction


def S(pairs, T):
    return QSeries(pairs, T)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def random_series(rng, T, unit=False):
    terms = {}
    if unit:
        terms[Q(0)] = Q(rng.choice([1, 2, -1, 3]))
    for _ in range(rng.randint(0, 6)):
        e = Q(rng.randint(0, 4 * T), rng.choice([1, 2, 4]))
        terms[e] = Q(rng.randint(-5, 5), rng.choice([1, 2, 3]))
    return QSeries(terms, T)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


class TestArithmetic:
    def test_add_cancellation(self):
        a = S({0: 1, 1: 1}, 8)
        b = S({0: 1, 1: -1}, 8)
        assert a + b == S({0: 2}, 8)

    def test_add_identity(self):
        x = S({0: 3, Q(1, 2): 5, 3: -2}, 6)
        assert x + QSeries({}, 6) == x

    def test_add_merges_coefficients(self):
        a = S({0: 1, 2: 1}, 8)
        b = S({2: 1}, 8)
        assert a + b == S({0: 1, 2: 2}, 8)

    def test_mul_difference_of_squares(self):
        a = S({0: 1, 1: 1}, 8)
        b = S({0: 1, 1: -1}, 8)
        assert a * b == S({0: 1, 2: -1}, 8)

    def test_mul_truncated_product(self):
        a = S({0: 1, 3: 2}, 4)
        b = S({0: 1, 1: 1, 2: 2, 3: 3}, 4)
        assert a * b == S({0: 1, 1: 1, 2: 2, 3: 5}, 4)

    def test_mul_identity(self):
        a = S({0: 2, Q(1, 3): 1, 2: -4}, 5)
        assert a * QSeries({0: 1}, 5) == a

    def test_float_is_refused(self):
        # never rounded to a binary fraction such as 3602879701896397/2^55
        for terms, T in (({0.1: 1}, 3), ({0: 0.5}, 3), ({0: 1}, 3.0)):
            with pytest.raises(TypeError):
                QSeries(terms, T)

    def test_truncation_is_min(self):
        a = S({0: 1}, 3)
        b = S({0: 1}, 7)
        assert (a + b).truncation == 3
        assert (a * b).truncation == 3

    def test_disagreements_ascend_below_the_smaller_truncation(self):
        # 1/2 and 0 differ (a term on one side only, then unequal values);
        # 2 agrees, and 5 lies beyond a's truncation
        a = S({Q(1, 2): 1, 0: 2, 2: 1}, 3)
        b = S({0: 1, 2: 1, 5: 4}, 7)
        assert a.disagreements(b) == [Q(0), Q(1, 2)]
        assert b.disagreements(a) == [Q(0), Q(1, 2)]
        assert a.disagreements(a) == []

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240)
        for _ in range(60):
            a = random_series(rng, 6)
            b = random_series(rng, 6)
            c = random_series(rng, 6)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


_COEFFICIENTS = st.fractions(-4, 4, max_denominator=3)


@st.composite
def series(draw, unit=False):
    """A QSeries with one of several truncations, so that sums and products
    mix truncations; with unit=True its constant term is nonzero."""
    T = draw(st.sampled_from([Q(3), Q(7, 2), Q(4), Q(14, 3), Q(5)]))
    terms = draw(st.dictionaries(st.fractions(0, 6, max_denominator=3), _COEFFICIENTS, max_size=5))
    if unit:
        terms[Q(0)] = draw(_COEFFICIENTS.filter(bool))
    return QSeries(terms, T)


class TestRingLaws:
    """+ and * form a commutative ring on truncated series: every law holds
    exactly, with the truncation of each side the minimum over its
    operands."""

    @given(a=series(), b=series())
    @settings(max_examples=80, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(a=series(), b=series(), c=series())
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(a=series(), b=series(), c=series())
    @settings(max_examples=80, deadline=None)
    def test_distributivity(self, a, b, c):
        left = a * (b + c)
        assert left == a * b + a * c
        assert (b + c) * a == b * a + c * a
        assert left.truncation == min(a.truncation, b.truncation, c.truncation)

    @given(a=series(unit=True))
    @settings(max_examples=80, deadline=None)
    def test_inverse_round_trips(self, a):
        inv = a.inverse()
        assert a * inv == QSeries({0: 1}, a.truncation)
        assert inv.inverse() == a


def _renormalised(r: QSeries) -> QSeries:
    """r rebuilt through the public constructor, which drops zero and
    out-of-range terms and merges equal exponents."""
    return QSeries(r.terms, r.truncation)


class TestNormalResults:
    """The methods that build their result from terms that are already
    normal store them as they are; the public constructor, given the same
    terms, changes nothing."""

    @given(a=series(), b=series(), d=_COEFFICIENTS)
    @settings(max_examples=80, deadline=None)
    def test_results_are_normal(self, a, b, d):
        results = [a * b, a.shift(d)]
        for r in results:
            assert _renormalised(r) == r
            for e, x in r.terms.items():
                assert type(e) is Fraction and type(x) is Fraction and x
            assert type(r.truncation) is Fraction


# exponents with denominators 1..5 mixed in one operand, negative ones
# included; truncations off the exponents' grid (denominators up to 7)
_GRID_EXPONENTS = st.builds(Q, st.integers(-12, 30), st.integers(1, 5))
_GRID_TRUNCATIONS = st.builds(Q, st.integers(-3, 40), st.integers(1, 7))


@st.composite
def grid_series(draw):
    """A QSeries whose exponents need a grid finer than any one of them;
    it may be empty."""
    terms = draw(st.dictionaries(
        _GRID_EXPONENTS, st.fractions(-4, 4, max_denominator=6), max_size=8
    ))
    return QSeries(terms, draw(_GRID_TRUNCATIONS))


class TestGridProduct:
    """The integer-grid product equals the plain Fraction double loop.  The
    ring laws cannot see a wrong grid scale: a product computed on a wrongly
    scaled grid still commutes and associates."""

    @given(a=grid_series(), b=grid_series())
    @example(a=QSeries({}, Q(9, 2)), b=QSeries({Q(-1, 3): 2, Q(2, 5): Q(1, 2)}, 4))
    @example(a=QSeries({Q(-1, 3): 2, Q(2, 5): Q(1, 2)}, 4), b=QSeries({}, Q(9, 2)))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fraction_double_loop(self, a, b):
        assert a * b == fraction_product(a, b)

    def test_quarters_below_fourteen_thirds(self):
        a = S({Q(1, 4): 2, Q(3, 4): Q(1, 2), Q(17, 4): 3}, Q(14, 3))
        b = S({0: 1, Q(1, 4): Q(-2, 3), Q(1, 2): 7, 2: 5, Q(9, 4): Q(1, 3)}, 5)
        # 17/4 + 1/2 = 19/4 lies above 14/3; 17/4 + 1/4 = 9/2 below it
        expected = S(
            {
                Q(1, 4): 2, Q(1, 2): Q(-4, 3), Q(3, 4): Q(29, 2), 1: Q(-1, 3),
                Q(5, 4): Q(7, 2), Q(9, 4): 10, Q(5, 2): Q(2, 3), Q(11, 4): Q(5, 2),
                3: Q(1, 6), Q(17, 4): 3, Q(9, 2): -2,
            },
            Q(14, 3),
        )
        assert a * b == b * a == fraction_product(a, b) == expected


class TestInverse:
    def test_geometric(self):
        a = S({0: 1, 1: -1}, 4)
        assert a.inverse() == S({0: 1, 1: 1, 2: 1, 3: 1}, 4)

    def test_one(self):
        assert QSeries({0: 1}, 5).inverse() == QSeries({0: 1}, 5)

    def test_long_division(self):
        a = S({0: 1, 2: -1, 3: -1}, 5)
        assert a.inverse() == S({0: 1, 2: 1, 3: 1, 4: 1}, 5)

    def test_zero_constant_term_raises(self):
        with pytest.raises(ZeroConstantTerm):
            S({1: 1}, 4).inverse()

    def test_terms_below_q0_raise(self):
        # the solver reads only positive exponents: q^-1 + 1 must not invert to 1
        for terms, low in (({-1: 1, 0: 1}, "q^-1"), ({Q(-1, 2): 3, 0: 1, 1: 1}, "q^-1/2")):
            with pytest.raises(ValueError, match=re.escape(low)):
                QSeries(terms, 3).inverse()
        assert S({-1: 1, 0: 1}, 3).divide(S({-1: 1, 0: 1}, 3)) == S({0: 1}, 4)

    def test_inverse_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_series(rng, 5, unit=True)
            assert a * a.inverse() == QSeries({0: 1}, 5)

    def test_divide_by_shifted_unit(self):
        num = S({1: 2, 2: 2}, 6)
        den = S({1: 2}, 6)
        q = num.divide(den)
        assert q == S({0: 1, 1: 1}, 5)


# ---------------------------------------------------------------------------
# character building blocks
# ---------------------------------------------------------------------------


class TestHeisenberg:
    def test_rank1_partition_numbers(self):
        assert heisenberg_char(1, 5) == S({0: 1, 1: 1, 2: 2, 3: 3, 4: 5}, 5)

    def test_rank0(self):
        assert heisenberg_char(0, 6) == QSeries({0: 1}, 6)

    def test_rank2_weight2_against_enumeration(self):
        assert heisenberg_char(2, 3).coefficient(2) == colored_partition_count(2, 2)

    def test_colored_counts_randomized(self):
        # truncations up to 15, rational ones included: the integer grid
        # stops at the largest integer below T
        for T in (Q(1, 2), 7, Q(41, 4), 15):
            for rank in (1, 2, 3):
                ch = heisenberg_char(rank, T)
                assert ch.truncation == T
                want = {Q(n): colored_partition_count(n, rank) for n in range(15) if n < T}
                assert ch.terms == want


class TestEulerFunction:
    def test_inverts_the_heisenberg_character(self):
        # the pentagonal sum against its oracle, the inverted partition series
        assert euler_function(13) == S({0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}, 13)
        for T in (Q(1, 2), 1, 7, Q(21, 2), 40):
            ch = heisenberg_char(1, T)
            assert euler_function(T) == ch.inverse(), T
            assert euler_function(T) * ch == QSeries({0: 1}, T), T


class TestCosetTheta:
    def test_k3_s0(self):
        assert coset_theta(3, 0, 5) == S({0: 1, 3: 2}, 5)

    def test_k3_s3_doubled_top(self):
        th = coset_theta(3, 3, 4)
        assert th.leading() == (Q(3, 4), 2)

    def test_k3_s2_leading(self):
        th = coset_theta(3, 2, 4)
        assert th.leading() == (Q(1, 3), 1)

    def test_bad_residue(self):
        with pytest.raises(BadResidue):
            coset_theta(3, 6, 4)
        with pytest.raises(BadResidue):
            coset_theta(3, -1, 4)

    def test_symmetry_s_vs_2k_minus_s(self):
        for k in (2, 3, 4, 5):
            for s in range(1, 2 * k):
                assert coset_theta(k, s, 9) == coset_theta(k, 2 * k - s, 9)

    def test_equals_the_sum_over_a_wide_range(self):
        # every residue, against sum_n q^((2kn+s)^2/4k) over |n| <= 40, far
        # beyond the truncations, T <= 0 and off-grid T included
        for k in range(1, 6):
            for s in range(2 * k):
                for T in (Q(-3), 0, Q(1, 7), 1, Q(9, 2), Q(12)):
                    brute = QSeries(
                        [(Q((2 * k * n + s) ** 2, 4 * k), 1) for n in range(-40, 41)], T
                    )
                    assert coset_theta(k, s, T) == brute, (k, s, T)

    def test_nonpositive_truncation_is_empty(self):
        # as heisenberg_char(1, T) and euler_function(T) are: no exponent
        # lies below T
        for T in (0, Q(-1, 2), -1, -7):
            for s in (0, 1, 5):
                assert coset_theta(3, s, T) == QSeries({}, T)
                assert lattice_coset_char(3, s, T) == QSeries({}, T)


class TestLatticeCosetChar:
    def test_k3_s0(self):
        ch = lattice_coset_char(3, 0, 4)
        assert ch == S({0: 1, 1: 1, 2: 2, 3: 5}, 4)

    def test_vacuum_constant_term(self):
        for k in (2, 3, 5):
            assert lattice_coset_char(k, 0, 3).coefficient(0) == 1

    def test_k3_s2_leading_exponent(self):
        assert lattice_coset_char(3, 2, 4).leading()[0] == Q(1, 3)

    def test_symmetry(self):
        for k in (3, 4):
            for s in range(1, 2 * k):
                assert lattice_coset_char(k, s, 8) == lattice_coset_char(
                    k, 2 * k - s, 8
                )


# ---------------------------------------------------------------------------
# two-variable series
# ---------------------------------------------------------------------------


def _zq_coefficient(series: ZQSeries, z: int, e) -> Fraction:
    """The coefficient of z^z q^e in series."""
    return series.terms.get((z, Q(e)), Q(0))


class TestZQSeries:
    def test_geometric_inverse(self):
        g = ZQSeries({(0, 0): 1}, 4).mul_geometric_inverse(2, 1)
        assert _zq_coefficient(g, 0, 0) == 1
        assert _zq_coefficient(g, 2, 1) == 1
        assert _zq_coefficient(g, 4, 2) == 1
        assert _zq_coefficient(g, 6, 3) == 1

    def test_non_integral_charge_raises(self):
        for z in (Q(3, 2), 1.7, 1.0, "1"):
            with pytest.raises(ValueError):
                ZQSeries({(z, 0): 1}, 3)
        # even where the term itself would be dropped
        with pytest.raises(ValueError):
            ZQSeries({(Q(1, 2), 5): 1}, 3)
        assert ZQSeries({(Q(4, 2), 1): 1}, 3).terms == {(2, Q(1)): Q(1)}

    def test_float_is_refused(self):
        for terms, T in (({(1, 0.5): 1}, 3), ({(1, 0): 0.5}, 3), ({(1, 0): 1}, 3.0)):
            with pytest.raises(TypeError):
                ZQSeries(terms, T)

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-4, 4), st.fractions(-2, 6, max_denominator=3)),
            _COEFFICIENTS, max_size=8,
        ),
        T=st.sampled_from([Q(-1), Q(3), Q(7, 2), Q(5)]),
        zexp=st.integers(-3, 3),
        qexp=st.fractions(0, 3, max_denominator=4).filter(bool),
    )
    @settings(max_examples=80, deadline=None)
    def test_geometric_inverse_undone_by_its_factor(self, terms, T, zexp, qexp):
        # g = x / (1 - z^zexp q^qexp) satisfies g - z^zexp q^qexp g = x below T
        x = ZQSeries(terms, T)
        g = x.mul_geometric_inverse(zexp, qexp)
        shifted = [((z + zexp, e + qexp), -c) for (z, e), c in g.terms.items()]
        assert ZQSeries([*g.terms.items(), *shifted], T) == x
