"""Symbol bracket coefficients and generation closure."""

import pytest

from paraferm.w1inf_symbols import (
    derivation_chains,
    falling_factorial,
    generation_closure,
    symbol_product_coefficient,
)


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(4, 2) == 12

    def test_zeroth(self):
        for n in range(-3, 6):
            assert falling_factorial(n, 0) == 1

    def test_factor_hits_zero(self):
        assert falling_factorial(2, 3) == 0


class TestSymbolProduct:
    def test_first_product_rule(self):
        # r = 1 products give (m+n) J^(m+n-1)
        assert symbol_product_coefficient(2, 1, 2) == 4
        for m in range(6):
            for n in range(6):
                if m + n == 0:
                    continue
                assert symbol_product_coefficient(m, 1, n) == m + n

    def test_zeroth_product_vanishes(self):
        for m in range(5):
            for n in range(5):
                assert symbol_product_coefficient(m, 0, n) == 0

    def test_explicit_value(self):
        # J^3_2 J^1 = -6 J^2
        assert symbol_product_coefficient(3, 2, 1) == -6

    def test_skew_compatibility(self):
        # coefficient(m,r,n) = -(-1)^r coefficient(n,r,m)
        for m in range(13):
            for n in range(13):
                for r in range(m + n + 1):
                    lhs = symbol_product_coefficient(m, r, n)
                    rhs = -((-1) ** r) * symbol_product_coefficient(n, r, m)
                    assert lhs == rhs


class TestGenerationClosure:
    def test_weight_two_and_three_generate_everything_positive(self):
        for bound in (10, 20):
            assert generation_closure({1, 2}, bound) == set(range(1, bound + 1))

    def test_index_zero_is_not_produced_by_positive_seeds(self):
        # products J^m_r J^n land on J^0 only for r = m+n, where the
        # coefficient [n]_(m+n) - (-1)^(m+n) [m]_(m+n) vanishes unless one
        # factor is J^0 itself; J^0 is an independent generator.
        for m in range(1, 8):
            for n in range(1, 8):
                assert symbol_product_coefficient(m, m + n, n) == 0

    def test_closure_with_index_zero_seeded(self):
        assert generation_closure({0, 1, 2}, 20) == set(range(21))

    def test_zero_alone_is_inert(self):
        assert generation_closure({0}, 5) == {0}

    def test_single_weight_two_seed_stays_put(self):
        # the only nonzero product of J^1 with itself is 2 J^1 at r = 1
        assert generation_closure({1}, 3) == {1}

    def test_witness_chains_are_valid(self):
        wit = derivation_chains({1, 2}, 15)
        reached = generation_closure({1, 2}, 15)
        assert set(wit) == reached - {1, 2}
        for t, (m, r, n) in wit.items():
            assert m + n - r == t
            assert symbol_product_coefficient(m, r, n) != 0

    def test_negative_seed_is_refused(self):
        # the product loop stops at r = max(m, n), past which both falling
        # factorials vanish only for non-negative indices
        with pytest.raises(ValueError):
            derivation_chains({-1, 2}, 5)
