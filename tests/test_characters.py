"""Affine characters, string functions, decomposition identities."""

import dataclasses
from fractions import Fraction

import pytest

import paraferm.characters
import paraferm.lattice_fock
from paraferm.characters import (
    affine_sl2_char,
    affine_top_weight,
    all_string_functions,
    decomposition_check_lki,
    string_dual_route_check,
    string_function,
    w_minimal_central_charge,
)
from oracles import affine_char_cascade, q_slice
from oracles import colored_partitions_table as colored_partitions
from paraferm.errors import BadLabel
from paraferm.fusion_identify import para_normalize
from paraferm.lattice_fock import affine_module_basis
from paraferm.qseries import QSeries, ZQSeries

Q = Fraction


def _edit_strings(monkeypatch, edit):
    """Sabotage: every string read through `_strings` is replaced by
    edit(j, string) before a check sees it."""
    real = paraferm.characters._strings

    def edited(k, i, js, T):
        ch, strings = real(k, i, js, T)
        return ch, [edit(j, st) for j, st in zip(js, strings)]

    monkeypatch.setattr(paraferm.characters, "_strings", edited)


class TestAffineChar:
    def test_vacuum_module_low_dims(self):
        ch = affine_sl2_char(3, 0, 4).specialize_z1()
        assert {int(e): int(c) for e, c in ch.terms.items()} == {0: 1, 1: 3, 2: 9, 3: 22}

    def test_pbw_oracle_below_the_ideal(self):
        # graded dimension equals 3-colored partitions strictly below k+1
        for k in (3, 4, 5):
            ch = affine_sl2_char(k, 0, k + 1).specialize_z1()
            for w in range(k + 1):
                assert ch.coefficient(w) == colored_partitions(w, 3)

    def test_top_levels(self):
        # (i+1)-dimensional top at weight i(i+2)/4(k+2)
        for k in (3, 4):
            for i in range(k + 1):
                h = affine_top_weight(k, i)
                ch = affine_sl2_char(k, i, h + 1)
                top = q_slice(ch, h)
                assert sum(top.values()) == i + 1
                assert set(top) == {i - 2 * t for t in range(i + 1)}

    def test_no_weights_below_top(self):
        for k, i in ((3, 1), (4, 3)):
            h = affine_top_weight(k, i)
            ch = affine_sl2_char(k, i, h + 2)
            assert min(e for _, e in ch.terms) == h

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            affine_sl2_char(3, 4, 3)
        with pytest.raises(BadLabel):
            affine_sl2_char(3, -1, 3)

    def test_equals_the_geometric_cascade(self):
        # the integer grid against one mul_geometric_inverse per factor, on
        # integral and rational truncations, some of them at or below h
        for k in range(1, 7):
            for i in range(k + 1):
                h = affine_top_weight(k, i)
                for T in (Q(0), h, h + Q(1, 7), Q(7, 3), Q(10), Q(23, 2)):
                    ch = affine_sl2_char(k, i, T)
                    assert ch == affine_char_cascade(k, i, T), (k, i, T)
                    for (z, e), c in ch.terms.items():
                        assert type(z) is int and type(e) is Fraction
                        assert type(c) is Fraction and c and c.denominator == 1

    def test_matches_fock_realization_by_charge(self):
        # cross-module oracle: two-variable coefficients against the graded,
        # charge-resolved dimensions of the realized module
        for k, i, wmax in ((3, 0, 3), (3, 1, Q(9, 4) - Q(1, 10)), (4, 2, 2)):
            basis = affine_module_basis(k, i, wmax + Q(i * (k - i), 4 * (k + 2)))
            ch = affine_sl2_char(k, i, wmax + Q(1, 2))
            realized = basis.charge_dims()
            for (w, lam), d in realized.items():
                assert ch.coefficient(int(lam), w) == d, (k, i, w, lam)
            total_char = sum(
                c for (_, e), c in ch.terms.items() if e <= max(w for w, _ in realized)
            )
            assert total_char == sum(realized.values())


class TestStringFunctions:
    def test_vacuum_string_k3(self):
        st = string_function(3, 0, 0, 7)
        assert {int(e): int(c) for e, c in st.terms.items()} == {
            0: 1,
            2: 1,
            3: 2,
            4: 3,
            5: 4,
            6: 7,
        }

    def test_leading_terms(self):
        assert string_function(3, 0, 1, 5).leading()[0] == Q(2, 3)
        assert string_function(3, 1, 0, 5).leading()[0] == Q(1, 15)

    def test_top_weights_match_label_formula(self):
        for k in (3, 4):
            for i in range(k + 1):
                for j, st in enumerate(all_string_functions(k, i, 4)):
                    assert st.leading()[0] == para_normalize(k, i, j).topweight, (k, i, j)
                    assert st.leading()[1] == 1

    def test_equivalent_labels_have_equal_strings(self):
        # (i, j) and (k-i, j-i) label isomorphic modules
        for k in (3, 4):
            for i in range(k + 1):
                for j in range(k):
                    a = string_function(k, i, j, 5)
                    b = string_function(k, k - i, j - i, 5)
                    assert a.disagreements(b) == [], (k, i, j)

    def test_top_row_equals_vacuum_row(self):
        for j in range(3):
            a = string_function(3, 3, j, 5)
            b = string_function(3, 0, j, 5)
            assert a.disagreements(b) == []

    def test_strings_are_truncated_at_t(self):
        # a string alone and the same string among all k are one read: both
        # come from a character read m^2/4k above T and are cut at T
        for k, i, T in ((3, 0, 10), (3, 1, Q(19, 2)), (4, 2, 7), (5, 3, 6)):
            for j, st in enumerate(all_string_functions(k, i, T)):
                assert st.truncation == T, (k, i, j)
                assert st == string_function(k, i, j, T), (k, i, j)

    def test_serialization_table(self):
        st = string_function(3, 1, 0, 4)
        assert st.leading()[0] == Fraction(1, 15)
        assert all(c.denominator == 1 for c in st.terms.values())


class TestDecomposition:
    def test_vacuum_decomposition(self):
        for k in (3, 4):
            assert decomposition_check_lki(k, 0, 6).status == "pass"

    def test_all_modules_decompose(self):
        for k in (3, 4):
            for i in range(k + 1):
                r = decomposition_check_lki(k, i, 6)
                assert r.status == "pass", (k, i)

    def test_dropping_one_string_fails_at_its_total_weight(self, monkeypatch):
        # removing the j=1 summand leaves a defect at coset-top + string-top
        # = 1/k + (k-1)/k = 1
        _edit_strings(monkeypatch, lambda j, st: QSeries({}, st.truncation) if j == 1 else st)
        r = decomposition_check_lki(3, 0, 6)
        assert r.status == "fail"
        witness = r.details[0]["witness"]
        assert witness["first_failing_exponent"] == Q(1)

    def test_mutated_coefficient_fails(self, monkeypatch):
        _edit_strings(
            monkeypatch, lambda j, st: st + QSeries({2: 1}, st.truncation) if j == 0 else st
        )
        r = decomposition_check_lki(3, 0, 6)
        assert r.status == "fail"
        assert r.details[0]["witness"]["first_failing_exponent"] == Q(2)

    def test_all_string_functions_are_truncated_at_t(self):
        # each string is shifted by -m^2/4k after its slice is read, so the
        # character is read m^2/4k higher: no string is cut below T
        for k, i, T in ((3, 0, 10), (3, 1, Q(19, 2)), (4, 2, 7), (5, 3, 6)):
            strings = all_string_functions(k, i, T)
            assert [st.truncation for st in strings] == [T] * k, (k, i)
        assert decomposition_check_lki(3, 0, 10).status == "pass"

    def test_moving_a_unit_within_a_charge_class_fails(self, monkeypatch):
        # z^1 and z^7 lie in one charge class mod 2k = 6; a unit moved
        # between them keeps the z = 1 specialisation but not the z^1 slice
        # the string is read from
        k, i = 3, 1
        real = paraferm.characters.affine_sl2_char
        e = affine_top_weight(k, i) + 6

        def moved(k, i, T):
            ch = real(k, i, T)
            terms = dict(ch.terms)
            terms[(1, e)] -= 1
            terms[(7, e)] = terms.get((7, e), 0) + 1
            return ZQSeries(terms, ch.truncation)

        monkeypatch.setattr(paraferm.characters, "affine_sl2_char", moved)
        r = decomposition_check_lki(k, i, 10)
        assert r.status == "fail"
        assert r.details[0]["witness"] == {
            "first_failing_exponent": Q(123, 20),
            "lhs": 266,
            "rhs": 265,
        }


class TestDualRoute:
    def test_k3_all_sectors(self):
        for i in range(4):
            r = string_dual_route_check(3, i, 4)
            assert r.status == "pass", (3, i)

    def test_k4_all_sectors(self):
        for i in range(5):
            r = string_dual_route_check(4, i, 3)
            assert r.status == "pass", (4, i)

    def test_single_string_variant(self):
        r = string_dual_route_check(3, 1, 4, j=1)
        assert r.status == "pass"

    def test_out_of_range_label_is_a_bad_label(self):
        # j = 7 used to check the string j = 1 and report j = 7
        for j in (-1, 3, 7):
            with pytest.raises(BadLabel):
                string_dual_route_check(3, 0, 3, j=j)
        for i in (-1, 4):
            with pytest.raises(BadLabel):
                string_dual_route_check(3, i, 3)

    @pytest.mark.parametrize(
        "shift", [Q(1), Q(-1), Q(1, 2)], ids=["one_above", "one_below", "half_above"]
    )
    def test_disagreement_fails_with_mismatches(self, monkeypatch, shift):
        # sabotage: one unit added to the string one weight above its top,
        # below it, or half a unit off its grid must fail the entry, with
        # that weight as the one mismatch of the witness
        _edit_strings(
            monkeypatch, lambda j, st: st + QSeries({st.leading()[0] + shift: 1}, st.truncation)
        )
        r = string_dual_route_check(3, 0, 3, j=0)
        assert r.status == "fail"
        assert r.details[0]["witness"] == {
            "mismatches": [{"weight": shift, "string": 1, "kernel": 0}]
        }

    def test_basis_is_built_inside_the_budget_of_the_read_charges(self, monkeypatch):
        # (4, 1): the strings j = 0..3 read charges 1, -1, -3, 3, each up to
        # ambient weight T + lam^2/16 + 1*3/24
        real = paraferm.lattice_fock.affine_module_basis
        built = []

        def recording(*a, **kw):
            built.append(real(*a, **kw))
            return built[-1]

        monkeypatch.setattr(paraferm.lattice_fock, "affine_module_basis", recording)
        assert string_dual_route_check(4, 1, 3).status == "pass"
        assert string_dual_route_check(4, 1, 3, j=2).status == "pass"
        every, one = built
        assert every.budget == {lam: 3 + Q(lam * lam, 16) + Q(1, 8) for lam in (1, -1, -3, 3)}
        assert one.budget == {-3: 3 + Q(9, 16) + Q(1, 8)}

    @pytest.mark.parametrize("i", range(4))
    def test_empty_window_compares_nothing(self, i):
        # no coset weight lies below T <= 0; at i = 2, T = 0 and at every
        # T < 0 the budget falls below the top level i/4, where the basis
        # still starts.  Each window gives its k entries, all passing
        for T in (0, Q(-1, 2), -1):
            for j in (None, 1):
                r = string_dual_route_check(3, i, T, j=j)
                names = [d["name"] for d in r.details]
                assert r.status == "pass", (i, T, j)
                assert names == [
                    f"string (i={i}, j={jj}) equals kernel dimensions below {T}"
                    for jj in (range(3) if j is None else [j])
                ]

    def test_truncated_basis_passes_only_up_to_truncation(self, monkeypatch):
        real = paraferm.lattice_fock.affine_module_basis
        monkeypatch.setattr(
            paraferm.lattice_fock,
            "affine_module_basis",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), truncated=True),
        )
        assert string_dual_route_check(3, 0, 3).status == "pass-up-to-truncation"


class TestWCentralCharge:
    def test_minimal_series_value(self):
        for k in range(3, 21):
            assert w_minimal_central_charge(k) == Q(2 * (k - 1), k + 2)

    def test_explicit_small_case(self):
        assert w_minimal_central_charge(3) == Q(4, 5)
