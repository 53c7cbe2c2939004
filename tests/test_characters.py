"""Affine characters, string functions, decomposition identities."""

from fractions import Fraction
from math import ceil

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
from oracles import affine_char_cascade, decomposition_by_series, euler_function, q_slice
from oracles import colored_partitions_table as colored_partitions
from paraferm.characters import _series
from paraferm.errors import BadLabel, IdentityFailed
from paraferm.fusion_identify import para_normalize
from paraferm.lattice_fock import affine_module_basis
from paraferm.qseries import QSeries, ZQSeries, _Series

Q = Fraction


def _edit_strings(monkeypatch, edit):
    """Sabotage: the ints of every string read through `_strings` are
    replaced by edit(j, ints) before a check sees them; offsets are kept."""
    real = paraferm.characters._strings

    def edited(k, i, js, T):
        z1, strings = real(k, i, js, T)
        return z1, [(offset, edit(j, ints)) for j, (offset, ints) in zip(js, strings)]

    monkeypatch.setattr(paraferm.characters, "_strings", edited)


def _summed_over_z(ch: ZQSeries) -> QSeries:
    """The z = 1 specialisation of ch: its terms summed over the charge."""
    return QSeries([(e, c) for (_, e), c in ch.terms.items()], ch.truncation)


class TestAffineChar:
    def test_vacuum_module_low_dims(self):
        ch = _summed_over_z(affine_sl2_char(3, 0, 4))
        assert {int(e): int(c) for e, c in ch.terms.items()} == {0: 1, 1: 3, 2: 9, 3: 22}

    def test_pbw_oracle_below_the_ideal(self):
        # graded dimension equals 3-colored partitions strictly below k+1
        for k in (3, 4, 5):
            ch = _summed_over_z(affine_sl2_char(k, 0, k + 1))
            for w in range(k + 1):
                assert ch.terms.get(w, 0) == colored_partitions(w, 3)

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
                assert q_slice(ch, w).get(int(lam), 0) == d, (k, i, w, lam)
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
                    assert a == b, (k, i, j)

    def test_top_row_equals_vacuum_row(self):
        for j in range(3):
            a = string_function(3, 3, j, 5)
            b = string_function(3, 0, j, 5)
            assert a == b

    def test_strings_are_truncated_at_t(self):
        # a string alone and the same string among all k are one read: both
        # come from a character read m^2/4k above T and are cut at T
        for k, i, T in ((3, 0, 10), (3, 1, Q(19, 2)), (4, 2, 7), (5, 3, 6)):
            for j, st in enumerate(all_string_functions(k, i, T)):
                assert st.truncation == T, (k, i, j)
                assert st == string_function(k, i, j, T), (k, i, j)

    def test_reader_matches_the_public_character(self):
        # each string is the z^m slice of affine_sl2_char read m^2/4k above
        # T, shifted by -m^2/4k and times Euler's function, and the column
        # sums are that character summed over z, times Euler's function and
        # cut at T; m is the charge in (-k, k] of the class i-2j mod 2k
        for k in range(1, 7):
            for i in range(k + 1):
                ms = [
                    next(m for m in range(1 - k, k + 1) if (m - i + 2 * j) % (2 * k) == 0)
                    for j in range(k)
                ]
                h = affine_top_weight(k, i)
                for T in (Q(0), h, h + Q(1, 7), Q(7, 3), Q(8)):
                    z1, strings = paraferm.characters._strings(k, i, range(k), T)
                    ch = affine_sl2_char(k, i, T + max(Q(m * m, 4 * k) for m in ms))
                    for j, (m, (offset, ints)) in enumerate(zip(ms, strings)):
                        # one int per step of h - m^2/4k + Z below T
                        assert offset == h - Q(m * m, 4 * k), (k, i, T, j)
                        assert len(ints) == max(ceil(T - offset), 0), (k, i, T, j)
                        assert all(type(c) is int for c in ints), (k, i, T, j)
                        row = [(e - Q(m * m, 4 * k), c) for (z, e), c in ch.terms.items() if z == m]
                        expected = QSeries(row, T) * euler_function(T)
                        assert _series(offset, ints, T) == expected, (k, i, T, j)
                    assert z1[0] == h and len(z1[1]) == max(ceil(T - h), 0), (k, i, T)
                    z1_expected = QSeries(_summed_over_z(ch).terms, T) * euler_function(T)
                    assert _series(*z1, T) == z1_expected, (k, i, T)

    @pytest.mark.parametrize(
        "i, m, edit, message",
        [
            (0, 0, lambda row: row[:3] + [row[3] - 100] + row[4:],
             "string (k=3, i=0, j=0) has coefficient -98 < 0 at 3"),
            (1, 1, lambda row: row[:2] + [row[2] - 100] + row[3:],
             "string (k=3, i=1, j=0) has coefficient -98 < 0 at 31/15"),
            (0, 0, lambda row: [2 * c for c in row],
             "string (k=3, i=0, j=0) has leading coefficient 2 != 1"),
        ],
        ids=["negative", "negative_off_z", "leading_two"],
    )
    def test_reader_refuses_a_bad_string(self, monkeypatch, i, m, edit, message):
        # row m of the character is edited before the reader sees it; the
        # messages are those of the series reader the int reader replaced
        real = paraferm.characters._affine_rows

        def edited(k, i, T):
            exps, rows = real(k, i, T)
            rows[m] = edit(rows[m])
            return exps, rows

        monkeypatch.setattr(paraferm.characters, "_affine_rows", edited)
        for read in (lambda: string_function(3, i, 0, 10), lambda: all_string_functions(3, i, 10)):
            with pytest.raises(IdentityFailed) as err:
                read()
            assert str(err.value) == message

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
        _edit_strings(monkeypatch, lambda j, ints: [] if j == 1 else ints)
        r = decomposition_check_lki(3, 0, 6)
        assert r.status == "fail"
        witness = r.details[0]["witness"]
        assert witness["first_failing_exponent"] == Q(1)

    def test_mutated_coefficient_fails(self, monkeypatch):
        # string (3, 0, 0) starts at q^0, so its entry 2 is the one at q^2
        _edit_strings(
            monkeypatch, lambda j, ints: ints[:2] + [ints[2] + 1] + ints[3:] if j == 0 else ints
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
        real = paraferm.characters._affine_rows

        def moved(k, i, T):
            exps, rows = real(k, i, T)
            # the exponent h + 6
            rows[1][6] -= 1
            rows.setdefault(7, [0] * len(exps))[6] += 1
            return exps, rows

        monkeypatch.setattr(paraferm.characters, "_affine_rows", moved)
        r = decomposition_check_lki(k, i, 10)
        assert r.status == "fail"
        assert r.details[0]["witness"] == {
            "first_failing_exponent": Q(123, 20),
            "lhs": 266,
            "rhs": 265,
        }


    def test_failing_report_bytes(self, monkeypatch):
        # string j = 1 dropped: the bytes the series formulation wrote, the
        # exponent and both coefficients Fractions (JSON strings)
        _edit_strings(monkeypatch, lambda j, ints: [] if j == 1 else ints)
        assert decomposition_check_lki(3, 0, 6).to_json() == (
            '{"check":"lk0-decomposition","details":[{"name":"module 0 decomposition to '
            'weight 6","ok":false,"witness":{"first_failing_exponent":"1","lhs":"3","rhs":"2"}}],'
            '"identity":"graded dimensions of the affine module equal the coset-sum",'
            '"params":{"i":0,"k":3,"max_weight":"6"},"status":"fail"}'
        )

    @pytest.mark.parametrize("k", range(3, 9))
    def test_agrees_with_the_series_formulation(self, k):
        # verdict and witness, types included, against the sum over j of
        # lattice_coset_char x string in QSeries arithmetic, on the true
        # strings and on sabotaged ones
        def bump(e):
            return lambda j, ints: [c + 1 if j == 0 and n == e else c for n, c in enumerate(ints)]

        sabotages = [
            None,
            lambda j, ints: [] if j == 1 else ints,
            bump(2),
            bump(5),
            lambda j, ints: ints[:-1] + [ints[-1] - 1] if j == k - 1 and ints else ints,
            lambda j, ints: [2 * c for c in ints] if j == k // 2 else ints,
        ]
        failed = 0
        for edit in sabotages:
            with pytest.MonkeyPatch.context() as mp:
                if edit is not None:
                    _edit_strings(mp, edit)
                for i in range(k + 1):
                    for T in (Q(1), Q(7, 2), Q(10), Q(19, 2)):
                        r = decomposition_check_lki(k, i, T)
                        expected = decomposition_by_series(k, i, T)
                        assert (r.status == "pass") == (expected is None), (k, i, T)
                        if edit is None:
                            assert expected is None, (k, i, T)
                        if expected is not None:
                            failed += 1
                            witness = r.details[0]["witness"]
                            assert witness == expected, (k, i, T)
                            assert {key: type(v) for key, v in witness.items()} == {
                                key: Fraction for key in expected
                            }
        assert failed >= 4 * (k + 1)

    def test_builds_no_series(self, monkeypatch):
        # the check runs on int lists: no QSeries product, sum or constructor
        calls = []
        for cls, name in ((QSeries, "__mul__"), (QSeries, "__add__"), (_Series, "__init__")):
            real = getattr(cls, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cls, name, spy)
        QSeries({0: 1}, 2) * QSeries({1: 1}, 2) + QSeries({}, 2)
        assert set(calls) == {"__add__", "__init__", "__mul__"}
        calls.clear()
        for k, i in ((3, 0), (3, 1), (4, 2), (6, 5)):
            assert decomposition_check_lki(k, i, 10).status == "pass"
        assert calls == []

    def test_applies_no_heisenberg_factor(self, monkeypatch):
        # the strings are rows of ch x prod (1-q^n) and the check compares
        # them with the column sums as they are: on a passing read no factor
        # (1-q^n)^-1, a pair (0, n), reaches `_grid_product`; only the public
        # character divides by prod (1-q^n)
        real = paraferm.characters._grid_product
        pairs = []

        def spy(rows, factors, E):
            pairs.extend((a, n) for a, n in factors if a == 0)
            return real(rows, factors, E)

        monkeypatch.setattr(paraferm.characters, "_grid_product", spy)
        affine_sl2_char(3, 1, 6)
        assert pairs
        pairs.clear()
        for k in range(3, 7):
            for i in range(k + 1):
                assert decomposition_check_lki(k, i, 10).status == "pass"
        all_string_functions(5, 2, 10)
        assert string_dual_route_check(3, 1, 3).status == "pass"
        assert pairs == []


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

    def test_level_below_two_is_a_bad_label(self):
        # the level is checked before the budget and the Fock realization
        # are built
        for k in (0, 1):
            with pytest.raises(BadLabel, match=f"k={k}"):
                string_dual_route_check(k, 0, 3)

    @pytest.mark.parametrize(
        "shift", [Q(1), Q(-1), Q(1, 2)], ids=["one_above", "one_below", "half_above"]
    )
    def test_disagreement_fails_with_mismatches(self, monkeypatch, shift):
        # sabotage: one unit added to the kernel one weight above the
        # string's top, below it, or half a unit off its grid must fail the
        # entry, with that weight as the one mismatch of the witness; the
        # string's coefficient there is 0 below the top and off the grid
        string = string_function(3, 0, 0, 3)
        w = string.leading()[0] + shift
        s = string.terms.get(w, 0)
        real = paraferm.lattice_fock.commutant_dims

        def bumped(basis, charge):
            dims = real(basis, charge)
            return {**dims, w: dims.get(w, 0) + 1}

        monkeypatch.setattr(paraferm.lattice_fock, "commutant_dims", bumped)
        r = string_dual_route_check(3, 0, 3, j=0)
        assert r.status == "fail"
        assert r.details[0]["witness"] == {
            "mismatches": [{"weight": w, "string": s, "kernel": s + 1}]
        }

    def test_builds_no_series(self, monkeypatch):
        # the route compares the int strings with the kernel dimensions as
        # they are: no QSeries is constructed, normal or raw
        def refuse(*args, **kwargs):
            raise AssertionError("the dual route built a series")

        monkeypatch.setattr(_Series, "__init__", refuse)
        monkeypatch.setattr(QSeries, "_normal", refuse)
        monkeypatch.setattr(paraferm.characters, "_series", refuse)
        assert string_dual_route_check(3, 1, 3).status == "pass"
        assert string_dual_route_check(4, 2, 3, j=1).status == "pass"
        with pytest.raises(AssertionError, match="built a series"):
            string_function(3, 0, 0, 3)

    def test_failing_report_bytes(self, monkeypatch):
        # string (3, 0, 1) starts at q^(-1/3); its entry 2, at q^(5/3), is
        # bumped: the bytes the series reader gave, the weight a Fraction
        # and both counts ints
        _edit_strings(
            monkeypatch, lambda j, ints: ints[:2] + [ints[2] + 1] + ints[3:] if j == 1 else ints
        )
        assert string_dual_route_check(3, 0, 3).to_json() == (
            '{"check":"string-dual-route","details":[{"name":"string (i=0, j=0) equals kernel '
            'dimensions below 3","ok":true},{"name":"string (i=0, j=1) equals kernel dimensions '
            'below 3","ok":false,"witness":{"mismatches":[{"kernel":1,"string":2,'
            '"weight":"5/3"}]}},'
            '{"name":"string (i=0, j=2) equals kernel dimensions below 3","ok":true}],"identity":'
            '"two independent computations of the coset graded dimensions","params":{"i":0,"j":'
            '"all","k":3,"max_weight":"3"},"status":"fail"}'
        )

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
            lambda *a, **kw: real(*a, **kw)._replace(truncated=True),
        )
        assert string_dual_route_check(3, 0, 3).status == "pass-up-to-truncation"


class TestWCentralCharge:
    def test_minimal_series_value(self):
        for k in range(3, 21):
            assert w_minimal_central_charge(k) == Q(2 * (k - 1), k + 2)

    def test_explicit_small_case(self):
        assert w_minimal_central_charge(3) == Q(4, 5)
