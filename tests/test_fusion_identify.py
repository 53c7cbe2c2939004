"""Label arithmetic, top-weight formulas, group actions, identification."""

import json
from fractions import Fraction
from itertools import product

import pytest

import paraferm.fusion_identify
from oracles import (
    brute_force_identifications,
    form1_map,
    form2_map,
    identify_report_by_labels,
    label_mapping,
    topweight_match_report_by_labels,
)
from paraferm.cli import main
from paraferm.errors import BadLabel, NoIdentification
from paraferm.fusion_identify import (
    Bijection,
    ParaLabel,
    WLabel,
    enumerate_simples,
    enumerate_w_simples,
    identify,
    identify_check,
    para_normalize,
    topweight_match_check,
    w_label,
)

Q = Fraction


class TestLabels:
    def test_direct_construction_validates(self):
        with pytest.raises(BadLabel, match=r"^non-canonical coset label \(0,0\) at k=3$"):
            ParaLabel(3, 0, 0)
        with pytest.raises(BadLabel, match=r"^non-canonical W label \(2,1\) at k=3$"):
            WLabel(3, 2, 1)

    def test_str_and_repr(self):
        assert str(ParaLabel(3, 1, 0)) == "M[1,0]"
        assert repr(ParaLabel(3, 1, 0)) == "ParaLabel(k=3, i=1, j=0)"
        assert str(WLabel(3, 0, 2)) == "W[0,2]"
        assert repr(WLabel(3, 0, 2)) == "WLabel(k=3, a=0, b=2)"

    def test_enumeration_is_in_label_order(self):
        for k in range(2, 12):
            assert sorted(enumerate_simples(k)) == enumerate_simples(k)
            assert sorted(enumerate_w_simples(k)) == enumerate_w_simples(k)

    def test_topweight_is_the_numerator_over_2k_k_plus_2(self):
        for k in range(3, 9):
            for lab in enumerate_simples(k) + enumerate_w_simples(k):
                assert isinstance(lab.topweight_num, int)
                assert lab.topweight == Q(lab.topweight_num, 2 * k * (k + 2)), lab

    def test_identify_mappings_are_in_label_order(self):
        for k in range(3, 9):
            for b in identify(k):
                assert list(label_mapping(b)) == enumerate_simples(k), (k, b.form)


class TestNormalization:
    def test_flip_to_canonical(self):
        assert para_normalize(3, 1, 2) == para_normalize(3, 2, 1)
        lab = para_normalize(3, 1, 2)
        assert (lab.i, lab.j) == (2, 1)

    def test_already_canonical(self):
        lab = para_normalize(3, 2, 1)
        assert (lab.i, lab.j) == (2, 1)

    def test_zero_row_maps_to_top_row(self):
        for j in range(3):
            lab = para_normalize(3, 0, j)
            assert (lab.i, lab.j) == (3, j)

    def test_idempotent(self):
        for k in (3, 4, 5, 8):
            for i in range(k + 1):
                for j in range(k):
                    lab = para_normalize(k, i, j)
                    assert para_normalize(k, lab.i, lab.j) == lab

    def test_bad_first_index(self):
        with pytest.raises(BadLabel):
            para_normalize(3, 4, 0)


class TestTopWeights:
    def test_para_examples(self):
        assert para_normalize(3, 1, 0).topweight == Q(1, 15)
        for k in (3, 4, 7):
            assert para_normalize(k, k, 0).topweight == 0
        assert para_normalize(3, 0, 1).topweight == Q(2, 3)

    def test_current_topweight_formula(self):
        # class of (0, j) has top weight j(k-j)/k
        for k in range(2, 12):
            for j in range(k):
                assert para_normalize(k, 0, j).topweight == Q(j * (k - j), k)

    def test_w_examples(self):
        assert w_label(3, 0, 2).topweight == Q(1, 15)
        for k in (3, 5, 9):
            assert w_label(k, 0, 0).topweight == 0

    def test_w_diagonal_simplifies(self):
        for k in range(2, 15):
            for p in range(k):
                assert w_label(k, p, p).topweight == Q(p * (k - p), k)

    def test_p_value_minimum_identity(self):
        # P(i,j) - i(k-i) = 2(k+2) j (i-j) >= 0, zero iff j in {0, i}
        for k in range(2, 21):
            for i in range(k + 1):
                for j in range(i + 1):
                    lhs = (
                        k * (i - 2 * j)
                        - (i - 2 * j) ** 2
                        + 2 * k * (i - j + 1) * j
                        - i * (k - i)
                    )
                    assert lhs == 2 * (k + 2) * j * (i - j)
                    assert lhs >= 0
                    assert (lhs == 0) == (j in (0, i))


class TestGroupActions:
    def test_theta_fixed_point(self):
        assert para_normalize(3, 2, 1).twist() == para_normalize(3, 2, 1)

    def test_theta_swaps_currents(self):
        assert para_normalize(3, 0, 1).twist() == para_normalize(3, 0, 2)

    def test_theta_involution(self):
        for k in range(3, 9):
            for lab in enumerate_simples(k):
                assert lab.twist().twist() == lab
            for lab in enumerate_w_simples(k):
                assert lab.twist().twist() == lab

    def test_current_fusion_on_currents(self):
        assert para_normalize(3, 0, 2).current(1) == para_normalize(3, 0, 0)
        assert w_label(3, 2, 2).current(1) == w_label(3, 0, 0)

    def test_current_index_out_of_range(self):
        for lab in (para_normalize(3, 0, 1), w_label(3, 1, 1)):
            for p in (-1, 3):
                with pytest.raises(BadLabel):
                    lab.current(p)

    def test_identity_current(self):
        for k in (3, 5):
            for lab in enumerate_simples(k):
                assert lab.current(0) == lab

    def test_theta_conjugates_currents(self):
        # theta . (fuse with p-th current) . theta = fuse with (k-p)-th
        for k in range(3, 9):
            for p in range(k):
                q = (k - p) % k
                for lab in enumerate_simples(k):
                    lhs = lab.twist().current(p).twist()
                    assert lhs == lab.current(q)
                for lab in enumerate_w_simples(k):
                    lhs = lab.twist().current(p).twist()
                    assert lhs == lab.current(q)


class TestEnumerateSimples:
    def test_counts(self):
        assert len(enumerate_simples(3)) == 6
        assert len(enumerate_simples(4)) == 10
        assert len(enumerate_simples(2)) == 3
        for k in range(2, 21):
            assert len(enumerate_simples(k)) == k * (k + 1) // 2
            assert len(enumerate_w_simples(k)) == k * (k + 1) // 2

    def test_distinct(self):
        for k in range(2, 12):
            labs = enumerate_simples(k)
            assert len(set(labs)) == len(labs)


class TestTopWeightMatching:
    def test_form1_preserves_topweights_all_labels(self):
        # also covers non-canonical inputs through normalization
        for k in range(3, 21):
            for i in range(k + 1):
                for j in range(k):
                    para = para_normalize(k, i, j).topweight
                    w = w_label(k, j, j - i)
                    assert para == w.topweight, (k, i, j)

    def test_form2_preserves_topweights_all_labels(self):
        for k in range(3, 21):
            for i in range(k + 1):
                for j in range(k):
                    para = para_normalize(k, i, j).topweight
                    w = w_label(k, -j, i - j)
                    assert para == w.topweight, (k, i, j)


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------


class TestIdentify:
    def test_exactly_two_for_k_3_to_8(self):
        for k in range(3, 9):
            bijs = identify(k)
            assert len(bijs) == 2
            assert {b.form for b in bijs} == {"form1", "form2"}

    # the levels of the benchmark's character-route workload
    def test_matches_closed_forms(self):
        for k in range(3, 41):
            by_form = {b.form: label_mapping(b) for b in identify(k)}
            assert by_form["form1"] == form1_map(k)
            assert by_form["form2"] == form2_map(k)

    def test_k3_seed_value(self):
        b1 = next(b for b in identify(3) if b.form == "form1")
        assert label_mapping(b1)[para_normalize(3, 1, 0)] == w_label(3, 0, 2)

    def test_form2_is_theta_conjugate_of_form1(self):
        for k in range(3, 41):
            by_form = {b.form: label_mapping(b) for b in identify(k)}
            f1, f2 = by_form["form1"], by_form["form2"]
            for lab in enumerate_simples(k):
                assert f2[lab] == f1[lab.twist()]
                assert f2[lab] == f1[lab].twist()

    def test_both_preserve_topweights(self):
        for k in range(3, 9):
            for b in identify(k):
                assert b.preserves_topweights()

    def test_current_equivariance(self):
        for k in range(3, 8):
            for b in identify(k):
                u = 1 if b.form == "form1" else k - 1
                mapping = label_mapping(b)
                for p in range(k):
                    for lab in enumerate_simples(k):
                        lhs = mapping[lab.current(p)]
                        rhs = mapping[lab].current((u * p) % k)
                        assert lhs == rhs

    def test_brute_force_oracle_agreement(self):
        for k in (3, 4, 5):
            oracle = brute_force_identifications(k)
            ours = [label_mapping(b) for b in identify(k)]
            assert len(oracle) == 2
            for mapping in ours:
                assert mapping in oracle

    def test_serialization_shape(self):
        b = identify(4)[0]
        obj = b.to_obj()
        assert obj["k"] == 4 and obj["form"] == "form1"
        assert len(obj["pairs"]) == 10


class TestIdentifyCheck:
    @pytest.mark.parametrize(
        "integral, error, message",
        [
            (False, "NoIdentification", "no consistent stage-1 assignment at k=4"),
            (
                True,
                "AmbiguousIdentification",
                "stage-1 assignment not unique at k=4: "
                "[WLabel(k=4, a=0, b=3), WLabel(k=4, a=0, b=1)]",
            ),
        ],
        ids=["no-survivor", "two-survivors"],
    )
    def test_failed_search_fails_the_check(self, monkeypatch, capsys, integral, error, message):
        monkeypatch.setattr(
            paraferm.fusion_identify, "_obstruction_integral", lambda k, p, sigma, cand: integral
        )
        first = {
            "name": "exactly two identifications",
            "ok": False,
            "witness": {"error": error, "message": message},
        }
        report = identify_check(4)
        assert report.status == "fail"
        assert report.details[0] == first
        assert main(["identify", "--k", "4"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "fail" and out["details"][0] == first

    @pytest.mark.parametrize(
        "stage, seed, message",
        [
            (2, (0, 1), "inconsistent images for M[2,0] at k=4: W[0,1] vs W[2,3]"),
            (1, (0, 0), "stage assembly is not a bijection at k=4"),
        ],
        ids=["inconsistent", "not-a-bijection"],
    )
    def test_assembly_errors_name_the_labels(self, monkeypatch, stage, seed, message):
        # force `seed` as the one survivor of `stage`
        candidates = paraferm.fusion_identify._stage_candidates
        integral = paraferm.fusion_identify._obstruction_integral
        monkeypatch.setattr(
            paraferm.fusion_identify,
            "_stage_candidates",
            lambda k, p: [w_label(k, *seed)] if p == stage else candidates(k, p),
        )
        monkeypatch.setattr(
            paraferm.fusion_identify,
            "_obstruction_integral",
            lambda k, p, sigma, cand: p == stage or integral(k, p, sigma, cand),
        )
        with pytest.raises(NoIdentification) as err:
            identify(4)
        assert str(err.value) == message
        witness = {"error": "NoIdentification", "message": message}
        assert identify_check(4).details[0]["witness"] == witness

    @pytest.mark.parametrize("k", range(3, 13))
    def test_moved_topweight_fails_with_the_bijection(self, monkeypatch, k):
        form1 = identify(k)[0]
        mapping = label_mapping(form1)
        a, b = ParaLabel(k, 1, 0), ParaLabel(k, k, 0)
        assert mapping[a].topweight != mapping[b].topweight
        # swap the images of a and b in the int pairs
        images = dict(form1.pairs)
        images[1, 0], images[k, 0] = images[k, 0], images[1, 0]
        moved = Bijection(k, "form1", tuple(images.items()))
        assert label_mapping(moved) == {**mapping, a: mapping[b], b: mapping[a]}
        assert form1.preserves_topweights() and not moved.preserves_topweights()
        monkeypatch.setattr(paraferm.fusion_identify, "identify", lambda k: [moved, form1])
        report = identify_check(k)
        assert report.status == "fail"
        entry = next(d for d in report.details if d["name"] == "both preserve top weights")
        assert entry == {
            "name": "both preserve top weights",
            "ok": False,
            "witness": {"bijections": [moved.to_obj()]},
        }


# the pinned reference (perfbench/reference.json) stops at k = 40
class TestAgainstLabels:
    @pytest.mark.parametrize("k", range(3, 61))
    def test_identify_report_equals_the_label_built_one(self, k):
        assert identify_check(k).to_json() == identify_report_by_labels(k).to_json()

    @pytest.mark.parametrize("k", range(2, 61))
    def test_topweight_match_report_equals_the_label_built_one(self, k):
        assert topweight_match_check(k).to_json() == topweight_match_report_by_labels(k).to_json()

    def test_int_topweights_agree_with_the_labels(self):
        # every coset label against every W label, so most pairs mismatch
        for k in range(2, 13):
            labs = list(product(enumerate_simples(k), enumerate_w_simples(k)))
            pairs = [(p[1:], w[1:]) for p, w in labs]
            expected = [t for t, (p, w) in enumerate(labs) if p.topweight_num != w.topweight_num]
            found = list(paraferm.fusion_identify._topweight_mismatches(k, pairs))
            assert found == expected, k
