"""Fock-space mode operators, generators, conformal vectors, kernels."""

import ast
import functools
import gc
import itertools
import pathlib
import pickle
import random
import weakref
from fractions import Fraction
from math import factorial, floor, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_modes_affine_dims,
    commutant_kernel_oracle,
    expand,
    heisenberg_field_mode,
    heisenberg_mode,
    rref_nullspace,
    sector_graded_dims,
    theta_involution,
)
from oracles import colored_partitions_table as colored_partitions
import oracles
import paraferm.characters
import paraferm.lattice_fock
import paraferm.qseries
from paraferm.errors import NonIntegralPairing
from paraferm.lattice_fock import (
    FockState,
    Lattice,
    StateVector,
    _basis_coords,
    _binom_general,
    _canonical,
    _commutant_systems,
    _exp_component,
    _floor_bound,
    _fold,
    _insert_mode,
    _key,
    _lincomb,
    _representative,
    _unfold,
    affine_module_basis,
    central_charge_of,
    commutant_dims,
    commutant_kernel,
    conformal_vectors,
    ek_power_check,
    exp_mode_apply,
    gamma_lattice,
    generated_subspace,
    heisenberg_apply,
    intertwiner_leading_check,
    mode_apply,
    nullspace,
    ope_check,
    rank_lattice,
    random_state_vector,
    rank,
    singular_space_dimension,
    singular_vector_check,
    sl2_generators,
    state_weight,
    virasoro_bracket_check,
    virasoro_mode,
)
from paraferm.qseries import lattice_coset_char

Q = Fraction


def _folded(lat, blocks, num) -> dict[FockState, int]:
    """`_fold` with its keys read back as states."""
    return _unfold(lat, blocks, _fold(lat, blocks, num))


def _layer_dims(b) -> dict[Fraction, int]:
    """The number of rows per ambient weight of a basis."""
    return {w: len(rows) for w, rows in sorted(b.layers.items()) if rows}


class TestLatticeBasics:
    def test_gamma_norm(self):
        for k in (2, 3, 4, 5):
            lat = rank_lattice(k)
            assert lat.norm(lat.gamma()) == 2 * k

    def test_point_weights(self):
        lat = rank_lattice(3)
        # e^(b_1): half-unit coords (2,0,0), weight <b,b>/2 = 1
        assert lat.point_weight((2, 0, 0)) == 1
        # dual point with all coordinates odd: weight k/4
        assert lat.point_weight((1, 1, 1)) == Q(3, 4)

    def test_gamma_lattice_weights(self):
        lat = gamma_lattice(3)
        # e^(gamma/k): coords 2 in 1/2k units, weight 1/k
        assert lat.point_weight((2,)) == Q(1, 3)
        assert lat.norm(lat.gamma()) == 6

    def test_state_weight(self):
        lat = rank_lattice(3)
        s = FockState((2, 0, 0), ((0, 2), (1, 1)))
        assert state_weight(lat, s) == 4


class TestIllShapedInput:
    """The Fock API refuses input that does not fit the lattice instead of
    computing on a misread shape."""

    def test_heisenberg_beta_of_wrong_length(self):
        # (0, 0, 0, 2) used to create b_3(-1)1, a direction rank 3 lacks
        vac = StateVector.vacuum(rank_lattice(3), 4)
        for beta in ((0, 0, 0, 2), (2, 0)):
            for n in (-1, 0, 1):
                with pytest.raises(ValueError):
                    heisenberg_apply(beta, n, vac)

    def test_heisenberg_mode_number_must_be_an_int(self):
        # n = -1/2 used to create the mode (0, 1/2), and n = -1.0 the mode
        # (0, 1.0): neither is a FockState
        vac = StateVector.vacuum(rank_lattice(2), 4)
        for n in (Q(-1, 2), -1.0, Q(1, 2), Q(-1)):
            with pytest.raises(ValueError):
                heisenberg_apply((2, 0), n, vac)

    def test_exponential_beta_of_wrong_length(self):
        # (2, 0) used to give the rank-2 point (2, 0) in a rank-3 space
        vac = StateVector.vacuum(rank_lattice(3), 4)
        for beta in ((2, 0), (2, 0, 0, 0)):
            with pytest.raises(ValueError):
                exp_mode_apply(beta, -1, vac)

    def test_unsorted_modes_are_refused(self):
        # b_1(-1)b_0(-1)1 - b_0(-1)b_1(-1)1 = 0, but under two keys it was
        # a nonzero vector
        lat, pt = rank_lattice(3), (0, 0, 0)
        with pytest.raises(ValueError):
            StateVector(
                lat, 4, {FockState(pt, ((1, 1), (0, 1))): 1, FockState(pt, ((0, 1), (1, 1))): -1}
            )
        with pytest.raises(ValueError):
            StateVector(lat, 4, [(FockState(pt, [(0, 1)]), 1)])
        sorted_modes = FockState(pt, ((0, 1), (0, 1), (1, 1)))
        assert StateVector(lat, 4, {sorted_modes: 1}).terms == {sorted_modes: 1}

    def test_modes_and_points_must_fit_the_lattice(self):
        # a mode n = 0 was accepted, as were directions and points off the lattice
        lat, pt = rank_lattice(3), (0, 0, 0)
        for state in (
            FockState(pt, ((0, 0),)),
            FockState(pt, ((1, -1),)),
            FockState(pt, ((3, 1),)),
            FockState(pt, ((-1, 1),)),
            FockState((0, 0), ()),
            FockState((0, 0, 0, 0), ()),
        ):
            with pytest.raises(ValueError):
                StateVector(lat, 4, {state: 1})
        for rank_, den in ((0, 2), (-1, 2), (3, 0), (3, -2)):
            with pytest.raises(ValueError):
                Lattice(rank_, den)


class TestHeisenbergApply:
    def test_zero_mode_eigenvalue_on_dual_exponential(self):
        # gamma(0) on e^(-gamma/k) has eigenvalue -2 for every k
        for k in (3, 4):
            lat = gamma_lattice(k)
            v = StateVector.exponential(lat, (-2,), 4)
            got = heisenberg_apply(lat.gamma(), 0, v)
            assert got == v.scale(-2)

    def test_annihilates_vacuum(self):
        lat = rank_lattice(3)
        vac = StateVector.vacuum(lat, 4)
        assert heisenberg_apply(lat.gamma(), 1, vac).is_zero()

    def test_commutator_value(self):
        # gamma(1) gamma(-1) 1 = <gamma,gamma> 1 = 2k
        for k in (3, 4, 5):
            lat = rank_lattice(k)
            vac = StateVector.vacuum(lat, 4)
            v = heisenberg_apply(lat.gamma(), -1, vac)
            assert heisenberg_apply(lat.gamma(), 1, v) == vac.scale(2 * k)

    def test_heisenberg_bracket_randomized(self):
        # [beta(m), gamma(n)] = m <beta, gamma> delta_{m+n,0} for beta in
        # {gamma, b_1, b_1 - b_2}, where <beta, gamma> = 2k, 2, 0
        k = 3
        lat = rank_lattice(k)
        rng = random.Random(11)
        gam = lat.gamma()
        betas = {gam: 2 * k, (2, 0, 0): 2, (2, -2, 0): 0}
        modes = range(-3, 4)
        for _ in range(6):
            # weight 4 plus two creations of depth 3 stays within T = 10, and
            # gamma(-n) on a state holding b_p(-n) repeats that mode
            v = random_state_vector(lat, 10, rng, max_weight=4)
            for (beta, pair), m, n in itertools.product(betas.items(), modes, modes):
                lhs = heisenberg_apply(beta, m, heisenberg_apply(gam, n, v)) - heisenberg_apply(
                    gam, n, heisenberg_apply(beta, m, v)
                )
                want = v.scale(m * pair) if m + n == 0 else v.scale(0)
                assert lhs == want and not lhs.truncated, (beta, m, n)

    def test_truncation_overflow_sets_sticky_flag(self):
        lat = rank_lattice(3)
        vac = StateVector.vacuum(lat, 2)
        v = heisenberg_apply(lat.gamma(), -3, vac)
        assert v.is_zero() and v.truncated
        # flag propagates through sums
        w = v + StateVector.vacuum(lat, 2)
        assert w.truncated


class TestExpApply:
    def test_intertwiner_leading_terms(self):
        for k in (3, 4, 5):
            r = intertwiner_leading_check(k)
            assert r.status == "pass", r.to_json()

    def test_intertwiner_below_weight_one_is_truncated(self):
        # gamma(-1)1 has weight 1: below it both sides of the z^(1-2/k)
        # identity are dropped to zero, which proves nothing
        for k in (2, 3, 4):
            r = intertwiner_leading_check(k, Q(1, 2))
            assert r.status == "pass-up-to-truncation", r.to_json()

    def test_intertwiner_modes_explicitly(self):
        # the z-exponent -m-1 of the mode m runs -5/3, -2/3, 1/3, 4/3 here
        k = 3
        lat = gamma_lattice(k)
        v = StateVector.exponential(lat, (-2,), 3)

        def component(z):
            return exp_mode_apply((2,), -z - 1, v)

        vac = StateVector.vacuum(lat, 3)
        want = heisenberg_apply(lat.gamma(), -1, vac).scale(Q(1, k))
        assert component(Q(-5, 3)).is_zero()
        assert component(Q(-2, 3)) == vac
        assert component(Q(1, 3)) == want
        third = component(Q(4, 3))
        assert not third.is_zero() and third.weights() == {2}

    def test_root_exponential_pairing(self):
        # the z^(-2) coefficient of the field of e^(b_1) on e^(-b_1) is 1
        lat = rank_lattice(3)
        b1 = (2, 0, 0)
        v = StateVector.exponential(lat, (-2, 0, 0), 4)
        got = exp_mode_apply(b1, 1, v)  # mode m with -m-1 = -2
        assert got == StateVector.vacuum(lat, 4)

    def test_heisenberg_bracket_with_exponential_modes(self):
        # [h(n), (e^beta)_m] = <h, beta> (e^beta)_(m+n), on states carrying
        # modes, one of them repeated, so the annihilation half of the field
        # meets every multiplicity.  The samples have weight at most 6 and
        # both sides raise it by at most 4, so T = 10 drops nothing
        lat = rank_lattice(3)
        rng = random.Random(5)
        repeated = StateVector(lat, 10, {FockState((-2, 0, 2), ((0, 1), (0, 1), (2, 2))): 1})
        vecs = [repeated] + [
            random_state_vector(lat, 10, rng, nterms=3, max_weight=3) for _ in range(2)
        ]
        roots = [(2, 0, 0), (0, -2, 0), (0, 0, 2)]
        hs = [(2, 0, 0), (0, 2, 0), lat.gamma(), (1, -1, 1)]
        for v in vecs:
            for beta in roots:
                for h in hs:
                    pair = lat.pairing(h, beta)
                    for n in range(-2, 3):
                        for m in range(-2, 2):
                            lhs = heisenberg_apply(h, n, exp_mode_apply(beta, m, v)) - exp_mode_apply(
                                beta, m, heisenberg_apply(h, n, v)
                            )
                            rhs = exp_mode_apply(beta, m + n, v).scale(pair)
                            assert not (lhs.truncated or rhs.truncated)
                            assert lhs == rhs, (v, beta, h, n, m)

    def test_components_zero_by_degree_are_not_expanded(self, monkeypatch):
        # every entry of _exp_component(beta, modes, d) has mode weight
        # wt(modes) + d, so a state with wt(modes) + d < 0 has none: it is
        # skipped before the memo table is read or filled
        made = []

        def recording(k):
            made.append(Lattice(rank=k, den=2))
            return made[-1]

        monkeypatch.setattr(paraferm.lattice_fock, "rank_lattice", recording)
        assert virasoro_bracket_check(3, 5, 0).status == "pass"
        tables = [lat.memo.get(_exp_component.__wrapped__, {}) for lat in made]
        assert any(tables)
        for table in tables:
            for beta, modes, d in table:
                assert d >= -sum(n for _, n in modes), (beta, modes, d)

    def test_summands_without_terms_are_not_flagged(self):
        # exact zeros beyond their room: on b_1(-1)e^(b_1) the net degree
        # d = -2 of (e^(b_1))_(-1) removes more than the mode weight 1, and
        # on e^(-gamma/3) the degree of (e^(gamma/3))_(-5) is fractional.
        # Neither drops a term, so neither is flagged, whatever the truncation
        s = FockState((2, 0, 0), ((0, 1),))
        for T in (Q(5, 2), 10):
            got = exp_mode_apply((2, 0, 0), -1, StateVector(rank_lattice(3), T, {s: 1}))
            assert got.is_zero() and not got.truncated, T
        got = exp_mode_apply((2,), -5, StateVector.exponential(gamma_lattice(3), (-2,), 3))
        assert got.is_zero() and not got.truncated
        # a summand with terms beyond its room still flags
        got = exp_mode_apply((2, 0, 0), -3, StateVector(rank_lattice(3), Q(5, 2), {s: 1}))
        assert got.is_zero() and got.truncated

    def test_non_integral_pairing_raises(self):
        lat = gamma_lattice(3)
        mixed = StateVector(
            lat, 4, {FockState((0,), ()): 1, FockState((1,), ()): 1}
        )
        with pytest.raises(NonIntegralPairing):
            exp_mode_apply((2,), 0, mixed)


class TestLatticeMemo:
    """Mode computations are memoised in tables owned by the Lattice."""

    @staticmethod
    def _work(lat):
        E = StateVector.exponential(lat, (2, 0, 0), 4)
        F = StateVector.exponential(lat, (-2, 0, 0), 4)
        return mode_apply(E, -1, F)

    def test_work_fills_only_its_own_lattice(self):
        lat, twin = rank_lattice(3), rank_lattice(3)
        self._work(lat)
        assert lat.memo
        assert twin.memo == {}

    def test_memo_is_invisible_to_eq_hash_repr(self):
        lat, twin = rank_lattice(3), rank_lattice(3)
        self._work(lat)
        assert lat.memo != twin.memo
        assert lat == twin
        assert hash(lat) == hash(twin)
        assert repr(lat) == repr(twin) == "Lattice(rank=3, den=2)"

    def test_eq_and_hash_read_rank_and_den(self):
        lat = Lattice(3, 2)
        assert lat != Lattice(4, 2) and lat != Lattice(3, 1)
        assert lat != (3, 2) and (3, 2) != lat
        assert len({lat, rank_lattice(3), Lattice(4, 2)}) == 2

    def test_tables_are_freed_with_the_lattice(self):
        lat = rank_lattice(3)
        ref = weakref.ref(lat)
        v = self._work(lat)
        assert lat.memo
        del lat, v
        gc.collect()
        assert ref() is None

    def test_pickle_round_trip_drops_the_tables(self):
        lat = rank_lattice(3)
        v = self._work(lat)
        assert not v.is_zero() and lat.memo
        w = pickle.loads(pickle.dumps(v))
        assert w == v
        assert (w.truncation, w.truncated) == (v.truncation, v.truncated)
        assert w.lattice == lat and w.lattice is not lat
        assert w.lattice.memo == {}
        assert self._work(w.lattice) == v


class TestNullspace:
    def test_int_rows_give_fractions(self):
        for rows, ncols, want in [
            ([{0: 1, 1: 2}], 2, [{0: -2, 1: 1}]),
            ([{0: 2, 1: 4, 2: 6}, {1: 3, 2: 3}], 3, [{0: -1, 1: -1, 2: 1}]),
        ]:
            out = nullspace(rows, ncols)
            assert out == want
            assert all(isinstance(c, Fraction) for x in out for c in x.values())

    @given(
        ncols=st.integers(1, 6),
        rows=st.lists(
            st.dictionaries(
                st.integers(0, 5),
                st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5)),
                max_size=6,
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_rref_and_rank(self, ncols, rows):
        rows = [{c: x for c, x in row.items() if c < ncols} for row in rows]
        out = nullspace(rows, ncols)
        assert out == rref_nullspace(rows, ncols)
        assert all(isinstance(c, Fraction) and c for x in out for c in x.values())
        assert ncols - rank(rows) == len(out)


class TestSl2Generators:
    def test_term_counts_and_weights(self):
        H, E, F = sl2_generators(3, 4)
        assert len(E.terms) == 3 and len(F.terms) == 3 and len(H.terms) == 3
        assert E.weights() == {Q(1)} and F.weights() == {Q(1)} and H.weights() == {Q(1)}

    def test_ope_relations(self):
        for k in (3, 4, 5):
            r = ope_check(k)
            assert r.status == "pass", r.to_json()

    def test_ope_below_truncation_one_is_raised_not_failed(self):
        # H = gamma(-1)1 has weight 1; a lower truncation would drop it
        for k in (2, 3, 4):
            r = ope_check(k, Q(1, 2))
            assert r.status == "pass", r.to_json()
            assert r.params["truncation"] == 1

    def test_specific_products(self):
        H, E, F = sl2_generators(3, 4)
        vac = StateVector.vacuum(H.lattice, 4)
        assert mode_apply(E, 1, F) == vac.scale(3)
        assert mode_apply(E, 0, F) == H
        H4, _, _ = sl2_generators(4, 4)
        assert mode_apply(H4, 1, H4) == StateVector.vacuum(H4.lattice, 4).scale(8)

    def test_vacuum_field_is_the_identity(self):
        # 1(m) v = delta_{m,-1} v, and no mode drops anything
        _, E, _ = sl2_generators(3, 1)
        vac = StateVector.vacuum(E.lattice, 1)
        got = mode_apply(vac, -1, E)
        assert got == E and not got.truncated
        for m in (-3, -2, 0, 1):
            got = mode_apply(vac, m, E)
            assert got.is_zero() and not got.truncated, m

    def test_theta_swaps_generators(self):
        H, E, F = sl2_generators(3, 4)
        assert theta_involution(H) == H.scale(-1)
        assert theta_involution(E) == F
        assert theta_involution(F) == E


class TestConformalVectors:
    def test_central_charges(self):
        for k in (3, 4):
            cv = conformal_vectors(k, 4)
            assert central_charge_of(cv["omega_aff"]) == Q(3 * k, k + 2)
            assert central_charge_of(cv["omega_h"]) == 1
            assert central_charge_of(cv["omega_para"]) == Q(2 * (k - 1), k + 2)

    def test_weights_and_sum(self):
        cv = conformal_vectors(3, 4)
        assert cv["omega_aff"].weights() == {Q(2)}
        assert cv["omega_h"].weights() == {Q(2)}
        assert cv["omega_para"].weights() == {Q(2)}
        assert cv["W3"].weights() == {Q(3)}
        assert (cv["omega_aff"] - cv["omega_h"] - cv["omega_para"]).is_zero()

    def test_omega_para_is_primary_weight2(self):
        for k in (3, 4):
            cv = conformal_vectors(k, 4)
            om = cv["omega_para"]
            assert virasoro_mode(om, 1, om).is_zero()
            l0 = virasoro_mode(om, 0, om)
            assert l0 == om.scale(2)

    def test_virasoro_brackets_randomized(self):
        for k in (3, 4):
            r = virasoro_bracket_check(k, truncation=5, seed=3)
            assert r.status == "pass", r.to_json()

    def test_no_room_for_samples_is_an_error(self):
        with pytest.raises(ValueError):
            random_state_vector(rank_lattice(3), 1, random.Random(0), max_weight=-1)
        with pytest.raises(ValueError):
            virasoro_bracket_check(3, truncation=1)

    def test_omega_para_modes_commute_with_heisenberg(self):
        k = 3
        lat = rank_lattice(k)
        om = conformal_vectors(k, 5)["omega_para"]
        gam = lat.gamma()
        rng = random.Random(5)
        for _ in range(4):
            v = random_state_vector(lat, 5, rng, max_weight=3)
            for n in (-1, 0, 1):
                for m in (0, 1, 2):
                    lhs = virasoro_mode(om, n, heisenberg_apply(gam, m, v))
                    rhs = heisenberg_apply(gam, m, virasoro_mode(om, n, v))
                    assert lhs == rhs

    def test_theta_action_on_coset_vectors(self):
        cv = conformal_vectors(3, 4)
        assert theta_involution(cv["omega_para"]) == cv["omega_para"]
        assert theta_involution(cv["W3"]) == cv["W3"].scale(-1)


class TestSingularVector:
    def test_w3_is_singular(self):
        for k in (3, 4):
            cv = conformal_vectors(k, 4)
            r = singular_vector_check(cv["W3"], cv["omega_para"])
            assert r.status == "pass", r.to_json()

    def test_omega_para_is_not_singular(self):
        cv = conformal_vectors(3, 4)
        r = singular_vector_check(cv["omega_para"], cv["omega_para"])
        assert r.status == "fail"
        failing = [d for d in r.details if not d["ok"]]
        assert failing
        for d in failing:
            assert set(d["witness"]) == {"got", "want"}

    def test_zero_vector_trivially_singular(self):
        cv = conformal_vectors(3, 4)
        lat = cv["omega_para"].lattice
        r = singular_vector_check(StateVector(lat, 4), cv["omega_para"])
        assert r.status == "pass"
        assert any("trivially" in str(d.get("witness", "")) for d in r.details)

    def test_w3_lies_in_commutant(self):
        k = 3
        cv = conformal_vectors(k, 4)
        lat = cv["W3"].lattice
        gam = lat.gamma()
        for m in (0, 1, 2, 3):
            assert heisenberg_apply(gam, m, cv["W3"]).is_zero()

    def test_weight3_singular_space_is_one_dimensional(self):
        for k in (3, 4, 5):
            assert singular_space_dimension(k) == 1

    def test_singular_space_is_read_from_charge_zero_alone(self, monkeypatch):
        # the basis holds charge 0 up to weight 3, the one charge the kernel
        # reads; the whole module gives the same dimension
        real = paraferm.lattice_fock.affine_module_basis
        budgets = []

        def recording(*args, budget=None):
            budgets.append(budget)
            return real(*args, budget=budget)

        monkeypatch.setattr(paraferm.lattice_fock, "affine_module_basis", recording)
        budgeted = [singular_space_dimension(k) for k in range(3, 7)]
        assert budgets == [{0: 3}] * 4
        monkeypatch.setattr(
            paraferm.lattice_fock, "affine_module_basis", lambda *args, budget=None: real(*args)
        )
        assert [singular_space_dimension(k) for k in range(3, 7)] == budgeted


class TestGeneratedSubspace:
    def test_vacuum_module_dims_match_pbw_below_the_ideal(self):
        # no relation below weight k+1, so dims are 3-colored partitions
        for k in (3, 4):
            b = affine_module_basis(k, 0, min(k, 3))
            for w, d in _layer_dims(b).items():
                assert d == colored_partitions(int(w), 3)

    def test_k3_explicit_dims(self):
        b = affine_module_basis(3, 0, 4)
        dims = {int(w): d for w, d in _layer_dims(b).items()}
        assert dims[0] == 1 and dims[1] == 3 and dims[2] == 9 and dims[3] == 22
        # the ideal enters at weight k+1 = 4: strictly below the PBW count
        assert dims[4] < colored_partitions(4, 3)

    def test_seeded_generation_requires_homogeneous_seeds(self):
        H, E, F = sl2_generators(3, 3)
        vac = StateVector.vacuum(H.lattice, 3)
        # one seed of two weights, and two seeds of weights 0 and 1
        for seeds in ([H + vac], [vac, H]):
            with pytest.raises(ValueError):
                generated_subspace([H, E, F], 2, seeds=seeds)

    def test_seeds_above_max_weight_are_refused(self):
        # a weight-1 seed under max_weight 1/2 would make a basis that holds
        # a layer above its own truncation, and kernels read nothing of it
        H, E, F = sl2_generators(3, 3)
        with pytest.raises(ValueError):
            generated_subspace([H, E, F], Q(1, 2), seeds=[E])
        b = generated_subspace([H, E, F], 1, seeds=[E])
        assert _layer_dims(b) == {1: 1} and commutant_dims(b, 2) == {Q(2, 3): 1}

    def test_truncated_seed_makes_a_truncated_basis(self):
        # no layer is generated at max_weight 0, so the seed's flag is the
        # only evidence of a dropped term, and it must reach the basis
        H, E, F = sl2_generators(3, 3)
        vac = StateVector.vacuum(H.lattice, 0)
        seed = StateVector(H.lattice, 0, vac.terms, truncated=True)
        assert generated_subspace([H, E, F], 0, seeds=[seed]).truncated
        assert not generated_subspace([H, E, F], 0, seeds=[vac]).truncated

    def test_g_minus_one_generation_matches_all_modes(self):
        # generating with g(-1) alone spans what every g(-t) spans
        for k in (2, 3, 4):
            for i in range(k + 1):
                want = all_modes_affine_dims(k, i, 3)
                assert _layer_dims(affine_module_basis(k, i, 3)) == want, (k, i)

    def test_generators_must_close_under_zero_mode_brackets(self):
        # [H]: H(0)H = 0, so the (-1)-mode of H alone misses H(-2); [H, E]:
        # the brackets span only E; [E, F]: the bracket E(0)F = H leaves the span
        H, E, F = sl2_generators(3, 2)
        for gens in ([H], [H, E], [E, F]):
            with pytest.raises(ValueError):
                generated_subspace(gens, 2)

    def test_lki_top_levels(self):
        # the i-th module has an (i+1)-dimensional top level; a truncation
        # i/4 <= T < 1 keeps it alone, yet H, E, F are still weight one
        cases = [(k, i, Q(i, 4) + d) for k, i in ((3, 1), (3, 2), (4, 2)) for d in (1, 0)]
        for k, i, T in cases + [(3, 0, Q(1, 2))]:
            b = affine_module_basis(k, i, T)
            top = min(_layer_dims(b))
            assert _layer_dims(b)[top] == i + 1
            assert top == Q(i, 4)
            if T < 1:
                assert _layer_dims(b) == {top: i + 1} and not b.truncated
        # measured conformal weight of the top level: L(0) of omega_aff on
        # the exponential with i ones is i(i+2)/4(k+2), and the basis offset
        # is the ambient weight i/4 less that
        for k in range(2, 9):
            omega_aff = conformal_vectors(k, 3)["omega_aff"]
            for i in range(k + 1):
                h = Q(i * (i + 2), 4 * (k + 2))
                point = tuple(1 if p < i else 0 for p in range(k))
                top = StateVector.exponential(rank_lattice(k), point, 3)
                l0 = virasoro_mode(omega_aff, 0, top)
                assert l0 == top.scale(h) and not l0.truncated, (k, i)
                assert affine_module_basis(k, i, Q(i, 4)).aff_offset == Q(i, 4) - h, (k, i)

    def test_offset_is_set_on_a_copy_of_the_bare_basis(self, monkeypatch):
        # affine_module_basis returns the closed form on a new basis and
        # leaves generated_subspace's own basis at offset 0; neither can be
        # assigned to
        bare = []

        def recording(*args, **kw):
            bare.append(generated_subspace(*args, **kw))
            return bare[-1]

        monkeypatch.setattr(paraferm.lattice_fock, "generated_subspace", recording)
        for i in range(4):
            b = affine_module_basis(3, i, 2)
            assert b.aff_offset == Q(i * (3 - i), 20), i
            assert bare[-1].aff_offset == 0
            assert b._replace(aff_offset=Q(0)) == bare[-1]
            with pytest.raises(AttributeError):
                b.aff_offset = Q(0)
            with pytest.raises(AttributeError):
                b.truncated = True

    def test_builds_no_conformal_vector(self, monkeypatch):
        # the offset is a closed form, so neither the basis nor the dual
        # route that reads it builds omega_aff
        def refuse(*args):
            raise RuntimeError("built a conformal vector")

        monkeypatch.setattr(paraferm.lattice_fock, "_omegas", refuse)
        for k in (3, 4):
            for i in range(k + 1):
                affine_module_basis(k, i, 2)
        assert paraferm.characters.string_dual_route_check(3, 1, 3).status == "pass"
        with pytest.raises(RuntimeError, match="conformal vector"):
            conformal_vectors(3, 3)


class TestCommutantKernel:
    def test_vacuum_sector_dims_k3(self):
        b = affine_module_basis(3, 0, 4)
        dims = commutant_dims(b, 0)
        assert dims.get(Q(0)) == 1
        assert Q(1) not in dims
        assert dims.get(Q(2)) == 1
        assert dims.get(Q(3)) == 2

    def test_vacuum_state_always_present(self):
        for k in (3, 4):
            b = affine_module_basis(k, 0, 2)
            dims = commutant_dims(b, 0)
            assert dims.get(Q(0)) == 1

    def test_charge_minus2_top_weight(self):
        b = affine_module_basis(3, 0, 3)
        dims = commutant_dims(b, -2)
        assert min(dims) == Q(2, 3)

    def test_kernel_matches_fraction_oracle(self):
        # the same vectors, scaled alike, as a Fraction elimination on every
        # Fock state finds
        for k, i, T, charges in ((3, 0, 3, (0, -2)), (3, 1, Q(13, 4), (1, -1, 3))):
            b = affine_module_basis(k, i, T)
            for charge in charges:
                kernel = commutant_kernel(b, charge)
                got = {w: [expand(b, v) for v in vecs] for w, vecs in kernel.items()}
                assert got == commutant_kernel_oracle(b, charge)

    def test_kernel_vectors_are_orbit_totals(self):
        # supported on representatives, as the layers are, and the Fock
        # vector of the oracle's expansion folds back to the same totals
        for k, i, T, charges in ((3, 0, 4, (0, -2)), (3, 1, Q(17, 4), (1, -1))):
            b = affine_module_basis(k, i, T)
            lat = b.lattice
            for charge in charges:
                kernel = commutant_kernel(b, charge)
                assert kernel, (k, i, charge)
                for vecs in kernel.values():
                    for v in vecs:
                        assert _folded(lat, b.blocks, v.num) == v.num
                        x = expand(b, v)
                        totals = {r: Q(c, x.den) for r, c in _folded(lat, b.blocks, x.num).items()}
                        assert StateVector(lat, T, totals) == v

    def test_rank_dims_equal_kernel_dims(self):
        for k, i, T in ((3, 0, 4), (3, 1, Q(17, 4)), (3, 2, Q(9, 2)), (4, 0, 3)):
            b = affine_module_basis(k, i, T)
            for charge in range(-2 * k, 2 * k + 1):
                kernel = commutant_kernel(b, charge)
                assert commutant_dims(b, charge) == {w: len(vs) for w, vs in kernel.items()}

    def test_kernel_solutions_are_combinations_of_the_candidates(self):
        # every solution x of a system's rows gives the kernel vector
        # sum_t x_t cands[t]: the rows are posed on the candidates themselves
        for k, i, T in ((3, 0, 4), (3, 1, Q(17, 4)), (4, 2, 3), (5, 0, 3)):
            b = affine_module_basis(k, i, T)
            lat = b.lattice
            for charge in range(-2 * k, 2 * k + 1):
                for w, cands, images in _commutant_systems(b, charge):
                    rows = {}
                    for t, img in enumerate(images):
                        for key, c in img.items():
                            rows.setdefault(key, {})[t] = c
                    for x in nullspace(list(rows.values()), len(cands)):
                        v = StateVector(lat, b.truncation)
                        for t, c in x.items():
                            v = v + cands[t].scale(c)
                        assert not v.is_zero()
                        for m in range(1, 8):
                            img = heisenberg_apply(lat.gamma(), m, v)
                            assert not _fold(lat, b.blocks, img.num), (k, i, charge, w, m)

    def test_kernel_vectors_are_annihilated(self):
        b = affine_module_basis(3, 0, 3)
        lat = b.lattice
        for vecs in commutant_kernel(b, -2).values():
            for v in map(functools.partial(expand, b), vecs):
                assert v.charge() == -2
                for m in (1, 2, 3):
                    assert heisenberg_apply(lat.gamma(), m, v).is_zero()


def _trivial_group_basis(monkeypatch, k, i, T):
    """affine_module_basis(k, i, T) built on every Fock state: the group
    generated_subspace works out is replaced by the trivial one."""
    with monkeypatch.context() as m:
        m.setattr(paraferm.lattice_fock, "_symmetry", lambda lat, vectors: (1,) * lat.rank)
        return affine_module_basis(k, i, T)


class TestOrbitCoordinates:
    """Bases built on S_i x S_(k-i) representatives against the same bases
    built on every Fock state."""

    CASES = [(3, i, Q(9, 2)) for i in range(4)] + [(4, i, 4) for i in range(5)]

    def test_dims_and_kernels_equal_the_trivial_group(self, monkeypatch):
        for k, i, T in self.CASES:
            orbit = affine_module_basis(k, i, T)
            full = _trivial_group_basis(monkeypatch, k, i, T)
            assert orbit.blocks == tuple(b for b in (i, k - i) if b)
            assert full.blocks == (1,) * k
            assert _layer_dims(orbit) == _layer_dims(full), (k, i)
            assert orbit.charge_dims() == full.charge_dims(), (k, i)
            assert (orbit.aff_offset, orbit.truncated) == (full.aff_offset, full.truncated)
            for charge in range(-2 * k, 2 * k + 1):
                assert commutant_dims(orbit, charge) == commutant_dims(full, charge), (k, i, charge)

    def test_expanded_layers_span_the_fock_layers(self, monkeypatch):
        # the oracle's expand is inverse to fold on invariant vectors, and
        # the expanded layer spans the layer built on every Fock state
        for k, i, T in ((3, 1, Q(13, 4)), (3, 2, Q(7, 2)), (4, 0, 3), (4, 2, Q(7, 2))):
            orbit = affine_module_basis(k, i, T)
            full = _trivial_group_basis(monkeypatch, k, i, T)
            for w, layer in orbit.layers.items():
                fock = [expand(orbit, v) for v in layer]
                for v, x in zip(layer, fock):
                    totals = _folded(x.lattice, orbit.blocks, x.num)
                    back = StateVector(x.lattice, T, {r: Q(c, x.den) for r, c in totals.items()})
                    assert back == v
                    assert x.charge() == v.charge()
                rows = [x.num for x in fock]
                assert rank(rows) == rank(rows + [v.num for v in full.layers[w]]) == len(layer)

    def test_orbit_sizes_divide_out(self):
        # E(-1)E = 2 (e^(b_1 + b_2) + e^(b_1 + b_3) + e^(b_2 + b_3)) has
        # orbit total 6 on its representative e^(b_2 + b_3); the layer keeps
        # it primitive, total 1, which expands to 1/3 on each state of the
        # orbit.  The seed, H, E and F are fixed by S_3.
        H, E, F = sl2_generators(3, 3)
        seed = mode_apply(E, -1, E)
        assert set(seed.terms.values()) == {2} and len(seed.terms) == 3
        basis = generated_subspace([H, E, F], 2, seeds=[seed])
        assert basis.blocks == (3,)
        (top,) = basis.layers[Q(2)]
        assert top.terms == {FockState((0, 2, 2), ()): 1}
        assert expand(basis, top) == seed.scale(Q(1, 6))

    def test_group_is_worked_out_from_generators_and_seeds(self):
        H, E, F = sl2_generators(3, 3)
        lat = H.lattice
        vac = StateVector.vacuum(lat, 3)
        b1 = StateVector.exponential(lat, (2, 0, 0), 3)
        # the sl2 triple of the direction b_1 alone closes under brackets
        h1 = heisenberg_apply((2, 0, 0), -1, vac)
        f1 = StateVector.exponential(lat, (-2, 0, 0), 3)
        b13 = StateVector.exponential(lat, (2, 0, 2), 3)
        assert generated_subspace([H, E, F], 2).blocks == (3,)
        assert generated_subspace([H, E, F], 2, seeds=[b1]).blocks == (1, 2)
        assert generated_subspace([h1, b1, f1], 2).blocks == (1, 2)
        # b_1 <-> b_3 fixes e^(b_1 + b_3), but a block holding b_1 and b_3
        # holds b_2 too, and swapping b_2 with either one moves the seed
        assert generated_subspace([H, E, F], 2, seeds=[b13]).blocks == (1, 1, 1)

    @given(x=st.lists(st.sampled_from((0, 2)), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_blocks_of_a_seed_point_are_its_runs(self, x):
        # e^x with x in {0, 2}^r, 2 <= r <= 6 (sl2_generators needs k >= 2):
        # the blocks are the runs of equal entries.  The seed has weight
        # x.count(2), the max_weight, so no layer above it is generated
        H, E, F = sl2_generators(len(x), 1)
        seed = StateVector.exponential(H.lattice, x, 1)
        runs = tuple(len(list(g)) for _, g in itertools.groupby(x))
        assert generated_subspace([H, E, F], x.count(2), seeds=[seed]).blocks == runs

    def test_fold_table_is_kept_per_group_on_the_lattice(self):
        # one pair of tables per group: each state met to the key of its
        # representative, and each key to that representative
        b = affine_module_basis(3, 1, Q(9, 4))
        tables = {key[1]: t for key, t in b.lattice.memo.items() if isinstance(key, tuple)}
        assert list(tables) == [(1, 2)]
        keys, states = tables[(1, 2)]
        assert keys and set(keys.values()) == set(states)
        for s, x in keys.items():
            assert x == _key(states[x]) and states[x] == _representative(s, (1, 2))

    @given(
        states=st.lists(
            st.tuples(
                st.tuples(*[st.integers(-128, 127)] * 3),
                st.lists(st.tuples(st.integers(0, 2), st.integers(1, 255)), max_size=4),
            ).map(lambda t: FockState(t[0], tuple(sorted(t[1])))),
            min_size=2, max_size=2,
        )
    )
    def test_keys_compare_as_the_states_do(self, states):
        a, b = states
        assert (_key(a) < _key(b), _key(a) == _key(b)) == (a < b, a == b)

    @pytest.mark.parametrize("state", [
        FockState((128, 0), ()), FockState((-129, 0), ()), FockState((0, 0), ((0, 256),)),
    ])
    def test_key_refuses_what_a_byte_cannot_hold(self, state):
        with pytest.raises(ValueError):
            _key(state)


def _dual_budget(k, i, T, js):
    """The budget of the dual route: per string j, the least charge lam of
    its class i - 2j mod 2k, read up to ambient weight T + lam^2/4k +
    i(k-i)/4(k+2)."""
    out = {}
    for j in js:
        s = (i - 2 * j) % (2 * k)
        lam = s if s <= k else s - 2 * k
        out[lam] = Q(T) + Q(lam * lam, 4 * k) + Q(i * (k - i), 4 * (k + 2))
    return out


@functools.lru_cache(maxsize=None)
def _cone_and_full(k, i, T, js):
    """The dual-route budget of (k, i, T, js), the basis built inside its
    cone and the whole module to the same weight."""
    budget = _dual_budget(k, i, T, js)
    top = max(budget.values())
    return budget, affine_module_basis(k, i, top, budget=budget), affine_module_basis(k, i, top)


def _rows_of_charge(basis, w, charge):
    return [v for v, q in zip(basis.layers.get(w, ()), basis.charges.get(w, ())) if q == charge]


class TestChargeCone:
    """Bases built inside the charge cone of a dual-route budget against the
    whole module."""

    # even and odd i, one string and all of them
    CASES = [
        (3, 0, 6, (0, 1, 2)),
        (3, 1, 5, (0, 1, 2)),
        (3, 2, 5, (1,)),
        (3, 3, 5, (0,)),
        (4, 1, 5, (0, 1, 2, 3)),
        (4, 2, 5, (0,)),
        (5, 2, 4, (0, 1, 2, 3, 4)),
    ]

    def test_budgeted_charges_equal_the_whole_module(self):
        for case in self.CASES:
            budget, cone, full = _cone_and_full(*case)
            T = case[2]
            for lam, t in budget.items():
                # ambient weight t(lam) is coset weight T at charge lam
                want = {w: d for w, d in commutant_dims(full, lam).items() if w <= T}
                assert commutant_dims(cone, lam) == want, (case, lam)
                # the rows themselves, in order, up to the bound
                for w in full.layers:
                    if w <= t:
                        got = _rows_of_charge(cone, w, lam)
                        assert got == _rows_of_charge(full, w, lam), (case, lam, w)
            assert sum(map(len, cone.layers.values())) < sum(map(len, full.layers.values())), case

    def test_row_charges_are_the_gamma0_eigenvalues(self):
        for case in self.CASES[:3]:
            for basis in _cone_and_full(*case)[1:]:
                for w, rows in basis.layers.items():
                    assert [v.charge() for v in rows] == basis.charges[w], (case, w)

    def test_unbudgeted_charge_raises(self):
        # module 2 at k = 3 has charges 0, +-2, +-4, ...; the budget holds 0
        budget, cone, full = _cone_and_full(3, 2, 5, (1,))
        assert list(budget) == [0]
        for charge in (2, -2, 4, 1):
            with pytest.raises(ValueError):
                commutant_dims(cone, charge)
            with pytest.raises(ValueError):
                commutant_kernel(cone, charge)
            with pytest.raises(ValueError):
                cone.bound(charge)
        assert commutant_dims(full, 2)
        assert full.bound(2) == full.truncation

    def test_dims_raise_and_charge_dims_keep_to_the_budget(self):
        for case in self.CASES:
            budget, cone, full = _cone_and_full(*case)
            # a charge outside the budget has no dimensions to read
            with pytest.raises(ValueError):
                commutant_dims(cone, max(budget) + 1)
            want = {
                (w, q): d
                for (w, q), d in full.charge_dims().items()
                if q in budget and w + full.aff_offset <= budget[q]
            }
            assert want and cone.charge_dims() == want, case

    def test_budget_bounds_stay_within_max_weight(self):
        for budget in ({0: 4}, {0: 3, 2: Q(7, 2)}, {}):
            with pytest.raises(ValueError):
                affine_module_basis(3, 0, 3, budget=budget)


class TestEkPower:
    def test_k3_and_k4(self):
        for k in (3, 4):
            r = ek_power_check(k)
            assert r.status == "pass", r.to_json()

    def test_explicit_eigenvalue(self):
        k = 3
        H, E, F = sl2_generators(k, k + 2)
        v = StateVector.vacuum(H.lattice, k + 2)
        for _ in range(k):
            v = mode_apply(E, -1, v)
        assert not v.is_zero()
        assert mode_apply(H, 0, v) == v.scale(2 * k)
        assert mode_apply(E, -1, v).is_zero()


class TestSectorEnumeration:
    def test_gamma_sector_dims_match_coset_characters(self):
        # enumeration of the rank-one sectors against the q-series route
        k = 3
        lat = gamma_lattice(k)
        for s in range(2 * k):
            dims = sector_graded_dims(lat, (s,), 4)
            ch = lattice_coset_char(k, s, Q(9, 2))
            for w, d in dims.items():
                assert d == ch.terms.get(w, 0), (s, w)
            for e, c in ch.terms.items():
                if e <= 4:
                    assert dims.get(e, 0) == c


class TestGoldenDumps:
    """Stability of the canonical text dumps (deterministic order, exact
    coefficients); the content is pinned by the identity tests above."""

    def test_omega_para_k3(self):
        cv = conformal_vectors(3, 4)
        assert cv["omega_para"].canonical_text() == "\n".join(
            [
                "[-2, 0, 2] | [] | 1/5",
                "[-2, 2, 0] | [] | 1/5",
                "[0, -2, 2] | [] | 1/5",
                "[0, 0, 0] | [(0, 1), (0, 1)] | 1/15",
                "[0, 0, 0] | [(0, 1), (1, 1)] | -1/15",
                "[0, 0, 0] | [(0, 1), (2, 1)] | -1/15",
                "[0, 0, 0] | [(1, 1), (1, 1)] | 1/15",
                "[0, 0, 0] | [(1, 1), (2, 1)] | -1/15",
                "[0, 0, 0] | [(2, 1), (2, 1)] | 1/15",
                "[0, 2, -2] | [] | 1/5",
                "[2, -2, 0] | [] | 1/5",
                "[2, 0, -2] | [] | 1/5",
            ]
        )

    def test_w3_k3_exponential_part(self):
        # the pure Heisenberg-descendant parts of the six summands cancel;
        # what survives is supported on the root exponentials and the cubic
        # diagonal block
        cv = conformal_vectors(3, 4)
        text = cv["W3"].canonical_text()
        assert "[-2, 0, 2] | [(0, 1)] | 9" in text
        assert "[0, 0, 0] | [(0, 1), (0, 1), (0, 1)] | 2" in text
        assert "[0, 0, 0] | [(0, 1), (1, 1), (2, 1)] | 12" in text
        assert len(text.splitlines()) == 28

    def test_graded_dims_table(self):
        b = affine_module_basis(3, 0, 2)
        assert _layer_dims(b) == {0: 1, 1: 3, 2: 9}
        assert b.truncated is False


def _normal(v: StateVector) -> bool:
    """The invariants the public constructor establishes: int numerators
    over a positive int denominator prime to their gcd, presented as the
    same nonzero Fractions by `terms`."""
    return (
        isinstance(v.truncation, Fraction)
        and type(v.den) is int
        and v.den > 0
        and all(type(c) is int and c for c in v.num.values())
        and gcd(v.den, *v.num.values()) == 1
        and all(isinstance(c, Fraction) and c for c in v.terms.values())
        and v.terms == {s: Fraction(c, v.den) for s, c in v.num.items()}
    )


def _parse_canonical_text(lat, truncation, text: str) -> StateVector:
    terms = {}
    for line in text.splitlines():
        point, modes, coeff = line.split(" | ")
        terms[FockState(tuple(ast.literal_eval(point)), tuple(ast.literal_eval(modes)))] = (
            Fraction(coeff)
        )
    return StateVector(lat, truncation, terms)


_SAMPLES = given(
    seed=st.integers(0, 2**32),
    m=st.integers(-2, 2),
    c=st.fractions(-3, 3, max_denominator=4),
)


@functools.cache
def _weight3_layer() -> list[StateVector]:
    return generated_subspace(list(sl2_generators(2, 3)), 3).layers[Q(3)]


class TestStateVectorInvariants:
    """Internally built vectors keep the public constructor's invariants, and
    mode application is linear in its argument."""

    LAT = rank_lattice(2)

    def _vectors(self, seed: int, count: int) -> list[StateVector]:
        rng = random.Random(seed)
        return [
            random_state_vector(self.LAT, 4, rng, nterms=3, max_weight=2) for _ in range(count)
        ]

    @_SAMPLES
    @settings(max_examples=40, deadline=None)
    def test_results_hold_only_nonzero_fractions(self, seed, m, c):
        a, u, v = self._vectors(seed, 3)
        # the rows of a basis layer: the primitive integer rows of the
        # elimination, positive at the least state, its pivot
        rows = _weight3_layer()
        assert len(rows) == 15
        for r in rows:
            assert r.den == 1 and r.num[min(r.num)] > 0
            assert gcd(*r.num.values()) == 1
        results = [
            mode_apply(a, m, u),
            heisenberg_apply(self.LAT.gamma(), m, u),
            exp_mode_apply((2, 0), m, u),
            u + v,
            u + u.scale(-1),
            u.scale(c),
            *rows,
        ]
        for r in results:
            assert _normal(r), r.terms
        assert (u + u.scale(-1)).is_zero()

    @_SAMPLES
    @settings(max_examples=40, deadline=None)
    def test_scale_round_trip_and_text(self, seed, m, c):
        a, u = self._vectors(seed, 2)
        for v in (a, u, mode_apply(a, m, u)):
            assert _normal(v)
            if c:
                w = v.scale(c).scale(1 / c)
                assert w == v and hash(w) == hash(v) and _normal(w)
            back = _parse_canonical_text(self.LAT, v.truncation, v.canonical_text())
            assert back == v and hash(back) == hash(v)
            assert back.canonical_text() == v.canonical_text()

    def test_float_is_refused(self):
        vac = StateVector.vacuum(self.LAT, 3)
        (state,) = vac.num
        for build in (
            lambda: StateVector(self.LAT, 3, {state: 0.5}),
            lambda: StateVector(self.LAT, 3.0, {state: 1}),
            lambda: mode_apply(vac, 1.0, vac),
        ):
            with pytest.raises(TypeError):
                build()

    @_SAMPLES
    @settings(max_examples=40, deadline=None)
    def test_mode_apply_is_linear(self, seed, m, c):
        a, u, v = self._vectors(seed, 3)
        assert mode_apply(a, m, u + v) == mode_apply(a, m, u) + mode_apply(a, m, v)
        assert mode_apply(a, m, v.scale(c)) == mode_apply(a, m, v).scale(c)


def _per_state_sum(a: StateVector, m, v: StateVector) -> StateVector:
    """sum_s c_s s_m v over the states s of a with their coefficients c_s:
    the field applied one state at a time."""
    total = StateVector(v.lattice, v.truncation)
    for s, c in a.terms.items():
        total = total + mode_apply(StateVector(a.lattice, a.truncation, {s: 1}), m, v).scale(c)
    return total


def _shifted(v: StateVector, parity) -> StateVector:
    """v with every lattice point moved by the half-unit vector parity: a
    vector of the dual sector whose odd coordinates are those of parity."""
    lat = v.lattice
    return StateVector(
        lat,
        v.truncation,
        {FockState(lat.add(s.point, parity), s.modes): c for s, c in v.terms.items()},
    )


def _dressed(lat: Lattice, T) -> StateVector:
    """b_0(-1)b_1(-1)1 + 2 b_1(-2)1: modes 1 and 2 in direction 1, which the
    pair pass contracts with either operator of a group, first or second."""
    zero = (0,) * lat.rank
    return StateVector(
        lat, T, {FockState(zero, ((0, 1), (1, 1))): 1, FockState(zero, ((1, 2),)): 2}
    )


@st.composite
def _shared_rest_fields(draw, lat):
    """A vector on lat whose states come in groups b_p(-n) rest over a few
    shared rests (any point, even or odd), plus some bare exponentials."""
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    point = st.tuples(*[st.integers(-2, 2)] * lat.rank)
    mode = st.tuples(st.integers(0, lat.rank - 1), st.integers(1, 2))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        rest = FockState(draw(point), tuple(sorted(draw(st.lists(mode, max_size=2)))))
        n = draw(st.integers(1, 2))
        for p in draw(st.sets(st.integers(0, lat.rank - 1), min_size=1)):
            terms[FockState(rest.point, tuple(sorted(rest.modes + ((p, n),))))] = draw(coeff)
        if draw(st.booleans()):
            terms[FockState(rest.point, ())] = draw(coeff)
    return StateVector(lat, 4, terms)


class TestPrefixGrouping:
    """mode_apply applies the states of a field in groups b_p(-n) rest that
    share a rest.  The value is the sum of the single-state applications;
    the truncated flag can only be clearer: a group flags where the operator
    acting first leaves a state (the pair pass) or an intermediate vector
    (the recursion) nonzero, and the single-state pieces of that image can
    cancel within the group."""

    def _assert_grouping_is_exact(self, a, m, v):
        got = mode_apply(a, m, v)
        want = _per_state_sum(a, m, v)
        assert got == want, (m, got.canonical_text(), want.canonical_text())
        assert want.truncated or not got.truncated, m
        return got, want

    @pytest.mark.parametrize("k", [3, 4])
    def test_composite_fields(self, k):
        # E and F are sums of k exponentials, applied in one pass over v;
        # on a vector at the truncation some summands exceed their room,
        # and the flags must then agree exactly
        T = 4
        fields = conformal_vectors(k, T)
        H, E, F = sl2_generators(k, T)
        lat = H.lattice
        rng = random.Random(k)
        even = random_state_vector(lat, T, rng, nterms=3, max_weight=2)
        dual = _shifted(random_state_vector(lat, T, rng, nterms=3, max_weight=1), (1,) * k)
        top = StateVector(lat, T, {FockState((2,) + (0,) * (k - 1), ((1, 1), (1, 2))): 1})
        near = even + top
        named = {name: fields[name] for name in ("omega_aff", "omega_para", "W3")}
        named.update(H=H, E=E, F=F)
        flagged = set()
        for name, a in named.items():
            for v in (even, dual, _dressed(lat, T), near):
                for m in (-1, 0, 1, 2, 3, Q(1, 2)):
                    got, want = self._assert_grouping_is_exact(a, m, v)
                    if v is near:
                        assert got.truncated == want.truncated, (name, m)
                        if got.truncated:
                            flagged.add(name)
        assert flagged == set(named)

    @pytest.mark.parametrize("k", [3, 4])
    def test_translated_quadratic_field(self, k):
        # gamma(-2)gamma(-1)1 is half the translate L(-1) of H(-1)H, so its
        # m-th mode is -m/2 times the (m-1)-st of H(-1)H.  Its groups have
        # rests b_q(-1) and b_q(-2) on the vacuum, so the pair pass meets a
        # second mode number 2, with the factor C(-j-1, 1), on either side
        T = 8
        H = sl2_generators(k, T)[0]
        lat = H.lattice
        hh, dhh = mode_apply(H, -1, H), mode_apply(H, -2, H)
        rng = random.Random(k)
        vectors = (
            _dressed(lat, T),
            random_state_vector(lat, T, rng, nterms=3, max_weight=2),
            _shifted(random_state_vector(lat, T, rng, nterms=3, max_weight=1), (1,) * k),
        )
        for v in vectors:
            for m in range(-2, 5):
                got, want = mode_apply(dhh, m, v), mode_apply(hh, m - 1, v).scale(Q(-m, 2))
                assert got == want and not (got.truncated or want.truncated), m

    @given(
        a=_shared_rest_fields(rank_lattice(2)),
        seed=st.integers(0, 2**32),
        parity=st.tuples(st.integers(0, 1), st.integers(0, 1)),
        twice_m=st.integers(-4, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_rest_fields(self, a, seed, parity, twice_m):
        rng = random.Random(seed)
        v = _shifted(random_state_vector(a.lattice, 4, rng, nterms=3, max_weight=2), parity)
        self._assert_grouping_is_exact(a, Q(twice_m, 2), v)

    def test_h_field_is_the_gamma_mode(self):
        # the field of beta(-n)1 is the derivative field
        # sum_j C(-j-1, n-1) beta(j) z^(-j-n): its m-th mode is the one
        # Heisenberg mode j = m - n + 1, zero for fractional m, with the
        # flags of the oracle's beta(j); beta = gamma, n = 1 is H = gamma(-1)1
        def binom(a, b):
            return Fraction(prod(range(a - b + 1, a + 1)), factorial(b))

        for k in (3, 4):
            lat = rank_lattice(k)
            rng = random.Random(k)
            vac = StateVector.vacuum(lat, 3)
            even = random_state_vector(lat, 3, rng, nterms=3)
            dual = _shifted(random_state_vector(lat, 3, rng, nterms=3, max_weight=2), (1,) * k)
            vectors = (
                vac,
                StateVector.exponential(lat, (1,) + (0,) * (k - 1), 3),
                even,
                dual,
                StateVector(lat, 3, dual.terms, truncated=True),
            )
            for beta in (lat.gamma(), (lat.den,) + (0,) * (k - 1)):
                for n in (1, 2, 3):
                    field = heisenberg_apply(beta, -n, vac)
                    for v in vectors:
                        for m in (*range(-4, 4), Q(1, 2), Q(-3, 2)):
                            got = mode_apply(field, m, v)
                            j = m - n + 1
                            c = 0 if isinstance(j, Fraction) else binom(-j - 1, n - 1)
                            want = heisenberg_mode(beta, j, v).scale(c) if c else v.scale(0)
                            assert got == want and got.truncated == want.truncated, (k, n, m)


class TestW3Field:
    """The groups of W3 recurse: the rest of each state b_r(-n)e^(b_p-b_q)
    is a bare exponential, that of each b_p(-1)b_q(-1)b_r(-1)1 two modes on
    the vacuum, and in L(-1)W3 a rest can carry a mode on a nonzero point,
    so the recursion nests.  Two identities of W3 check it against other
    fields, with nothing flagged, on an even vector, a dual vector and an
    exponential with a mode."""

    T = 6

    def _fields_and_vectors(self, k):
        cv = conformal_vectors(k, self.T)
        lat = cv["W3"].lattice
        rng = random.Random(k)
        vectors = (
            random_state_vector(lat, self.T, rng, nterms=3, max_weight=2),
            _shifted(random_state_vector(lat, self.T, rng, nterms=3, max_weight=1), (1,) * k),
            StateVector(lat, self.T, {FockState((0, 2, -2) + (0,) * (k - 3), ((0, 1),)): 1}),
        )
        return cv, vectors

    @pytest.mark.parametrize("k", [3, 4])
    def test_w3_modes_commute_with_heisenberg(self, k):
        # W3 lies in the commutant of the Heisenberg subalgebra
        cv, vectors = self._fields_and_vectors(k)
        w3 = cv["W3"]
        gam = w3.lattice.gamma()
        for v in vectors:
            for n in range(-1, 3):
                for m in range(4):
                    lhs = heisenberg_apply(gam, n, mode_apply(w3, m, v))
                    rhs = mode_apply(w3, m, heisenberg_apply(gam, n, v))
                    assert lhs == rhs and not (lhs.truncated or rhs.truncated), (n, m)

    @pytest.mark.parametrize("k", [3, 4])
    def test_translation_covariance(self, k):
        # (L(-1)W3)_(m) = -m W3_(m-1), L(-1) the zero mode of omega_aff
        cv, vectors = self._fields_and_vectors(k)
        dw3 = mode_apply(cv["omega_aff"], 0, cv["W3"])
        for v in vectors:
            for m in range(4):
                got, want = mode_apply(dw3, m, v), mode_apply(cv["W3"], m - 1, v).scale(-m)
                assert got == want and not (got.truncated or want.truncated), m


@st.composite
def _sector_vectors(draw, lat, T, max_states=3):
    """Up to max_states states of weight at most T, all in one sector: the
    points are even, or shifted by one drawn parity vector into the dual.
    Modes are drawn until a draw stops or no room is left, so states often
    reach T."""
    parity = draw(st.tuples(*[st.integers(0, 1)] * lat.rank))
    terms = {}
    for _ in range(draw(st.integers(1, max_states))):
        point = tuple(lat.den * draw(st.integers(-1, 1)) + e for e in parity)
        room = T - lat.point_weight(point)
        modes = []
        while room >= 1 and draw(st.booleans()):
            t = draw(st.integers(1, floor(room)))
            modes.append((draw(st.integers(0, lat.rank - 1)), t))
            room -= t
        if room >= 0:
            terms[FockState(point, tuple(sorted(modes)))] = draw(
                st.fractions(-3, 3, max_denominator=4).filter(bool))
    return StateVector(lat, T, terms)


def _field_mode_number(draw, weight):
    """A mode number m of a field of the given weight, c0 = m - weight + 1
    from -4 to 3 (c0 = 0 included), or that m plus 1/2."""
    m = weight - 1 + draw(st.integers(-4, 3))
    return m + Q(1, 2) if draw(st.booleans()) else m


class TestHeisenbergFieldOracle:
    """mode_apply on Heisenberg fields against `heisenberg_field_mode`, the
    iterate formula in the oracle's own Heisenberg modes, one state at a
    time."""

    @given(data=st.data(), k=st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_general_pairs(self, data, k):
        # beta(-n) delta(-n2)1 for any nonzero beta, delta: mode_apply splits
        # it into groups with other pairing vectors, so only values compare
        lat = rank_lattice(k)
        vec = st.tuples(*[st.integers(-2, 2)] * k).filter(any)
        beta, delta = data.draw(vec), data.draw(vec)
        n, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        m = _field_mode_number(data.draw, n + n2)
        v = data.draw(_sector_vectors(lat, 3))
        vac = StateVector.vacuum(lat, 8)
        a = heisenberg_apply(beta, -n, heisenberg_apply(delta, -n2, vac))
        got = mode_apply(a, m, v)
        want = heisenberg_field_mode(((beta, n), (delta, n2)), m, v)
        assert got == want, (m, got.canonical_text(), want.canonical_text())

    @given(data=st.data(), k=st.integers(2, 3))
    @settings(max_examples=80, deadline=None)
    def test_pair_flags_at_the_truncation(self, data, k):
        # one state c b_p(-n) b_q(-n2)1 or c b_p(-n)1 is one group, and v
        # reaches T: the flags are decided per state of v on both sides and
        # must agree
        lat = rank_lattice(k)
        direction, number = st.integers(0, k - 1), st.integers(1, 3)
        modes = [(data.draw(direction), data.draw(number))
                 for _ in range(data.draw(st.integers(1, 2)))]
        c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        m = _field_mode_number(data.draw, sum(t for _, t in modes))
        v = data.draw(_sector_vectors(lat, 3))
        a = StateVector(lat, 8, {FockState((0,) * k, tuple(sorted(modes))): c})
        got = mode_apply(a, m, v)
        prefix = tuple((_basis_coords(lat, p), t) for p, t in modes)
        want = heisenberg_field_mode(prefix, m, v).scale(c)
        assert got == want and got.truncated == want.truncated, (m, got.truncated)

    @given(
        modes=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=3, max_size=3),
        c0=st.integers(-4, 3),
        half=st.booleans(),
        v=_sector_vectors(rank_lattice(2), 3, max_states=1),
    )
    # on the vacuum only the creation half of the peeled mode yields terms,
    # and at c0 = -4 each of them lies above T
    @example(modes=[(0, 1), (0, 1), (1, 1)], c0=-4, half=False,
             v=StateVector.vacuum(rank_lattice(2), 3))
    @settings(max_examples=30, deadline=None)
    def test_cubic_state(self, modes, c0, half, v):
        # b_p(-n1) b_q(-n2) b_r(-n3)1: the recursion peels one mode and hands
        # the rest to the pair pass; on one state of v the flags agree
        lat = v.lattice
        modes = tuple(sorted(modes))
        m = sum(t for _, t in modes) - 1 + c0 + (Q(1, 2) if half else 0)
        got = mode_apply(StateVector(lat, 8, {FockState((0, 0), modes): 1}), m, v)
        want = heisenberg_field_mode(tuple((_basis_coords(lat, p), t) for p, t in modes), m, v)
        assert got == want and got.truncated == want.truncated, (modes, m)

    def _spy_vacuum_modes(self, monkeypatch):
        """The group shapes (2 for one mode, 4 for a pair) of each
        `_vacuum_modes` call, heisenberg_apply's included."""
        calls = []
        vacuum_modes = paraferm.lattice_fock._vacuum_modes

        def spy(groups, m, v):
            calls.append(tuple(len(g) for g in groups))
            return vacuum_modes(groups, m, v)

        monkeypatch.setattr(paraferm.lattice_fock, "_vacuum_modes", spy)
        return calls

    def test_cubic_rest_reaches_the_pair_pass(self, monkeypatch):
        calls = self._spy_vacuum_modes(monkeypatch)
        lat = rank_lattice(2)
        a = StateVector(lat, 8, {FockState((0, 0), ((0, 1), (1, 1), (1, 2))): 1})
        v = StateVector(lat, 3, {FockState((2, 0), ((1, 1),)): 1})
        mode_apply(a, 1, v)
        assert (4,) in calls and set(calls) <= {(2,), (4,)}

    def test_vacuum_groups_take_one_pass(self, monkeypatch):
        # H, E, F and the conformal vectors hold bare exponentials and groups
        # of one or two modes on the vacuum: none reaches the recursion or
        # its scan of v for the bound F, and a field with one-mode and pair
        # groups takes one pass for all of them
        k, T = 3, 4
        H, E, F = sl2_generators(k, T)
        lat = H.lattice
        fields = [H, E, F] + [conformal_vectors(k, T)[name] for name in
                              ("omega_aff", "omega_h", "omega_para")]
        mixed = mode_apply(H, -1, H) + heisenberg_apply(lat.gamma(), -2, StateVector.vacuum(lat, T))
        v = random_state_vector(lat, T, random.Random(5), nterms=3, max_weight=2)

        def recursion(*args):
            raise AssertionError("_prefix_mode_apply was called")

        monkeypatch.setattr(paraferm.lattice_fock, "_prefix_mode_apply", recursion)
        for a in fields:
            for m in range(-1, 3):
                mode_apply(a, m, v)
        calls = self._spy_vacuum_modes(monkeypatch)
        mode_apply(mixed, 0, v)
        assert calls == [(4,) * k + (2,)]

    def test_flagged_and_clear_cases(self):
        # b_0(-1)b_1(-1)1 on b_0(-3)1 at T = 3: m = 0 creates weight 1 and
        # is dropped, m = 1 keeps the weight, m = 3/2 is zero and clear
        lat = rank_lattice(2)
        a = StateVector(lat, 8, {FockState((0, 0), ((0, 1), (1, 1))): 1})
        v = StateVector(lat, 3, {FockState((0, 0), ((0, 3),)): 1})
        prefix = ((_basis_coords(lat, 0), 1), (_basis_coords(lat, 1), 1))
        seen = set()
        for m in (0, 1, Q(3, 2)):
            got, want = mode_apply(a, m, v), heisenberg_field_mode(prefix, m, v)
            assert got == want and got.truncated == want.truncated, m
            seen.add(got.truncated)
        assert seen == {True, False}


class TestExponentialSums:
    """mode_apply applies all bare exponentials of a field in one pass over
    v; exp_mode_apply is the one-exponential case of the same routine."""

    def test_bare_exponential_field_is_exp_mode_apply(self):
        k, T = 3, 4
        lat = rank_lattice(k)
        rng = random.Random(7)
        even = random_state_vector(lat, T, rng, nterms=3, max_weight=3)
        dual = _shifted(random_state_vector(lat, T, rng, nterms=3, max_weight=2), (1,) * k)
        near = StateVector(lat, T, {FockState((2, 0, 0), ((1, 1), (1, 2))): 1})
        flagged = fractional = False
        # lattice roots, and a dual point pairing half-integrally with dual
        # points, whose fractional modes act there
        for beta in ((2, 0, 0), (0, -2, 0), (-1, 1, -1)):
            field = StateVector.exponential(lat, beta, T)
            for v in (even, dual, near):
                for m in (-2, -1, 0, 1, Q(1, 2), Q(-3, 2), Q(-5, 2)):
                    got, want = mode_apply(field, m, v), exp_mode_apply(beta, m, v)
                    assert got == want and got.truncated == want.truncated, (beta, m)
                    flagged = flagged or got.truncated
                    fractional = fractional or isinstance(m, Q) and not got.is_zero()
        assert flagged and fractional
        # summands of weights 1 and 2: at m = 0 only the second exceeds its
        # room on near, and that alone flags the sum
        mixed = StateVector(lat, T, {FockState((2, 0, 0), ()): 1, FockState((0, 2, -2), ()): 1})
        got = mode_apply(mixed, 0, near)
        assert not exp_mode_apply((2, 0, 0), 0, near).truncated
        assert got == _per_state_sum(mixed, 0, near) and got.truncated

    def test_one_ill_defined_summand_raises(self):
        # <(2, 0), point> is an integer on both points of v, <(0, 1), point>
        # is 0 on one and 1/2 on the other
        lat = rank_lattice(2)
        v = StateVector(lat, 4, {FockState((0, 0), ()): 1, FockState((0, 1), ()): 1})
        good = StateVector.exponential(lat, (2, 0), 4)
        bad = StateVector.exponential(lat, (0, 1), 4)
        assert not mode_apply(good, -1, v).is_zero()
        for field in (good + bad, bad + good.scale(3)):
            with pytest.raises(NonIntegralPairing):
                mode_apply(field, -1, v)


_PIECES = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=4),
        st.integers(1, 12),
    ),
    max_size=4,
)
_LATTICES = st.builds(
    lambda k, dual: gamma_lattice(k) if dual else rank_lattice(k),
    st.integers(2, 4),
    st.booleans(),
)


class TestIntegerArithmetic:
    """The mode engine sums in ints (`_lincomb`) and bounds weights in ints
    (`_floor_bound`); both agree with Fraction arithmetic."""

    @given(pieces=_PIECES)
    @settings(max_examples=150, deadline=None)
    def test_lincomb_matches_fraction_sums(self, pieces):
        want: dict = {}
        for c, num, d in pieces:
            for key, x in num.items():
                want[key] = want.get(key, 0) + Fraction(c * x, d)
        num, den = _lincomb(pieces)
        assert den == lcm(*(d for _, _, d in pieces))
        assert num.keys() == want.keys()
        assert all(Fraction(x, den) == want[key] for key, x in num.items())
        cnum, cden = _canonical(num, den)
        assert {key: Fraction(x, cden) for key, x in cnum.items()} == {
            key: x for key, x in want.items() if x
        }
        assert gcd(cden, *cnum.values()) == 1

    def test_lincomb_of_nothing_and_of_cancelling_pieces(self):
        assert _lincomb([]) == ({}, 1)
        assert _canonical(*_lincomb([(1, {0: 1, 1: 3}, 2), (-2, {0: 1, 1: 3}, 4)])) == ({}, 1)
        assert _canonical(*_lincomb([(3, {0: 2}, 6), (-1, {0: 1, 1: 1}, 4)])) == ({0: 3, 1: -1}, 4)

    @given(
        lat=_LATTICES,
        c=st.fractions(-6, 6, max_denominator=7),
        x=st.integers(-60, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_floor_bound_is_the_floor(self, lat, c, x):
        assert _floor_bound(lat, c)(x) == floor(c + Fraction(x, 2 * lat.den))
        if c.denominator == 1:
            assert _floor_bound(lat, int(c))(x) == floor(c + Fraction(x, 2 * lat.den))

    @given(
        lat=_LATTICES,
        T=st.fractions(-2, 6, max_denominator=4),
        m=st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_floor_bound_gives_the_rooms(self, lat, T, m, data):
        # the rooms of heisenberg_apply, floor(T - wt(a)), and of
        # _exp_modes, floor(T + m + 1 - wt(beta) - wt(a)), and the bound of
        # mode_apply, floor(wt(a) + wt(beta) - m), against Fraction weights
        point = st.tuples(*[st.integers(-2 * lat.den, 2 * lat.den)] * lat.rank)
        a, beta = data.draw(point), data.draw(point)
        aa, bb, q = sum(y * y for y in a), sum(y * y for y in beta), 2 * lat.den
        wa, wb = lat.point_weight(a), lat.point_weight(beta)
        assert _floor_bound(lat, T)(-aa) == floor(T - wa)
        assert _floor_bound(lat, T + m)(q - bb - aa) == floor(T + m + 1 - wb - wa)
        assert _floor_bound(lat, -m)(aa + bb) == floor(wa + wb - m)


def _mode_tuples(rank: int, weight: int) -> list[tuple]:
    """Every sorted mode tuple over rank directions of weight <= weight."""
    pairs = [(p, n) for p in range(rank) for n in range(1, weight + 1)]
    return [
        mds
        for size in range(weight + 1)
        for mds in itertools.combinations_with_replacement(pairs, size)
        if sum(n for _, n in mds) <= weight
    ]


def _small_roots(rank: int) -> list[tuple]:
    """+-b_p, b_p - b_q, b_p + b_q and 2 b_p in half-unit coordinates."""
    b = [tuple(2 * (q == p) for q in range(rank)) for p in range(rank)]
    out = [x for p in range(rank) for x in (b[p], tuple(-y for y in b[p]), tuple(2 * y for y in b[p]))]
    for p, q in itertools.permutations(range(rank), 2):
        out.append(tuple(x - y for x, y in zip(b[p], b[q])))
        if p < q:
            out.append(tuple(x + y for x, y in zip(b[p], b[q])))
    return out


class TestModeKernels:
    """The exponential component and the helpers under every mode pass,
    against their definitions."""

    CASES = [
        (lat, beta, modes, d)
        for lat in (rank_lattice(2), rank_lattice(3))
        for beta in _small_roots(lat.rank)
        for modes in _mode_tuples(lat.rank, 4)
        for d in range(-6, 4)
    ]

    def test_exp_component_is_the_series_coefficient(self):
        empty = 0
        for lat, beta, modes, d in self.CASES:
            num, den = _exp_component.__wrapped__(lat, beta, modes, d)
            got = {mds: Fraction(c, den) for mds, c in num.items()}
            assert got == oracles.exp_component(lat, beta, modes, d), (lat, beta, modes, d)
            assert gcd(den, *num.values()) == 1 and 0 not in num.values()
            empty += not num
        assert 0 < empty < len(self.CASES)

    def test_components_empty_by_support_weight_expand_nothing(self, monkeypatch):
        # d + (weight of the modes in beta's support) < 0: the annihilation
        # half cannot lower the degree far enough, so the component is empty
        # and neither a creation table nor a sum is built for it
        calls = []

        def spy(fn):
            def recording(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return recording

        for name in ("_creation_poly", "_lincomb"):
            monkeypatch.setattr(paraferm.lattice_fock, name, spy(getattr(paraferm.lattice_fock, name)))
        empty = [
            (lat, beta, modes, d)
            for lat, beta, modes, d in self.CASES
            if d + sum(n for p, n in modes if beta[p]) < 0
        ]
        assert len(empty) > 1000
        for lat, beta, modes, d in empty:
            assert _exp_component.__wrapped__(lat, beta, modes, d) == ({}, 1)
        assert calls == []
        # the spies see a component that is not empty by its support weight
        lat = rank_lattice(2)
        assert _exp_component.__wrapped__(lat, (2, 0), ((0, 1), (1, 2)), -1) == ({((1, 2),): -2}, 1)
        assert set(calls) == {"_creation_poly", "_lincomb"}

    def test_binom_general_is_the_binomial(self):
        for a in range(-8, 9):
            for b in range(7):
                assert _binom_general(a, b) == oracles._binomial(a, b), (a, b)

    def test_unit_pairs_work_out_no_binomial_per_state(self, monkeypatch):
        # every group of a conformal vector has n = n2 = 1, so each binomial
        # of its pair terms is 1: the number worked out does not grow with
        # the states of the argument
        omega = conformal_vectors(3, 6)["omega_para"]
        one = _dressed(omega.lattice, 6)
        many = one + random_state_vector(omega.lattice, 6, random.Random(1), nterms=8, max_weight=4)
        assert sum(1 for s in many.num if s.modes) > 4
        real = paraferm.lattice_fock._binom_general
        calls = []
        monkeypatch.setattr(paraferm.lattice_fock, "_binom_general",
                            lambda a, b: calls.append(b) or real(a, b))
        for m in (-1, 0, 1, 2):
            counts = []
            for v in (one, many):
                calls.clear()
                virasoro_mode(omega, m, v)
                counts.append(len(calls))
            assert counts[0] == counts[1], m

    def test_insert_mode_is_sorted_insertion(self):
        for modes in _mode_tuples(3, 4):
            for p in range(3):
                for n in range(1, 5):
                    assert _insert_mode(modes, p, n) == tuple(sorted(modes + ((p, n),)))


class TestOneDispatcher:
    """mode_apply alone decides how each part of a field is applied: the
    composite-field recursion hands the rest of its group back to it, and
    the exponential and vacuum passes are reached only from mode_apply and
    their one-call wrappers."""

    PASSES = {"_exp_modes": {"mode_apply", "exp_mode_apply"},
              "_vacuum_modes": {"mode_apply", "heisenberg_apply"}}

    def _names(self, node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def test_recursion_goes_through_mode_apply(self):
        tree = ast.parse(pathlib.Path(paraferm.lattice_fock.__file__).read_text())
        body, = [f for f in tree.body if getattr(f, "name", None) == "_prefix_mode_apply"]
        names = self._names(body)
        assert "mode_apply" in names and "_prefix_mode_apply" not in names
        assert not names & {"exp_mode_apply", *self.PASSES}

    def test_passes_are_reached_from_mode_apply_only(self):
        # every reference, not only calls; a module-level one has owner None
        tree = ast.parse(pathlib.Path(paraferm.lattice_fock.__file__).read_text())
        owners = {name: set() for name in self.PASSES}
        for stmt in tree.body:
            for name in self._names(stmt) & owners.keys():
                owners[name].add(getattr(stmt, "name", None))
        assert owners == self.PASSES


class TestRouteIndependence:
    """The Fock route computes the coset dimensions on its own: lattice_fock
    takes nothing from the character route or the label arithmetic, and is
    exact (no float literal, no float() call).  The character route is
    exact too, its series layer takes nothing from the Fock route, and its
    checks take nothing from the label arithmetic."""

    OTHER_ROUTES = {"characters", "qseries", "fusion_identify"}

    def _tree(self, module):
        with open(module.__file__) as fh:
            return ast.parse(fh.read())

    def _imported(self, module):
        imported = set()
        for node in ast.walk(self._tree(module)):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[-1] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= set((node.module or "").split("."))
                imported |= {a.name for a in node.names}
        return imported

    def _assert_no_floats(self, path):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), (
                path.name,
                node.lineno,
            )
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), (path.name, node.lineno)

    def test_imports_nothing_from_the_other_routes(self):
        assert not self._imported(paraferm.lattice_fock) & self.OTHER_ROUTES

    def test_no_floats(self):
        # every module of the package, found by glob
        paths = sorted(pathlib.Path(paraferm.lattice_fock.__file__).parent.glob("*.py"))
        assert {"lattice_fock.py", "qseries.py", "characters.py"} <= {p.name for p in paths}
        for path in paths:
            self._assert_no_floats(path)

    def test_character_route_has_no_floats(self):
        for module in (paraferm.qseries, paraferm.characters):
            self._assert_no_floats(pathlib.Path(module.__file__))

    def test_qseries_imports_nothing_from_lattice_fock(self):
        assert "lattice_fock" not in self._imported(paraferm.qseries)

    def test_oracles_stay_off_the_mode_engine(self):
        # the Heisenberg oracles, and the oracles.py functions they call,
        # apply no mode through lattice_fock, and no private name is imported
        defs = {f.name: f for f in self._tree(oracles).body if isinstance(f, ast.FunctionDef)}
        todo, seen = ["heisenberg_field_mode", "commutant_kernel_oracle"], set()
        while todo:
            name = todo.pop()
            seen.add(name)
            called = {node.func.id for node in ast.walk(defs[name])
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert not called & {"heisenberg_apply", "mode_apply"}, name
            todo += sorted(called & defs.keys() - seen)
        assert "heisenberg_mode" in seen
        for node in ast.walk(self._tree(oracles)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paraferm"):
                assert not [a.name for a in node.names if a.name.startswith("_")], node.module

    def test_characters_imports_nothing_from_fusion_identify(self):
        # the dual route compares two series; no label-side weight enters it
        assert "fusion_identify" not in self._imported(paraferm.characters)
