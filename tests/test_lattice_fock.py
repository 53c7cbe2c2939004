"""Fock-space mode operators, generators, conformal vectors, kernels."""

import ast
import functools
import gc
import pickle
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_modes_affine_dims,
    commutant_kernel_oracle,
    rref_nullspace,
    sector_graded_dims,
    theta_involution,
)
from oracles import colored_partitions_table as colored_partitions
import paraferm.lattice_fock
from paraferm.errors import NonIntegralPairing
from paraferm.lattice_fock import (
    FockState,
    StateVector,
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
    kernel_dims,
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
        # [gamma(m), gamma(n)] = 2k m delta_{m+n,0}
        k = 3
        lat = rank_lattice(k)
        rng = random.Random(11)
        gam = lat.gamma()
        for _ in range(6):
            v = random_state_vector(lat, 6, rng, max_weight=3)
            for m, n in ((1, -1), (2, -2), (1, -2), (2, -1), (1, 1)):
                lhs = heisenberg_apply(gam, m, heisenberg_apply(gam, n, v)) - heisenberg_apply(
                    gam, n, heisenberg_apply(gam, m, v)
                )
                want = v.scale(2 * k * m) if m + n == 0 else v.scale(0)
                assert lhs == want

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
        assert repr(lat) == repr(twin) == "Lattice(gram=(2, 2, 2), den=2)"

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

    def test_specific_products(self):
        H, E, F = sl2_generators(3, 4)
        vac = StateVector.vacuum(H.lattice, 4)
        assert mode_apply(E, 1, F) == vac.scale(3)
        assert mode_apply(E, 0, F) == H
        H4, _, _ = sl2_generators(4, 4)
        assert mode_apply(H4, 1, H4) == StateVector.vacuum(H4.lattice, 4).scale(8)

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


class TestGeneratedSubspace:
    def test_vacuum_module_dims_match_pbw_below_the_ideal(self):
        # no relation below weight k+1, so dims are 3-colored partitions
        for k in (3, 4):
            b = affine_module_basis(k, 0, min(k, 3))
            for w, d in b.dims().items():
                assert d == colored_partitions(int(w), 3)

    def test_k3_explicit_dims(self):
        b = affine_module_basis(3, 0, 4)
        dims = {int(w): d for w, d in b.dims().items()}
        assert dims[0] == 1 and dims[1] == 3 and dims[2] == 9 and dims[3] == 22
        # the ideal enters at weight k+1 = 4: strictly below the PBW count
        assert dims[4] < colored_partitions(4, 3)

    def test_seeded_generation_requires_homogeneous_seeds(self):
        H, E, F = sl2_generators(3, 3)
        bad = H + StateVector.vacuum(H.lattice, 3)
        with pytest.raises(ValueError):
            generated_subspace([H, E, F], 2, seeds=[bad])

    def test_g_minus_one_generation_matches_all_modes(self):
        # generating with g(-1) alone spans what every g(-t) spans
        for k in (2, 3, 4):
            for i in range(k + 1):
                want = all_modes_affine_dims(k, i, 3)
                assert affine_module_basis(k, i, 3).dims() == want, (k, i)

    def test_generators_must_close_under_zero_mode_brackets(self):
        # [H]: H(0)H = 0, so the (-1)-mode of H alone misses H(-2); [H, E]:
        # the brackets span only E; [E, F]: the bracket E(0)F = H leaves the span
        H, E, F = sl2_generators(3, 2)
        for gens in ([H], [H, E], [E, F]):
            with pytest.raises(ValueError):
                generated_subspace(gens, 2)

    def test_lki_top_levels(self):
        # the i-th module has an (i+1)-dimensional top level
        for k, i in ((3, 1), (3, 2), (4, 2)):
            b = affine_module_basis(k, i, Q(i, 4) + 1)
            top = min(b.dims())
            assert b.dims()[top] == i + 1
            assert top == Q(i, 4)
            # measured conformal weight of the top level
            assert top - b.aff_offset == Q(i * (i + 2), 4 * (k + 2))


class TestCommutantKernel:
    def test_vacuum_sector_dims_k3(self):
        b = affine_module_basis(3, 0, 4)
        dims = kernel_dims(commutant_kernel(b, 0))
        assert dims.get(Q(0)) == 1
        assert Q(1) not in dims
        assert dims.get(Q(2)) == 1
        assert dims.get(Q(3)) == 2

    def test_vacuum_state_always_present(self):
        for k in (3, 4):
            b = affine_module_basis(k, 0, 2)
            dims = kernel_dims(commutant_kernel(b, 0))
            assert dims.get(Q(0)) == 1

    def test_charge_minus2_top_weight(self):
        b = affine_module_basis(3, 0, 3)
        dims = kernel_dims(commutant_kernel(b, -2))
        assert min(dims) == Q(2, 3)

    def test_kernel_matches_fraction_oracle(self):
        # the same vectors, scaled alike, as a Fraction elimination finds
        for k, i, T, charges in ((3, 0, 3, (0, -2)), (3, 1, Q(13, 4), (1, -1, 3))):
            b = affine_module_basis(k, i, T)
            for charge in charges:
                assert commutant_kernel(b, charge) == commutant_kernel_oracle(b, charge)

    def test_rank_dims_equal_kernel_dims(self):
        for k, i, T in ((3, 0, 4), (3, 1, Q(17, 4)), (3, 2, Q(9, 2)), (4, 0, 3)):
            b = affine_module_basis(k, i, T)
            for charge in range(-2 * k, 2 * k + 1):
                assert commutant_dims(b, charge) == kernel_dims(commutant_kernel(b, charge))

    def test_kernel_vectors_are_annihilated(self):
        b = affine_module_basis(3, 0, 3)
        lat = b.lattice
        for vecs in commutant_kernel(b, -2).values():
            for v in vecs:
                assert v.charge() == -2
                for m in (1, 2, 3):
                    assert heisenberg_apply(lat.gamma(), m, v).is_zero()


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
                assert d == ch.coefficient(w), (s, w)
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
        obj = b.to_obj()
        assert obj["dims"] == {"0": 1, "1": 3, "2": 9}
        assert obj["truncated"] is False


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
        # the rows of a basis layer: primitive integer rows over their
        # numerator at the least state, the pivot of the elimination
        rows = _weight3_layer()
        assert len(rows) == 15
        for r in rows:
            assert r.den == r.num[min(r.num)]
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

    @_SAMPLES
    @settings(max_examples=40, deadline=None)
    def test_mode_apply_is_linear(self, seed, m, c):
        a, u, v = self._vectors(seed, 3)
        assert mode_apply(a, m, u + v) == mode_apply(a, m, u) + mode_apply(a, m, v)
        assert mode_apply(a, m, v.scale(c)) == mode_apply(a, m, v).scale(c)


class TestRouteIndependence:
    """The Fock route computes the coset dimensions on its own: lattice_fock
    takes nothing from the character route or the label arithmetic, and is
    exact (no float literal, no float() call)."""

    OTHER_ROUTES = {"characters", "qseries", "fusion_identify"}

    def _tree(self):
        with open(paraferm.lattice_fock.__file__) as fh:
            return ast.parse(fh.read())

    def test_imports_nothing_from_the_other_routes(self):
        imported = set()
        for node in ast.walk(self._tree()):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[-1] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= set((node.module or "").split("."))
                imported |= {a.name for a in node.names}
        assert not imported & self.OTHER_ROUTES

    def test_no_floats(self):
        for node in ast.walk(self._tree()):
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), (
                node.lineno
            )
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), node.lineno
