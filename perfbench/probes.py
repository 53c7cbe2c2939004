"""Layer probes: single library calls on fixed inputs.

A traced pass runs them after the workload's commands, in the order listed,
so that every traced function has calls on every workload and each layer
has one fixed piece of work whose time is reported on its own.  Each probe's
inputs are built untimed; only the probed call is timed.  The probes see
the module caches the workload left behind, identically in every pass of a
workload with the same seed.
"""

from __future__ import annotations

import random
import time


def _qseries_mul():
    from paraferm.qseries import heisenberg_char, lattice_coset_char

    a = heisenberg_char(2, 40)
    b = lattice_coset_char(5, 3, 40)
    return lambda: a * b


def _qseries_inverse():
    from paraferm.qseries import heisenberg_char

    return heisenberg_char(3, 40).inverse


def _exp_mode_apply():
    from paraferm.lattice_fock import exp_mode_apply, random_state_vector, rank_lattice

    v = random_state_vector(rank_lattice(3), 7, random.Random(0), nterms=4, max_weight=5)
    return lambda: exp_mode_apply((2, 0, 0), -1, v)


def _generated_subspace():
    from paraferm.lattice_fock import generated_subspace, sl2_generators

    gens = list(sl2_generators(3, 4))
    return lambda: generated_subspace(gens, 4)


def _commutant_kernel():
    from paraferm.lattice_fock import commutant_kernel, generated_subspace, sl2_generators

    basis = generated_subspace(list(sl2_generators(3, 4)), 4)
    return lambda: commutant_kernel(basis, 0)


def _virasoro_bracket():
    from paraferm.lattice_fock import virasoro_bracket_check

    return lambda: virasoro_bracket_check(3, truncation=4, seed=0)


def _string_functions():
    from paraferm.characters import all_string_functions

    def run():
        for k in range(3, 6):
            for i in range(k + 1):
                all_string_functions(k, i, 10)

    return run


def _decomposition():
    from paraferm.characters import decomposition_check_lki

    return lambda: decomposition_check_lki(3, 1, 6)


def _dual_route():
    from paraferm.characters import string_dual_route_check

    return lambda: string_dual_route_check(3, 2, 3)


def _identify():
    from paraferm.fusion_identify import identify

    return lambda: identify(20)


def _w1inf():
    from paraferm.w1inf_symbols import derivation_chains, generation_closure

    return lambda: (generation_closure({1, 2}, 30), derivation_chains({1, 2}, 30))


PROBES = [
    ("probe.qseries_mul_T40_s", _qseries_mul),
    ("probe.qseries_inverse_T40_s", _qseries_inverse),
    ("probe.exp_mode_apply_fixed_s", _exp_mode_apply),
    ("probe.generated_subspace_k3_w4_s", _generated_subspace),
    ("probe.commutant_kernel_k3_w4_s", _commutant_kernel),
    ("probe.virasoro_bracket_k3_T4_s", _virasoro_bracket),
    ("probe.string_functions_k3to5_T10_s", _string_functions),
    ("probe.decomposition_k3_i1_w6_s", _decomposition),
    ("probe.dual_route_k3_i2_w3_s", _dual_route),
    ("probe.identify_k20_s", _identify),
    ("probe.w1inf_closure_30_s", _w1inf),
]


def run_probes() -> dict[str, float]:
    """CPU seconds each probe's call took, keyed by metric name."""
    out = {}
    for name, make in PROBES:
        fn = make()
        start = time.process_time()
        fn()
        out[name] = time.process_time() - start
    return out
