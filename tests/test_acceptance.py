"""Acceptance suite: every criterion at its stated tolerance.

All identities are exact (zero tolerance); the only numeric bounds are the
stated runtime budgets.  Each criterion prints one pass/fail line (visible
with `pytest -s` or on failure).
"""

import time
from fractions import Fraction

from oracles import brute_force_identifications, form1_map, form2_map

from paraferm.characters import (
    decomposition_check_lki,
    string_dual_route_check,
    w_minimal_central_charge,
)
from paraferm.fusion_identify import (
    enumerate_simples,
    identify,
    para_normalize,
    w_label,
)
from paraferm.lattice_fock import (
    affine_module_basis,
    central_charge_of,
    commutant_kernel,
    conformal_vectors,
    ek_power_check,
    intertwiner_leading_check,
    ope_check,
    singular_space_dimension,
    singular_vector_check,
)
from paraferm.w1inf_symbols import generation_closure

Q = Fraction


def _line(num: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_ope_suite():
    ok = True
    worst = 0.0
    for k in (3, 4, 5):
        t0 = time.perf_counter()
        r = ope_check(k)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and r.status == "pass" and len(r.details) == 12 and dt < 1.0
    _line(1, "bracket relations, k in {3,4,5}, exact, <1s per k", ok, worst)


def test_02_singular_vector():
    t0 = time.perf_counter()
    ok = True
    for k in (3, 4):
        cv = conformal_vectors(k, 4)
        r = singular_vector_check(cv["W3"], cv["omega_para"])
        ok = ok and r.status == "pass"
        ok = ok and singular_space_dimension(k) == 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _line(2, "W3 singular and unique in weight 3, k in {3,4}", ok, dt)


def test_03_parafermion_character():
    t0 = time.perf_counter()
    basis = affine_module_basis(3, 0, 3)
    kernel = commutant_kernel(basis, 0)
    got = [len(kernel.get(Q(w), [])) for w in range(4)]
    ok = got == [1, 0, 1, 2]
    r = string_dual_route_check(3, 0, 6, j=0)
    ok = ok and r.status == "pass"
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _line(3, "vacuum coset dimensions 1,0,1,2 and dual route to weight 6", ok, dt)


def test_04_decomposition_identities():
    t0 = time.perf_counter()
    ok = True
    for k in (3, 4):
        for i in range(k + 1):
            r = decomposition_check_lki(k, i, 6)
            ok = ok and r.status == "pass"
    _line(4, "decompositions of all modules, k in {3,4}, weight 6, exact",
          ok, time.perf_counter() - t0)


def test_05_topweight_matching():
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 21):
        for i in range(k + 1):
            for j in range(k):
                img = w_label(k, j, j - i)
                ok = ok and para_normalize(k, i, j).topweight == img.topweight
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _line(5, "top weights match under the first identification, k <= 20", ok, dt)


def test_06_identification_theorem():
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 9):
        bijs = identify(k)
        ok = ok and len(bijs) == 2
        by_form = {b.form: b.mapping for b in bijs}
        ok = ok and by_form.get("form1") == form1_map(k)
        ok = ok and by_form.get("form2") == form2_map(k)
    for k in (3, 4, 5):
        oracle = brute_force_identifications(k)
        ok = ok and len(oracle) == 2
        ok = ok and all(b.mapping in oracle for b in identify(k))
    _line(6, "exactly two identifications, k in 3..8, oracle k <= 5",
          ok, time.perf_counter() - t0)


def test_07_simple_module_count():
    t0 = time.perf_counter()
    ok = all(len(enumerate_simples(k)) == k * (k + 1) // 2 for k in range(2, 21))
    _line(7, "k(k+1)/2 simple-module classes, k <= 20", ok, time.perf_counter() - t0)


def test_08_intertwiner_leading_terms():
    t0 = time.perf_counter()
    ok = all(intertwiner_leading_check(k).status == "pass" for k in (3, 4, 5))
    _line(8, "intertwiner leading coefficients 1 and 1/k, k in {3,4,5}",
          ok, time.perf_counter() - t0)


def test_09_maximal_ideal_realization():
    t0 = time.perf_counter()
    ok = all(ek_power_check(k).status == "pass" for k in (3, 4))
    _line(9, "(E-1)^k 1 nonzero with eigenvalue 2k, (E-1)^(k+1) 1 = 0",
          ok, time.perf_counter() - t0)


def test_10_symbol_generation():
    t0 = time.perf_counter()
    reached = generation_closure({1, 2}, 20)
    ok = reached == set(range(1, 21))
    # the weight-one symbol is itself a generator, not a product
    ok = ok and generation_closure({0, 1, 2}, 20) == set(range(21))
    _line(10, "symbols J^1..J^20 generated from {J^1, J^2}", ok,
          time.perf_counter() - t0)


def test_11_central_charges():
    t0 = time.perf_counter()
    ok = True
    for k in (3, 4):
        cv = conformal_vectors(k, 4)
        ok = ok and central_charge_of(cv["omega_aff"]) == Q(3 * k, k + 2)
        ok = ok and central_charge_of(cv["omega_h"]) == 1
        ok = ok and central_charge_of(cv["omega_para"]) == Q(2 * (k - 1), k + 2)
    for k in range(3, 21):
        ok = ok and w_minimal_central_charge(k) == Q(2 * (k - 1), k + 2)
    _line(11, "central charges 3k/(k+2), 1, 2(k-1)/(k+2) and the minimal-series value",
          ok, time.perf_counter() - t0)
