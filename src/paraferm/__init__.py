"""Exact-arithmetic toolkit for parafermion coset algebras: truncated
q-series characters, lattice Fock-space mode computations, string functions
by two independent routes, simple-module label arithmetic and the
identification of the coset and minimal-series W-algebra module families."""

from .qseries import (
    QSeries,
    ZQSeries,
    coset_theta,
    free_w_char,
    heisenberg_char,
    lattice_coset_char,
)
from .lattice_fock import (
    FockState,
    GradedBasis,
    Lattice,
    StateVector,
    affine_module_basis,
    central_charge_of,
    commutant_kernel,
    conformal_vectors,
    ek_power_check,
    gamma_lattice,
    generated_subspace,
    heisenberg_apply,
    mode_apply,
    ope_check,
    rank_lattice,
    singular_vector_check,
    sl2_generators,
)
from .characters import (
    StringFunction,
    affine_sl2_char,
    decomposition_check_lk0,
    decomposition_check_lki,
    string_dual_route_check,
    string_function,
    w_minimal_central_charge,
)
from .fusion_identify import (
    Bijection,
    ParaLabel,
    WLabel,
    enumerate_simples,
    identify,
    para_normalize,
    simple_current_act,
    theta_act,
    topweight_para,
    topweight_w,
)
from .w1inf_symbols import (
    SymbolElement,
    falling_factorial,
    generation_closure,
    symbol_product,
)
from .report import Report
from .cli import run_all, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
