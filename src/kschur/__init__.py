"""Exact dual Schur-like bases for k-bounded quasi-symmetric and
non-commutative symmetric functions, with the supporting combinatorics of
k-bounded partitions, cores and composition posets."""

from .algebra import (
    BasisMatrix,
    LinearCombination,
    H_product,
    M_quasi_shuffle,
    chi_project,
    h_product,
    pairing,
)
from .bases import (
    GradedSystem,
    VerificationCase,
    VerificationReport,
    build_kschur_system,
    build_schur_system,
    kostka,
    kostka_chains,
    monomial_to_M,
    negativity_search,
    order_convention_report,
    ssyt_count,
    stabilization_check,
    verify_appendix,
    verify_decomposition,
    verify_duality,
    verify_negativity,
    verify_omega,
    verify_projection,
)
from .compositions import (
    bottom_aligned_contains,
    check_composition,
    comp_pieri_targets,
    covers_up,
    enumerate_compositions,
    is_horizontal_comp_strip,
    is_horizontal_k_comp_strip,
    sort_to_partition,
)
from .errors import DomainError
from .partitions import (
    bounded_to_core,
    check_partition,
    core_search_oracle,
    core_to_bounded,
    dominance_leq,
    hook_lengths,
    is_core,
    is_horizontal_k_strip,
    is_horizontal_strip,
    k_conjugate,
    k_pieri_targets,
    partitions_of,
    transpose,
)

__version__ = "0.1.0"
