"""Exact dual Schur-like bases for k-bounded quasi-symmetric and
non-commutative symmetric functions, with the supporting combinatorics of
k-bounded partitions, cores and composition posets.

The algebra, systems and bases names are imported on first access, so a
program that needs only the label layer (compositions, partitions,
errors) does not load the linear algebra, the graded systems or the
verifiers.
"""

from importlib import import_module

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

# Each lazily imported name with the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "algebra": (
            "BasisMatrix",
            "LinearCombination",
            "H_product",
            "M_quasi_shuffle",
            "chi_project",
            "h_product",
            "pairing",
        ),
        "systems": (
            "GradedSystem",
            "build_kschur_system",
            "build_schur_system",
            "kostka",
            "kostka_chains",
        ),
        "bases": (
            "VerificationCase",
            "VerificationReport",
            "monomial_to_M",
            "negativity_search",
            "ssyt_count",
            "stabilization_check",
            "verify_appendix",
            "verify_decomposition",
            "verify_duality",
            "verify_negativity",
            "verify_omega",
            "verify_projection",
        ),
    }.items()
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
