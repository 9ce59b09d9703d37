"""Exact dual Schur-like bases for k-bounded quasi-symmetric and
non-commutative symmetric functions, with the supporting combinatorics of
k-bounded partitions, cores and composition posets.

Every exported name is imported from its submodule on first access, so
``import kschur`` loads no submodule, and a program that reads only the
label layer (labels, errors) loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name with the submodule that defines it.
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
        "compositions": (
            "bottom_aligned_contains",
            "comp_pieri_targets",
            "covers_up",
            "is_horizontal_comp_strip",
            "is_horizontal_k_comp_strip",
        ),
        "errors": ("DomainError",),
        "labels": (
            "check_composition",
            "check_partition",
            "enumerate_compositions",
            "partitions_of",
            "sort_to_partition",
        ),
        "partitions": (
            "bounded_to_core",
            "core_search_oracle",
            "core_to_bounded",
            "dominance_leq",
            "hook_lengths",
            "is_core",
            "is_horizontal_k_strip",
            "is_horizontal_strip",
            "k_conjugate",
            "k_pieri_targets",
            "transpose",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
