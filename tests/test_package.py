import ast
from importlib import import_module
from pathlib import Path

import pytest

import kschur

# The names the package exported eagerly before the algebra and bases
# names became lazy, by the submodule that defines them now.
EXPORTS = {
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
        "check_composition",
        "comp_pieri_targets",
        "covers_up",
        "enumerate_compositions",
        "is_horizontal_comp_strip",
        "is_horizontal_k_comp_strip",
        "sort_to_partition",
    ),
    "errors": ("DomainError",),
    "partitions": (
        "bounded_to_core",
        "check_partition",
        "core_search_oracle",
        "core_to_bounded",
        "dominance_leq",
        "hook_lengths",
        "is_core",
        "is_horizontal_k_strip",
        "is_horizontal_strip",
        "k_conjugate",
        "k_pieri_targets",
        "partitions_of",
        "transpose",
    ),
}


@pytest.mark.parametrize("module", EXPORTS)
def test_package_exports(module):
    defining = import_module(f"kschur.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from kschur import {name}", namespace)
        assert namespace[name] is getattr(defining, name)


def test_lazy_table_is_the_lazy_exports_and_each_resolves():
    """kschur._LAZY names exactly the algebra, systems and bases exports,
    each under its module, and each name resolves to that module's object."""
    lazy = {name: module for module in ("algebra", "systems", "bases") for name in EXPORTS[module]}
    assert kschur._LAZY == lazy
    for name, module in lazy.items():
        assert getattr(kschur, name) is getattr(import_module(f"kschur.{module}"), name)


def test_bases_reads_the_systems_builders():
    """bases.build_*_system are the memoized builders of systems, so the
    suites and a matrix request share one cache of built systems."""
    bases, systems = import_module("kschur.bases"), import_module("kschur.systems")
    assert bases.build_schur_system is systems.build_schur_system
    assert bases.build_kschur_system is systems.build_kschur_system


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kschur.no_such_name
    assert not hasattr(kschur, "build_system")



@pytest.mark.parametrize(
    "path", sorted(p for p in Path(kschur.__file__).parent.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_import(path):
    """Every name a module imports is read in it; the package __init__ is
    left out, because its imports are re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)
