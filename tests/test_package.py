import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import kschur

# Every name the package exports, by the submodule that defines it.
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
}

# Every name perfbench/replay.py reads from a kschur module, by that module.
REPLAY_READS = {
    "cli": (
        "build_parser",
        "cache_dir",
        "cached_matrix_document",
        "cmd_expand",
        "cmd_verify",
        "format_k",
        "matrix_document",
        "parse_element_spec",
        "parse_k",
        "render_matrix",
    ),
    "partitions": ("k_conjugate", "k_pieri_targets", "partitions_of"),
    "compositions": ("comp_pieri_targets", "covers_up", "enumerate_compositions"),
    "algebra": ("BasisMatrix",),
    "bases": ("build_kschur_system", "build_schur_system", "ssyt_count"),
}
REPLAY = Path(__file__).parent.parent / "perfbench" / "replay.py"


@pytest.mark.parametrize("module", EXPORTS)
def test_package_exports(module):
    defining = import_module(f"kschur.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from kschur import {name}", namespace)
        assert namespace[name] is getattr(defining, name)


def test_lazy_table_is_the_lazy_exports_and_each_resolves():
    """kschur._LAZY names exactly the exports, each under its module, and
    each name resolves to that module's object."""
    lazy = {name: module for module, names in EXPORTS.items() for name in names}
    assert kschur._LAZY == lazy
    for name, module in lazy.items():
        assert getattr(kschur, name) is getattr(import_module(f"kschur.{module}"), name)


def test_import_loads_no_submodule():
    """A fresh interpreter that imports kschur loads no kschur submodule."""
    code = "import sys, kschur; print(*sorted(m for m in sys.modules if m.startswith('kschur')))"
    env = dict(os.environ, PYTHONPATH=str(Path(kschur.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split() == ["kschur"]


def test_star_import_binds_the_lazy_names():
    """In a fresh interpreter, from kschur import * binds exactly the names
    of kschur._LAZY."""
    code = "before = set(globals()); from kschur import *; print(*sorted(set(globals()) - before - {'before'}))"
    env = dict(os.environ, PYTHONPATH=str(Path(kschur.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split() == sorted(kschur._LAZY)


def test_dir_lists_the_lazy_names():
    assert set(kschur._LAZY) <= set(dir(kschur))
    assert "__version__" in dir(kschur)


@pytest.mark.parametrize("module", REPLAY_READS)
def test_replay_reads_resolve(module):
    """Each name the benchmark replay reads resolves in its module."""
    defining = import_module(f"kschur.{module}")
    for name in REPLAY_READS[module]:
        assert getattr(defining, name) is not None, name


def test_replay_reads_are_listed():
    """REPLAY_READS is every attribute perfbench/replay.py reads from the
    kschur modules it imports, as module.name or by its wrap(module,
    "name", ...), which skips a missing name without a word; so a name it
    starts to read is checked too."""
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kschur"
        for alias in node.names
    }
    read = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            read.setdefault(aliases[node.value.id], set()).add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "wrap":
            owner, attr = node.args[:2]
            if isinstance(owner, ast.Name) and owner.id in aliases:
                read.setdefault(aliases[owner.id], set()).add(attr.value)
    assert read == {module: set(names) for module, names in REPLAY_READS.items()}


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
