"""The public surface: every exported name resolves, and removed names stay gone."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import ifsfourier
from ifsfourier import AffineSystem
from ifsfourier.config import SystemConfig

MODULES = ["ifsfourier"] + ["ifsfourier." + m.name for m in pkgutil.iter_modules(ifsfourier.__path__)]
REMOVED = {"weight_function", "pi_truncated", "ruelle_iterate", "riesz_weight",
           "riesz_branch_normalization", "W_INCONCLUSIVE", "_RIESZ_VIEW", "_RIESZ_WEIGHT",
           "_try_exact", "_classified_cycles", "_cycle_tables", "to_float",
           "k_points_of_depth", "_cycle_k_points", "DEFAULT_CHAIN_LENGTH",
           # per-item references: in tests/reference.py, or deleted (classify_w)
           "classify_w", "cycle_from_word", "aperiodic_necklaces", "solve_exact",
           "rational_vector", "m_eval", "cylinder_weight", "cycle_tail_weight",
           "path_weight_with_tail", "_word_weights", "cycle_basin", "BasinResult"}
REMOVED_METHODS = {("SpectrumSet", "floats"), ("ChainSample", "blocks")}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert REMOVED.isdisjoint(exported)
    assert [n for n in REMOVED if hasattr(mod, n)] == []


@pytest.mark.parametrize("cls, name", sorted(REMOVED_METHODS))
def test_removed_methods_stay_gone(cls, name):
    assert not hasattr(getattr(ifsfourier, cls), name)


def test_package_exports_are_unique_and_cover_the_core():
    assert len(ifsfourier.__all__) == len(set(ifsfourier.__all__))
    assert {"Weight", "cosine_weight", "weight_from_digits", "enumerate_cycles", "riesz_chain",
            "check_qmf", "EXAMPLES"} <= set(ifsfourier.__all__)


ROOT = pathlib.Path(__file__).resolve().parents[1]
# objects of the paper that a user calls, with no caller in the package
PAPER_OBJECTS = {"mu_hat", "k_point", "power_system"}


def _loaded_names(paths) -> set:
    """Every name the files load, read as an attribute or import by name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_function_has_a_caller():
    # the package ships what runs: a function a layer module exports is
    # called by the package, a demo or the benchmark; references that only
    # the tests call live in tests/reference.py
    src = ROOT / "src" / "ifsfourier"
    loaded = _loaded_names([p for p in src.glob("*.py") if p.name != "__init__.py"]
                           + sorted((ROOT / "demos").glob("*.py"))
                           + sorted((ROOT / "bench").glob("*.py")))
    uncalled = []
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        uncalled += [(name, fn) for fn in getattr(mod, "__all__", [])
                     if inspect.isfunction(getattr(mod, fn)) and fn not in loaded | PAPER_OBJECTS]
    assert uncalled == []


def test_cycle_tol_is_no_field():
    for cls in (AffineSystem, SystemConfig):
        assert "cycle_tol" not in {f.name for f in dataclasses.fields(cls)}


def test_exact_data_is_no_option():
    # every AffineSystem is rational: there is no float-only state to test for
    assert not hasattr(AffineSystem, "has_exact")
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(AffineSystem)
               if f.name in ("R_exact", "B_exact", "L_exact"))


def test_cli_imports_public_names_only():
    # the CLI's work runs through public names, which `bench/tracing.py`
    # wraps; a private import would hide it from the per-layer metrics
    with open(importlib.import_module("ifsfourier.cli").__file__) as fh:
        tree = ast.parse(fh.read())
    private = [
        (node.lineno, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ifsfourier")
        for alias in node.names
        if alias.name.startswith("_")
        or any(part.startswith("_") for part in (node.module or "").split("."))
    ]
    assert private == []


def _is_stderr(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "stderr"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_cli_main_decides_the_outcome():
    # a subcommand returns its report or raises; `main` alone prints it to
    # stdout and picks the exit code, so no other function in the CLI may
    # print to stdout or name an exit code
    with open(importlib.import_module("ifsfourier.cli").__file__) as fh:
        tree = ast.parse(fh.read())
    offences = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(k.arg == "file" and _is_stderr(k.value) for k in node.keywords)):
                offences.append((fn.name, node.lineno, "print to stdout"))
            if isinstance(node, ast.Name) and node.id.startswith("EXIT_"):
                offences.append((fn.name, node.lineno, node.id))
    assert offences == []
