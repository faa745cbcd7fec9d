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
           "path_weight_with_tail", "_word_weights", "cycle_basin", "BasinResult",
           # aliases: callers construct `Weight` and use `np.kron`
           "cosine_weight", "tensor"}
REMOVED_METHODS = {("SpectrumSet", "floats"), ("ChainSample", "blocks"),
                   # only the tests called these; references in tests/reference.py
                   ("IfsView", "tau"), ("Cycle", "rotations"), ("Cycle", "point_set"),
                   ("GridFunction", "max_abs"), ("GridFunction", "constant"),
                   ("PathEnsemble", "cylinder_frequency"), ("PathEnsemble", "final_states")}


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
    assert {"Weight", "weight_from_digits", "enumerate_cycles", "riesz_chain",
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


def _caller_paths() -> list:
    """The files whose calls count: the package outside `__init__`, the demos
    and the benchmark."""
    src = ROOT / "src" / "ifsfourier"
    return ([p for p in src.glob("*.py") if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))


def _calls(paths) -> dict:
    """Every call in the files by the name it calls (a plain or attribute
    name), as (positional count, keywords, unpacks *args or **kwargs)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append((
                    len(node.args), {k.arg for k in node.keywords},
                    any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)))
    return calls


def _exported():
    """(module, name, object) for every name a layer module exports."""
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        for export in getattr(mod, "__all__", []):
            yield name, export, getattr(mod, export)


def _public_members(cls) -> dict:
    """A class's own public methods and properties, by name."""
    return {name: member for name, member in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(member)
                 or isinstance(member, (property, classmethod, staticmethod)))}


def test_every_exported_function_has_a_caller():
    # the package ships what runs: a function a layer module exports is
    # called by the package, a demo or the benchmark; references that only
    # the tests call live in tests/reference.py
    loaded = _loaded_names(_caller_paths())
    uncalled = []
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        uncalled += [(name, fn) for fn in getattr(mod, "__all__", [])
                     if inspect.isfunction(getattr(mod, fn)) and fn not in loaded | PAPER_OBJECTS]
    assert uncalled == []


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    # an option exists only where a caller in the package, a demo or the
    # benchmark passes it, by keyword or by position (calls are matched by
    # the name they call); one no caller passes is a constant
    calls = _calls(_caller_paths())
    functions = []
    for module, name, obj in _exported():
        if inspect.isfunction(obj) and name not in PAPER_OBJECTS:
            functions.append((module + "." + name, name, obj, 0))
        elif inspect.isclass(obj):
            for member, fn in _public_members(obj).items():
                if isinstance(fn, property):
                    continue
                bound = 0 if isinstance(fn, staticmethod) else 1
                fn = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
                functions.append((module + "." + obj.__name__ + "." + member, member, fn, bound))
    unpassed = []
    for label, name, fn, bound in sorted(set(functions), key=lambda f: f[0]):
        params = list(inspect.signature(fn).parameters.values())
        for i, param in enumerate(params):
            if param.default is param.empty or param.kind in (param.VAR_POSITIONAL,
                                                              param.VAR_KEYWORD):
                continue
            if not any(unpacks or param.name in keywords
                       or (param.kind != param.KEYWORD_ONLY and n_args + bound > i)
                       for n_args, keywords, unpacks in calls.get(name, [])):
                unpassed.append((label, param.name))
    assert unpassed == []


def test_every_public_member_of_an_exported_class_has_a_caller():
    # a method or property exists only where the package, a demo or the
    # benchmark reads it; dunders are exempt
    loaded = _loaded_names(_caller_paths())
    unread = sorted({(obj.__name__, member) for _, _, obj in _exported() if inspect.isclass(obj)
                     for member in _public_members(obj) if member not in loaded})
    assert unread == []


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
