"""The fast demos run end to end as scripts.

Demos 01, 03 and 04 take about a second together; 03 drives cycle
enumeration, spectra and Gram checks.  Demo 06 (about 2 s) runs the Riesz
chain of the registry entry riesz3.  Demos 02 and 05 take several seconds
each and are left to manual runs; every demo's calls into the package
are bound to their signatures statically.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_hadamard_duality.py", "03_w_cycles_and_spectrum.py",
                                  "04_transfer_operator.py", "06_riesz_product.py"])
def test_demo_exits_zero(tmp_path, demo):
    # run in tmp_path: demo 04 writes a CSV into its working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _package_calls(path):
    """(line, name, callee, call) for every call in a demo of a name it
    imports from ifsfourier, or of an attribute of such a name."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                    alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ifsfourier"
                for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            yield node.lineno, func.id, imported[func.id], node
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported and hasattr(imported[func.value.id], func.attr)):
            yield (node.lineno, func.value.id + "." + func.attr,
                   getattr(imported[func.value.id], func.attr), node)


def test_demo_calls_bind_to_the_package_signatures():
    # demos 02 and 05 do not run here: a trimmed parameter would break them
    # unseen, so every call binds its positional count and keywords
    unbound, checked = [], 0
    for path in sorted((ROOT / "demos").glob("*.py")):
        for line, name, callee, call in _package_calls(path):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                continue
            try:
                inspect.signature(callee).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                unbound.append((path.name, line, name, str(exc)))
            checked += 1
    assert unbound == []
    assert checked >= 30
