"""Import hygiene of the library modules and the tests, checked with ast
(no linter).

A module-level import whose name the module never reads is either dead
weight left behind by a deletion or a dependency nobody meant to keep.
`contfrob/__init__.py` is exempt: its imports are the package's exports.
An export that a deletion left dangling is caught as well: every name in
a module's `__all__` must resolve, and every name the package imports
from a module with an `__all__` must be listed there.  The same ast scan
keeps the library off the reference tree walk: only fields.py calls
`.evaluate(`; and it keeps the PDE certificates off the ODE module:
pdelab does not import odelab, and ModuliDecl lives in moduli.py.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contfrob

MODULES = sorted(p for p in Path(contfrob.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(path):
    """(line, name) of each module-level import never used as a Name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_no_unused_test_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_listed_export_resolves(path):
    module = importlib.import_module(f"contfrob.{path.stem}")
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if not hasattr(module, name)] == []


def test_package_imports_only_listed_exports():
    init = Path(contfrob.__file__)
    unlisted = []
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"contfrob.{node.module}")
            listed = getattr(module, "__all__", None)
            unlisted += [(node.module, alias.name) for alias in node.names
                         if listed is not None and alias.name not in listed]
    assert unlisted == []


def evaluate_calls(path):
    """Lines of the calls x.evaluate(...) in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate"]


def test_only_fields_walks_the_tree():
    # the library evaluates through eval_fields and compile_fields;
    # Field.evaluate is fields.py's own reference and constant folder
    calls = {p.name: evaluate_calls(p) for p in MODULES
             if p.name != "fields.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def _tree(name):
    return ast.parse((Path(contfrob.__file__).parent / name).read_text())


def test_pdelab_does_not_import_odelab():
    # the PDE certificate reaches the declared moduli through moduli.py,
    # not through the ODE module
    modules = []
    for node in ast.walk(_tree("pdelab.py")):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert [m for m in modules if m.split(".")[-1] == "odelab"] == []


def test_moduli_decl_is_defined_only_in_moduli():
    defined = [p.name for p in MODULES for node in ast.walk(_tree(p.name))
               if isinstance(node, ast.ClassDef) and node.name == "ModuliDecl"]
    assert defined == ["moduli.py"]


def test_importing_the_package_leaves_scipy_unloaded():
    # SciPy is imported inside the functions that call quad, brentq,
    # ndimage and the splines, so the CLI starts without it
    code = ("import sys, contfrob, contfrob.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    src = str(Path(contfrob.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
