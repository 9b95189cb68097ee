"""Import hygiene of the library modules and the tests, checked with ast
(no linter).

A module-level import whose name the module never reads is either dead
weight left behind by a deletion or a dependency nobody meant to keep.
`contfrob/__init__.py` is exempt: its imports are the package's exports.
An export that a deletion left dangling is caught as well: every name in
a module's `__all__` must resolve, and every name the package imports
from a module with an `__all__` must be listed there.  The same ast scan
keeps the library off the reference tree walk: only fields.py calls
`.evaluate(`, only surface.py calls `compile_rk4_run`, only
`fields._Source.define` calls the builtin `compile`, only
`SplineLeaf.evaluate` calls a spline's `ev` (generated code calls its
`locate` and `poly`), every LAPACK call site is in one census (SVD, QR,
the inverse and the eigenvalues only in stacked.py's kernels, no solve
in dynsys), every matrix product is in another, with the reason it is
not stacked.product (the library makes no np.einsum call), and no
library module imports a private name of stacked.py; and it keeps the
PDE certificates off the ODE module: pdelab does not import odelab,
and ModuliDecl lives in moduli.py.  Every exported name is used, not
only imported or listed, by the library, the benchmark or the
acceptance criteria; a use counts for the module the name was imported
from (or, in the library, the module that defines it), so np.exp is no
use of fields.exp.  The same holds for options: every defaulted
parameter of a public function, method or class (a dataclass's fields
included) is passed, by position or keyword, by some call of that name
in the library, the benchmark or the acceptance criteria, or by a call
with a * or ** argument.
"""

import ast
import importlib
import math
import os
import re
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


ROOT = Path(__file__).resolve().parent.parent
# the acceptance criteria count as callers; estimate_modulus waits for the
# declared-moduli audit (ROADMAP item 6) to call it
USERS = (MODULES + sorted((ROOT / "cfbench").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])
UNUSED_EXPORTS = {("moduli", "estimate_modulus")}


def calls_of(path, name):
    """Lines of the calls name(...) or x.name(...) in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr == name
                 or isinstance(node.func, ast.Name) and node.func.id == name)]


def test_only_fields_walks_the_tree():
    # the library evaluates through eval_fields and compile_fields;
    # Field.evaluate is fields.py's own reference and constant folder
    calls = {p.name: calls_of(p, "evaluate") for p in MODULES
             if p.name != "fields.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_only_surface_compiles_rk4_runs():
    # one engine: surface._integrate is the one caller of the generated run
    calls = {p.name: calls_of(p, "compile_rk4_run") for p in USERS}
    assert [name for name, lines in calls.items() if lines] == ["surface.py"]


def _scoped(tree, scope=()):
    """(node, scope) of each node in tree: the dotted class and function
    scope of the node, outermost first."""
    for node in ast.iter_child_nodes(tree):
        yield node, ".".join(scope)
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        yield from _scoped(node, inner)


def _calls(tree):
    """(callee, scope) of each call in tree, the callee as written, as
    np.linalg.svd."""
    return [(ast.unparse(node.func), scope) for node, scope in _scoped(tree)
            if isinstance(node, ast.Call)]


def _scopes_calling(tree, name):
    """The scope of each call name(...) in tree."""
    return [scope for callee, scope in _calls(tree) if callee == name]


def test_splines_are_read_through_locate_and_poly():
    # ev, one cell search and one partial, is called only by the tree
    # walk; the generated code calls a bound object's methods only in the
    # spline statements, one locate per spline and one poly per partial
    calls = [(p.name, scope) for p in MODULES
             for callee, scope in _calls(_tree(p.name))
             if callee.endswith(".ev")]
    assert calls == [("fields.py", "SplineLeaf.evaluate")]
    generated = []
    for node in ast.walk(_tree("fields.py")):
        if isinstance(node, ast.JoinedStr):
            for a, b in zip(node.values, node.values[1:]):
                if isinstance(a, ast.FormattedValue) and \
                        isinstance(b, ast.Constant):
                    generated += re.findall(r"^\.(\w+)\(", b.value)
    assert sorted(generated) == ["locate", "poly"]


def test_only_source_define_compiles():
    # every generated function goes through define's code cache
    calls = [(p.name, scope) for p in MODULES
             for scope in _scopes_calling(_tree(p.name), "compile")]
    assert calls == [("fields.py", "_Source.define")]


# every call of the library that reaches LAPACK, by (module, scope).
# np.linalg.norm takes vector norms only, and is left out
LAPACK_CALLS = {
    # tiny matrices take stacked.py's closed forms: LAPACK's SVD and QR
    # are called only where those hand a matrix over, LAPACK's inverse
    # only where the closed-form inverse hands one over, and the pencil
    # roots only in their kernel
    "np.linalg.svd": [("stacked.py", "singular_values.lapack")],
    "np.linalg.qr": [("stacked.py", "_lapack_signed_qr")],
    "np.linalg.inv": [("stacked.py", "_lapack_inverse")],
    "np.linalg.eigvals": [("stacked.py", "_root_real_parts")],
    "np.roots": [("stacked.py", "_root_real_parts")],
    "np.linalg.solve": [("mollify.py", "_cyclic_reduction")],
    "np.linalg.det": [("forms.py", "_minor")],
    "np.linalg.lstsq": [("dynsys.py", "_domination")],
}


def test_lapack_svd_and_qr_are_only_fallbacks():
    # numpy.linalg and np.roots are reached only under those names, so no
    # alias hides a call
    calls = {}
    for p in MODULES:
        for callee, scope in _calls(_tree(p.name)):
            if re.fullmatch(r"np\.roots|np\.linalg\.\w+", callee) \
                    and callee != "np.linalg.norm":
                calls.setdefault(callee, []).append((p.name, scope))
    assert calls == LAPACK_CALLS
    aliases = [(p.name, ast.unparse(node)) for p in MODULES
               for node in ast.walk(_tree(p.name))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and re.search("linalg|roots|einsum", ast.unparse(node))]
    assert aliases == []


# every matrix product of the library, by (module, scope): (how many, why
# it is not stacked.product's sum in index order).  Each reason is a
# measurement of routing that site through product or an ordered sum
_MOVES_BYTES = ("ordered sums here moved dyn_transport.csv's angles (by "
                "up to 1.1e-10 relative, at 4e-8 rad), dyn_traces.csv's "
                "q_ext (by up to 2.5e-11), a pinned trace and the "
                "torus-splitting digests, and read torus-splitting about "
                "4 % slower")
_MOVES_NOTHING = "an ordered sum moved no byte; one BLAS call is less code"
PRODUCTS = {
    ("dynsys.py", "Cocycle.products"): (1, _MOVES_BYTES),
    ("dynsys.py", "Cocycle.pullback_values"): (1, _MOVES_BYTES),
    ("dynsys.py", "_domination"): (3, _MOVES_BYTES),
    ("geometry.py", "max_principal_angle"): (2, _MOVES_BYTES),
    ("geometry.py", "exterior_regularity_trace"): (1, _MOVES_BYTES),
    ("moduli.py", "_rule"): (1, _MOVES_NOTHING),
    ("surface.py", "pushforward_bound_check"): (1, _MOVES_NOTHING),
    ("forms.py", "stacked_wedge_norms"): (
        1, "a row times a column is np.linalg.norm's dot product of a "
           "vector; a sum over the last axis rounds differently"),
    ("mollify.py", "_convolve"): (
        2, "offsets times strides in integers, exact in any order"),
    ("mollify.py", "_SplineEvaluator.__init__"): (
        3, "three _slopes solves take about 0.7 ms per 82 x 82 grid, the "
           "products with the cached operators about 0.14 ms (one thread "
           "of a 2-CPU Xeon); their bits follow the BLAS thread count"),
}


def test_every_matrix_product_is_censused():
    # each @ or @=, and each call of a numpy product function
    sites = {}
    for p in MODULES:
        for node, scope in _scoped(_tree(p.name)):
            if isinstance(getattr(node, "op", None), ast.MatMult) or \
                    isinstance(node, ast.Call) and ast.unparse(node.func) in (
                        "np.matmul", "np.dot", "np.inner", "np.einsum",
                        "np.tensordot"):
                sites[p.name, scope] = sites.get((p.name, scope), 0) + 1
    assert sites == {site: n for site, (n, _) in PRODUCTS.items()}


def test_bounds_and_traces_weigh_only_by_scaled_exp():
    # one e^x weight, math.exp's bits, for every bound and trace
    assert [(name, scope) for name in ("geometry.py", "surface.py",
                                       "dynsys.py")
            for scope in _scopes_calling(_tree(name), "np.exp")] == []


def test_no_library_module_imports_a_private_kernel():
    # geometry and dynsys reach the kernels through stacked.py's public
    # names only
    private = []
    for p in MODULES:
        for node in ast.walk(_tree(p.name)):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == "stacked":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and \
                    ast.unparse(node.value) == "stacked":
                names = [node.attr]
            else:
                continue
            private += [(p.name, n) for n in names if n.startswith("_")]
    assert private == []


def contfrob_bindings(path, tree):
    """Local name -> dotted contfrob path it is bound to by the module's
    imports; in a library module its own exports are bound as well."""
    bound = {}
    if path.parent == MODULES[0].parent:
        module = importlib.import_module(f"contfrob.{path.stem}")
        bound = {name: f"contfrob.{path.stem}.{name}"
                 for name in getattr(module, "__all__", [])}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "contfrob":
                    bound[alias.asname or "contfrob"] = (
                        alias.name if alias.asname else "contfrob")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: inside the package
                base = "contfrob" + (f".{base}" if base else "")
            if base.split(".")[0] == "contfrob":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def export_uses(path):
    """(module, name) of each read of a contfrob export in a file: a bare
    name imported from that module, or name as an attribute of a name
    bound to it.  An import or an __all__ entry is no use, and neither is
    np.exp for fields.exp."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = contfrob_bindings(path, tree)
    listed = {p.stem: getattr(importlib.import_module(f"contfrob.{p.stem}"),
                              "__all__", []) for p in MODULES}
    uses = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in bound):
            continue
        dotted = bound[node.id].split(".")[1:] + parts
        if len(dotted) >= 2 and dotted[1] in listed.get(dotted[0], []):
            uses.add((dotted[0], dotted[1]))
        elif dotted:  # a package-level re-export
            uses |= {(m, dotted[0]) for m, names in listed.items()
                     if dotted[0] in names}
    return uses


def test_every_export_is_used():
    # each use is keyed by the module that exports the name
    used = set().union(*(export_uses(path) for path in USERS))
    unused = {(p.stem, name) for p in MODULES
              for name in getattr(importlib.import_module(
                  f"contfrob.{p.stem}"), "__all__", [])
              if (p.stem, name) not in used}
    assert unused == UNUSED_EXPORTS


# presets.py is exempt: the CLI registries call its builders through **.
# main's argv is the tests' seam; estimate_modulus waits for the
# declared-moduli audit (ROADMAP item 6) to call it
UNPASSED_DEFAULTS = {("cli.main", "argv"),
                     ("moduli.estimate_modulus", "direction_mask"),
                     ("moduli.estimate_modulus", "n_buckets")}


def _params(fn, method):
    """(names a call fills by position, defaulted names) of a def; a
    method's self or cls is filled by the call's receiver."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        names = names[1:]
    defaulted = names[len(names) - len(args.defaults):] if args.defaults \
        else []
    return names, defaulted + [a.arg for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                               if d is not None]


def _fields(cls):
    """(field names, defaulted names) of a dataclass or NamedTuple, the
    parameters of its generated __init__; None for another class."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    if not any(getattr(d, "id", None) == "dataclass" for d in decorators) \
            and not any(getattr(b, "id", None) == "NamedTuple"
                        for b in cls.bases):
        return None
    names, defaulted = [], []
    for st in cls.body:
        if not (isinstance(st, ast.AnnAssign)
                and isinstance(st.target, ast.Name)):
            continue
        if isinstance(st.value, ast.Call) and any(
                k.arg == "init" for k in st.value.keywords):
            continue  # field(init=False)
        names.append(st.target.id)
        if st.value is not None:
            defaulted.append(st.target.id)
    return names, defaulted


def signatures(path):
    """(owner, callee, names, defaulted) of each public function, public
    method and __init__ of a public class in a library module; a call
    reaches the owner under the callee's name, the class's for
    __init__."""
    sigs = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            sigs.append((node.name, node.name, *_params(node, False)))
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
            fields = _fields(node)
            if fields is not None:
                sigs.append((node.name, node.name, *fields))
            sigs += [(f"{node.name}.{f.name}",
                      node.name if f.name == "__init__" else f.name,
                      *_params(f, True)) for f in node.body
                     if isinstance(f, ast.FunctionDef)
                     and (f.name == "__init__" or f.name[0] != "_")]
    return sigs


def calls_by_callee(paths):
    """callee name -> (positional count, keyword names, whether a * or **
    argument passes everything) of each call in the files."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            star = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, star))
    return calls


def test_every_default_is_passed():
    # a defaulted parameter that no pipeline, benchmark or criterion
    # passes is an option only the tests select
    calls = calls_by_callee(USERS)
    unpassed = set()
    for path in MODULES:
        if path.name == "presets.py":
            continue
        for owner, callee, names, defaulted in signatures(path):
            for name in defaulted:
                at = names.index(name) if name in names else math.inf
                if not any(star or name in keywords or positional > at
                           for positional, keywords, star
                           in calls.get(callee, [])):
                    unpassed.add((f"{path.stem}.{owner}", name))
    assert unpassed == UNPASSED_DEFAULTS


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


def _scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter
    with the library (and cfbench) importable."""
    code += ("\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    root = Path(contfrob.__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root), str(root.parent / "cfbench"),
                    env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip().splitlines()[-1]


def test_no_library_module_imports_scipy():
    # SciPy is a test-only reference: the spline, the root-finder and the
    # quadrature are numpy
    found = []
    for path in sorted(Path(contfrob.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_importing_the_package_leaves_scipy_unloaded():
    # no library module imports SciPy, so neither the package nor the CLI
    # loads it
    assert _scipy_modules_after(
        "import sys, contfrob, contfrob.cli") == "[]"


@pytest.mark.parametrize("argv", [
    ["moduli", "check", "--criterion", "osgood", "--w", "loglip()"],
    ["mollify", "verify", "--expr", "(x^2)^0.5", "--eps-list", "0.1,0.05"],
    ["pde", "solve-special", "--example", "paper-ex2"]],
    ids=["moduli-check", "mollify-verify", "pde-solve-special"])
def test_quadrature_and_separable_solve_leave_scipy_unloaded(tmp_path, argv):
    # the three kinds that imported quad, CubicSpline and brentq
    assert _scipy_modules_after(f"""
import sys
from contfrob.cli import main
assert main({argv + ["--out", str(tmp_path)]!r}) == 0
""") == "[]"


def test_frame_pipelines_leave_scipy_unloaded(tmp_path):
    # mollifying and the spline leaves are numpy: a surface-frames task
    # of the benchmark and `pde frames` never import SciPy
    assert _scipy_modules_after(f"""
import sys
import numpy as np
import spans, workloads
from contfrob.cli import main
wl = workloads.WORKLOADS["surface-frames"]()
ctx = wl.build()
res = wl.run(ctx, wl.inputs(ctx, np.random.default_rng([1, 2, 0])), spans.NULL)
assert res.problems == [], res.problems
assert main(["pde", "frames", "--example", "paper-ex2", "--eps-list",
             "0.125,0.0625", "--out", {str(tmp_path)!r}]) == 0
""") == "[]"
