"""Import hygiene of the library modules, checked with ast (no linter).

A module-level import whose name the module never reads is either dead
weight left behind by a deletion or a dependency nobody meant to keep.
`contfrob/__init__.py` is exempt: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import contfrob

MODULES = sorted(p for p in Path(contfrob.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
