"""The package's public surface: every exported name resolves, once, no
module imports a name it does not use, every private name is read, and
Matrix._shift_ints is read only where a caller's scalar comes in."""

from __future__ import annotations

import ast
from pathlib import Path

import tdpairs


def test_every_exported_name_resolves_is_unique_and_sorted():
    names = tdpairs.__all__
    assert [n for n in names if not hasattr(tdpairs, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_every_imported_name_is_used():
    # no linter runs here, and a deletion leaves its imports behind;
    # __init__.py imports in order to re-export
    unused = []
    for path in sorted(Path(tdpairs.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_private_name_is_referenced():
    # a private function or class (at any depth) or module constant that
    # nothing in the package reads is dead: only a read as a name or an
    # attribute counts, not an import, a definition, a string or a comment
    defined, read = [], set()
    for path in sorted(Path(tdpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, f"{path.name}:{node.lineno}") for t in targets if isinstance(t, ast.Name)]
    private = [(name, where) for name, where in defined if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 90
    assert [f"{where} {name}" for name, where in private if name not in read] == []


def test_shift_ints_is_read_only_where_a_field_scalar_comes_in():
    # every eigenvalue of a decomposition is shifted as R - r I by its
    # stored integer root; Matrix._shift_ints splits a caller's scalar theta
    # into (a, b) only in Matrix.shift and kernel(m, theta)
    readers = []

    def visit(node, module, where):
        if isinstance(node, ast.Attribute) and node.attr == "_shift_ints":
            readers.append((module, where))
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else where)

    for path in sorted(Path(tdpairs.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert sorted(readers) == [("linalg.py", "shift"), ("subspaces.py", "kernel")]
