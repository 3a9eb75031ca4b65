"""The package's public surface: every exported name resolves, once, and
no module imports a name it does not use."""

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
