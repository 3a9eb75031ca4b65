"""The benchmark's tracer binds library names by string: each must resolve."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constants(*names):
    """The literal values of module-level assignments in the tracer, read
    from its source so that nothing is imported or written there."""
    tree = ast.parse(TRACER.read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }


def test_every_name_the_benchmark_tracer_wraps_resolves():
    consts = _tracer_constants("TRACED", "CLI_ENTRY_POINTS")
    assert consts["TRACED"] and consts["CLI_ENTRY_POINTS"]
    for mod, attr in consts["TRACED"]:
        home = importlib.import_module(f"tdpairs.{mod}")
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(home, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(home, attr, None)), f"{mod}.{attr}"
    cli = importlib.import_module("tdpairs.cli")
    for name in consts["CLI_ENTRY_POINTS"]:
        assert callable(getattr(cli, name, None)), f"cli.{name}"
