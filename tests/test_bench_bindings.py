"""The benchmark's tracer binds library names and diagnostics by string:
each must resolve."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from tdpairs import irreducible
from test_acceptance import instance_pool
from test_pairs import GRAPH_FIELDS, multiplicity_free_samples

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


def test_every_accepted_diagnostic_names_a_traced_branch():
    # the tracer files an accepted pair's irreducibility diagnostic under
    # BRANCHES[diagnostic], and under "other" when the key is missing, so
    # a renamed diagnostic would silently move the branch counts
    branches = _tracer_constants("BRANCHES")["BRANCHES"]
    accepted = {pair.irreducibility.diagnostic for pair in instance_pool()}
    for field in GRAPH_FIELDS:
        for a, b in multiplicity_free_samples(field):
            report = irreducible(a, b)
            if report.is_irreducible():
                accepted.add(report.diagnostic)
    assert accepted and accepted <= set(branches)
