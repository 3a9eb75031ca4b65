"""Span recorder wrapped around the library's public functions.

Only the traced run installs it.  Every binding of a traced function in
the loaded `tdpairs.*` modules is replaced, including the copies that a
module-level `from .x import f` makes, so a call is caught whichever
module makes it.  Spans (name, start, end, parent) are kept in flat
arrays and written out when the run ends; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute) of every traced public function.  The metric name
# is "<module>.<function>"; Matrix.__matmul__ is reported as linalg.matmul.
TRACED = (
    ("linalg", "Matrix.__matmul__"),
    ("linalg", "rref_rows"),
    ("linalg", "min_poly"),
    ("subspaces", "subspace_intersect"),
    ("subspaces", "subspace_sum"),
    ("eigen", "eigen_decompose"),
    ("pairs", "closure_algebra"),
    ("pairs", "irreducible"),
    ("pairs", "validate_pair"),
    ("pairs", "support_path_orderings"),
    ("split", "split_subspaces"),
    ("split", "complete_report"),
    ("leonard", "detect_leonard"),
    ("leonard", "random_leonard"),
    ("leonard", "generate_split_form"),
    ("leonard", "switching_via_solve"),
    ("leonard", "switching_from_sequences"),
    ("search", "search_shape"),
    ("serio", "loads_strict"),
    ("serio", "candidate_from_json"),
    ("serio", "canonical_dumps"),
)

# The cli layer is reported as one self time over its entry points.
CLI_ENTRY_POINTS = (
    "main",
    "cmd_verify",
    "cmd_decompose",
    "cmd_detect",
    "cmd_switch",
    "cmd_generate",
    "cmd_search",
)

MODULES = (
    "linalg",
    "subspaces",
    "eigen",
    "pairs",
    "split",
    "leonard",
    "search",
    "serio",
    "cli",
)

ITEM = "bench.item"

# irreducibility.diagnostic of an accepted pair -> branch metric suffix
BRANCHES = {
    "no proper nonzero subspaces in dimension 1": "dim1",
    "closure algebra is all of End(V)": "closure_full",
    "kernel spin-ups and the dual spin-up all fill the space": "kernel_spin",
    "every line spins up to the full space": "line_spin",
    "structured eigenspace-block search is exhaustive for this shape": "structured_q",
}
BRANCH_NAMES = tuple(BRANCHES.values()) + ("other",)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{'matmul' if attr == 'Matrix.__matmul__' else attr}"


class Tracer:
    """Flat span store; `on` gates recording so wrappers can stay
    installed while the benchmark replays work it does not measure."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.on = False
        self.branches = dict.fromkeys(BRANCH_NAMES, 0)
        self.item_id = self._name_id(ITEM)  # the span around each timed item

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _count_branch(self, pair) -> None:
        key = BRANCHES.get(pair.irreducibility.diagnostic, "other")
        self.branches[key] += 1

    def install(self) -> int:
        """Wrap every traced function at every binding; returns the
        number of bindings replaced."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tdpairs" or name.startswith("tdpairs."))
        ]
        targets = [(mod, attr, metric_name(mod, attr)) for mod, attr in TRACED]
        targets += [("cli", fn, f"cli.{fn}") for fn in CLI_ENTRY_POINTS]
        replaced = 0
        for mod, attr, name in targets:
            home = sys.modules[f"tdpairs.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                replaced += 1
                continue
            original = getattr(home, attr)
            hook = self._count_branch if name == "pairs.validate_pair" else None
            wrapped = self.wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        replaced += 1
        return replaced

    def self_times(self) -> list[float]:
        n = len(self.name)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def item_self_sums(self, self_t: list[float]) -> dict[int, float]:
        """Summed self time of every span under each item span, keyed
        by the item span's index."""
        root = array("i", [0]) * len(self.name)
        sums: dict[int, float] = {}
        for i, p in enumerate(self.parent):
            r = i if p < 0 else root[p]
            root[i] = r
            sums[r] = sums.get(r, 0.0) + self_t[i]
        return sums

    def summary(self, self_t: list[float]) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, calls)."""
        out = {name: [0.0, 0] for name in self.names}
        for i, nid in enumerate(self.name):
            slot = out[self.names[nid]]
            slot[0] += self_t[i]
            slot[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
