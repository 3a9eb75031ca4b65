"""The three workloads: their inputs, their items and the check on each
item's output.  See NOTES.md for why each workload exists.

A workload is built from its seed; building it imports tdpairs and makes
every input, and is what setup_s times.  `items()` is one pass: a fixed
list of items, each run by the timed loop in run.py and checked right
after.  The library is always reached through module attributes at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random

import exact

# Seed 0 reproduces the acceptance pool.  Seed 97 is held out of all
# tuning, for checking a later speed-up claim on unseen inputs.
DEFAULT_SEED = 0


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _s(x) -> str:
    """A library scalar as the CLI prints it."""
    return str(getattr(x, "v", x))


def _rows(m) -> list:
    return [[_s(x) for x in row] for row in m.rows]


class Item:
    """One unit of timed work.  `run` is timed; `check` is not, and
    returns (output passed its check, text that enters the digest)."""

    __slots__ = ("units", "run", "check")

    def __init__(self, units, run, check):
        self.units = units
        self.run = run
        self.check = check


def _library():
    return importlib.import_module("tdpairs"), importlib.import_module("tdpairs.cli")


# ---- pool -------------------------------------------------------------------

POOL_SIZE = 200


class Pool:
    """The acceptance-pool recipe: item i is a random Leonard pair over
    F[i % 4] of diameter i % 7 (mod 5 over GF(5)), drawn with seed
    seed * 200 + i, then split, detected and switched.  Seed 0 is
    exactly the acceptance pool."""

    def __init__(self, seed: int, workdir):
        self.lib, _ = _library()
        lib = self.lib
        fields = (lib.QQ, lib.GF(5), lib.GF(7), lib.GF(13))
        self.specs = []
        for i in range(POOL_SIZE):
            field = fields[i % 4]
            d = i % 7
            if getattr(field, "p", 0) == 5:
                d %= 5
            self.specs.append((field, d, seed * POOL_SIZE + i))

    def items(self):
        return [self._item(*spec) for spec in self.specs]

    def _item(self, field, d, seed):
        lib = self.lib

        def run():
            params, pair = lib.random_leonard(field, d, seed)
            report = lib.complete_report(lib.split_subspaces(pair))
            cert = lib.detect_leonard(pair)
            s_solve = lib.switching_via_solve(pair)
            s_seq = lib.switching_from_sequences(params, pair.eig_a)
            return params, pair, report, cert, s_solve, s_seq

        def check(out):
            params, pair, report, cert, s_solve, s_seq = out
            ones = (1,) * (d + 1)
            ok = (
                pair.diameter == d
                and tuple(pair.shape) == ones
                and pair.eig_a.dims() == ones
                and pair.eig_astar.dims() == ones
                and report.all_true()
                and isinstance(cert, lib.LeonardCertificate)
                and cert.solution_dim == 1
                and exact.proportional(s_seq.rows, s_solve.rows)
            )
            digest = {
                "field": _s(getattr(field, "p", "Q")),
                "d": d,
                "seed": seed,
                "params": [
                    [_s(x) for x in seq]
                    for seq in (params.theta, params.thetastar, params.varphi, params.phi)
                ],
                "A": _rows(pair.a),
                "Astar": _rows(pair.astar),
                "shape": list(pair.shape),
                "orderingA": [_s(x) for x in pair.eig_a.eigenvalues],
                "orderingAstar": [_s(x) for x in pair.eig_astar.eigenvalues],
                "alpha": [_s(x) for x in cert.alpha],
            }
            return ok, _canon(digest)

        return Item(1, run, check)


# ---- search -----------------------------------------------------------------

SEARCH_START = 180_000
SEARCH_STOP = 200_000
SEARCH_WINDOW = 200
SEARCH_HITS = (184953, 184983, 191271, 191301)
SEARCH_BLOCKS = (0, 1, 1, 2)  # eigenvalue block of each row for shape (1,2,1)
# The check each candidate dies at, in the order search_shape applies them.
FUNNEL = (
    "not_diagonalizable",
    "wrong_diameter",
    "wrong_multiset",
    "no_ordering_a",
    "no_ordering_astar",
    "invalid",
    "hit",
)


class Search:
    """Exhaustive GF(3), dim 4, shape (1,2,1) search over a fixed index
    range, through cmd_search in consecutive equal windows.  The range
    is exhaustive, so the seed does not change it."""

    def __init__(self, seed: int, workdir):
        self.lib, self.cli = _library()
        lib = self.lib
        self.specs = [
            lib.SearchSpec(
                field=lib.GF(3),
                dim=4,
                shape=lib.ShapeVector((1, 2, 1)),
                budget=SEARCH_WINDOW,
                start=start,
            )
            for start in range(SEARCH_START, SEARCH_STOP, SEARCH_WINDOW)
        ]

    def items(self):
        return [self._item(spec) for spec in self.specs]

    def _item(self, spec):
        expected = [k for k in SEARCH_HITS if spec.start <= k < spec.start + spec.budget]

        def run():
            return self.cli.cmd_search(spec, workers=1)

        def check(out):
            reports, summary = out
            ok = (
                summary["candidatesTried"] == spec.budget
                and [r["payload"]["candidateIndex"] for r in reports] == expected
                and all(
                    r["exitCode"] == 0
                    and r["payload"]["shape"] == [1, 2, 1]
                    and r["payload"]["diameter"] == 2
                    for r in reports
                )
            )
            return ok, "".join(_canon(r) for r in reports)

        return Item(spec.budget, run, check)

    def replay_funnel(self):
        """Rebuild every candidate of the range from the documented
        encoding (base-p digits of the index, least significant first,
        placed row-major over the block-tridiagonal positions) and name
        the check it dies at.  Returns (counts, hit indices)."""
        lib = self.lib
        field = lib.GF(3)
        p = field.p
        n = len(SEARCH_BLOCKS)
        positions = [
            (r, c)
            for r in range(n)
            for c in range(n)
            if abs(SEARCH_BLOCKS[r] - SEARCH_BLOCKS[c]) <= 1
        ]
        a = lib.Matrix(
            field, [[SEARCH_BLOCKS[r] if r == c else 0 for c in range(n)] for r in range(n)]
        )
        eig_a = lib.eigen_decompose(a)
        counts = dict.fromkeys(FUNNEL, 0)
        hits = []
        for k in range(SEARCH_START, SEARCH_STOP):
            rows = [[0] * n for _ in range(n)]
            rest = k
            for r, c in positions:
                rest, rows[r][c] = divmod(rest, p)
            kind = self._classify(a, eig_a, lib.Matrix(field, rows))
            counts[kind] += 1
            if kind == "hit":
                hits.append(k)
        return counts, hits

    def _classify(self, a, eig_a, astar) -> str:
        lib = self.lib
        try:
            eig_s = lib.eigen_decompose(astar)
        except lib.NotDiagonalizableOverField:
            return "not_diagonalizable"
        if eig_s.diameter != 2:
            return "wrong_diameter"
        if sorted(eig_s.dims()) != [1, 1, 2]:
            return "wrong_multiset"
        if not lib.support_path_orderings(eig_a, astar):
            return "no_ordering_a"
        if not lib.support_path_orderings(eig_s, a):
            return "no_ordering_astar"
        try:
            pair = lib.validate_pair(a, astar)
        except lib.TdpError:
            return "invalid"
        return "hit" if tuple(pair.shape) == (1, 2, 1) else "invalid"


# ---- certify ----------------------------------------------------------------

CERTIFY_FIELDS = ((None, "Q"), (101, "gf101"))
# (dimension, field name, round trips per pass).  The seed draws the
# n = 4 round trips, many per pass.  The rungs from n = 7 up are a fixed
# ladder with generation seeds LADDER_SEED, LADDER_SEED + 1, ...: one
# instance per rung cannot average out how the cost of a drawn instance
# varies (10-15% between draws at n = 7 over Q), and these rungs carry
# most of the pass's time.  The large rungs get generate + verify only.
# The counts put the median request inside the GF(101) n = 4 requests and
# the 90th percentile inside the GF(101) n = 7 requests, so neither sits
# on the edge between two request classes.
CERTIFY_DRAWN = ((4, "gf101", 34), (4, "Q", 6))
CERTIFY_LADDER = ((7, "Q", 1), (7, "gf101", 3))
CERTIFY_LARGE = ((10, "Q"), (10, "gf101"), (13, "gf101"))
LADDER_SEED = 1
CERTIFY_KRON = (2, 3)  # factors: shapes (1,2,1) and (1,3,3,1)


def _field_spec(p):
    return {"kind": "Q"} if p is None else {"kind": "GFp", "p": p}


def _candidate_json(p, a, astar) -> str:
    def matrix(m):
        return {
            "field": _field_spec(p),
            "rows": len(m),
            "cols": len(m),
            "entries": [[exact.to_str(p, x) for x in row] for row in m],
        }

    return _canon({"A": matrix(a), "Astar": matrix(astar)})


def _kron_input(rng, p, k):
    """k-fold Kronecker sum of diameter-1 split pairs with theta = (0, 1),
    thetastar = (0, 1) and distinct varphi per factor; varphi avoids 0
    and -1 so every factor is itself a Leonard pair."""
    varphis = rng.sample(range(1, 10 if p is None else p - 1), k)
    a = exact.kron_sum(p, [[[0, 0], [1, 1]]] * k)
    astar = exact.kron_sum(p, [[[0, v], [0, 1]] for v in varphis])
    return a, astar


def _reducible_input(rng, p):
    """Direct sum of two diameter-1 split pairs sharing their eigenvalues."""
    t = rng.randrange(0, 9)
    v1, v2 = rng.sample(range(1, 9), 2)
    a1 = [[t, 0], [1, t + 1]]
    return exact.block_diag(p, a1, a1), exact.block_diag(p, [[0, v1], [0, 1]], [[0, v2], [0, 1]])


def _nondiagonalizable_input(rng, p):
    t = rng.randrange(0, 9)
    return [[t, 1, 0], [0, t, 0], [0, 0, t + 1]], [[0, 1, 0], [0, 1, 1], [0, 0, 2]]


def _no_ordering_input(rng, p):
    """A diagonal with distinct eigenvalues and Astar = P D P^-1 with
    every entry nonzero: irreducible (every matrix unit lies in the
    algebra), but the support graph is complete, so no ordering works."""
    n = 4
    t = rng.randrange(0, 9)
    a = [[t + i if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [[2 * i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        lower = [[1 if i == j else (rng.randrange(1, 7) if i > j else 0) for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else (rng.randrange(1, 7) if i < j else 0) for j in range(n)] for i in range(n)]
        change = exact.matmul(p, lower, upper)
        astar = exact.matmul(p, exact.matmul(p, change, diag), exact.invert(p, change))
        if all(x for row in astar for x in row):
            return a, astar


class Certify:
    """A stream of single-request CLI calls: README round trips on
    generated Leonard pairs, Kronecker sums, and rejected inputs."""

    def __init__(self, seed: int, workdir):
        self.lib, self.cli = _library()
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        # one list per request class of step groups; a step is
        # (kind, p, argv, extra) and a group's steps run in order
        classes = []
        gen = 0
        for n, fname, copies in CERTIFY_DRAWN:
            classes.append([])
            for _ in range(copies):
                classes[-1].append(self._round_trip(n, fname, seed * 1000 + gen, full=True))
                gen += 1
        for n, fname, copies in CERTIFY_LADDER:
            classes.append(
                [self._round_trip(n, fname, LADDER_SEED + j, full=True) for j in range(copies)]
            )
        kron, rejected = [], []
        for p, fname in CERTIFY_FIELDS:
            for k in CERTIFY_KRON:
                a, astar = _kron_input(rng, p, k)
                path = self._write(f"kron-{fname}-{k}.json", _candidate_json(p, a, astar))
                shape = _binomials(k)
                kron.append(
                    [("kron_verify", p, ["verify", path], shape), ("kron_detect", p, ["detect", path], shape)]
                )
            for kind, build in (
                ("reducible", _reducible_input),
                ("nondiagonalizable", _nondiagonalizable_input),
                ("no_ordering", _no_ordering_input),
            ):
                a, astar = build(rng, p)
                path = self._write(f"{kind}-{fname}.json", _candidate_json(p, a, astar))
                rejected.append([(kind, p, ["verify", path], (a, astar))])
        large = [self._round_trip(n, fname, LADDER_SEED, full=False) for n, fname in CERTIFY_LARGE]
        classes += [kron, rejected, large]
        self.plan = _spread(classes)

    def _write(self, name, text) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _round_trip(self, n, fname, gen_seed, full):
        p = None if fname == "Q" else int(fname[2:])
        pair_path = str(self.workdir / f"gen-{fname}-{n}-{gen_seed}.json")
        params_path = pair_path + ".params"
        extra = (n, pair_path, params_path)
        steps = [
            ("generate", p, ["generate", "--random", fname, str(n - 1), str(gen_seed)], extra),
            ("verify", p, ["verify", pair_path], extra),
        ]
        if full:
            steps += [
                ("detect", p, ["detect", pair_path], extra),
                ("decompose", p, ["decompose", pair_path], extra),
                ("switch", p, ["switch", pair_path, "--sequences", params_path], extra),
            ]
        return steps

    def items(self):
        return [self._item(*step) for step in self.plan]

    def _item(self, kind, p, argv, extra):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            report = json.loads(text)
            if kind == "generate":
                self._save_generated(text, report, extra)
            ok = code == report["exitCode"] and getattr(self, f"_check_{kind}")(report, p, extra)
            return ok, _canon([kind, _pinned(kind, report)])

        return Item(1, run, check)

    def _save_generated(self, text, report, extra):
        """What a user of the README round trip does between requests:
        keep the generate output as the pair file, and its parameters for
        switch --sequences."""
        _, pair_path, params_path = extra
        params = report["payload"].get("params", {})
        with open(pair_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(params_path, "w", encoding="utf-8") as fh:
            fh.write(_canon(params))
        self.theta = params.get("theta")
        self.thetastar = params.get("thetastar")

    # -- per-class expectations; each returns True when the report is right

    def _check_generate(self, report, p, extra):
        n = extra[0]
        return (
            report["exitCode"] == 0
            and report["payload"]["candidate"]["A"]["rows"] == n
            and len(self.theta) == n
        )

    def _check_verify(self, report, p, extra):
        n = extra[0]
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["valid"] is True
            and payload["diameter"] == n - 1
            and payload["shape"] == [1] * n
            and payload["orderingA"] in (self.theta, self.theta[::-1])
            and payload["orderingAstar"] in (self.thetastar, self.thetastar[::-1])
        )

    def _check_detect(self, report, p, extra):
        n = extra[0]
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["leonard"] is True
            and payload["solutionDim"] == 1
            and payload["shape"] == [1] * n
            and len(payload["alpha"]) == n
            and payload["alpha"][-1] == "1"
        )

    def _check_decompose(self, report, p, extra):
        n = extra[0]
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["dims"] == [1] * n
            and payload["eq4"] is True
            and all(all(payload[f"eq{i}"]) for i in (5, 6, 7, 8, 10))
        )

    def _check_switch(self, report, p, extra):
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["normalization"] == "alpha_d=1"
            and payload["crossCheck"]["proportional"] is True
        )

    def _check_kron_verify(self, report, p, shape):
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["valid"] is True
            and payload["shape"] == shape
            and payload["diameter"] == len(shape) - 1
        )

    def _check_kron_detect(self, report, p, shape):
        payload = report["payload"]
        return (
            report["exitCode"] == 0
            and payload["leonard"] is False
            and payload["solutionDim"] == 0
            and payload["shape"] == shape
        )

    def _rejected(self, report, kind, side=None):
        payload = report["payload"]
        failure = payload["failure"] or {}
        return (
            report["exitCode"] == 1
            and payload["valid"] is False
            and failure.get("kind") == kind
            and (side is None or failure.get("side") == side)
        )

    def _check_reducible(self, report, p, matrices):
        if not self._rejected(report, "NotIrreducible"):
            return False
        a, astar = matrices
        basis = [[exact.parse(p, x) for x in v] for v in report["payload"]["failure"]["witness"]]
        return exact.is_proper_common_invariant(p, a, astar, basis)

    def _check_nondiagonalizable(self, report, p, matrices):
        return self._rejected(report, "NotDiagonalizableOverField", side="A")

    def _check_no_ordering(self, report, p, matrices):
        return self._rejected(report, "NoTridiagonalOrdering", side="A")


def _spread(classes):
    """Interleave each class's step groups evenly over the pass, so the
    requests that set a percentile do not all meet the same stretch of
    machine speed; the steps of a group stay together and in order."""
    keyed = [
        ((j + 0.5) / len(groups), c, j, group)
        for c, groups in enumerate(classes)
        for j, group in enumerate(groups)
    ]
    keyed.sort(key=lambda t: t[:3])
    return [step for *_, group in keyed for step in group]


def _binomials(k):
    row = [1]
    for _ in range(k):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


# Report fields the digest pins per request class: verdicts, shapes,
# orderings, certificate alpha and the whole generate output.  Witnesses
# and messages stay out; witnesses are checked, not compared.
_PINNED = {
    "verify": ("valid", "diameter", "shape", "orderingA", "orderingAstar"),
    "detect": ("leonard", "solutionDim", "shape", "alpha"),
    "decompose": ("dims", "eq4", "eq5", "eq6", "eq7", "eq8", "eq10"),
    "switch": ("normalization",),
}


def _pinned(kind, report):
    if kind == "generate":
        return report
    payload = report["payload"]
    base = kind.replace("kron_", "") if kind.startswith("kron_") else kind
    fields = _PINNED.get(base, ("valid",))
    out = {key: payload.get(key) for key in fields}
    out["exitCode"] = report["exitCode"]
    if payload.get("failure"):
        out["failure"] = {k: payload["failure"].get(k) for k in ("kind", "side")}
    if base == "switch":
        out["proportional"] = payload["crossCheck"]["proportional"]
    return out


WORKLOADS = {"pool": Pool, "search": Search, "certify": Certify}


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
