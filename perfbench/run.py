"""The repository benchmark.

    python3 perfbench/run.py --workload pool|search|certify \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its
src/ directory.  With --trace 0 the run times whole passes over the
workload's items until about S seconds have gone (at least one pass) and
prints the end-to-end metrics.  Times are scaled to the reference speed
of calibrate.py.  With --trace 1 it runs one pass without tracing and
then the same pass with spans recorded around the library's public
functions, and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it holds the run's metadata, which is also written with the
metrics under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from tracer import BRANCH_NAMES, MODULES, TRACED, Tracer, metric_name

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SAMPLE_EVERY_S = 0.2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pool", "search", "certify"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _purge_library() -> None:
    for name in [m for m in sys.modules if m == "tdpairs" or m.startswith("tdpairs.")]:
        del sys.modules[name]


def _setup(workload_cls, seed, workdir):
    """Import the library and build the inputs SETUP_REPEATS times from
    a clean module table; returns (median scaled seconds, median raw
    seconds, the last workload)."""
    clock = time.perf_counter
    raw, starts, samples, sample_at = [], [], [], []
    for _ in range(SETUP_REPEATS):
        samples.append(calibrate.kernel_seconds())
        sample_at.append(clock())
        _purge_library()
        shutil.rmtree(workdir, ignore_errors=True)
        starts.append(clock())
        workload = workload_cls(seed, workdir)
        raw.append(clock() - starts[-1])
    samples.append(calibrate.kernel_seconds())
    sample_at.append(clock())
    item_scales = calibrate.scales(samples, sample_at, starts, raw)
    scaled = [t * k for t, k in zip(raw, item_scales)]
    return statistics.median(scaled), statistics.median(raw), workload


class Pass:
    """Outcome of one pass over a workload's items."""

    def __init__(self):
        self.raw = []  # wall seconds per item
        self.start_at = []  # clock reading at each item's start
        self.latencies = []  # raw times scaled to the reference speed
        self.scale = 1.0  # summed scaled time over summed raw time
        self.samples = []  # calibration samples (kernel slowness)
        self.sample_at = []  # clock reading at the end of each sample
        self.units = 0
        self.failed = 0
        self.texts = []
        self.item_spans = []  # (span index, wall seconds) in a traced pass

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(items, tracer=None) -> Pass:
    """Run and check every item once; with a tracer, each item is a span.
    Calibration samples are taken between items, at most every
    SAMPLE_EVERY_S seconds, so they spread evenly over the pass."""
    out = Pass()
    clock = time.perf_counter

    def sample():
        out.samples.append(calibrate.kernel_seconds())
        out.sample_at.append(clock())

    sample()
    for item in items:
        out.units += item.units
        if clock() - out.sample_at[-1] >= SAMPLE_EVERY_S:
            sample()
        result, span = None, None
        t0 = clock()
        out.start_at.append(t0)
        if tracer is not None:
            span = tracer.begin(tracer.item_id)
        try:
            result = (item.run(),)
        except Exception:  # an item that raises is a failed item; keep going
            traceback.print_exc(file=sys.stderr)
        finally:
            if span is not None:
                tracer.finish(span)
        t1 = clock()
        out.raw.append(t1 - t0)
        if span is not None:
            out.item_spans.append((span, t1 - t0))
        ok, text = False, "error"
        if result is not None:
            try:
                ok, text = item.check(result[0])
            except Exception:  # a malformed output fails its check
                traceback.print_exc(file=sys.stderr)
        if not ok:
            out.failed += item.units
        out.texts.append(text)
    sample()
    item_scales = calibrate.scales(out.samples, out.sample_at, out.start_at, out.raw)
    out.latencies = [t * k for t, k in zip(out.raw, item_scales)]
    out.scale = sum(out.latencies) / sum(out.raw)
    return out


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _expected_digest(workload, seed):
    with open(Path(__file__).with_name("expected.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[workload]
    return pinned.get(str(seed))


def _check_digests(workload, seed, passes, notes) -> bool:
    """Every pass must give the same output digest, and the pinned one
    where a digest is stored for this seed (search ignores the seed)."""
    digests = [workloads.digest(p.texts) for p in passes]
    notes["digest"] = digests[0]
    if workload == "search":
        seed = workloads.DEFAULT_SEED
    expected = _expected_digest(workload, seed)
    ok = len(set(digests)) == 1 and (expected is None or digests[0] == expected)
    if not ok:
        print(f"output digest mismatch: got {digests}, pinned {expected}", file=sys.stderr)
    return ok


def timed_run(workload, seconds, setup_s, setup_raw_s):
    items = workload.items()
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(items))
        wall = time.perf_counter() - t_start
        # whole passes only, so every run times the same mix of items
        if wall + wall / len(passes) / 2 >= seconds:
            break
    latencies = [x for p in passes for x in p.latencies]
    raw = [x for p in passes for x in p.raw]
    units = sum(p.units for p in passes)
    timed = sum(p.seconds for p in passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (units / timed, "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    notes = {
        "passes": len(passes),
        "samples": len(latencies),
        "speed_scale": [p.scale for p in passes],
        "raw": {
            "setup_s": setup_raw_s,
            "items_per_s": units / sum(raw),
            "item_p50_ms": statistics.median(raw) * 1e3,
            "item_p90_ms": _percentile(raw, 90) * 1e3,
        },
    }
    return passes, metrics, notes


def traced_run(workload, name, out_dir, seed):
    items = workload.items()
    plain = run_pass(items)
    tracer = Tracer()
    bindings = tracer.install()
    tracer.on = True
    traced = run_pass(items, tracer)
    tracer.on = False
    self_t = tracer.self_times()
    sums = tracer.item_self_sums(self_t)
    # self times telescope to the item span, which sits inside the wall time
    over = [(s, w) for s, w in traced.item_spans if sums[s] > w * (1 + 1e-9)]
    if over:
        print(f"{len(over)} items whose span self times exceed their wall time", file=sys.stderr)
    summary = tracer.summary(self_t)
    units = traced.units
    k = traced.scale  # span times, like item times, at the reference speed
    metrics = {}
    for mod, attr in TRACED:
        key = metric_name(mod, attr)
        total, calls = summary[key]
        metrics[f"{key}_s"] = (total * k, "s")
        metrics[f"{key}_calls"] = (calls, "count")
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = (
            k * sum(t for name, (t, _) in summary.items() if name.startswith(mod + ".")),
            "s",
        )
    metrics["bench.self_s"] = (k * summary["bench.item"][0], "s")
    metrics["pairs.validate_per_item"] = (summary["pairs.validate_pair"][1] / units, "1/item")
    for branch in BRANCH_NAMES:
        metrics[f"pairs.irr_branch.{branch}"] = (tracer.branches[branch], "count")
    funnel_ok = True
    counts = dict.fromkeys(workloads.FUNNEL, 0)
    if name == "search":
        counts, hits = workload.replay_funnel()
        tried = workloads.SEARCH_STOP - workloads.SEARCH_START
        funnel_ok = sum(counts.values()) == tried and hits == list(workloads.SEARCH_HITS)
        if not funnel_ok:
            print(f"funnel replay disagrees: {counts} hits={hits}", file=sys.stderr)
    for key in workloads.FUNNEL:
        metrics[f"search.funnel.{key}"] = (counts[key], "count")
    metrics["search.hit_ratio"] = (counts["hit"] / max(1, sum(counts.values())), "1")
    metrics["trace.overhead_ratio"] = (traced.seconds / plain.seconds - 1, "1")
    metrics["trace.spans_per_item"] = (len(tracer.name) / len(items), "1/item")
    tracer.write(out_dir / f"spans-{name}-seed{seed}.json.gz")
    notes = {
        "bindings_wrapped": bindings,
        "spans": len(tracer.name),
        "speed_scale": [plain.scale, traced.scale],
    }
    return [plain, traced], metrics, notes, not over and funnel_ok


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "tdpairs" / "__init__.py").is_file():
        print(f"no tdpairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, setup_raw_s, workload = _setup(
            workloads.WORKLOADS[args.workload], args.seed, workdir
        )
        if args.trace:
            passes, metrics, notes, trace_ok = traced_run(
                workload, args.workload, out_dir, args.seed
            )
        else:
            passes, metrics, notes = timed_run(workload, args.seconds, setup_s, setup_raw_s)
            trace_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest_ok = _check_digests(args.workload, args.seed, passes, notes)
    attempted = sum(p.units for p in passes)
    failed = attempted if not digest_ok else sum(p.failed for p in passes)
    if not args.trace:
        metrics["ok_ratio"] = (1 - failed / attempted, "1")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **notes,
    }
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    items = {
        "raw_s": [p.raw for p in passes],
        "scaled_s": [p.latencies for p in passes],
        "start_at": [p.start_at for p in passes],
        "samples": [p.samples for p in passes],
        "sample_at": [p.sample_at for p in passes],
    }
    record.write_text(json.dumps({"meta": meta, **result, "items": items}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
