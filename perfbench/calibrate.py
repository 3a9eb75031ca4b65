"""Machine-speed calibration.

On a machine whose cores are shared with other tenants, the speed a
process gets flips between a fast and a slow state (about 1.7x apart)
every second or so; the same search window measured 58 ms and 112 ms a
minute apart.  Raw wall times therefore spread far more between runs
than any bound could allow.  Between items
the runner times a fixed pure-Python kernel in three parts shaped like
the library's work (Fraction and residue-object arithmetic, JSON parsing
and hashing, plain object churn); code with a different mix slows by a
different factor, so one part alone tracks some workloads badly.  Each
item's time is divided by the mean kernel slowness around it.  Reported
times are the times the work would take in the reference (fast) state;
the raw times go in the run's metadata.  On five runs of certify on a
2-core Intel Xeon VM this cut the spread (IQR/median) of item_p50_ms from
0.28 to 0.03 and of items_per_s from 0.14 to 0.07.

The kernel is benchmark code and never calls the library, so a change to
the library cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
import time
from fractions import Fraction

# Kernel part times on a 2-core Intel Xeon VM with Python 3.11.7,
# in its fast state; a sample's slowness is the geometric mean of its
# parts' times over these.
REFERENCE_S = (0.0037, 0.0032, 0.0033)
WINDOW_S = 0.25
_N = 8
_DOC = json.dumps(
    {
        "field": {"kind": "GFp", "p": 101},
        "rows": 6,
        "cols": 6,
        "entries": [[str((7 * i + 3 * j) % 101) for j in range(6)] for i in range(6)],
    }
)


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 101

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


class _Node:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, other):
        return _Node(self.a + other.a, self.b * other.b % 97)


def _arithmetic() -> None:
    """Fraction and residue-object matrix products."""
    q = [[Fraction(i * _N + j + 1, j + 2) for j in range(_N)] for i in range(_N)]
    r = [[_Residue(7 * i + 3 * j + 1) for j in range(_N)] for i in range(_N)]
    for _ in range(2):
        [[sum((q[i][k] * q[k][j] for k in range(_N)), Fraction(0)) for j in range(_N)] for i in range(_N)]
        [[sum((r[i][k] * r[k][j] for k in range(_N)), _Residue(0)) for j in range(_N)] for i in range(_N)]


def _parsing() -> None:
    """JSON round trips and hashing of a small matrix document."""
    for _ in range(150):
        doc = json.loads(_DOC)
        hashlib.sha256(_DOC.encode("utf-8")).hexdigest()
        rows = tuple(tuple(int(x) for x in row) for row in doc["entries"])
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        dict(enumerate(rows))


def _objects() -> None:
    """Attribute access and allocation of plain objects."""
    nodes = [_Node(i, i + 1) for i in range(200)]
    acc = _Node(0, 1)
    for _ in range(55):
        for x in nodes:
            acc = acc.step(x)


_PARTS = (_arithmetic, _parsing, _objects)


def kernel_seconds() -> float:
    """One calibration sample: the kernel's slowness in reference
    seconds, with the garbage collector paused so the sample tracks the
    processor and not the heap the workload has built."""
    paused = gc.isenabled()
    gc.disable()
    try:
        ratio = 1.0
        for part, ref in zip(_PARTS, REFERENCE_S):
            t0 = time.perf_counter()
            part()
            ratio *= (time.perf_counter() - t0) / ref
    finally:
        if paused:
            gc.enable()
    return ratio ** (1 / len(_PARTS))


def scales(samples, sample_at, starts, durations) -> list[float]:
    """Scale for each timed interval (start, duration): one over the mean
    of the kernel samples taken within WINDOW_S of it, or of the two
    samples nearest its start when fewer fall there.  The mean, not the
    median: the speed flips between a fast and a slow state, and an
    interval's time follows the share of time spent slow."""
    out = []
    for start, duration in zip(starts, durations):
        lo = bisect.bisect_left(sample_at, start - WINDOW_S)
        hi = bisect.bisect_right(sample_at, start + duration + WINDOW_S)
        near = samples[lo:hi]
        if len(near) < 2:
            j = bisect.bisect_left(sample_at, start)
            near = samples[max(0, j - 1) : j + 1]
        out.append(1 / statistics.fmean(near))
    return out
