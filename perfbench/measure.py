"""Measurement helpers shared by the benchmark: order statistics, output
digests, an in-memory span tracer with self-time arithmetic, and an oracle
that recomputes sampled feature cells independently of the engine.

Only numpy is imported here, so the helpers can be tested without running a
workload.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from contextlib import contextmanager

import numpy as np

# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

#: Percentiles the report may quote, highest last.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(p / 100.0 * len(xs))
    return float(xs[max(rank, 1) - 1])


def supported_percentile(n: int) -> float | None:
    """Highest quotable percentile with at least ten samples above it, or
    None when n samples support none."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Median time of ``calibrate()`` on the host the benchmark was defined on
#: (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4). Fixed: it only
#: sets the scale of normalized times, and changing it rescales them all.
CALIB_REF_S = 0.125


def calibrate() -> float:
    """Time a fixed loop of slicing and small numpy reductions, the
    instruction mix of the engine's per-window path. It shares no code with
    the library, so a change to the library cannot move it; only the host's
    speed can."""
    x = np.arange(1000, dtype=np.float64)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(20000):
        lo = i % 500
        acc += float(np.mean(x[lo:lo + 100]))
    return time.perf_counter() - t0


def normalized(walls, calibrations) -> list[float]:
    """Each wall time scaled to the reference host speed by the mean of the
    calibrations run just before and just after it, given as one
    ``(before, after)`` pair per wall time."""
    if len(calibrations) != len(walls):
        raise ValueError("need one (before, after) calibration pair per wall time")
    return [w * 2.0 * CALIB_REF_S / (a + b) for w, (a, b) in zip(walls, calibrations)]


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

def digest_matrix(matrix) -> str:
    """SHA-256 over a FeatureMatrix: index kind, dtype and bytes, then per
    column its name, tag, dtype and cell bytes (object cells by repr, with
    None distinct from every value)."""
    h = hashlib.sha256()
    kind = getattr(matrix.kind, "value", None)
    h.update(f"kind={kind};index={matrix.index.dtype.str};".encode())
    h.update(np.ascontiguousarray(matrix.index).tobytes())
    for name in matrix.column_names:
        col = matrix[name]
        h.update(f";col={name};tag={col.tag.value};dtype={col.data.dtype.str};".encode())
        if col.data.dtype == object:
            h.update("\x1f".join("\x00" if v is None else repr(v) for v in col.data).encode())
        else:
            h.update(np.ascontiguousarray(col.data).tobytes())
    return h.hexdigest()


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "child_cpu_s", "payload")

    def __init__(self, span_id, name, parent, job, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = None
        self.child_cpu_s = 0.0
        # What the traced call received and returned, for counters derived
        # after the job; never written to the trace file.
        self.payload = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_obj(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "job": self.job, "start": self.start,
                "end": self.end, "child_cpu_s": self.child_cpu_s}


class Tracer:
    """Spans kept in memory: name, start and end (perf_counter seconds), the
    enclosing span, and the job they belong to. Each span also records the
    CPU time of reaped child processes (pool workers) consumed inside it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.job, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        cpu0 = _children_cpu_s()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.child_cpu_s = _children_cpu_s() - cpu0
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span whose payload is
        ``(args, kwargs, result)``."""
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                s.payload = (args, kwargs, result)
            return result
        return traced

    def of_job(self, job) -> list[Span]:
        return [s for s in self.spans if s.job == job]


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its direct children
    cover (children clipped to the parent's interval)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s.id] = s.duration - covered_length(clipped)
    return out


# ---------------------------------------------------------------------------
# independent feature oracle
# ---------------------------------------------------------------------------

def _moments(v):
    d = v - np.mean(v)
    return d, float(np.mean(d * d))


def _skewness(v):
    d, m2 = _moments(v)
    return 0.0 if m2 == 0.0 else float(np.mean(d * d * d)) / m2 ** 1.5


def _kurtosis(v):
    d, m2 = _moments(v)
    return 0.0 if m2 == 0.0 else float(np.mean((d * d) * (d * d))) / m2 ** 2 - 3.0


def _slope(v, t_ns):
    t = (t_ns - t_ns[0]).astype(np.float64) / 1e9
    tc = t - np.mean(t)
    denom = float(np.sum(tc * tc))
    return 0.0 if denom == 0.0 else float(np.sum(tc * (v - np.mean(v))) / denom)


#: The builtins' documented semantics, written from their definitions rather
#: than from the engine: population moments, excess kurtosis, linear
#: quantiles, slope against seconds from the window start. Each takes the
#: window's float64 values, its int64 nanosecond index, and the params.
ORACLE = {
    "count": lambda v, t, p: len(v),
    "sum": lambda v, t, p: float(np.sum(v)),
    "mean": lambda v, t, p: float(np.mean(v)),
    "var": lambda v, t, p: float(np.var(v)),
    "std": lambda v, t, p: float(np.std(v)),
    "min": lambda v, t, p: float(np.min(v)),
    "max": lambda v, t, p: float(np.max(v)),
    "median": lambda v, t, p: float(np.median(v)),
    "rms": lambda v, t, p: float(np.sqrt(np.mean(v * v))),
    "abs_energy": lambda v, t, p: float(np.sum(v * v)),
    "skewness": lambda v, t, p: _skewness(v),
    "kurtosis": lambda v, t, p: _kurtosis(v),
    "slope": lambda v, t, p: _slope(v, t),
    "zero_cross": lambda v, t, p: float(np.count_nonzero(v[:-1] * v[1:] < 0.0)),
    "quantile": lambda v, t, p: float(np.quantile(v, p["q"])),
}

#: Relative tolerance of the oracle comparison; summation order may differ
#: from the engine's, nothing else may.
ORACLE_RTOL = 1e-9


def cells_agree(got, want) -> bool:
    if isinstance(want, int):
        return got is not None and not isinstance(got, float) and int(got) == want
    got = float(got)
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= ORACLE_RTOL * max(abs(want), 1e-3)


def n_windows(index, window_ns: int, stride_ns: int) -> int:
    """Complete windows over a sorted int64 index's span."""
    span = int(index[-1]) - int(index[0])
    return 0 if span < window_ns else (span - window_ns) // stride_ns + 1


def window_bounds(index, window_ns: int, stride_ns: int, k: int):
    """Start of window k over a sorted int64 index's span, and its [lo, hi)
    sample range."""
    start = int(index[0]) + k * stride_ns
    return (start, int(np.searchsorted(index, start, "left")),
            int(np.searchsorted(index, start + window_ns, "left")))
