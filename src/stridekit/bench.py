"""Synthetic benchmark harness: deterministic data generation, wall-time and
allocation profiling of extract, and a JSON-serializable report.

The memory metric is an in-process allocation high-watermark (tracemalloc)
covering exactly the extract call: the input data is allocated before tracing
starts, so the peak counts only bytes the engine adds on top of it. Resident
set size is available behind a flag for cross-tool comparison but is not the
primary metric.
"""

from __future__ import annotations

import gc
import math
import resource
import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .calculators import builtin
from .errors import BadParam
from .features import (
    ExtractOptions,
    ExtractResult,
    FeatureCollection,
    FuncWrapper,
    expand_multiple,
    extract,
)
from .series import IndexKind, Series, SeriesSet, ValueTag

#: Functions profiled per channel when no explicit set is passed.
DEFAULT_FUNCTION_SPECS: tuple[tuple[str, dict], ...] = (
    ("mean", {}),
    ("std", {}),
    ("min", {}),
    ("max", {}),
    ("median", {}),
    ("sum", {}),
    ("var", {}),
    ("rms", {}),
    ("abs_energy", {}),
    ("skewness", {}),
    ("kurtosis", {}),
    ("slope", {}),
    ("count", {}),
    ("zero_cross", {}),
    ("quantile", {"q": 0.25}),
    ("quantile", {"q": 0.75}),
)


def default_feature_functions() -> list[FuncWrapper]:
    return [builtin(name, params) for name, params in DEFAULT_FUNCTION_SPECS]


def gen_synthetic(
    n_channels: int = 5,
    fs: int = 1000,
    duration: float = 3600.0,
    seed: int = 0,
    value_tag: ValueTag = ValueTag.F32,
) -> SeriesSet:
    """Channels ch_0..ch_{n-1}: sin(2*pi*0.1*(c+1)*t) plus N(0, 0.1) noise,
    sampled at fs Hz for the given duration.

    Timestamps are exact round-half-up nanoseconds of i/fs; all channels share
    one index array. One seeded generator draws the noise channel by channel,
    so equal seeds give bit-identical sets.
    """
    for name, value, low in (("n_channels", n_channels, 1), ("fs", fs, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise BadParam(f"{name} must be an integer >= {low}, got {value!r}")
    if (isinstance(duration, bool) or not isinstance(duration, (int, float))
            or not math.isfinite(duration) or duration <= 0):
        raise BadParam(f"duration must be a positive number, got {duration!r}")
    if value_tag not in (ValueTag.F32, ValueTag.F64):
        raise BadParam("value_tag must be F32 or F64")
    n = int(round(fs * float(duration)))
    if n < 1:
        raise BadParam("duration too short for a single sample")
    i = np.arange(n, dtype=np.int64)
    index_ns = (2 * i * 1_000_000_000 + fs) // (2 * fs)
    t = index_ns.astype(np.float64) / 1e9
    rng = np.random.default_rng(seed)
    dtype = np.float32 if value_tag is ValueTag.F32 else np.float64
    out = SeriesSet()
    for c in range(n_channels):
        signal = np.sin(2.0 * np.pi * 0.1 * (c + 1) * t)
        noise = rng.normal(0.0, 0.1, n)
        out.add(Series(f"ch_{c}", index_ns, (signal + noise).astype(dtype),
                       kind=IndexKind.TIME_NS))
    return out


def data_bytes(series_set: SeriesSet) -> int:
    """Bytes held by the set's unique underlying buffers (a shared index array
    is counted once)."""
    seen: set[int] = set()
    total = 0
    for s in series_set:
        for arr in (s.index, s.values.data):
            base = arr if arr.base is None else arr.base
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
    return total


def measure_allocation(fn: Callable):
    """Run ``fn`` under tracemalloc and return (result, peak_bytes), where
    peak_bytes is the allocation high-watermark reached during the call on top
    of everything allocated before it."""
    gc.collect()
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
        return result, max(0, int(peak))
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, int(peak)


def rss_peak_bytes() -> int:
    # ru_maxrss is kilobytes on Linux.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


@dataclass(frozen=True)
class BenchReport:
    runtime_s: float
    peak_extra_bytes: int
    data_bytes: int
    n_windows: int
    n_feature_columns: int
    n_workers: int
    seed: int
    rss_peak_bytes: int | None = None

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        if self.rss_peak_bytes is None:
            del obj["rss_peak_bytes"]
        return obj


def run_bench(
    window: str = "30s",
    stride: str = "10s",
    n_channels: int = 5,
    fs: int = 1000,
    duration: float = 3600.0,
    n_workers: int = 1,
    seed: int = 0,
    functions: Sequence[FuncWrapper] | None = None,
    measure_rss: bool = False,
) -> BenchReport:
    """Generate the synthetic set, extract the feature battery twice, and
    report timing and allocation. The first extract is timed with the
    allocation tracer off; the second, untimed, gives the allocation
    watermark. Both cover the extract call only, not data generation."""
    options = ExtractOptions(n_workers=n_workers)
    data = gen_synthetic(n_channels=n_channels, fs=fs, duration=duration, seed=seed)
    funcs = list(functions) if functions is not None else default_feature_functions()
    collection = FeatureCollection(
        expand_multiple(funcs, data.names(), [window], [stride])
    )

    def go() -> ExtractResult:
        return extract(data, collection, options)

    t0 = time.perf_counter()
    matrix = go().matrix
    runtime = time.perf_counter() - t0
    _, peak = measure_allocation(go)
    return BenchReport(
        runtime_s=runtime,
        peak_extra_bytes=peak,
        data_bytes=data_bytes(data),
        n_windows=matrix.n_rows,
        n_feature_columns=matrix.n_columns,
        n_workers=n_workers,
        seed=seed,
        rss_peak_bytes=rss_peak_bytes() if measure_rss else None,
    )
