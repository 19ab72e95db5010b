"""Per-layer metrics of one traced job, derived from its spans, from what the
traced calls received and returned, and from probe calls made after the job
span has closed.

Layers are the library's modules: ``io`` (load_csv, write_matrix),
``segment`` (intersect_spans, build_grid, segment_positions), ``features``
(extract), ``calculators`` (per-builtin busy time from extract's log
records), ``cli`` (the command's own glue) and ``bench`` (this harness).
"""

from __future__ import annotations

import os
import time

import numpy as np

import stridekit

from measure import Tracer, median, self_times

#: Builtins reported by name; a builtin a workload does not run reads 0.
CALCULATORS = (
    "mean", "std", "min", "max", "median", "sum", "var", "rms", "abs_energy",
    "skewness", "kurtosis", "slope", "count", "zero_cross",
    "quantile_0.25", "quantile_0.75",
)


def _segment_probe(tracer: Tracer, series_set, collection, output_position) -> dict:
    """Recompute every group's grid and sample positions, timing only the
    segment layer's calls, and count windows, empty windows (a member series
    has no sample) and robust fills (a robust function's input is short)."""
    busy = 0.0
    windows = empty = fills = 0
    with tracer.span("segment.probe"):
        for (names, w, s), wrappers in collection.groups():
            members = [series_set[n] for n in names]
            t0 = time.perf_counter()
            begin, end = stridekit.intersect_spans(members)
            grid = stridekit.build_grid(begin, end, w, s, output_position)
            positions = [stridekit.segment_positions(m, grid) for m in members]
            busy += time.perf_counter() - t0
            fewest = np.minimum.reduce([p[:, 1] - p[:, 0] for p in positions])
            windows += grid.n_segments
            empty += int((fewest == 0).sum())
            for wrapper in wrappers:
                if wrapper.recipe is not None and wrapper.recipe[0] == "robust":
                    fills += int((fewest < wrapper.recipe[2]).sum())
    return {"segment.positions_s": busy, "segment.windows": windows,
            "segment.empty_windows": empty, "features.robust_fill_windows": fills}


def job_metrics(tracer: Tracer, job) -> dict:
    """Per-layer metrics of traced job ``job``. Runs the segment probe, so
    call it after the job span has closed, with ``tracer.job`` still set."""
    spans = tracer.of_job(job)
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    loads, writes, extracts = named("io.load_csv"), named("io.write_matrix"), named("features.extract")
    if len(extracts) != 1:
        raise RuntimeError(f"job {job}: expected one extract call, saw {len(extracts)}")
    ex = extracts[0]
    (series_set, collection, options), _, result = ex.payload
    records = result.log_records
    busy = sum(r.duration_s for r in records)
    wrappers = [w for _, ws in collection.groups() for w in ws]
    cells = sum(r.n_segments * w.n_outputs for r, w in zip(records, wrappers))
    per_calc = dict.fromkeys(CALCULATORS, 0.0)
    for r in records:
        if r.func in per_calc:
            per_calc[r.func] += r.duration_s

    m = {
        "io.load_s": sum(s.duration for s in loads),
        "io.load_rows": sum(len(s.payload[2][0]) for s in loads),
        "io.write_s": sum(s.duration for s in writes),
        "io.write_bytes": sum(os.path.getsize(s.payload[0][1]) for s in writes),
        "features.extract_s": ex.duration,
        "features.unit_busy_s": busy,
        "features.overhead_s": ex.duration - busy / options.n_workers,
        "features.us_per_cell": 1e6 * busy / cells if cells else 0.0,
        "features.slowest_unit_s": max((r.duration_s for r in records), default=0.0),
        "features.pool_child_cpu_s": ex.child_cpu_s,
        "features.pool_efficiency": busy / (options.n_workers * ex.duration),
        "features.sparsity_warnings": len(result.sparsity_warnings),
        "cli.glue_s": sum(selfs[s.id] for s in named("cli.main")),
        "bench.unattributed_s": sum(selfs[s.id] for s in named("bench.job")),
    }
    m.update({f"calculators.{name}_s": v for name, v in per_calc.items()})
    m.update(_segment_probe(tracer, series_set, collection, options.output_position))
    for s in spans:
        s.payload = None
    return m


def summarize(per_job: list[dict]) -> dict:
    """Median over traced jobs of each per-layer metric."""
    return {k: median([m[k] for m in per_job]) for k in per_job[0]}
