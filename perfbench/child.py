"""One benchmark process for one workload: build the inputs, run an untimed
warm-up and an uncounted reference job, then jobs back to back for the
requested seconds, then one allocation-measured job. Prints one JSON object
as its last line; ``run.py`` starts it and turns that into the report.

With ``--trace 1`` traced and untraced jobs alternate: per-layer numbers
come from the traced ones, and their wall times against the untraced ones
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

import stridekit
from stridekit import cli

import layers
from measure import Tracer, calibrate, median, normalized
from workloads import WORKLOADS, library_calls, oracle_mismatches, output_digest

_HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(_HERE, "_out")


def _traced_calls(tracer: Tracer) -> SimpleNamespace:
    calls = library_calls()
    return SimpleNamespace(
        extract=tracer.wrap("features.extract", calls.extract),
        write_matrix=tracer.wrap("io.write_matrix", calls.write_matrix),
        cli_main=tracer.wrap("cli.main", calls.cli_main),
    )


class _CliTraced:
    """Record spans around the calls the CLI makes into the io and features
    layers, by swapping the names it looks up for the duration."""

    NAMES = {"load_csv": "io.load_csv", "extract": "features.extract",
             "write_matrix": "io.write_matrix"}

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.saved = {n: getattr(cli, n) for n in self.NAMES}
        for n, span in self.NAMES.items():
            setattr(cli, n, self.tracer.wrap(span, self.saved[n]))

    def __exit__(self, *exc):
        for n, fn in self.saved.items():
            setattr(cli, n, fn)


class _LoadPeak:
    """During an allocation-measured job, the tracemalloc peak of each
    ``load_csv`` call above what was allocated when it began, while keeping
    the job's overall peak."""

    def __init__(self):
        self.job_peak = 0
        self.load_peaks = []

    def __enter__(self):
        self.saved = cli.load_csv

        def load(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.job_peak = max(self.job_peak, peak)
            tracemalloc.reset_peak()
            try:
                return self.saved(*args, **kwargs)
            finally:
                self.load_peaks.append(tracemalloc.get_traced_memory()[1] - current)
        cli.load_csv = load
        return self

    def __exit__(self, *exc):
        cli.load_csv = self.saved


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is KiB on Linux


def run(args) -> dict:
    t_gen = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, len(os.sched_getaffinity(0)))
        gen_s = time.perf_counter() - t_gen
        ready = time.monotonic()
        out = {"ready": ready, "gen_s": gen_s}
        if args.setup_only:
            return out
        return {**out, **_measure(wl, args)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, args) -> dict:
    plain = library_calls()
    t0 = time.perf_counter()
    wl.job(plain)
    first_job_s = time.perf_counter() - t0

    ref_output, ref_matrix = wl.reference()
    ref_digest = output_digest(ref_output)
    problems = oracle_mismatches(wl, ref_matrix)
    del ref_matrix

    tracer = Tracer()
    traced_calls = _traced_calls(tracer)
    # Jobs alternate traced/untraced with --trace 1; a calibration runs
    # before the first job and after every job.
    walls = {False: [], True: []}
    calibrations = {False: [], True: []}
    errors, per_job = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    calibration = calibrate()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.job = attempted
                with _CliTraced(tracer), tracer.span("bench.job"):
                    output = wl.job(traced_calls)
                wall = time.perf_counter() - t0
                per_job.append(layers.job_metrics(tracer, attempted))
                tracer.job = None
            else:
                output = wl.job(plain)
                wall = time.perf_counter() - t0
            ok = output_digest(output) == ref_digest
            if not ok:
                errors.append(f"job {attempted}: output digest differs from the reference")
        except Exception as exc:  # a failed job is counted, not fatal
            wall, ok = time.perf_counter() - t0, False
            errors.append(f"job {attempted}: {type(exc).__name__}: {exc}")
        attempted += 1
        failed += not ok
        before, calibration = calibration, calibrate()
        walls[traced].append(wall)
        calibrations[traced].append((before, calibration))
        enough = len(walls[False]) >= 3 and (not args.trace or len(per_job) >= 3)
        if (enough or failed) and time.perf_counter() >= deadline:
            break
    peak_rss_mb = _peak_rss_mb()

    gc.collect()
    with _LoadPeak() as load_peak:
        tracemalloc.start()
        try:
            wl.job(plain)
            load_peak.job_peak = max(load_peak.job_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "oracle_problems": problems[:20],
        "walls": walls[False],
        "walls_normalized": normalized(walls[False], calibrations[False]),
        "peak_rss_mb": peak_rss_mb,
        "peak_alloc_mb": load_peak.job_peak / 1e6,
        "first_job_s": first_job_s,
        "samples": wl.samples,
        "recording_s": wl.recording_s,
        "n_workers": wl.n_workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stridekit": stridekit.__version__,
    }
    if args.trace:
        traced_norm = normalized(walls[True], calibrations[True])
        out["traced_walls"] = walls[True]
        out["layers"] = {
            **(layers.summarize(per_job) if per_job else {}),
            "io.load_peak_mb": max(load_peak.load_peaks, default=0) / 1e6,
            "bench.first_job_s": first_job_s,
            "bench.trace_overhead_frac": median(traced_norm) / median(out["walls_normalized"]) - 1,
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        out["trace_file"] = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{wl.seed}.jsonl")
        with open(out["trace_file"], "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json_obj()) + "\n")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, report when they were ready, and exit")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
