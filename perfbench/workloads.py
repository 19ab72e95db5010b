"""The benchmark's workloads: seeded input generators, the job each one
times, the reference it is checked against, and the oracle spot check.

Every workload is described by a feature config document (the JSON format
``stridekit extract --config`` reads). The library receives only the
generated inputs and that document; the seed never reaches it.

- ``battery``: 5 channels x 1 kHz float32 with one shared index, 30 s
  windows at a 10 s stride, the 16-function battery, a 2-worker fork pool.
  Windows hold 30k samples, so time goes to numpy kernels and the pool.
- ``fine_stride``: the same data shape, 1 s windows at a 100 ms stride,
  mean/std/count sequentially, then the matrix written to CSV. Per-window
  Python dispatch, the object-array count column and the writer dominate.
- ``wearable_csv``: ``stridekit extract`` CSV to CSV through the CLI on a
  gapped multi-rate wearable recording in three RFC 3339 files (32 Hz ACC
  with two 5 min dropouts, 4 Hz TMP, irregular IBI beats with a 2 min
  dropout). CSV parsing and the outer join of 10 grids dominate.
"""

from __future__ import annotations

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np

import stridekit
from stridekit import cli
from stridekit.io import parse_feature_config

from measure import ORACLE, cells_agree, digest_file, digest_matrix, n_windows, window_bounds

NS = 1_000_000_000
#: 2024-03-01T08:00:00Z, the wearable recording's first sample.
WEARABLE_T0_NS = 1_709_280_000 * NS

#: The 16-function battery (same list as ``stridekit bench`` uses, fixed
#: here so the workload cannot drift with the library's default).
BATTERY_FUNCTIONS = (
    ("mean", {}), ("std", {}), ("min", {}), ("max", {}), ("median", {}),
    ("sum", {}), ("var", {}), ("rms", {}), ("abs_energy", {}),
    ("skewness", {}), ("kurtosis", {}), ("slope", {}), ("count", {}),
    ("zero_cross", {}), ("quantile", {"q": 0.25}), ("quantile", {"q": 0.75}),
)

#: Recording length in seconds per workload, and the windows sampled per
#: grid by the oracle spot check.
RECORDING_S = {"battery": 600, "fine_stride": 600, "wearable_csv": 3600}
ORACLE_WINDOWS = 6


def _functions(specs, robust=None):
    out = []
    for name, params in specs:
        entry = {"name": name}
        if params:
            entry["params"] = dict(params)
        if robust is not None:
            entry["robust"] = dict(robust)
        out.append(entry)
    return out


def synthetic_arrays(seed: int, seconds: int, n_channels: int = 5, fs: int = 1000):
    """The ``gen_synthetic`` shape: channel c is sin(2*pi*0.1*(c+1)*t) plus
    N(0, 0.1) noise as float32, on exact round-half-up nanosecond stamps of
    i/fs shared by every channel."""
    n = seconds * fs
    i = np.arange(n, dtype=np.int64)
    index = (2 * i * NS + fs) // (2 * fs)
    t = index.astype(np.float64) / 1e9
    rng = np.random.default_rng(seed)
    channels = {}
    for c in range(n_channels):
        noise = rng.normal(0.0, 0.1, n)
        channels[f"ch_{c}"] = (np.sin(2.0 * np.pi * 0.1 * (c + 1) * t) + noise).astype(np.float32)
    return index, channels


def _drop(index, spans_ns):
    keep = np.ones(len(index), dtype=bool)
    for a, b in spans_ns:
        keep &= (index < a) | (index >= b)
    return keep


def wearable_arrays(seed: int, seconds: int):
    """Three files' worth of columns, as ``{file: (index_ns, {column:
    float64})}``. Stamps are exact in the text precision they are written
    with (us for ACC, ms for TMP and IBI), so the CSVs round-trip bitwise."""
    rng = np.random.default_rng(seed)
    t0 = WEARABLE_T0_NS

    def dropout(lo_frac, hi_frac, minutes):
        start = rng.uniform(lo_frac * seconds, hi_frac * seconds)
        a = t0 + int(start) * NS
        return a, a + minutes * 60 * NS

    acc_index = t0 + np.arange(seconds * 32, dtype=np.int64) * 31_250_000
    keep = _drop(acc_index, [dropout(0.1, 0.4, 5), dropout(0.55, 0.85, 5)])
    acc_index = acc_index[keep]
    t = (acc_index - t0) / 1e9
    acc = {}
    for axis, phase in (("x", 0.0), ("y", 2.1), ("z", 4.2)):
        motion = 0.3 * np.sin(2 * np.pi * 1.8 * t + phase) * (np.sin(2 * np.pi * t / 900) > 0)
        acc[f"ACC_{axis}"] = np.round(motion + rng.normal(0.0, 0.02, len(t)), 3)

    tmp_index = t0 + np.arange(seconds * 4, dtype=np.int64) * 250_000_000
    tt = (tmp_index - t0) / 1e9
    tmp = {"TMP": np.round(33.0 + 0.5 * np.sin(2 * np.pi * tt / 3600)
                           + rng.normal(0.0, 0.05, len(tt)), 2)}

    ibi_ms = rng.integers(700, 1101, size=int(seconds / 0.7) + 1)
    beats = t0 + np.cumsum(ibi_ms) * 1_000_000
    keep = (beats <= t0 + seconds * NS) & _drop(beats, [dropout(0.2, 0.8, 2)])
    ibi = {"IBI": ibi_ms[keep] / 1000.0}
    return {"acc": (acc_index, acc), "tmp": (tmp_index, tmp), "ibi": (beats[keep], ibi)}


def write_csv(path, index_ns, columns: dict, stamp_unit: str) -> None:
    stamps = np.datetime_as_string(index_ns.astype("datetime64[ns]"), unit=stamp_unit)
    rows = zip(stamps.tolist(), *(c.tolist() for c in columns.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["index", *columns]) + "\n")
        fh.writelines(f"{s}Z," + ",".join(map(repr, vals)) + "\n" for s, *vals in rows)


class Workload:
    """Inputs built once per process; ``job`` is one timed request."""

    name: str
    n_workers = 1

    def __init__(self, seed: int, workdir: str, cpus: int):
        self.seed = seed
        self.workdir = workdir
        self.recording_s = RECORDING_S[self.name]
        self.cpus = cpus
        self.out_path = os.path.join(workdir, "features.csv")
        self.build()

    # Filled by build(): the config document, and per series its int64 index
    # and float64 values, which the oracle reads instead of the engine's.
    doc: dict
    arrays: dict
    samples: int

    def build(self) -> None:
        raise NotImplementedError

    def job(self, lib):
        """Run one request through ``lib`` (extract, write_matrix, cli_main,
        possibly traced) and return its output as ``(FeatureMatrix or None,
        written CSV path or None)``, for ``output_digest``."""
        raise NotImplementedError

    def reference(self):
        """The uncounted reference request: its output, in the form ``job``
        returns, and its FeatureMatrix for the oracle."""
        raise NotImplementedError


class _Synthetic(Workload):
    window = stride = functions = None

    def build(self) -> None:
        index, channels = synthetic_arrays(self.seed, self.recording_s)
        self.series_set = stridekit.SeriesSet(
            stridekit.Series(name, index, values, kind=stridekit.IndexKind.TIME_NS)
            for name, values in channels.items())
        self.arrays = {n: (index, v.astype(np.float64)) for n, v in channels.items()}
        self.samples = len(index) * len(channels)
        self.doc = {
            "features": [{"series": list(channels), "functions": _functions(self.functions),
                          "windows": [self.window], "strides": [self.stride]}],
            "options": {"n_workers": self.n_workers},
        }
        self.collection, self.options = parse_feature_config(self.doc)


class Battery(_Synthetic):
    name = "battery"
    window, stride, functions = "30s", "10s", BATTERY_FUNCTIONS

    def build(self) -> None:
        self.n_workers = min(2, self.cpus)
        super().build()

    def job(self, lib):
        return lib.extract(self.series_set, self.collection, self.options).matrix, None

    def reference(self):
        # Sequential, so every counted pool job also checks worker determinism.
        options = dataclasses.replace(self.options, n_workers=1)
        matrix = stridekit.extract(self.series_set, self.collection, options).matrix
        return (matrix, None), matrix


class FineStride(_Synthetic):
    name = "fine_stride"
    window, stride = "1s", "100ms"
    functions = (("mean", {}), ("std", {}), ("count", {}))

    def job(self, lib):
        matrix = lib.extract(self.series_set, self.collection, self.options).matrix
        lib.write_matrix(matrix, self.out_path)
        return matrix, self.out_path

    def reference(self):
        matrix = stridekit.extract(self.series_set, self.collection, self.options).matrix
        path = os.path.join(self.workdir, "reference.csv")
        stridekit.write_matrix(matrix, path)
        return (matrix, path), matrix


class WearableCsv(Workload):
    name = "wearable_csv"
    FILES = (("acc", "us"), ("tmp", "ms"), ("ibi", "ms"))

    def build(self) -> None:
        files = wearable_arrays(self.seed, self.recording_s)
        self.paths = []
        self.arrays = {}
        for key, unit in self.FILES:
            index, columns = files[key]
            path = os.path.join(self.workdir, f"{key}.csv")
            write_csv(path, index, columns, unit)
            self.paths.append(path)
            self.arrays.update({n: (index, v) for n, v in columns.items()})
        self.samples = sum(len(ix) for ix, _ in self.arrays.values())
        stats = (("mean", {}), ("std", {}), ("min", {}), ("max", {}), ("median", {}),
                 ("slope", {}))
        grids = {"windows": ["30s", "5m"], "strides": ["10s"]}
        self.doc = {"features": [
            {"series": ["ACC_x", "ACC_y", "ACC_z", "TMP"],
             "functions": _functions(stats, robust={}), **grids},
            {"series": ["IBI"],
             "functions": _functions((("mean", {}), ("std", {})), robust={"min_samples": 2})
             + _functions((("count", {}),)), **grids},
        ]}
        self.config_path = os.path.join(self.workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.argv = ["extract", "--data", *self.paths, "--config", self.config_path,
                     "--out", self.out_path]

    def job(self, lib):
        code = lib.cli_main(self.argv)
        if code != 0:
            raise RuntimeError(f"stridekit extract exited with {code}")
        return None, self.out_path

    def reference(self):
        # The library path the CLI wraps, so the CLI's bytes are checked
        # against a request assembled without it.
        series_set = stridekit.SeriesSet(
            s for path in self.paths for s in stridekit.load_csv(path))
        collection, options = parse_feature_config(stridekit.read_json(self.config_path))
        matrix = stridekit.extract(series_set, collection, options).matrix
        path = os.path.join(self.workdir, "reference.csv")
        stridekit.write_matrix(matrix, path)
        return (None, path), matrix


WORKLOADS = {w.name: w for w in (Battery, FineStride, WearableCsv)}


def output_digest(output) -> str:
    """Digest of a job's output: the matrix it returned, if any, then the
    bytes of the CSV it wrote, if any."""
    matrix, path = output
    return ((digest_matrix(matrix) if matrix is not None else "")
            + (digest_file(path) if path is not None else ""))


def library_calls():
    """The library entry points a job calls, untraced."""
    return SimpleNamespace(extract=stridekit.extract, write_matrix=stridekit.write_matrix,
                           cli_main=cli.main)


def feature_columns(doc):
    """(series name, function entry, window, stride, column name) for every
    output column the config document asks for."""
    for entry in doc["features"]:
        for name in entry["series"]:
            for func in entry["functions"]:
                wrapper = stridekit.builtin(func["name"], func.get("params"))
                for w in entry["windows"]:
                    for s in entry["strides"]:
                        col = stridekit.format_output_name(
                            (name,), wrapper.output_names[0],
                            stridekit.Delta.parse(w), stridekit.Delta.parse(s))
                        yield name, func, w, s, col


def oracle_mismatches(workload: Workload, matrix) -> list[str]:
    """Recompute sampled cells of ``matrix`` from the raw arrays with the
    oracle and return a description of each disagreement. The first and
    last window of every grid are always sampled."""
    rng = np.random.default_rng(workload.seed)
    problems = []
    sampled: dict[tuple, list] = {}
    for name, func, w, s, col in feature_columns(workload.doc):
        index, values = workload.arrays[name]
        w_ns = stridekit.Delta.parse(w).value
        s_ns = stridekit.Delta.parse(s).value
        key = (name, w, s)
        if key not in sampled:
            n = n_windows(index, w_ns, s_ns)
            picks = {0, n - 1} | set(rng.integers(0, n, ORACLE_WINDOWS - 2).tolist())
            sampled[key] = sorted(k for k in picks if k >= 0)
        min_samples = func["robust"].get("min_samples", 1) if "robust" in func else None
        for k in sampled[key]:
            start, lo, hi = window_bounds(index, w_ns, s_ns, k)
            v, t = values[lo:hi], index[lo:hi]
            if min_samples is not None and len(v) < min_samples:
                want = float("nan")
            else:
                want = ORACLE[func["name"]](v, t, func.get("params", {}))
            row = int(np.searchsorted(matrix.index, start + w_ns))
            if row >= matrix.n_rows or int(matrix.index[row]) != start + w_ns:
                problems.append(f"{col}: no row for window {k}")
                continue
            got = matrix[col].data[row]
            if not cells_agree(got, want):
                problems.append(f"{col} window {k}: got {got!r}, oracle {want!r}")
    return problems
