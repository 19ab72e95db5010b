"""Acceptance gate: ten end-to-end criteria, one test each.

Every test prints exactly one [PASS]/[FAIL] line (or [SKIP] where a hardware
precondition is unmet) through the capture-disabled writer so the verdicts are
visible in the live pytest output. Oracles here are deliberately naive:
per-window linear scans, math.fsum recomputation, and explicit enumeration
loops, independent of the vectorized engine paths they check.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import NS, numeric_series, time_series
from test_segment import positions_sweep

from stridekit import (
    ChunkSpec,
    Delta,
    ExtractOptions,
    FeatureCollection,
    FeatureDescriptor,
    IndexKind,
    Series,
    SeriesSet,
    build_grid,
    builtin,
    chunk_series,
    expand_multiple,
    extract,
    format_output_name,
    gen_synthetic,
    make_robust,
    parse_output_name,
    parse_pipeline_config,
    required_inputs,
    run_bench,
    segment_positions,
    write_json,
    write_series_csv,
)
from stridekit.bench import default_feature_functions
from stridekit.cli import main as cli_main
from stridekit.errors import MalformedName


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, description):
        ok = False
        try:
            yield
            ok = True
        finally:
            verdict = "PASS" if ok else "FAIL"
            with capsys.disabled():
                print(f"[{verdict}] criterion {number}: {description}")

    return _announce


def closed_slice(series, begin, end):
    """Sub-series over the closed index range [begin, end]."""
    lo = int(np.searchsorted(series.index, begin, side="left"))
    hi = int(np.searchsorted(series.index, end, side="right"))
    return Series(series.name, series.index[lo:hi].copy(),
                  series.values.data[lo:hi].copy(), kind=series.kind)


# ---------------------------------------------------------------------------
# 1. segmentation oracle suite
# ---------------------------------------------------------------------------

def test_criterion_01_segmentation_oracle(announce):
    with announce(1, "segment positions and grid counts match linear-scan "
                     "oracles on 1000 randomized cases in under 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(9001)
        for case in range(1000):
            n = int(rng.integers(2, 40))
            if case % 2 == 0:
                kind = IndexKind.TIME_NS
                steps = rng.integers(1, 2_000_000, n - 1)
                idx = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
                idx += int(rng.integers(-10**15, 10**15))
                span = int(idx[-1] - idx[0])
                w = Delta(kind, int(rng.integers(1, max(2, span + 2))))
                s = Delta(kind, int(rng.integers(max(1, span // 30 + 1),
                                                 max(2, span + 2))))
                series = Series("S", idx, np.zeros(n), kind=kind)
            else:
                kind = IndexKind.NUMERIC
                steps = rng.uniform(1e-3, 2.0, n - 1)
                idx = np.concatenate([[0.0], np.cumsum(steps)])
                idx += rng.uniform(-1e6, 1e6)
                span = float(idx[-1] - idx[0])
                w = Delta(kind, float(rng.uniform(span / 100 + 1e-6, span * 1.1)))
                s = Delta(kind, float(rng.uniform(span / 30 + 1e-6, span * 1.1)))
                series = Series("S", idx, np.zeros(n), kind=kind)

            grid = build_grid(idx[0], idx[-1], w, s)

            # Count oracle: enumerate starts until a window no longer fits.
            begin, end = idx[0], idx[-1]
            k = 0
            while begin + k * s.value + w.value <= end:
                k += 1
            assert grid.n_segments == k

            # Position oracle: count samples strictly before each bound.
            values = [v for v in idx]
            expected = []
            for j in range(grid.n_segments):
                start = begin + j * s.value
                stop = start + w.value
                lo = sum(1 for v in values if v < start)
                hi = sum(1 for v in values if v < stop)
                expected.append((lo, hi))
            for got in (segment_positions(series, grid), positions_sweep(series.index, grid)):
                assert [(int(a), int(b)) for a, b in got] == expected

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. feature oracle suite
# ---------------------------------------------------------------------------

def _oracle_battery():
    def moments(xs):
        n = len(xs)
        m = math.fsum(xs) / n
        m2 = math.fsum((x - m) ** 2 for x in xs) / n
        m3 = math.fsum((x - m) ** 3 for x in xs) / n
        m4 = math.fsum((x - m) ** 4 for x in xs) / n
        return m, m2, m3, m4

    def skew(xs, ts):
        _, m2, m3, _ = moments(xs)
        return 0.0 if m2 == 0.0 else m3 / m2 ** 1.5

    def kurt(xs, ts):
        _, m2, _, m4 = moments(xs)
        return 0.0 if m2 == 0.0 else m4 / (m2 * m2) - 3.0

    def slope(xs, ts):
        # Time-kind windows pass int nanoseconds and the engine works in
        # seconds; numeric indexes are used as-is.
        scale = 1e9 if isinstance(ts[0], int) else 1.0
        t0 = ts[0]
        tt = [(t - t0) / scale for t in ts]
        n = len(xs)
        tm = math.fsum(tt) / n
        xm = math.fsum(xs) / n
        den = math.fsum((t - tm) ** 2 for t in tt)
        if den == 0.0:
            return 0.0
        num = math.fsum((t - tm) * (x - xm) for t, x in zip(tt, xs))
        return num / den

    def zero_cross(xs, ts):
        return float(sum(
            1 for a, b in zip(xs[:-1], xs[1:]) if (a < 0 < b) or (b < 0 < a)
        ))

    def quantile(q):
        def _q(xs, ts):
            ordered = sorted(xs)
            if len(ordered) == 1:
                return ordered[0]
            pos = q * (len(ordered) - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac
        return _q

    exact = {
        "count": lambda xs, ts: len(xs),
        "min": lambda xs, ts: min(xs),
        "max": lambda xs, ts: max(xs),
        "median": quantile(0.5),
        "first": lambda xs, ts: xs[0],
        "last": lambda xs, ts: xs[-1],
    }
    approx = {
        "mean": lambda xs, ts: math.fsum(xs) / len(xs),
        "sum": lambda xs, ts: math.fsum(xs),
        "var": lambda xs, ts: moments(xs)[1],
        "std": lambda xs, ts: math.sqrt(moments(xs)[1]),
        "rms": lambda xs, ts: math.sqrt(math.fsum(x * x for x in xs) / len(xs)),
        "abs_energy": lambda xs, ts: math.fsum(x * x for x in xs),
        "skewness": skew,
        "kurtosis": kurt,
        "slope": slope,
        "zero_cross": zero_cross,
        "quantile": None,  # parametrized below
    }
    return exact, approx


def test_criterion_02_feature_oracle(announce):
    with announce(2, "200 randomized extractions match naive per-window "
                     "recomputation (exact or relative 1e-9) in under 30 s"):
        t0 = time.perf_counter()
        exact, approx = _oracle_battery()

        def quantile_for(q):
            def _q(xs, ts):
                ordered = sorted(xs)
                if len(ordered) == 1:
                    return ordered[0]
                pos = q * (len(ordered) - 1)
                lo = int(math.floor(pos))
                hi = min(lo + 1, len(ordered) - 1)
                frac = pos - lo
                return ordered[lo] * (1 - frac) + ordered[hi] * frac
            return _q

        specs = [(name, {}, fn, True) for name, fn in exact.items()]
        specs += [
            (name, {}, fn, False)
            for name, fn in approx.items() if fn is not None
        ]
        specs += [
            ("quantile", {"q": q}, quantile_for(q), False)
            for q in (0.1, 0.25, 0.75, 0.9)
        ]

        rng = np.random.default_rng(3517)
        for case in range(200):
            n = int(rng.integers(30, 120))
            use_time = case % 2 == 0
            if use_time:
                steps = rng.integers(NS // 2, 3 * NS // 2, n - 1)
                idx = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
                window = Delta(IndexKind.TIME_NS, int(rng.integers(2, 10)) * NS)
                stride = Delta(IndexKind.TIME_NS, int(rng.integers(1, 5)) * NS)
                kind = IndexKind.TIME_NS
            else:
                steps = rng.uniform(0.5, 1.5, n - 1)
                idx = np.concatenate([[0.0], np.cumsum(steps)])
                window = Delta(IndexKind.NUMERIC, float(rng.integers(2, 10)))
                stride = Delta(IndexKind.NUMERIC, float(rng.integers(1, 5)))
                kind = IndexKind.NUMERIC
            values = rng.normal(0.0, 3.0, n)
            series = Series("S", idx, values, kind=kind)
            data = SeriesSet()
            data.add(series)

            chosen = [specs[int(i)] for i in
                      rng.choice(len(specs), size=3, replace=False)]
            functions = [builtin(name, params) for name, params, _, _ in chosen]
            collection = FeatureCollection(
                expand_multiple(functions, ["S"], [window], [stride])
            )
            result = extract(data, collection)
            matrix = result.matrix

            grid = build_grid(idx[0], idx[-1], window, stride)
            for (name, params, oracle, is_exact), wrapper in zip(chosen, functions):
                for out_name in wrapper.output_names:
                    col = matrix[format_output_name(("S",), out_name, window, stride)]
                    for j in range(grid.n_segments):
                        start = grid.span_begin + j * grid.stride
                        lo = int(np.searchsorted(idx, start, side="left"))
                        hi = int(np.searchsorted(idx, start + grid.window,
                                                 side="left"))
                        xs = [float(v) for v in values[lo:hi]]
                        ts = [int(v) if use_time else float(v)
                              for v in idx[lo:hi]]
                        want = oracle(xs, ts)
                        got = col.data[j]
                        if is_exact:
                            assert got == want, (name, j, got, want)
                        else:
                            tol = 1e-9 * max(1.0, abs(want))
                            assert abs(float(got) - want) <= tol, (
                                name, j, got, want)

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. irregular/gap fixture
# ---------------------------------------------------------------------------

def test_criterion_03_irregular_gap_fixture(announce):
    with announce(3, "mixed-rate fixture with an irregular gapped channel: "
                     "robust NaN on empty windows, output index equals the "
                     "grid-formula window ends, rerun is bitwise identical"):
        rng = np.random.default_rng(77)
        tmp = time_series("TMP", np.arange(0.0, 120.0, 0.25),
                          36.5 + 0.01 * np.arange(480))
        acc = time_series("ACC_SMV", np.arange(0.0, 120.0, 1.0 / 32.0),
                          np.abs(rng.normal(9.8, 0.5, 3840)))
        beats = [0.5]
        while beats[-1] < 40.0:
            beats.append(beats[-1] + float(rng.uniform(0.7, 1.1)))
        resume = 85.0
        while resume < 119.0:
            beats.append(resume)
            resume += float(rng.uniform(0.7, 1.1))
        ibi = time_series("IBI", np.array(beats),
                          rng.uniform(0.7, 1.1, len(beats)))
        data = SeriesSet()
        for s in (tmp, acc, ibi):
            data.add(s)

        combos = [(Delta.parse("30s"), Delta.parse("10s")),
                  (Delta.parse("15s"), Delta.parse("5s"))]
        mean = builtin("mean")
        std = builtin("std")
        robust_mean = make_robust(builtin("mean"), min_samples=1)
        descriptors = []
        for w, s in combos:
            for name in ("TMP", "ACC_SMV"):
                descriptors.append(FeatureDescriptor(name, mean, w, s))
                descriptors.append(FeatureDescriptor(name, std, w, s))
            descriptors.append(FeatureDescriptor("IBI", robust_mean, w, s))
        collection = FeatureCollection(descriptors)

        options = ExtractOptions(approve_sparsity=True)
        result = extract(data, collection, options)
        matrix = result.matrix

        # Output index oracle: union of begin + k*stride + window over every
        # (series, window, stride) group, enumerated with a plain loop.
        ends = set()
        for w, s in combos:
            for series in (tmp, acc, ibi):
                begin = int(series.index[0])
                end = int(series.index[-1])
                k = 0
                while begin + k * s.value + w.value <= end:
                    ends.add(begin + k * s.value + w.value)
                    k += 1
        assert matrix.index.tolist() == sorted(ends)

        # Empty IBI windows are exactly the NaN cells of the robust column.
        for w, s in combos:
            col = matrix[format_output_name(("IBI",), "mean", w, s)]
            begin = int(ibi.index[0])
            end = int(ibi.index[-1])
            k = 0
            while begin + k * s.value + w.value <= end:
                start = begin + k * s.value
                stop = start + w.value
                xs = [float(v) for t, v in zip(ibi.index, ibi.values.data)
                      if start <= t < stop]
                row = matrix.index.tolist().index(stop)
                cell = float(col.data[row])
                if not xs:
                    assert math.isnan(cell)
                else:
                    want = math.fsum(xs) / len(xs)
                    assert abs(cell - want) <= 1e-9 * max(1.0, abs(want))
                k += 1
            empties = 0
            k = 0
            while begin + k * s.value + w.value <= end:
                start = begin + k * s.value
                lo = int(np.searchsorted(ibi.index, start, side="left"))
                hi = int(np.searchsorted(ibi.index, start + w.value, side="left"))
                empties += lo == hi
                k += 1
            assert empties > 0, "fixture must exercise empty windows"

        rerun = extract(data, collection, options)
        assert rerun.matrix.equals(matrix)


# ---------------------------------------------------------------------------
# 4. parallel determinism
# ---------------------------------------------------------------------------

def test_criterion_04_parallel_determinism(announce):
    with announce(4, "extract with 1, 2, and 8 workers over the 60 s bench "
                     "set is bitwise identical in under 20 s"):
        t0 = time.perf_counter()
        data = gen_synthetic(n_channels=5, fs=1000, duration=60.0, seed=42)
        collection = FeatureCollection(expand_multiple(
            default_feature_functions(), data.names(), ["30s"], ["10s"]
        ))
        matrices = [
            extract(data, collection, ExtractOptions(n_workers=n)).matrix
            for n in (1, 2, 8)
        ]
        assert matrices[0].equals(matrices[1])
        assert matrices[0].equals(matrices[2])
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. memory ratio
# ---------------------------------------------------------------------------

def test_criterion_05_memory_ratio(announce):
    with announce(5, "default bench protocol peaks below 10% of the input "
                     "bytes with sequential runtime under 60 s"):
        report = run_bench()
        assert report.n_windows == 357
        assert report.n_feature_columns == 80
        assert report.data_bytes == 100_800_000
        assert report.peak_extra_bytes < 0.10 * report.data_bytes, (
            f"peak {report.peak_extra_bytes} vs data {report.data_bytes}"
        )
        assert report.runtime_s < 60.0, f"extracted in {report.runtime_s:.1f} s"


# ---------------------------------------------------------------------------
# 6. parallel speedup
# ---------------------------------------------------------------------------

def test_criterion_06_parallel_speedup(capsys):
    cores = os.cpu_count() or 1
    if cores < 4:
        with capsys.disabled():
            print(f"[SKIP] criterion 6: speedup needs a >=4-core host, "
                  f"this one has {cores}")
        pytest.skip(f"requires >=4 cores, host has {cores}")
    ok = False
    try:
        one = run_bench(n_workers=1)
        four = run_bench(n_workers=4)
        assert four.runtime_s <= 0.7 * one.runtime_s, (
            f"1 worker {one.runtime_s:.2f} s, 4 workers {four.runtime_s:.2f} s"
        )
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] criterion 6: 4 workers run in at most 0.7x "
                  f"the 1-worker wall time")


# ---------------------------------------------------------------------------
# 7. reduce equivalence
# ---------------------------------------------------------------------------

def test_criterion_07_reduce_equivalence(announce):
    with announce(7, "extract(reduce(C, cols)) equals the column projection "
                     "of extract(C) for 50 random subsets in under 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5150)
        index = np.arange(500.0)
        data = SeriesSet()
        for name in ("A", "B", "C", "D"):
            data.add(numeric_series(name, index, rng.normal(0.0, 1.0, 500)))
        functions = [builtin(n) for n in ("mean", "std", "min", "max", "sum")]
        collection = FeatureCollection(expand_multiple(
            functions, ["A", "B", "C", "D"], [25.0], [10.0]
        ))
        assert collection.n_descriptors == 20
        all_columns = collection.column_names()
        full = extract(data, collection).matrix

        for _ in range(50):
            size = int(rng.integers(1, len(all_columns) + 1))
            subset = [all_columns[int(i)] for i in
                      rng.choice(len(all_columns), size=size, replace=False)]
            reduced = collection.reduce(subset)
            assert set(reduced.column_names()) == set(subset)
            got = extract(data, reduced).matrix
            assert got.equals(full.project(reduced.column_names()))

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 8. chunking reconstruction
# ---------------------------------------------------------------------------

def test_criterion_08_chunking_reconstruction(announce):
    with announce(8, "100 gapped series chunk losslessly with no internal "
                     "gap above threshold; seam extraction with overlap "
                     "window-stride matches whole-series extraction; under 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(8080)
        for case in range(100):
            n = int(rng.integers(10, 300))
            steps = rng.uniform(0.5, 1.5, n - 1)
            gap_positions = rng.choice(n - 1, size=min(3, n - 2), replace=False)
            steps[gap_positions] += rng.uniform(10.0, 50.0, len(gap_positions))
            if case % 2 == 0:
                idx = np.concatenate([[0.0], np.cumsum(steps)])
                series = numeric_series("S", idx, rng.normal(size=n))
            else:
                idx_ns = np.concatenate(
                    [[0], np.cumsum((steps * NS).round().astype(np.int64))]
                ).astype(np.int64)
                series = Series("S", idx_ns, rng.normal(size=n),
                                kind=IndexKind.TIME_NS)
            gap_factor = float(rng.uniform(2.0, 5.0))
            ranges = chunk_series(series, ChunkSpec(gap_factor=gap_factor))

            pieces = [closed_slice(series, b, e) for b, e in ranges]
            rebuilt = np.concatenate([p.index for p in pieces])
            assert np.array_equal(rebuilt, series.index)
            rebuilt_values = np.concatenate([p.values.data for p in pieces])
            assert np.array_equal(rebuilt_values, series.values.data)

            threshold = gap_factor * float(np.median(np.diff(series.index)))
            for piece in pieces:
                if len(piece) > 1:
                    assert float(np.diff(piece.index).max()) <= threshold

        # Seam equivalence on gapless fixtures: overlap = window - stride.
        for kind in (IndexKind.NUMERIC, IndexKind.TIME_NS):
            if kind is IndexKind.NUMERIC:
                series = numeric_series("S", np.arange(200.0),
                                        np.sin(np.arange(200.0)))
                spec = ChunkSpec(gap_factor=4.0, max_chunk_dur=48.0,
                                 sub_chunk_overlap=6.0)
                window, stride = Delta.coerce(9.0), Delta.coerce(3.0)
            else:
                series = time_series("S", np.arange(200.0),
                                     np.sin(np.arange(200.0)))
                spec = ChunkSpec(gap_factor=4.0, max_chunk_dur="48s",
                                 sub_chunk_overlap="6s")
                window, stride = Delta.parse("9s"), Delta.parse("3s")
            assert Delta.coerce(spec.sub_chunk_overlap).value == (
                window.value - stride.value
            )

            def one_series_matrix(s):
                d = SeriesSet()
                d.add(s)
                c = FeatureCollection(expand_multiple(
                    [builtin("mean"), builtin("max")], ["S"],
                    [window], [stride]
                ))
                return extract(d, c).matrix

            whole = one_series_matrix(series)
            ranges = chunk_series(series, spec)
            assert len(ranges) > 1, "fixture must actually get cut"
            seen = {}
            for b, e in ranges:
                piece = one_series_matrix(closed_slice(series, b, e))
                for row, stamp in enumerate(piece.index.tolist()):
                    cells = tuple(
                        piece[c].data[row] for c in piece.column_names
                    )
                    if stamp in seen:
                        assert seen[stamp] == cells
                    else:
                        seen[stamp] = cells
            assert sorted(seen) == whole.index.tolist()
            assert piece.column_names == whole.column_names
            for row, stamp in enumerate(whole.index.tolist()):
                cells = tuple(whole[c].data[row] for c in whole.column_names)
                assert seen[stamp] == cells

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 9. pipeline semantics end to end
# ---------------------------------------------------------------------------

def test_criterion_09_pipeline_semantics(announce, tmp_path):
    with announce(9, "wearable chain (smv, filtering, extraction) runs via "
                     "the CLI with exit 0; required_inputs names the raw "
                     "series; inputs stay bit-identical"):
        rng = np.random.default_rng(99)
        acc_seconds = np.arange(0.0, 30.0, 1.0 / 32.0)
        acc_path = tmp_path / "acc.csv"
        write_series_csv(
            [
                time_series("ACC_x", acc_seconds, rng.normal(0.0, 1.0, 960)),
                time_series("ACC_y", acc_seconds, rng.normal(0.0, 1.0, 960)),
                time_series("ACC_z", acc_seconds, rng.normal(9.8, 1.0, 960)),
            ],
            str(acc_path),
        )
        tmp_csv = tmp_path / "tmp.csv"
        write_series_csv(
            [time_series("TMP", np.arange(0.0, 30.0, 0.25),
                         36.5 + 0.01 * np.arange(120))],
            str(tmp_csv),
        )
        beats = np.concatenate([
            np.cumsum(rng.uniform(0.7, 1.1, 12)),
            20.0 + np.cumsum(rng.uniform(0.7, 1.1, 10)),
        ])
        ibi_path = tmp_path / "ibi.csv"
        write_series_csv(
            [time_series("IBI", beats, rng.uniform(0.7, 1.1, len(beats)))],
            str(ibi_path),
        )
        raw_bytes = {
            p: p.read_bytes() for p in (acc_path, tmp_csv, ibi_path)
        }

        pipeline_doc = {
            "steps": [
                {
                    "function": "smv",
                    "series": [["ACC_x", "ACC_y", "ACC_z"]],
                    "params": {"output": "ACC_SMV"},
                },
                {
                    "function": "median_filter",
                    "series": "ACC_SMV",
                    "params": {"size": 5},
                },
                {
                    "function": "clip",
                    "series": "TMP",
                    "params": {"lo": 35.0, "hi": 39.0},
                },
            ]
        }
        pipeline_path = tmp_path / "pipeline.json"
        write_json(pipeline_doc, str(pipeline_path))

        pipeline = parse_pipeline_config(pipeline_doc)
        assert required_inputs(pipeline) == {"ACC_x", "ACC_y", "ACC_z", "TMP"}

        processed_dir = tmp_path / "processed"
        rc = cli_main([
            "process",
            "--data", str(acc_path), str(tmp_csv), str(ibi_path),
            "--pipeline", str(pipeline_path),
            "--out-dir", str(processed_dir),
        ])
        assert rc == 0
        produced = sorted(p.name for p in processed_dir.iterdir())
        assert produced == ["ACC_SMV.csv", "ACC_x.csv", "ACC_y.csv",
                            "ACC_z.csv", "IBI.csv", "TMP.csv"]

        feature_doc = {
            "features": [
                {
                    "series": ["ACC_SMV", "TMP"],
                    "functions": [{"name": "mean"}, {"name": "std"}],
                    "windows": ["10s"],
                    "strides": ["5s"],
                },
                {
                    "series": "IBI",
                    "functions": [
                        {"name": "mean", "robust": {"min_samples": 1}}
                    ],
                    "windows": ["10s"],
                    "strides": ["5s"],
                },
            ]
        }
        feature_path = tmp_path / "features.json"
        write_json(feature_doc, str(feature_path))
        out_path = tmp_path / "features.csv"
        rc = cli_main([
            "extract",
            "--data",
            str(processed_dir / "ACC_SMV.csv"),
            str(processed_dir / "TMP.csv"),
            str(processed_dir / "IBI.csv"),
            "--config", str(feature_path),
            "--out", str(out_path),
            "--approve-sparsity",
        ])
        assert rc == 0
        header = out_path.read_text().splitlines()[0].split(",")
        assert "ACC_SMV__mean__w=10s_s=5s" in header
        assert "TMP__std__w=10s_s=5s" in header
        assert "IBI__mean__w=10s_s=5s" in header

        for p, blob in raw_bytes.items():
            assert p.read_bytes() == blob


# ---------------------------------------------------------------------------
# 10. naming grammar
# ---------------------------------------------------------------------------

MALFORMED_NAMES = [
    "",
    "no_separators",
    "a__b",
    "__mean__w=1_s=1",
    "A____w=1_s=1",
    "A__mean__",
    "A__mean__w=1",
    "A__mean__s=1",
    "A__mean__w=_s=1",
    "A__mean__w=1_s=",
    "A__mean__w=1s_s=1",
    "A__mean__w=1_s=1s",
    "A__mean__w=5q_s=1q",
    "A|__mean__w=1_s=1",
    "_A__mean__w=1_s=1",
    "A___mean__w=1_s=1",
    "A__mean__w=1_s=1__extra",
]


def _random_component(rng):
    alphabet = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "0123456789.=-")
    tokens = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, 7))
        tokens.append("".join(
            alphabet[int(i)] for i in rng.integers(0, len(alphabet), size)
        ))
    return "_".join(tokens)


def test_criterion_10_naming_grammar(announce):
    with announce(10, "parse(format(name)) is the identity for 10000 "
                      "generated names and the malformed corpus is rejected"):
        rng = np.random.default_rng(4242)
        for case in range(10_000):
            names = tuple(
                _random_component(rng) for _ in range(int(rng.integers(1, 4)))
            )
            output = _random_component(rng)
            if case % 2 == 0:
                w = Delta(IndexKind.TIME_NS, int(rng.integers(1, 10**15)))
                s = Delta(IndexKind.TIME_NS, int(rng.integers(1, 10**15)))
            else:
                w = Delta(IndexKind.NUMERIC,
                          float(rng.uniform(1e-6, 1e9)))
                s = Delta(IndexKind.NUMERIC,
                          float(rng.uniform(1e-6, 1e9)))
            text = format_output_name(names, output, w, s)
            back_names, back_output, back_w, back_s = parse_output_name(text)
            assert back_names == names
            assert back_output == output
            assert back_w == w
            assert back_s == s

        for bad in MALFORMED_NAMES:
            with pytest.raises(MalformedName):
                parse_output_name(bad)
