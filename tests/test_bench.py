"""Benchmark harness tests: synthetic data generation, byte accounting, the
allocation watermark, and report schema/reproducibility.

Full-protocol runs (1 h at 1 kHz) live in the acceptance suite; everything
here is scaled down to keep the unit tests fast.
"""

import tracemalloc

import numpy as np
import pytest

from stridekit import (
    BenchReport,
    FuncWrapper,
    IndexKind,
    ValueTag,
    builtin,
    data_bytes,
    gen_synthetic,
    measure_allocation,
    run_bench,
)
import stridekit.bench
from stridekit.bench import DEFAULT_FUNCTION_SPECS, rss_peak_bytes
from stridekit.errors import BadParam

NS = 1_000_000_000


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_default_function_battery_is_the_documented_sixteen():
    assert DEFAULT_FUNCTION_SPECS == (
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


def test_gen_synthetic_shapes_names_and_dtypes():
    data = gen_synthetic(n_channels=3, fs=50, duration=2.0, seed=11)
    assert data.names() == ["ch_0", "ch_1", "ch_2"]
    for series in data:
        assert series.kind is IndexKind.TIME_NS
        assert series.index.dtype == np.int64
        assert len(series.index) == 100
        assert series.values.tag is ValueTag.F32
        assert series.values.data.dtype == np.float32


def test_gen_synthetic_one_second_at_ten_hertz():
    data = gen_synthetic(n_channels=1, fs=10, duration=1.0, seed=0)
    series = next(iter(data))
    assert len(series.index) == 10
    np.testing.assert_array_equal(series.index, np.arange(10) * (NS // 10))
    assert series.index[-1] == 900_000_000  # 0.9 s


def test_gen_synthetic_rounds_timestamps_half_up():
    # 1/3 s is 333333333.3 ns and 2/3 s is 666666666.7 ns.
    data = gen_synthetic(n_channels=1, fs=3, duration=1.0, seed=0)
    series = next(iter(data))
    np.testing.assert_array_equal(series.index, [0, 333333333, 666666667])


def test_gen_synthetic_same_seed_is_bit_identical():
    a = gen_synthetic(n_channels=2, fs=40, duration=1.5, seed=1)
    b = gen_synthetic(n_channels=2, fs=40, duration=1.5, seed=1)
    for sa, sb in zip(a, b):
        assert sa.values.data.tobytes() == sb.values.data.tobytes()
    c = gen_synthetic(n_channels=2, fs=40, duration=1.5, seed=2)
    assert any(
        sa.values.data.tobytes() != sc.values.data.tobytes()
        for sa, sc in zip(a, c)
    )


def test_gen_synthetic_signal_content():
    data = gen_synthetic(n_channels=2, fs=100, duration=1.0, seed=5)
    series = list(data)
    rng = np.random.default_rng(5)
    for c, s in enumerate(series):
        t = s.index.astype(np.float64) / 1e9
        expected = np.sin(2.0 * np.pi * 0.1 * (c + 1) * t) + rng.normal(0.0, 0.1, 100)
        np.testing.assert_array_equal(s.values.data, expected.astype(np.float32))


def test_gen_synthetic_channels_share_one_index_buffer():
    data = gen_synthetic(n_channels=3, fs=20, duration=1.0, seed=0)
    series = list(data)
    assert np.shares_memory(series[0].index, series[1].index)
    assert np.shares_memory(series[0].index, series[2].index)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_channels": 0},
        {"n_channels": -1},
        {"fs": 0},
        {"fs": -5},
        {"fs": True},
        {"fs": 10.0},
        {"duration": 0.0},
        {"duration": -1.0},
        {"duration": float("nan")},
        {"duration": 0.01, "fs": 1},  # rounds to zero samples
        {"value_tag": ValueTag.I64},
        {"n_channels": True},
        {"duration": True},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": None},
    ],
)
def test_gen_synthetic_rejects_bad_parameters(kwargs):
    defaults = {"n_channels": 1, "fs": 10, "duration": 1.0, "seed": 0}
    defaults.update(kwargs)
    with pytest.raises(BadParam):
        gen_synthetic(**defaults)


def test_data_bytes_counts_a_shared_index_once():
    data = gen_synthetic(n_channels=2, fs=10, duration=1.0, seed=0)
    # One int64 index of 10 samples plus two float32 value arrays.
    assert data_bytes(data) == 10 * 8 + 2 * 10 * 4


# ---------------------------------------------------------------------------
# allocation measurement
# ---------------------------------------------------------------------------

def test_measure_allocation_sees_a_large_transient():
    def blob():
        scratch = np.ones(1_000_000, dtype=np.float64)
        return float(scratch[0])

    result, peak = measure_allocation(blob)
    assert result == 1.0
    assert peak >= 8_000_000


def test_measure_allocation_small_function_small_peak():
    _, peak = measure_allocation(lambda: 1 + 1)
    assert 0 <= peak < 100_000


def test_measure_allocation_under_an_active_tracer_is_relative_and_leaves_it_on():
    tracemalloc.start()
    try:
        held = np.ones(2_000_000)  # 16 MB traced before the call

        def blob():
            return float(np.ones(1_000_000)[0])

        result, peak = measure_allocation(blob)
        assert result == 1.0 and held[0] == 1.0
        assert 8_000_000 <= peak < 12_000_000
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()


def test_rss_peak_bytes_is_positive():
    assert rss_peak_bytes() > 0


# ---------------------------------------------------------------------------
# run_bench reports
# ---------------------------------------------------------------------------

def small_bench(**overrides):
    params = {
        "window": "2s",
        "stride": "1s",
        "n_channels": 1,
        "fs": 20,
        "duration": 10.0,
        "n_workers": 1,
        "seed": 7,
    }
    params.update(overrides)
    return run_bench(**params)


def test_report_fields_and_window_count():
    report = small_bench()
    # 200 samples at 20 Hz span [0 s, 9.95 s]; floor((9.95-2)/1)+1 windows.
    assert report.n_windows == 8
    assert report.n_feature_columns == 16
    assert report.n_workers == 1
    assert report.seed == 7
    assert report.runtime_s > 0.0
    assert report.peak_extra_bytes >= 0
    assert report.data_bytes == 200 * 8 + 200 * 4


@pytest.mark.parametrize("n_workers", [0, -1, True])
def test_run_bench_checks_workers_before_generating_data(monkeypatch, n_workers):
    monkeypatch.setattr(stridekit.bench, "gen_synthetic",
                        lambda **kw: pytest.fail("data generated before the check"))
    with pytest.raises(BadParam, match="n_workers"):
        small_bench(n_workers=n_workers)


def test_runtime_is_timed_with_the_allocation_tracer_off():
    tracing = []

    def probe(values):
        tracing.append(tracemalloc.is_tracing())
        return 0.0

    small_bench(functions=[FuncWrapper(probe, base_name="probe")])
    # One untraced, timed extract, then one traced for the watermark.
    assert tracing == [False] * 8 + [True] * 8


def test_report_json_keys_are_exact():
    report = small_bench()
    assert set(report.to_json_obj()) == {
        "runtime_s", "peak_extra_bytes", "data_bytes",
        "n_windows", "n_feature_columns", "n_workers", "seed",
    }


def test_report_rss_key_appears_only_behind_the_flag():
    without = small_bench()
    assert "rss_peak_bytes" not in without.to_json_obj()
    with_rss = small_bench(measure_rss=True)
    obj = with_rss.to_json_obj()
    assert obj["rss_peak_bytes"] > 0


def test_reports_reproduce_in_all_protocol_fields():
    # runtime_s and peak_extra_bytes are measurements (wall clock and an
    # allocation watermark) and wobble by allocator noise between runs; every
    # field derived from the protocol itself must match exactly.
    first = small_bench()
    second = small_bench()
    a = first.to_json_obj()
    b = second.to_json_obj()
    for key in ("runtime_s", "peak_extra_bytes"):
        del a[key], b[key]
    assert a == b
    assert abs(first.peak_extra_bytes - second.peak_extra_bytes) < 1_000_000


def test_worker_count_changes_only_measurements_and_workers():
    one = small_bench().to_json_obj()
    two = small_bench(n_workers=2).to_json_obj()
    assert two["n_workers"] == 2
    for key in ("data_bytes", "n_windows", "n_feature_columns", "seed"):
        assert one[key] == two[key]


def test_custom_function_set_shrinks_the_matrix():
    report = small_bench(functions=[builtin("mean"), builtin("max")],
                         n_channels=2)
    assert report.n_feature_columns == 4  # 2 channels x 2 functions


def test_sixty_seconds_at_one_kilohertz_gives_three_windows():
    # Last timestamp is 59.999 s, so the 30 s/10 s grid fits windows starting
    # at 0, 10, and 20 s only; a window starting at 30 s would need 60 s.
    report = run_bench(window="30s", stride="10s", n_channels=1, fs=1000,
                      duration=60.0, seed=0)
    assert report.n_windows == 3


def test_bench_report_dataclass_round_trip():
    report = BenchReport(
        runtime_s=1.5,
        peak_extra_bytes=1024,
        data_bytes=4096,
        n_windows=10,
        n_feature_columns=3,
        n_workers=2,
        seed=42,
        rss_peak_bytes=9000,
    )
    assert report.to_json_obj() == {
        "runtime_s": 1.5,
        "peak_extra_bytes": 1024,
        "data_bytes": 4096,
        "n_windows": 10,
        "n_feature_columns": 3,
        "n_workers": 2,
        "seed": 42,
        "rss_peak_bytes": 9000,
    }
