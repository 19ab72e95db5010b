"""Window-grid arithmetic and segment position lookup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridekit import (
    Delta,
    IndexKind,
    OutputPosition,
    Series,
    build_grid,
    intersect_spans,
    segment_positions,
)
from stridekit.errors import (
    BadParam,
    DisjointSpans,
    EmptySeries,
    KindMismatch,
    NonPositiveStride,
    MalformedName,
    NonPositiveWindow,
)

from conftest import NS, numeric_series, time_series


def test_count_formula_time():
    g = build_grid(0, 100 * NS, "30s", "10s")
    assert g.n_segments == 8  # floor((100-30)/10)+1
    assert g.starts()[0] == 0 and g.starts()[-1] == 70 * NS
    assert list(g.ends()[:2]) == [30 * NS, 40 * NS]


def test_count_zero_when_span_shorter_than_window():
    assert build_grid(0, 20 * NS, "30s", "10s").n_segments == 0
    assert build_grid(0.0, 0.5, 1.0, 0.25).n_segments == 0


def test_window_equal_to_span_yields_one():
    g = build_grid(0, 30 * NS, "30s", "10s")
    assert g.n_segments == 1


def test_numeric_grid():
    g = build_grid(0.0, 10.0, 2.5, 2.5)
    assert g.n_segments == 4
    assert list(g.starts()) == [0.0, 2.5, 5.0, 7.5]


def test_output_position():
    g_end = build_grid(0.0, 10.0, 2.0, 2.0)
    g_begin = build_grid(0.0, 10.0, 2.0, 2.0, output_position=OutputPosition.BEGIN)
    assert list(g_end.output_index()) == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert list(g_begin.output_index()) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert build_grid(0.0, 10.0, 2.0, 2.0, "begin").output_position is OutputPosition.BEGIN
    assert build_grid(0.0, 10.0, 2.0, 2.0, "end").output_position is OutputPosition.END


@pytest.mark.parametrize("position", ["middle", None, 7, "END", True])
def test_grid_rejects_an_unknown_output_position(position):
    with pytest.raises(BadParam, match="output_position must be 'begin' or 'end'"):
        build_grid(0.0, 10.0, 2.0, 2.0, position)


@pytest.mark.parametrize("begin, end", [
    pytest.param(None, 10.0, id="none"), pytest.param("0", 10.0, id="text"),
    pytest.param(0.0, 10**400, id="401-digits"), pytest.param(0.0, math.nan, id="nan"),
    pytest.param(True, 10.0, id="bool"),
])
def test_grid_rejects_a_span_bound_that_is_no_finite_number(begin, end):
    with pytest.raises(BadParam, match="index bound|not finite"):
        build_grid(begin, end, 2.0, 2.0)


@pytest.mark.parametrize("window, stride", [("nan", 1.0), (1.0, "inf"), (math.nan, 1.0),
                                            (1.0, -math.inf)])
def test_grid_rejects_a_non_finite_window_or_stride(window, stride):
    with pytest.raises(MalformedName, match="not finite"):
        build_grid(0.0, 10.0, window, stride)


def test_validation_errors():
    with pytest.raises(NonPositiveWindow):
        build_grid(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(NonPositiveStride):
        build_grid(0.0, 1.0, 1.0, -1.0)
    with pytest.raises(KindMismatch):
        build_grid(0.0, 1.0, "1s", 0.5)
    with pytest.raises(DisjointSpans):
        build_grid(5.0, 1.0, 1.0, 1.0)
    with pytest.raises(KindMismatch):
        build_grid(0, 10 * NS, 5.0, 5.0, kind=IndexKind.TIME_NS)


@given(
    begin=st.integers(min_value=-10**12, max_value=10**12),
    span=st.integers(min_value=0, max_value=10**7),
    window=st.integers(min_value=1, max_value=10**6),
    stride=st.integers(min_value=1, max_value=10**6),
)
def test_time_count_equals_enumeration(begin, span, window, stride):
    g = build_grid(begin, begin + span, Delta.time_ns(window), Delta.time_ns(stride))
    n = 0
    while begin + n * stride + window <= begin + span:
        n += 1
    assert g.n_segments == n
    if n:
        assert g.starts()[-1] + window <= begin + span
        assert g.starts()[-1] + stride + window > begin + span


@given(
    begin=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    span=st.floats(min_value=0, max_value=1e4),
    window=st.floats(min_value=1e-3, max_value=1e3),
    stride=st.floats(min_value=1e-3, max_value=1e3),
)
def test_numeric_count_matches_multiply_add_enumeration(begin, span, window, stride):
    g = build_grid(begin, begin + span, window, stride)
    end = begin + span
    n = g.n_segments
    # The count must agree with the start formula itself, not just the
    # division: window n-1 fits, window n does not.
    if n:
        assert begin + (n - 1) * stride + window <= end
    assert begin + n * stride + window > end


def test_numeric_count_drops_a_window_the_division_overcounts():
    begin, end, window, stride = -9.129825816118114, 0.17017418388188688, 1.1, 0.2
    assert math.floor((end - begin - window) / stride) + 1 == 42
    g = build_grid(begin, end, window, stride)
    assert g.n_segments == 41
    assert begin + 40 * stride + window <= end < begin + 41 * stride + window


def test_positions_example():
    s = time_series("a", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    g = build_grid(0, 9 * NS, "3s", "2s")
    pos = segment_positions(s, g)
    assert pos.tolist() == [[0, 3], [2, 5], [4, 7], [6, 9]]


def test_positions_respect_half_open_windows():
    # A sample exactly at a window end belongs to the next window only.
    s = numeric_series("a", [0.0, 1.0, 2.0, 3.0, 4.0])
    g = build_grid(0.0, 4.0, 2.0, 2.0)
    pos = segment_positions(s, g)
    assert pos.tolist() == [[0, 2], [2, 4]]


@st.composite
def _series_and_grid(draw):
    kind_time = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=80))
    if kind_time:
        ticks = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                              min_size=n, max_size=n))
        idx = np.sort(np.asarray(ticks, dtype=np.int64))
        series = Series("a", idx, np.zeros(n), kind=IndexKind.TIME_NS)
        begin = draw(st.integers(min_value=-100, max_value=10**6))
        span = draw(st.integers(min_value=0, max_value=10**5))
        window = Delta.time_ns(draw(st.integers(min_value=1, max_value=10**4)))
        stride = Delta.time_ns(draw(st.integers(min_value=1, max_value=10**4)))
        grid = build_grid(begin, begin + span, window, stride)
    else:
        ticks = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                              min_size=n, max_size=n))
        idx = np.sort(np.asarray(ticks, dtype=np.float64))
        series = numeric_series("a", idx, np.zeros(n))
        begin = draw(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
        span = draw(st.floats(min_value=0, max_value=1e3))
        window = draw(st.floats(min_value=1e-2, max_value=1e2))
        stride = draw(st.floats(min_value=1e-2, max_value=1e2))
        grid = build_grid(begin, begin + span, window, stride)
    return series, grid


def positions_sweep(index: np.ndarray, grid) -> np.ndarray:
    """Oracle for segment_positions: one pass over the index with two
    forward-only pointers."""
    out = np.empty((grid.n_segments, 2), dtype=np.int64)
    n = len(index)
    lo = hi = 0
    for k in range(grid.n_segments):
        start = grid.span_begin + k * grid.stride
        end = start + grid.window
        while lo < n and index[lo] < start:
            lo += 1
        if hi < lo:
            hi = lo
        while hi < n and index[hi] < end:
            hi += 1
        out[k, 0] = lo
        out[k, 1] = hi
    return out


@settings(max_examples=150)
@given(case=_series_and_grid())
def test_positions_match_linear_scan_and_sweep(case):
    series, grid = case
    pos = segment_positions(series, grid)
    assert pos.shape == (grid.n_segments, 2)
    assert np.array_equal(pos, positions_sweep(series.index, grid))
    idx = series.index
    for k in range(grid.n_segments):
        start, end = grid.segment_bounds(k)
        assert pos[k, 0] == int(np.count_nonzero(idx < start))
        assert pos[k, 1] == int(np.count_nonzero(idx < end))


def test_positions_kind_checked():
    s = numeric_series("a", [0.0, 1.0])
    g = build_grid(0, NS, "1s", "1s")
    with pytest.raises(KindMismatch):
        segment_positions(s, g)


def test_intersect_spans():
    a = numeric_series("a", [0.0, 10.0])
    b = numeric_series("b", [2.0, 8.0])
    assert intersect_spans([a, b]) == (2.0, 8.0)
    assert intersect_spans([a]) == (0.0, 10.0)


def test_intersect_spans_errors():
    with pytest.raises(EmptySeries):
        intersect_spans([])
    with pytest.raises(EmptySeries):
        intersect_spans([numeric_series("a", [])])
    with pytest.raises(DisjointSpans):
        intersect_spans([numeric_series("a", [0.0, 1.0]),
                         numeric_series("b", [5.0, 6.0])])
    with pytest.raises(KindMismatch):
        intersect_spans([numeric_series("a", [0.0, 1.0]), time_series("b", [0.0, 1.0])])
