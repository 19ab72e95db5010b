"""Builtins run as block kernels over equal-count windows: the block path must
give the same bits as the per-window path, and the same failure text."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridekit import (
    Delta,
    ExtractOptions,
    FeatureCollection,
    FeatureDescriptor,
    FuncWrapper,
    IndexKind,
    Series,
    SeriesSet,
    builtin,
    extract,
    make_robust,
)
from stridekit import features
from stridekit.calculators import BUILTIN_NAMES
from stridekit.errors import FunctionFailure
from stridekit.series import FLOAT_TAGS, ValueTag

from conftest import numeric_series

QUANTILES = (0.0, 0.25, 0.5, 0.9, 1.0)
GAPS = (0, 1, 2, 3, 10, 27)  # multiples of a tenth of an index unit
LABELS = ("a", "b", "c")


def builtins():
    out = [builtin(name) for name in BUILTIN_NAMES if name != "quantile"]
    return out + [builtin("quantile", {"q": q}) for q in QUANTILES]


def per_window(wrapper):
    """The same builtin as a plain function: extract calls it per window."""
    return FuncWrapper(lambda *xs: wrapper.func(*xs), base_name=wrapper.base_name,
                       output_names=wrapper.output_names, input_mode=wrapper.input_mode,
                       output_tags=wrapper.output_tags)


def outcome(series, wrappers, window, stride, n_workers=1):
    """The extracted matrix with its log paths, or the failure text."""
    c = FeatureCollection(FeatureDescriptor(series.name, w, window, stride) for w in wrappers)
    try:
        result = extract(SeriesSet([series]), c,
                         ExtractOptions(n_workers=n_workers, approve_sparsity=True))
    except FunctionFailure as exc:
        return str(exc)
    return result.matrix, [r.path for r in result.log_records]


def assert_same(block, window):
    if isinstance(window, str):
        assert block == window
        return
    (a, paths), (b, window_paths) = block, window
    assert set(paths) == {"block"} and set(window_paths) == {"window"}
    assert a.equals(b)
    for name in a.column_names:  # equals compares object cells by ==, so 1 == True
        assert [type(v) for v in a[name].data] == [type(v) for v in b[name].data]


@st.composite
def sampled_series(draw):
    tag = draw(st.sampled_from(list(ValueTag)))
    n = draw(st.integers(min_value=1, max_value=60))
    steps = np.array(draw(st.lists(st.sampled_from(GAPS), min_size=n - 1, max_size=n - 1)))
    kind = draw(st.sampled_from(list(IndexKind)))
    if kind is IndexKind.TIME_NS:  # a tenth of a second per gap unit
        index = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64) * 100_000_000
    else:  # float drift: repeated sums of 0.1
        index = np.concatenate([[0.0], np.cumsum(steps * 0.1)])
    if tag in FLOAT_TAGS:
        floats = st.one_of(st.floats(min_value=-1e3, max_value=1e3, width=32),
                           st.just(math.nan))
        values = np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                          dtype=np.float32 if tag is ValueTag.F32 else np.float64)
    elif tag is ValueTag.I64:
        ints = st.integers(min_value=-1000, max_value=1000)
        values = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    elif tag is ValueTag.BOOL:
        values = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        values = np.array(draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)),
                          dtype=object)
    series = Series("S", index, values, kind=kind)
    assert series.values.tag is tag
    return series


def deltas(kind, window, stride):
    if kind is IndexKind.TIME_NS:
        return Delta.time_ns(int(window * 1e9)), Delta.time_ns(int(stride * 1e9))
    return Delta.numeric(window), Delta.numeric(stride)


@settings(max_examples=60)
@given(
    series=sampled_series(),
    window=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    stride=st.sampled_from([0.1, 0.3, 1.0]),
    robust=st.sampled_from([None, (0, math.nan), (1, math.nan), (2, 0.0), (5, math.nan),
                            (5, 0.0), (1, 0.0)]),
    block_bytes=st.sampled_from([8, 40, features.BLOCK_BYTES]),
    n_workers=st.sampled_from([1, 2]),
)
def test_block_path_equals_per_window_path_bitwise(series, window, stride, robust,
                                                  block_bytes, n_workers):
    w, s = deltas(series.kind, window, stride)
    wrappers = builtins()
    if robust is not None:
        min_samples, fill = robust
        wrappers = [make_robust(x, min_samples, fill) for x in wrappers
                    if not (math.isnan(fill) and x.base_name in ("count", "first", "last"))]
    # Small budgets split equal-count windows over many one-window blocks.
    with mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        for wrapper in wrappers:
            assert_same(outcome(series, [wrapper], w, s),
                        outcome(series, [per_window(wrapper)], w, s))
        if n_workers > 1:  # every unit at once, on the fork pool
            assert_same(outcome(series, wrappers, w, s, n_workers),
                        outcome(series, [per_window(x) for x in wrappers], w, s))


def test_block_path_names_the_first_empty_segment():
    # Windows [2, 4) and [6, 8) hold no sample; the first of them is segment 1.
    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    c = FeatureCollection([FeatureDescriptor("S", builtin("mean"), 2.0, 2.0)])
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c)
    assert str(err.value) == ("function 'mean' failed on group 'S' segment 1: "
                              "mean of an empty window is undefined")


def test_empty_windows_take_the_builtin_empty_value():
    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    c = FeatureCollection([FeatureDescriptor("S", builtin(name), 2.0, 2.0)
                           for name in ("count", "sum", "zero_cross")])
    matrix = extract(SeriesSet([s]), c).matrix
    assert matrix["S__count__w=2_s=2"].data.tolist() == [2, 0, 2, 0, 1, 2]
    assert matrix["S__sum__w=2_s=2"].data.tolist() == [1.0, 0.0, 5.0, 0.0, 4.0, 11.0]
    assert matrix["S__zero_cross__w=2_s=2"].data.tolist() == [0.0] * 6


def test_block_extra_memory_is_bounded_by_the_budget():
    # One 100k-sample window per block: a unit never holds a cast of the
    # whole channel, only of its current block.
    n = 2_000_000
    s = numeric_series("S", np.arange(float(n)), values=np.ones(n, dtype=np.float32))
    c = FeatureCollection([FeatureDescriptor("S", builtin("std"), 100_000.0, 100_000.0)])
    tracemalloc.start()
    try:
        extract(SeriesSet([s]), c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 100_000 * 8  # two window-sized temporaries, not n * 8
