"""Builtins run as block kernels over equal-count windows: the block path must
give the same bits as the per-window path, and the same failure text."""

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from stridekit import (
    Delta,
    ExtractOptions,
    FeatureCollection,
    FeatureDescriptor,
    FuncWrapper,
    IndexKind,
    Pipeline,
    Series,
    SeriesSet,
    builtin,
    builtin_processor,
    extract,
    make_robust,
    run_pipeline,
)
from stridekit import features
from stridekit.calculators import BUILTIN_NAMES
from stridekit.errors import FunctionFailure, InvalidDescriptor, NonFloatOutput
from stridekit.series import FLOAT_TAGS, ValueTag

from conftest import numeric_series
from test_acceptance import _oracle_battery

QUANTILES = (0.0, 0.25, 0.5, 0.9, 1.0)
GAPS = (0, 1, 2, 3, 10, 27)  # multiples of a tenth of an index unit
LABELS = ("a", "b", "c")


def builtins():
    out = [builtin(name) for name in BUILTIN_NAMES if name != "quantile"]
    return out + [builtin("quantile", {"q": q}) for q in QUANTILES]


def per_window(wrapper, chunk=None):
    """The same builtin as a plain function: extract calls it per window. A
    chunked builtin computes each window of more than ``chunk`` samples as
    chunks of that length, the grid's on the block path (see chunk_of), with
    features._chunked_outputs on that window alone; sampled_series' windows,
    of at most 60 samples, never get one (features.MIN_CHUNK is 64)."""
    kernel = wrapper.func

    def call(*xs):
        (x,) = xs
        values, index = x if isinstance(x, tuple) else (x, None)
        if (chunk is None or not isinstance(kernel.family, features._Chunks)
                or len(values) <= chunk or len(values) < wrapper.min_samples):
            return wrapper.apply(xs)
        sources = [np.asarray(values, dtype=np.float64)]
        sources += [] if index is None else [np.asarray(index)]
        with features._quiet():
            out = features._chunked_outputs([kernel], sources, np.zeros(1, dtype=np.int64),
                                            np.array([len(values)]), chunk)[0]
        return out.tolist()[0]
    return FuncWrapper(call, base_name=wrapper.base_name,
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


def assert_same(block, window, block_paths=frozenset({"block"})):
    if isinstance(window, str):
        assert block == window
        return
    (a, paths), (b, window_paths) = block, window
    assert set(paths) <= block_paths and set(window_paths) == {"window"}
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
                        outcome(series, [per_window(x) for x in wrappers], w, s),
                        block_paths={"block", "fused"})


def as_user_function(wrapper):
    """The builtin's kernel as a plain function, without the builtin's rule."""
    return FuncWrapper(lambda *xs: wrapper.func(*xs), base_name=wrapper.base_name,
                       output_names=wrapper.output_names, input_mode=wrapper.input_mode,
                       output_tags=wrapper.output_tags)


def robust_levels(wrapper, levels):
    """make_robust applied once per (min_samples, fill) level, or the
    exception type that stops it."""
    try:
        for min_samples, fill in levels:
            wrapper = make_robust(wrapper, min_samples, fill)
    except (InvalidDescriptor, NonFloatOutput) as exc:
        return type(exc)
    return wrapper


@settings(max_examples=60)
@given(
    series=sampled_series(),
    names=st.lists(st.sampled_from(BUILTIN_NAMES), unique=True, min_size=1, max_size=2),
    levels=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([math.nan, 0.0, -1.0])),
                    min_size=1, max_size=2),
    window=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    stride=st.sampled_from([0.1, 0.3, 1.0]),
    block_bytes=st.sampled_from([8, 40, features.BLOCK_BYTES]),
    n_workers=st.sampled_from([1, 2]),
)
def test_the_short_window_rule_is_the_wrapper_s(series, names, levels, window, stride,
                                                block_bytes, n_workers):
    # A robust builtin equals the same make_robust levels over a user
    # function that calls the builtin's kernel per window; with no threshold
    # above 0 it keeps the builtin's own rule.
    w, s = deltas(series.kind, window, stride)
    plain = [builtin(n, {"q": 0.5} if n == "quantile" else None) for n in names]
    robust = [robust_levels(x, levels) for x in plain]
    users = [robust_levels(as_user_function(x), levels) for x in plain]
    thresholds = [m for m, _ in levels if m]
    if thresholds != sorted(thresholds):  # unless a NaN fill is refused first
        nan_first = math.isnan(levels[0][1])
        assert robust == users == [NonFloatOutput if nan_first and n in ("count", "first", "last")
                                   else InvalidDescriptor for n in names]
        return
    kept = [i for i, x in enumerate(robust) if not isinstance(x, type)]
    assert kept == [i for i, x in enumerate(users) if not isinstance(x, type)]
    if not kept:
        return
    robust = [robust[i] for i in kept]
    reference = [users[i] if thresholds else per_window(plain[i]) for i in kept]
    assert {x.min_samples for x in robust} == {thresholds[-1] if thresholds else 1}
    with mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        assert_same(outcome(series, robust, w, s, n_workers), outcome(series, reference, w, s),
                    block_paths={"block", "fused"})
    # A robust builtin takes one series, nested or not.
    twin = Series("T", series.index, series.values.data, kind=series.kind)
    c = FeatureCollection(FeatureDescriptor(("S", "T"), x, w, s) for x in robust)
    with mock.patch.object(features, "_compute_unit") as compute:
        with pytest.raises(InvalidDescriptor, match="takes one series"):
            extract(SeriesSet([series, twin]), c, ExtractOptions(n_workers=n_workers))
    compute.assert_not_called()


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


# ---------------------------------------------------------------------------
# fused families: median/quantile share one selection per rank, the moments
# one pass
# ---------------------------------------------------------------------------

MOMENTS = ("sum", "mean", "var", "std", "rms", "abs_energy", "skewness", "kurtosis")
SINGLES = ("min", "max", "count", "first", "last", "slope", "zero_cross")
FUSED_QUANTILES = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0)


def expected_paths(wrappers):
    """"fused" for a builtin whose family and min_samples it shares with
    another builtin of the group, "block" otherwise."""
    keys = [(w.func.family, w.min_samples) if w.func.family else id(w) for w in wrappers]
    return ["fused" if keys.count(k) > 1 else "block" for k in keys]


@settings(max_examples=60)
@given(
    series=sampled_series(),
    picks=st.lists(st.sampled_from(MOMENTS + SINGLES + ("median",) + FUSED_QUANTILES),
                   unique=True, min_size=1, max_size=12),
    robust=st.lists(st.sampled_from([None, (1, math.nan), (2, math.nan), (2, 0.0), (5, 0.0)]),
                    min_size=12, max_size=12),
    window=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    stride=st.sampled_from([0.1, 0.3, 1.0]),
    block_bytes=st.sampled_from([8, 40, features.BLOCK_BYTES]),
)
def test_fused_families_equal_per_window_path_bitwise(series, picks, robust, window, stride,
                                                      block_bytes):
    # Random subsets and orders of family members, several quantiles,
    # other builtins in between, and mixed min_samples, so only some fuse.
    w, s = deltas(series.kind, window, stride)
    wrappers = []
    for pick, rob in zip(picks, robust):
        wrapper = builtin("quantile", {"q": pick}) if isinstance(pick, float) else builtin(pick)
        if rob is not None and not (math.isnan(rob[1]) and pick in ("count", "first", "last")):
            wrapper = make_robust(wrapper, *rob)
        wrappers.append(wrapper)
    with mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        window_path = outcome(series, [per_window(x) for x in wrappers], w, s)
        for n_workers in (1, 2):
            fused = outcome(series, wrappers, w, s, n_workers)
            assert_same(fused, window_path, block_paths={"block", "fused"})
            if not isinstance(fused, str):
                assert fused[1] == expected_paths(wrappers)


def order_blocks(rng):
    """Blocks in every stored dtype an order kernel meets: float64 with +-0.0
    ties, NaN, infinities and repeated values; float32 with NaN; int64 with
    ties and beyond +-2**53; bool; int32 categorical codes. n from 1 to
    30000."""
    pools = [np.array([-0.0, 0.0]), np.array([-0.0, 0.0, 1.0, -1.0]),
             np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 2.5]), np.array([-0.0, 0.0, np.nan])]
    big = np.array([-2**63, -2**53 - 1, -2**53, 2**53, 2**53 + 1, 2**62 + 3, 2**63 - 1])
    cases = [(n, kind) for n in (1, 2, 3, 4, 5, 2999, 3000, 29999, 30000) for kind in range(10)]
    cases += zip(rng.integers(1, 60, 200).tolist(), rng.integers(0, 10, 200).tolist())
    for n, kind in cases:
        b = int(rng.integers(1, 6)) if n < 10_000 else 2
        if kind < len(pools):
            yield rng.choice(pools[kind], size=(b, n))
        elif kind < 6:
            v = np.round(rng.normal(size=(b, n)), 1)
            v = v if kind == 4 else v.astype(np.float32)
            v[rng.random((b, n)) < 0.01] = np.nan
            yield v
        elif kind == 6:
            yield rng.integers(-3, 4, size=(b, n))
        elif kind == 7:
            yield np.where(rng.random((b, n)) < 0.5, rng.choice(big, size=(b, n)),
                           rng.integers(-2**62, 2**62, size=(b, n)))
        elif kind == 8:
            yield rng.random((b, n)) < 0.3
        else:
            yield rng.integers(0, 3, size=(b, n)).astype(np.int32)


def sort_order_stats(v, members):
    """The order family as one sort per block, NaN sorting last: the
    reference the selection must match bit for bit."""
    s = np.sort(v, axis=1)
    n = v.shape[1]
    nan_rows = np.isnan(s[:, -1])
    out = []
    for q in members:
        if q == "median":
            h = n // 2
            r = s[:, h] + 0.0 if n % 2 else (s[:, h - 1] + s[:, h]) / 2 + 0.0
        else:
            at = (n - 1) * q
            lo = hi = -1
            if at < n - 1:
                lo = math.floor(at)
                hi = lo + 1
            g = at - lo
            a, b = s[:, lo], s[:, hi]
            r = (b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g) + 0.0
        r[nan_rows] = np.nan
        out.append(r)
    return out


def test_fused_order_statistics_equal_numpy():
    kernel = builtin("median").func
    members = ["median", *FUSED_QUANTILES]
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore"):
        for v in order_blocks(rng):
            stored = v.tobytes()
            f64 = v.astype(np.float64)  # what the kernels took before they selected as stored
            reference = [np.median(f64, axis=1) + 0.0]
            reference += [np.quantile(f64, q, axis=1) + 0.0 for q in FUSED_QUANTILES]
            fused = kernel.family(members, v)
            alone = [builtin("median").func.family(("median",), v)[0]]
            alone += [builtin("quantile", {"q": q}).func.family((q,), v)[0]
                      for q in FUSED_QUANTILES]
            for want, got, one, old in zip(reference, fused, alone,
                                           sort_order_stats(f64, members)):
                assert got.dtype == one.dtype == np.float64
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(one), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes() == one[~nan].tobytes()
                assert got.tobytes() == one.tobytes() == old.tobytes()
                assert not np.signbit(got[got == 0.0]).any()
            assert v.tobytes() == stored


def sorted_median_filter(values, size):
    """The median filter as the sort-based order family computed it."""
    padded = np.pad(values, size // 2, mode="edge")
    return sort_order_stats(np.lib.stride_tricks.sliding_window_view(padded, size),
                            ("median",))[0]


@pytest.mark.parametrize("values", [
    np.array([0.5, -0.0, 0.0, np.nan, 3.0, -np.inf, 2.0, 2.0, np.inf, 1.0]),
    np.array([0.5, -0.0, 0.0, np.nan, 3.0, -1.0, 2.0], dtype=np.float32),
    np.array([5, -2**63, 2**63 - 1, 2**53 + 1, 2**53, 7, -2**53 - 1, 0, 1]),
    np.array([True, False, False, True, True, False, True]),
])
@pytest.mark.parametrize("size", [1, 3, 5, 9])
def test_median_filter_keeps_the_bits_of_the_sort(values, size):
    data = SeriesSet([numeric_series("S", np.arange(float(len(values))), values=values)])
    stored = data["S"].values.data.tobytes()
    pipeline = Pipeline([builtin_processor("median_filter", ["S"], {"size": size})])
    got = run_pipeline(pipeline, data)["S"].values.data
    want = sorted_median_filter(values, size)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert data["S"].values.data.tobytes() == stored


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("values", [
    np.array([3.0, -0.0, np.nan, 1.0, 2.0, 0.0, 5.0, -1.0, 4.0, 2.0]),
    np.array([3.0, -0.0, 1.0, 2.0, 0.0, 5.0, -1.0, 4.0, 2.0, 7.0], dtype=np.float32),
    np.array([9, 2**62, -3, 2**53 + 1, 0, 5, -2**63, 4, 1, 8]),
    np.array([True, False, True, True, False, False, True, False, True, True]),
    np.array(list("cabbacabca"), dtype=object),
])
def test_order_kernels_leave_the_input_series_unchanged(values, n_workers):
    series = numeric_series("S", np.arange(float(len(values))), values=values)
    stored = series.values.data.tobytes()
    wrappers = [builtin("median"), builtin("quantile", {"q": 0.25}),
                builtin("quantile", {"q": 0.7})]
    got = outcome(series, wrappers, 4.0, 1.0, n_workers)
    assert got[1] == ["fused"] * 3
    assert got[0].equals(outcome(series, [per_window(x) for x in wrappers], 4.0, 1.0)[0])
    assert series.values.data.tobytes() == stored


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_, np.int32])
def test_a_direct_order_kernel_call_leaves_the_caller_s_array_unchanged(dtype):
    x = np.array([3, 0, 1, 1, 0, 2, 5, 4], dtype=dtype)[::-1]
    stored = x.tobytes()
    for wrapper in (builtin("median"), builtin("quantile", {"q": 0.3})):
        assert wrapper.func(x) == sort_order_stats(x[None, :].astype(np.float64),
                                                   (wrapper.func.member,))[0][0]
        assert x.flags.writeable and x.tobytes() == stored


@pytest.mark.parametrize("n_workers", [1, 2])
def test_fused_unit_raises_the_first_failing_function_in_registration_order(n_workers):
    # sum and mean fuse into one unit scheduled before min, but min is
    # registered before mean, so its failure is the one raised.
    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    wrappers = [builtin("sum"), builtin("min"), builtin("mean")]
    got = outcome(s, wrappers, 2.0, 2.0, n_workers)
    assert got == ("function 'min' failed on group 'S' segment 1: "
                   "min of an empty window is undefined")
    assert got == outcome(s, [per_window(x) for x in wrappers], 2.0, 2.0)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_fused_unit_names_its_first_failing_member(n_workers):
    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    wrappers = [builtin("sum"), builtin("max"), builtin("std"), builtin("mean")]
    got = outcome(s, wrappers, 2.0, 2.0, n_workers)
    assert got == ("function 'max' failed on group 'S' segment 1: "
                   "max of an empty window is undefined")
    wrappers = [builtin("sum"), builtin("std"), builtin("mean"), builtin("max")]
    got = outcome(s, wrappers, 2.0, 2.0, n_workers)
    assert got == ("function 'std' failed on group 'S' segment 1: "
                   "std of an empty window is undefined")
    assert got == outcome(s, [per_window(x) for x in wrappers], 2.0, 2.0)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_kernel_error_in_a_fused_call_names_the_member_that_raises_it(n_workers):
    # v * v overflows for rms but not for sum, which fuses with it and comes
    # first: the failure is rms's, as on the per-window path.
    s = numeric_series("S", np.arange(8.0), values=np.full(8, 1e200))
    wrappers = [builtin("sum"), builtin("rms")]
    with np.errstate(over="raise"):
        got = outcome(s, wrappers, 2.0, 2.0, n_workers)
        assert got == outcome(s, [per_window(x) for x in wrappers], 2.0, 2.0)
    assert got == ("function 'rms' failed on group 'S' segment 0: "
                   "overflow encountered in multiply")


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("value, names, message", [
    pytest.param(1e200, ["abs_energy"], "function 'abs_energy' failed on group 'S' "
                 "segment 0: overflow encountered in multiply", id="abs_energy"),
    pytest.param(1e308, ["mean"], "function 'mean' failed on group 'S' segment 0: "
                 "overflow encountered in reduce", id="mean"),
    pytest.param(1e200, ["abs_energy", "mean", "count"], "function 'abs_energy' failed on "
                 "group 'S' segment 0: overflow encountered in multiply", id="fused-and-count"),
])
def test_a_failing_block_unit_names_what_the_per_window_loop_names(value, names, message,
                                                                   n_workers):
    # Segments 1 and 3 are empty, segment 4 holds one sample and every other
    # window overflows. The block path meets the empty windows first, then
    # segment 4 (it runs windows by sample count), but the failure must be
    # the per-window loop's: segment 0.
    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0],
                       values=np.full(8, value))
    wrappers = [builtin(name) for name in names]
    with np.errstate(over="raise"):
        got = outcome(s, wrappers, 2.0, 2.0, n_workers)
        assert got == outcome(s, [per_window(x) for x in wrappers], 2.0, 2.0)
    assert got == message


def test_fused_log_splits_the_unit_time_evenly():
    s = numeric_series("S", np.arange(100.0))
    names = ["mean", "min", "std", "median", "quantile"]
    c = FeatureCollection(FeatureDescriptor("S", builtin(n, {"q": 0.5} if n == "quantile" else None),
                                            10.0, 5.0) for n in names)
    clock = itertools.count()  # every unit takes one tick
    with mock.patch.object(features.time, "perf_counter", lambda: float(next(clock))):
        records = extract(SeriesSet([s]), c).log_records
    assert [r.func for r in records] == ["mean", "min", "std", "median", "quantile_0.5"]
    assert [r.path for r in records] == ["fused", "block", "fused", "fused", "fused"]
    assert [r.duration_s for r in records] == [0.5, 1.0, 0.5, 0.5, 0.5]


def test_fused_moment_family_memory_is_one_cast_block_d_and_d2():
    # All eight moment builtins on 100k-sample windows, one window per
    # block: the cast block, d and d*d, not a set of temporaries per builtin.
    n, window = 300_000, 100_000
    s = numeric_series("S", np.arange(float(n)),
                       values=np.random.default_rng(0).normal(size=n).astype(np.float32))
    c = FeatureCollection(FeatureDescriptor("S", builtin(name), float(window), float(window))
                          for name in MOMENTS)
    tracemalloc.start()
    try:
        result = extract(SeriesSet([s]), c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {r.path for r in result.log_records} == {"fused"}
    assert peak < 3.5 * window * 8


# ---------------------------------------------------------------------------
# chunk-merged kernels: a window's value depends on its samples and its K
# ---------------------------------------------------------------------------

CHUNKED = MOMENTS + ("min", "max", "slope")
SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200)


@st.composite
def lattice_series(draw):
    """A series on unit steps whose windows hold K*a samples at a stride of
    K*b (a/b from 2 to 10, coprime), so that the grid's chunk length is K
    when K >= MIN_CHUNK and a >= 3 b, or whose stride is at least the window
    (each window one chunk). Gaps put the windows after them off the lattice
    and give some other counts. Values mix normal draws with NaN, +-inf,
    +-0.0, subnormals and +-1e200. Returns the series, window, stride and the
    gapless grid's K."""
    k = draw(st.sampled_from([1, 2, 7, features.MIN_CHUNK, features.MIN_CHUNK + 1, 100]))
    b = draw(st.integers(1, 3))
    a = draw(st.integers(2 * b, 10 * b).filter(lambda a: math.gcd(a, b) == 1))
    window, stride = k * a, k * b
    if draw(st.integers(0, 9)) == 0:
        stride = draw(st.integers(window, 2 * window))
    n = window + stride * draw(st.integers(2, 8)) + draw(st.integers(0, 3))
    steps = np.ones(n - 1, dtype=np.int64)
    for at in draw(st.lists(st.integers(0, n - 2), max_size=3)):
        steps[at] += draw(st.integers(1, 2 * window))
    tag = draw(st.sampled_from([ValueTag.F32, ValueTag.F64, ValueTag.I64, ValueTag.BOOL]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tag is ValueTag.I64:
        values = rng.integers(-1000, 1001, n)
    elif tag is ValueTag.BOOL:
        values = rng.random(n) < 0.5
    else:
        values = rng.normal(draw(st.sampled_from([0.0, 100.0])), 3.0, n)
        for at, x in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIALS)),
                                   max_size=4)):
            values[at] = x
        if tag is ValueTag.F32:
            with np.errstate(over="ignore"):  # +-1e200 becomes +-inf
                values = values.astype(np.float32)
    index = np.concatenate([[0], np.cumsum(steps)])
    if draw(st.booleans()):
        series = Series("S", index * 1_000_000_000, values, kind=IndexKind.TIME_NS)
        w, s = Delta.time_ns(window * 1_000_000_000), Delta.time_ns(stride * 1_000_000_000)
    else:
        series = Series("S", index.astype(np.float64), values, kind=IndexKind.NUMERIC)
        w, s = Delta.numeric(float(window)), Delta.numeric(float(stride))
    assert series.values.tag is tag
    chunked = k >= features.MIN_CHUNK and features.MIN_OVERLAP * stride <= window
    return series, w, s, k if chunked else None


def group_of(series, w, s):
    c = FeatureCollection([FeatureDescriptor(series.name, FuncWrapper(len), w, s)])
    return features._resolve_groups(SeriesSet([series]), c, features.OutputPosition.END)[0]


def chunk_of(series, w, s):
    """The chunk length the block path uses on the series' grid."""
    return group_of(series, w, s).chunk


def robust(wrapper):
    """NaN for an empty window, so that gapped grids have a value on both paths."""
    return make_robust(wrapper, 1, math.nan)


@settings(max_examples=80)
@given(case=lattice_series(), block_bytes=st.sampled_from([8, 40, features.BLOCK_BYTES]),
       n_workers=st.sampled_from([1, 2]), fused=st.booleans())
def test_chunked_block_path_equals_the_per_window_path_at_the_same_k(case, block_bytes,
                                                                     n_workers, fused):
    series, w, s, k = case
    group = group_of(series, w, s)
    if np.all(np.diff(series.index) == np.diff(series.index)[0]):  # no gap: the K rule
        assert group.chunk == k
    wrappers = [robust(builtin(name)) for name in CHUNKED]
    with warnings.catch_warnings(), mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        warnings.simplefilter("error")  # the IEEE results come back silently
        reference = outcome(series, [per_window(x, group.chunk) for x in wrappers], w, s)
        if fused:
            assert_same(outcome(series, wrappers, w, s, n_workers), reference,
                        block_paths={"block", "fused"})
        else:
            for wrapper in wrappers:
                got = outcome(series, [wrapper], w, s, n_workers)
                assert_same(got, (reference[0].project(got[0].column_names), ["window"]))


# The unchunked kernels as they were before chunk-merging, kept here: a
# window computed as one chunk (a standalone call, a grid with no chunk
# length) must give these bits.

def today_moments(v, name):
    n = v.shape[1]
    if name in ("abs_energy", "rms"):
        energy = np.add.reduce(v * v, axis=1)
        return energy if name == "abs_energy" else np.sqrt(energy / n)
    total = np.add.reduce(v, axis=1)
    if name in ("sum", "mean"):
        return total if name == "sum" else total / n
    d = v - (total / n)[:, None]
    d2 = d * d
    m2 = np.add.reduce(d2, axis=1) / n
    if name in ("var", "std"):
        return m2 if name == "var" else np.sqrt(m2)
    m = np.add.reduce(d2 * d if name == "skewness" else d2 * d2, axis=1) / n
    power, shift = (1.5, 0.0) if name == "skewness" else (2, 3.0)
    out = np.full_like(m2, shift)
    np.divide(m, m2 ** power, out=out, where=m2 != 0.0)
    return out - shift


def today_slope(y, index):
    t = index - index[:, :1]
    if t.dtype == np.int64:
        t = t.astype(np.float64) / 1e9
    tc = t - np.add.reduce(t, axis=1, keepdims=True) / t.shape[1]
    denom = np.add.reduce(tc * tc, axis=1)
    num = np.add.reduce(tc * (y - np.add.reduce(y, axis=1, keepdims=True) / y.shape[1]), axis=1)
    return np.divide(num, denom, out=np.zeros_like(denom), where=denom != 0.0)


def today(name, values, index):
    v = np.asarray(values, dtype=np.float64)[None, :]
    with np.errstate(all="ignore"):
        if name == "slope":
            return today_slope(v, np.asarray(index)[None, :])[0]
        if name in ("min", "max"):
            return (np.minimum if name == "min" else np.maximum).reduce(v, axis=1)[0]
        return today_moments(v, name)[0]


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def today_zero_cross(v):
    crossings = (v[:, :-1] * v[:, 1:] < 0.0).view(np.int8)
    return np.add.reduce(crossings, axis=1, dtype=np.int32).astype(np.float64)


def per_count_fold(kernels, sources, starts, counts, k):
    """Chunk-merged values as merged before the padded buckets: the windows
    of each chunk count m together, from unpadded (m, windows) arrays folded
    pairwise down the chunks, an odd last row carried up. Each chunk's
    statistics come from a block of its own samples."""
    rule, members = kernels[0].family, [kernel.member for kernel in kernels]

    def fold(x, ufunc=np.add):
        while len(x) > 1:
            top = ufunc(x[0:-1:2], x[1::2])
            x = np.concatenate([top, x[-1:]]) if len(x) % 2 else top
        return x[0]

    m_of = -(-counts // k)
    outs = [np.empty(len(starts)) for _ in kernels]
    for m in np.unique(m_of).tolist():
        at = np.flatnonzero(m_of == m)
        lo = starts[at] + k * np.arange(m)[:, None]
        sizes = np.minimum(k, starts[at] + counts[at] - lo)
        stats = {}
        for size in np.unique(sizes).tolist():
            pick = sizes == size
            cells = lo[pick][:, None] + np.arange(size)
            blocks = [sources[0][cells].astype(np.float64)] + [s[cells] for s in sources[1:]]
            for name, x in rule.stats(members, *blocks).items():
                stats.setdefault(name, np.empty(sizes.shape))[pick] = x
        offsets = sources[1][lo] - sources[1][starts[at]] if len(sources) > 1 else None
        merged = rule.merge(members, stats, sizes.astype(np.float64), offsets, fold, None)
        for out, value in zip(outs, rule.finish(members, merged, counts[at])):
            out[at] = value
    for out in outs:
        out[np.isnan(out)] = np.nan
    return outs


@st.composite
def mixed_batches(draw):
    """Windows of one chunk length k whose chunk counts mix 2, powers of two,
    one past them and anything up to 40, each with a short last chunk of any
    length or none, over a series that ends where the last window does.
    Values are normal draws sprinkled with SPECIALS, SPECIALS throughout, or
    one SPECIALS value throughout (all -0.0 sums to -0.0)."""
    k = draw(st.sampled_from([1, 2, 3, 5, 8]))
    ms = draw(st.lists(st.one_of(st.sampled_from([2, 4, 5, 8, 9, 16, 17, 32, 33]),
                                 st.integers(2, 40)), min_size=1, max_size=12))
    counts = np.array([(m - 1) * k + draw(st.integers(1, k)) for m in ms])
    starts = np.sort(np.array(draw(st.lists(st.integers(0, 40), min_size=len(ms),
                                            max_size=len(ms)))))
    n = int((starts + counts).max())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["normal", "specials", "constant"]))
    if mode == "normal":
        values = rng.normal(draw(st.sampled_from([0.0, 100.0])), 3.0, n)
        for at, x in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIALS)),
                                   max_size=4)):
            values[at] = x
    elif mode == "specials":
        values = rng.choice(np.array(SPECIALS + (1.0, -1.0)), n)
    else:
        values = np.full(n, draw(st.sampled_from(SPECIALS)))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # +-1e200 becomes +-inf
            values = values.astype(np.float32)
    index = np.cumsum(rng.choice(np.array([1, 2, 3, 10]), n))
    index = index * 1_000_000_000 if draw(st.booleans()) else index.astype(np.float64)
    return values, index, starts, counts, k


#: A probe rule: the sum of its chunks' first values. numpy's row sums never
#: yield -0.0, so no builtin's fold sees one; this fold sees the data's.
FIRST_SUM = features._Chunks(lambda members, v: {"x": v[:, 0]},
                             lambda members, s, sizes, offsets, fold, pad: {"x": fold(s["x"])},
                             lambda members, s, n: [s["x"]])


@settings(max_examples=200)
@given(batch=mixed_batches(), block_bytes=st.sampled_from([8, 40, features.BLOCK_BYTES]),
       moments=st.lists(st.sampled_from(MOMENTS), min_size=1, unique=True))
def test_padded_buckets_merge_as_the_per_count_fold(batch, block_bytes, moments):
    values, index, starts, counts, k = batch
    families = [[builtin(name).func for name in moments]]
    families += [[features.BlockKernel("first_sum", FIRST_SUM)]]
    families += [[builtin(name).func] for name in ("min", "max", "slope", "zero_cross")]
    with warnings.catch_warnings(), features._quiet(), \
            mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        warnings.simplefilter("error")
        for kernels in families:
            sources = [values, index] if kernels[0].name == "slope" else [values]
            got = features._chunked_outputs(kernels, sources, starts, counts, k)
            want = per_count_fold(kernels, sources, starts, counts, k)
            for kernel, a, b in zip(kernels, got, want):
                assert a.tobytes() == b.tobytes(), kernel.name
        # zero_cross, seams included, counts as the unchunked kernel
        for s, c, z in zip(starts.tolist(), counts.tolist(), got[0].tolist()):
            assert same_bits(z, today_zero_cross(values[None, s:s + c].astype(np.float64))[0])


@settings(max_examples=60)
@given(case=lattice_series(), window_samples=st.integers(1, 300),
       stride_samples=st.integers(1, 300))
def test_a_window_of_one_chunk_gives_the_unchunked_bits(case, window_samples, stride_samples):
    series, _, _, _ = case
    values, index = series.values.data, series.index
    w, s = deltas(series.kind, window_samples, stride_samples)
    if chunk_of(series, w, s) is not None:  # every window one chunk
        w = s
    group = group_of(series, w, s)
    k, positions = group.chunk, group.positions[0].tolist()
    matrix = outcome(series, [robust(builtin(name)) for name in CHUNKED], w, s)[0]
    for row, (lo, hi) in list(enumerate(positions))[:40]:
        if k is not None and hi - lo > k:  # gaps can make the modal step or count another's
            continue
        for name in CHUNKED:
            got = matrix[matrix.column_names[CHUNKED.index(name)]].data[row]
            if hi == lo:
                assert math.isnan(got)
                continue
            assert same_bits(got, today(name, values[lo:hi], index[lo:hi]))
            # a standalone call is the same window with no chunk length
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = (values[lo:hi], index[lo:hi]) if name == "slope" else values[lo:hi]
                assert same_bits(builtin(name).func(x), got)


@settings(max_examples=60)
@given(case=lattice_series(), offset=st.sampled_from([0.0, 1e3, -1e6]))
def test_chunked_cells_agree_with_the_fsum_oracle(case, offset):
    # Criterion 2's oracle and tolerance, on finite normal data: the same
    # windows, gaps and chunk lengths as above, without the special values.
    series, w, s, _ = case
    rng = np.random.default_rng(len(series))
    values = rng.normal(offset, 3.0, len(series))
    series = Series("S", series.index, values, kind=series.kind)
    group = group_of(series, w, s)
    exact, approx = _oracle_battery()
    oracles = {**exact, **approx}
    matrix = outcome(series, [robust(builtin(name)) for name in CHUNKED], w, s)[0]
    for row, (lo, hi) in enumerate(group.positions[0].tolist()):
        if hi == lo:
            continue
        xs = values[lo:hi].tolist()
        ts = series.index[lo:hi].tolist()
        for i, name in enumerate(CHUNKED):
            got, want = matrix[matrix.column_names[i]].data[row], oracles[name](xs, ts)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (name, row, got, want)


def test_chunk_length_is_the_gcd_of_the_modal_count_and_step():
    pos = lambda counts, steps: np.stack([np.cumsum([0, *steps]),
                                          np.cumsum([0, *steps]) + counts], axis=1)
    assert features._chunk_length(pos([1000] * 5, [100] * 4)) == 100
    assert features._chunk_length(pos([960] * 5, [320] * 4)) == 320
    assert features._chunk_length(pos([30000, 30000, 29000], [10000, 10000])) == 10000
    assert features._chunk_length(pos([192] * 4, [64] * 3)) == 64
    assert features._chunk_length(pos([190] * 4, [64] * 3)) is None  # K = 2
    assert features._chunk_length(pos([1000] * 4, [998] * 3)) is None  # K = 2
    assert features._chunk_length(pos([1000] * 4, [2] * 3)) is None  # K = 2
    assert features._chunk_length(pos([630] * 4, [63] * 3)) is None  # K = 63
    assert features._chunk_length(pos([200] * 4, [100] * 3)) is None  # 2-fold overlap
    assert features._chunk_length(pos([1000] * 4, [900] * 3)) is None  # 1.1-fold overlap
    assert features._chunk_length(pos([1000] * 4, [1000] * 3)) is None  # no overlap
    assert features._chunk_length(pos([1000] * 4, [0] * 3)) is None  # no step
    assert features._chunk_length(pos([1000], [])) is None


@pytest.mark.parametrize("window, stride", [(1000, 998), (1000, 2), (20, 2), (1000, 900),
                                            (1000, 500), (630, 63)])
def test_grids_below_the_chunk_floor_keep_the_unchunked_arithmetic(window, stride):
    # Small chunks (K = 2 under long windows, K = 63) or windows that overlap
    # less than threefold: merging c / K chunk rows per window would cost more
    # than reducing its c samples, so these grids take the unchunked block loop.
    values = np.random.default_rng(0).normal(100.0, 3.0, 3000).astype(np.float32)
    series = numeric_series("S", np.arange(3000.0), values=values)
    w, s = Delta.numeric(float(window)), Delta.numeric(float(stride))
    group = group_of(series, w, s)
    assert group.chunk is None
    matrix, paths = outcome(series, [builtin(name) for name in CHUNKED], w, s)
    assert set(paths) == {"block", "fused"}
    positions = group.positions[0].tolist()
    for row in range(0, len(positions), max(1, len(positions) // 20)):
        lo, hi = positions[row]
        for name, column in zip(CHUNKED, matrix.column_names):
            assert same_bits(matrix[column].data[row], today(name, values[lo:hi],
                                                             series.index[lo:hi]))


@pytest.mark.parametrize("window, stride, k", [
    (19264.0, 6400.0, 64),  # 301 chunks a window, the most the floor allows here
    (2000.0, 1998.0, None),  # K = 2: below the floor, the unchunked loop
])
def test_chunked_extra_memory_is_bounded_by_the_budget(window, stride, k):
    # Each merge holds a few (chunks, windows) arrays of BLOCK_BYTES / 32
    # cells, and the chunk table is built BLOCK_BYTES of samples at a time,
    # so the peak does not grow with the recording.
    peaks = []
    for n in (1_000_000, 4_000_000):
        values = np.random.default_rng(0).normal(size=n).astype(np.float32)
        s = numeric_series("S", np.arange(float(n)), values=values)
        c = FeatureCollection(FeatureDescriptor("S", builtin(name), window, stride)
                              for name in ("mean", "std", "skewness", "kurtosis"))
        (group,) = features._resolve_groups(SeriesSet([s]), c, features.OutputPosition.END)
        assert group.chunk == k
        unit = [(wrapper, ValueTag.F64, np.full(group.grid.n_segments, np.nan))
                for wrapper in group.wrappers]
        tracemalloc.start()
        try:
            features._run_blocks(group, unit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - 64 * group.grid.n_segments)  # the per-window index arrays
        assert not np.isnan(unit[0][2]).any()
    assert max(peaks) < 6 * features.BLOCK_BYTES
    assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("name, values, negative", [
    ("min", [0.0] * 384, False), ("min", [-0.0] * 384, True),
    ("max", [0.0] * 384, False), ("max", [-0.0] * 384, True),
    ("min", [1.0] * 128 + [-0.0] * 256, True), ("max", [-1.0] * 128 + [0.0] * 256, False),
])
def test_min_and_max_keep_the_sign_of_a_zero_all_zeros_share(name, values, negative):
    # A zero result keeps its sign when every zero of the window has it; with
    # both signs present it is whichever numpy's reduction over the chunk
    # extrema returns, the same on both paths (the bitwise tests above).
    s = numeric_series("S", np.arange(1152.0), values=np.array(values * 3))
    for stride in (384.0, 128.0, 64.0):  # one chunk, K = 128, K = 64
        cells = outcome(s, [builtin(name)], 384.0, stride)[0][f"S__{name}__w=384_s={stride:g}"]
        assert (cells.data == 0.0).all() and (np.signbit(cells.data) == negative).all()


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("values, want", [
    pytest.param([1.0, math.inf, 2.0, 3.0], {"std": math.nan, "skewness": math.nan,
                                            "slope": math.nan, "mean": math.inf}, id="inf"),
    # about 8e199, exact in every sum here, and v * v overflows
    pytest.param([2.0**664] * 4, {"rms": math.inf, "abs_energy": math.inf, "std": 0.0,
                                  "mean": 2.0**664}, id="8e199"),
])
def test_builtins_never_warn_under_an_error_filter(values, want, n_workers):
    # The IEEE result comes back silently on the block path, the per-window
    # path, a standalone call and at any chunk length (window 256, stride 256
    # or 64: K = 64). Each of the four values fills 64 samples.
    s = numeric_series("S", np.arange(512.0), values=np.repeat(values * 2, 64))
    wrappers = [builtin(name) for name in want]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stride in (256.0, 64.0):
            block = outcome(s, wrappers, 256.0, stride, n_workers)
            k = chunk_of(s, 256.0, stride)
            assert k == (64 if stride == 64.0 else None)
            assert_same(block, outcome(s, [per_window(x, k) for x in wrappers], 256.0, stride),
                        block_paths={"block", "fused"})
            for name, expected in want.items():
                cells = block[0][f"S__{name}__w=256_s={stride:g}"].data
                assert np.array_equal(cells, np.full(len(cells), expected), equal_nan=True)
        for name, expected in want.items():
            x = (np.array(values), np.arange(4.0)) if name == "slope" else np.array(values)
            assert np.array_equal(builtin(name).func(x), expected, equal_nan=True)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_chunked_window_where_a_nan_meets_an_inf_is_the_canonical_nan(n_workers):
    # Every window (256 samples, stride 64, K = 64) holds -inf, whose chunk
    # makes its own NaN, and windows 0, 7 and 8 also the data's NaN in
    # another chunk. Which NaN survives their merge depends on numpy's loop
    # for the batch's shape, so a chunked window's NaN is np.nan on both paths.
    values = np.random.default_rng(5).normal(100.0, 2.0, 768).astype(np.float32)
    values[[1, 700]] = np.nan
    values[[150, 350, 550]] = -np.inf
    s = numeric_series("S", np.arange(768.0), values=values)
    wrappers = [builtin(name) for name in MOMENTS if name != "sum"] + [builtin("slope")]
    block = outcome(s, wrappers, 256.0, 64.0, n_workers)
    assert_same(block, outcome(s, [per_window(x, 64) for x in wrappers], 256.0, 64.0),
                block_paths={"block", "fused"})
    for name in block[0].column_names:
        if name.split("__")[1] not in ("mean", "rms", "abs_energy"):
            cells = block[0][name].data
            assert cells.tobytes() == np.full(len(cells), np.nan).tobytes(), name


@pytest.mark.parametrize("n_workers", [1, 2])
def test_windows_of_other_counts_merge_without_raising_under_a_caller_s_errstate(n_workers):
    # A gap gives windows of 3 and 4 chunks and short last chunks (window 256,
    # stride 64, K = 64). Values of about 8e199 are exact in every sum, so no
    # real window overflows under over="raise", and none of their merges may.
    index = np.concatenate([np.arange(600.0), np.arange(700.0, 1400.0)])
    s = numeric_series("S", index, values=np.full(len(index), 2.0**664))
    assert chunk_of(s, 256.0, 64.0) == 64
    wrappers = [builtin(name) for name in ("mean", "std", "skewness", "kurtosis")]
    with np.errstate(over="raise"):
        matrix, paths = outcome(s, wrappers, 256.0, 64.0, n_workers)
    assert set(paths) == {"fused"}
    assert set(matrix["S__mean__w=256_s=64"].data.tolist()) == {2.0**664}
    assert set(matrix["S__std__w=256_s=64"].data.tolist()) == {0.0}


def test_a_zero_cross_seam_takes_no_product_at_a_pad_row():
    # Windows of 3 and 4 chunks (K = 64) merge in one bucket, where the
    # 3-chunk window has a pad row copying its last chunk. That chunk starts
    # and ends with 1e200, whose square overflows under over="raise"; no
    # seam of either window multiplies the two.
    values = np.where(np.random.default_rng(11).random(448) < 0.5, -1.0, 1.0)
    values[[128, 191]] = 1e200
    kernels = [builtin("zero_cross").func]
    starts, counts = np.array([0, 192]), np.array([192, 256])
    with np.errstate(over="raise"):
        together = features._chunked_outputs(kernels, [values], starts, counts, 64)[0]
        alone = [features._chunked_outputs(kernels, [values], starts[i:i + 1], counts[i:i + 1],
                                           64)[0][0] for i in range(2)]
    assert together.tobytes() == np.array(alone).tobytes()
    assert together.tolist() == [today_zero_cross(values[None, s:s + c])[0]
                                 for s, c in zip(starts, counts)]


# ---------------------------------------------------------------------------
# failing units: a builtin that raises is searched through the block path
# ---------------------------------------------------------------------------

HUGE = (1e200, -1e200, 1e300, -1e300)


@settings(max_examples=40)
@given(case=lattice_series(), huge=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(HUGE)),
                                            min_size=1, max_size=4),
       n_workers=st.sampled_from([1, 2]), fused=st.booleans())
def test_a_failing_chunked_grid_names_what_the_per_window_path_names(case, huge, n_workers,
                                                                     fused):
    # Under a caller's over="raise", v * v or d * d of +-1e200 overflows, and
    # so may a chunk or window sum of +-1e300: the block path must name the
    # function, segment and text that the per-window loop names at the
    # grid's chunk length.
    series, w, s, _ = case
    values = series.values.data.astype(np.float64)
    for at, x in huge:
        values[at % len(values)] = x
    series = Series("S", series.index, values, kind=series.kind)
    chunk = group_of(series, w, s).chunk
    wrappers = [robust(builtin(name)) for name in CHUNKED]
    with np.errstate(over="raise"):
        reference = outcome(series, [per_window(x, chunk) for x in wrappers], w, s)
        if fused:
            assert_same(outcome(series, wrappers, w, s, n_workers), reference,
                        block_paths={"block", "fused"})
        else:
            for wrapper in wrappers:
                assert_same(outcome(series, [wrapper], w, s, n_workers),
                            outcome(series, [per_window(wrapper, chunk)], w, s))
    event(f"chunked: {chunk is not None}, fails: {isinstance(reference, str)}")


@pytest.mark.parametrize("names, failing", [(["mean"], "mean"),
                                            (["sum", "mean", "std"], "sum")])
def test_a_late_failure_on_a_large_chunked_grid_is_found_by_halving(names, failing):
    # 100k windows of 192 samples at a stride of 64 (K = 64). Two samples of
    # 1e308 share a chunk of windows 50000 to 50002, whose sums overflow. The
    # failing builtin is rerun over halves of the windows, not per window.
    n = 64 * 100_002
    values = np.ones(n)
    values[[64 * 50_002 + 10, 64 * 50_002 + 11]] = 1e308
    s = numeric_series("S", np.arange(float(n)), values=values)
    assert chunk_of(s, 192.0, 64.0) == 64
    calls = mock.Mock(wraps=features._run_blocks)
    with np.errstate(over="raise"), mock.patch.object(features, "_run_blocks", calls):
        got = outcome(s, [builtin(name) for name in names], 192.0, 64.0)
        assert got == (f"function {failing!r} failed on group 'S' segment 50000: "
                       f"overflow encountered in reduce")
        assert calls.call_count <= 2 + 2 * math.ceil(math.log2(100_000))
        lo = 64 * 50_000
        window = per_window(builtin(failing), 64).func
        with pytest.raises(FloatingPointError, match="^overflow encountered in reduce$"):
            window(values[lo:lo + 192])


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_fused_unit_whose_block_run_raises_reruns_each_builtin_alone(n_workers):
    # A fused moment call that raises, here for no reason in the data, is
    # followed by one block run per builtin: the same bits, each logged as
    # "block". The order family's unit stays fused.
    values = np.random.default_rng(3).normal(100.0, 3.0, 1200)
    s = numeric_series("S", np.arange(1200.0), values=values)
    wrappers = [builtin(name) for name in ("sum", "mean", "std", "kurtosis", "median")]
    wrappers.append(builtin("quantile", {"q": 0.25}))
    want = outcome(s, wrappers, 256.0, 64.0)
    assert want[1] == ["fused"] * 6
    run_blocks, moments = features._run_blocks, wrappers[0].func.family

    def fused_moments_raise(group, unit, windows=slice(None)):
        if len(unit) > 1 and unit[0][0].func.family is moments:
            raise RuntimeError("a fused call that raises")
        return run_blocks(group, unit, windows)
    with mock.patch.object(features, "_run_blocks", fused_moments_raise):
        matrix, paths = outcome(s, wrappers, 256.0, 64.0, n_workers)
    assert matrix.equals(want[0])
    assert paths == ["block"] * 4 + ["fused"] * 2
