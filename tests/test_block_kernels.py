"""Builtins run as block kernels over equal-count windows: the block path must
give the same bits as the per-window path, and the same failure text."""

import itertools
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
from stridekit.errors import FunctionFailure, InvalidDescriptor, NonFloatOutput
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
    return FuncWrapper(lambda *xs: wrapper.apply(xs), base_name=wrapper.base_name,
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
# fused families: median/quantile share one sort, the moments one pass
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
    """Blocks with +-0.0 ties, NaN, infinities and repeated values, n from 1
    to 3000."""
    pools = [np.array([-0.0, 0.0]), np.array([-0.0, 0.0, 1.0, -1.0]),
             np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 2.5]), np.array([-0.0, 0.0, np.nan])]
    for n in [1, 2, 3, 4, 5, 2999, 3000] + rng.integers(1, 60, 200).tolist():
        b = int(rng.integers(1, 6))
        kind = int(rng.integers(0, 5))
        if kind < len(pools):
            yield rng.choice(pools[kind], size=(b, n))
        else:
            v = np.round(rng.normal(size=(b, n)), 1)
            v[rng.random((b, n)) < 0.01] = np.nan
            yield v


def test_fused_order_statistics_equal_numpy():
    kernel = builtin("median").func
    members = ["median", *FUSED_QUANTILES]
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore"):
        for v in order_blocks(rng):
            reference = [np.median(v, axis=1) + 0.0]
            reference += [np.quantile(v, q, axis=1) + 0.0 for q in FUSED_QUANTILES]
            fused = kernel.family(v, members)
            alone = [builtin("median").func.func(v)]
            alone += [builtin("quantile", {"q": q}).func.func(v) for q in FUSED_QUANTILES]
            for want, got, one in zip(reference, fused, alone):
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(one), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes() == one[~nan].tobytes()
                assert not np.signbit(got[got == 0.0]).any()


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
