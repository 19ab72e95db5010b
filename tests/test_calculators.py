"""Built-in feature functions: exact semantics against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stridekit import FuncWrapper, InputMode, builtin, make_robust
from stridekit.errors import BadParam, InvalidDescriptor, NonFloatOutput, UnknownBuiltin
from stridekit.features import PRESERVE
from stridekit.series import ValueTag


def call(name, values, params=None):
    w = builtin(name, params)
    arr = np.asarray(values, dtype=np.float64)
    if w.input_mode is InputMode.VALUES_AND_INDEX:
        raise AssertionError("use call_with_index for index-aware functions")
    return w.apply([arr])[0]


def call_with_index(name, values, index):
    w = builtin(name, None)
    return w.apply([(np.asarray(values, dtype=np.float64), np.asarray(index))])[0]


def test_mean_of_four():
    assert call("mean", [1, 2, 3, 4]) == 2.5


def test_population_std_and_var():
    data = [2, 4, 4, 4, 5, 5, 7, 9]
    assert call("std", data) == 2.0
    assert call("var", data) == 4.0


def test_zero_cross_counts_strict_sign_changes():
    assert call("zero_cross", [1, -1, 1, -1]) == 3.0
    assert call("zero_cross", [1, 0, -1]) == 0.0
    assert call("zero_cross", [5]) == 0.0
    assert call("zero_cross", []) == 0.0


def test_sum_abs_energy_basicrms():
    assert call("sum", [1, 2, 3]) == 6.0
    assert call("abs_energy", [1, 2, 3]) == 14.0
    assert call("rms", [3, 4]) == math.sqrt(12.5)


def test_median_interpolates_between_order_statistics():
    assert call("median", [1, 3]) == 2.0
    assert call("median", [1, 2, 4, 8]) == 3.0
    assert call("median", [7]) == 7.0


def test_quantile_linear_interpolation():
    assert call("quantile", [1, 2, 3, 4], {"q": 0.5}) == 2.5
    assert call("quantile", [0, 1, 2, 3], {"q": 0.25}) == 0.75
    assert call("quantile", [5, 1, 9], {"q": 0}) == 1.0
    assert call("quantile", [5, 1, 9], {"q": 1}) == 9.0


def test_quantile_output_name_embeds_q():
    assert builtin("quantile", {"q": 0.25}).output_names == ("quantile_0.25",)
    assert builtin("quantile", {"q": 1}).output_names == ("quantile_1",)


@pytest.mark.parametrize("params", [{}, {"q": -0.1}, {"q": 1.5}, {"q": "x"}, {"q": True},
                                    {"q": 0.5, "extra": 1}, {"q": 10**400}, [("q", 0.5)]])
def test_quantile_rejects_bad_params(params):
    with pytest.raises(BadParam):
        builtin("quantile", params)


def test_parameterless_functions_reject_params():
    with pytest.raises(BadParam):
        builtin("mean", {"q": 0.5})
    with pytest.raises(BadParam):
        builtin("mean", 5)


def test_unknown_builtin_is_reported():
    for name in ("entropy", ["mean"], None):
        with pytest.raises(UnknownBuiltin):
            builtin(name)


def test_count_returns_int_and_has_integer_tag():
    w = builtin("count")
    assert w.output_tags == (ValueTag.I64,)
    got = call("count", [1.5, 2.5, 3.5])
    assert got == 3 and isinstance(got, int)
    assert call("count", []) == 0


def test_first_last_preserve_tag():
    for name in ("first", "last"):
        assert builtin(name).output_tags == (PRESERVE,)
    assert call("first", [7, 8, 9]) == 7.0
    assert call("last", [7, 8, 9]) == 9.0


def test_empty_windows_zero_or_raise():
    assert call("sum", []) == 0.0
    assert call("abs_energy", []) == 0.0
    for name in ("mean", "std", "var", "min", "max", "median", "rms",
                 "skewness", "kurtosis", "first", "last"):
        with pytest.raises(ValueError, match=f"{name} of an empty window is undefined"):
            call(name, [])
    with pytest.raises(ValueError, match="quantile of an empty window is undefined"):
        call("quantile", [], {"q": 0.5})
    with pytest.raises(ValueError, match="slope of an empty window is undefined"):
        call_with_index("slope", [], np.array([], dtype=np.float64))


def test_slope_recovers_exact_line_numeric_index():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    assert call_with_index("slope", 2.0 * t + 5.0, t) == 2.0


def test_slope_time_index_is_per_second_and_shift_invariant():
    base = 1_600_000_000_000_000_000  # large epoch, beyond float64 ns precision
    steps = np.array([0, 1, 2, 3], dtype=np.int64) * 1_000_000_000
    y = np.array([5.0, 7.0, 9.0, 11.0])
    near = call_with_index("slope", y, steps)
    far = call_with_index("slope", y, base + steps)
    assert near == 2.0
    assert far == near


def test_slope_degenerate_cases():
    same = np.array([4, 4, 4], dtype=np.int64)
    assert call_with_index("slope", [1.0, 2.0, 3.0], same) == 0.0
    t = np.array([0.0, 1.0, 2.0])
    assert call_with_index("slope", [5.0, 5.0, 5.0], t) == 0.0
    assert builtin("slope").input_mode is InputMode.VALUES_AND_INDEX


def test_skewness_matches_bernoulli_closed_form():
    # For 0/1 data with success probability p: g1 = (1-2p)/sqrt(p(1-p)).
    got = call("skewness", [0, 0, 0, 1])
    assert math.isclose(got, 2.0 / math.sqrt(3.0), rel_tol=1e-12)
    assert call("skewness", [1, 2, 3]) == 0.0
    assert call("skewness", [6, 6, 6]) == 0.0


def test_kurtosis_matches_bernoulli_closed_form():
    # For 0/1 data with p = 1/2: excess kurtosis = (1-6p(1-p))/(p(1-p)) = -2.
    assert call("kurtosis", [0, 1]) == -2.0
    assert call("kurtosis", [6, 6, 6]) == 0.0


def test_robust_delegates_when_enough_samples():
    w = make_robust(builtin("mean"))
    assert w.apply([np.array([1.0, 2.0, 3.0])])[0] == 2.0


def test_robust_threshold_and_empty_fill():
    w = make_robust(builtin("mean"), min_samples=4)
    assert math.isnan(w.apply([np.array([1.0, 2.0, 3.0])])[0])
    assert math.isnan(w.apply([np.array([])])[0])
    custom = make_robust(builtin("mean"), fill_value=-1.0)
    assert custom.apply([np.array([])])[0] == -1.0


def test_robust_nan_fill_rejects_non_float_outputs():
    with pytest.raises(NonFloatOutput):
        make_robust(builtin("count"))
    with pytest.raises(NonFloatOutput):
        make_robust(builtin("first"))


def test_robust_count_with_finite_fill_is_allowed():
    w = make_robust(builtin("count"), fill_value=0.0)
    assert w.apply([np.array([])])[0] == 0.0
    assert w.apply([np.array([1.0, 2.0])])[0] == 2


def test_robust_rejects_negative_min_samples():
    with pytest.raises(InvalidDescriptor):
        make_robust(builtin("mean"), min_samples=-1)


@pytest.mark.parametrize("fill", [None, "x"])
def test_robust_builtin_rejects_a_fill_that_is_not_a_number(fill):
    with pytest.raises(InvalidDescriptor, match="'mean': fill_value must be a number"):
        make_robust(builtin("mean"), min_samples=2, fill_value=fill)


def test_robust_checks_every_input_of_a_joint_function():
    def spread(a, b):
        return float(np.max(a) - np.min(b))

    w = make_robust(FuncWrapper(spread, base_name="spread"), min_samples=1)
    full = np.array([1.0, 2.0])
    empty = np.array([])
    assert math.isnan(w.apply([full, empty])[0])
    assert w.apply([full, full])[0] == 1.0


finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


@given(finite_lists)
def test_accumulations_match_fsum_oracle(values):
    arr = np.array(values, dtype=np.float64)
    scale = max(1.0, math.fsum(abs(v) for v in values))
    assert abs(call("sum", arr) - math.fsum(values)) <= 1e-9 * scale
    n = len(values)
    mean = math.fsum(values) / n
    assert abs(call("mean", arr) - mean) <= 1e-9 * scale
    var = math.fsum((v - mean) ** 2 for v in values) / n
    vscale = max(1.0, math.fsum((v - mean) ** 2 for v in values))
    assert abs(call("var", arr) - var) <= 1e-9 * vscale
    assert call("min", arr) == min(values)
    assert call("max", arr) == max(values)
    assert call("count", arr) == n


integer_windows = st.one_of(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50),
    # constant windows: zero variance
    st.builds(lambda v, n: [v] * n, st.integers(min_value=-1000, max_value=1000),
              st.integers(min_value=1, max_value=50)),
)


@given(integer_windows)
def test_moments_match_fsum_two_pass_oracle(values):
    # Integer samples keep the two-pass moments well conditioned. Skewness and
    # kurtosis can be 0 in exact arithmetic, where only an absolute bound holds.
    arr = np.array(values, dtype=np.float64)
    n = len(values)
    mean = math.fsum(values) / n
    d = [v - mean for v in values]
    m2, m3, m4 = (math.fsum(x ** k for x in d) / n for k in (2, 3, 4))
    energy = math.fsum(v * v for v in values)
    assert math.isclose(call("std", arr), math.sqrt(m2), rel_tol=1e-9)
    assert math.isclose(call("rms", arr), math.sqrt(energy / n), rel_tol=1e-9)
    assert math.isclose(call("abs_energy", arr), energy, rel_tol=1e-9)
    if m2 == 0.0:
        assert call("std", arr) == call("skewness", arr) == call("kurtosis", arr) == 0.0
    else:
        assert math.isclose(call("skewness", arr), m3 / m2 ** 1.5, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(call("kurtosis", arr), m4 / m2 ** 2 - 3.0, rel_tol=1e-9, abs_tol=1e-9)


@given(finite_lists)
def test_median_and_quantile_match_sorted_oracle(values):
    arr = np.array(values, dtype=np.float64)
    s = sorted(values)
    n = len(s)
    if n % 2:
        want_median = s[n // 2]
    else:
        want_median = (s[n // 2 - 1] + s[n // 2]) / 2.0
    assert math.isclose(call("median", arr), want_median, rel_tol=1e-9, abs_tol=1e-9)
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        frac = pos - lo
        want = s[lo] if lo + 1 >= n else s[lo] + frac * (s[lo + 1] - s[lo])
        got = call("quantile", arr, {"q": q})
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=60))
def test_zero_cross_matches_loop_oracle(values):
    want = sum(1 for a, b in zip(values, values[1:]) if a * b < 0)
    assert call("zero_cross", values) == float(want)


@given(
    st.lists(st.floats(min_value=0.1, max_value=5.0, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=2, max_size=31),
)
def test_slope_matches_fsum_least_squares_oracle(steps, t0, raw_values):
    t = [t0]
    for d in steps:
        t.append(t[-1] + d)
    n = min(len(t), len(raw_values))
    t, values = t[:n], raw_values[:n]
    t_mean = math.fsum(t) / n
    y_mean = math.fsum(values) / n
    denom = math.fsum((x - t_mean) ** 2 for x in t)
    want = math.fsum((x - t_mean) * (y - y_mean) for x, y in zip(t, values)) / denom
    got = call_with_index("slope", values, np.array(t, dtype=np.float64))
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
