"""Series containers, views, deltas, and binary-search slicing."""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stridekit import (
    Delta,
    IndexKind,
    Series,
    SeriesSet,
    ValueColumn,
    ValueTag,
    infer_period,
    slice_range,
)
from stridekit.errors import (
    DuplicateSeriesName,
    EmptyName,
    KindMismatch,
    LengthMismatch,
    MalformedName,
    NonMonotonicIndex,
    ReservedCharacterInName,
    TooShort,
    UnknownSeries,
)

from conftest import NS, numeric_series, time_series


def test_construction_basic():
    s = time_series("TMP", [0.0, 0.25, 0.5], [1.0, 2.0, 3.0])
    assert s.kind is IndexKind.TIME_NS
    assert s.values.tag is ValueTag.F64
    assert len(s) == 3
    assert s.index.dtype == np.int64


def test_datetime64_index_coerces_to_time_ns():
    idx = np.array(["2021-01-01T00:00:00", "2021-01-01T00:00:01"], dtype="datetime64[s]")
    s = Series("a", idx, np.zeros(2))
    assert s.kind is IndexKind.TIME_NS
    assert s.index[1] - s.index[0] == NS


def test_integer_index_defaults_to_numeric():
    s = Series("a", np.array([0, 1, 2]), np.zeros(3))
    assert s.kind is IndexKind.NUMERIC
    assert s.index.dtype == np.float64


def test_float_index_rejected_for_time_kind():
    with pytest.raises(KindMismatch):
        Series("a", np.array([0.0, 1.0]), np.zeros(2), kind=IndexKind.TIME_NS)


def test_non_monotonic_rejected_with_position():
    with pytest.raises(NonMonotonicIndex) as err:
        numeric_series("a", [0.0, 2.0, 1.0, 3.0])
    assert "position 2" in str(err.value)


def test_duplicate_index_values_allowed():
    s = numeric_series("a", [0.0, 1.0, 1.0, 2.0])
    assert len(s) == 4


def test_nan_index_rejected():
    with pytest.raises(NonMonotonicIndex):
        numeric_series("a", [0.0, np.nan])
    with pytest.raises(NonMonotonicIndex):
        numeric_series("a", [np.nan])


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        Series("a", np.array([0.0, 1.0]), np.zeros(3))


@pytest.mark.parametrize("bad", ["", "a__b", "a|b", "_a", "a_", "_"])
def test_reserved_names_rejected(bad):
    with pytest.raises((ReservedCharacterInName, EmptyName)):
        Series(bad, np.array([0.0]), np.zeros(1))


def test_series_is_immutable():
    s = numeric_series("a", [0.0, 1.0])
    with pytest.raises(AttributeError):
        s.name = "b"
    with pytest.raises(ValueError):
        s.index[0] = 5.0
    with pytest.raises(ValueError):
        s.values.data[0] = 5.0


def test_view_is_zero_copy_and_read_only():
    s = numeric_series("a", np.arange(10.0), np.arange(10.0) * 2)
    v = s.view(2, 7)
    assert np.shares_memory(v.values, s.values.data)
    assert np.shares_memory(v.index, s.index)
    assert len(v) == 5
    with pytest.raises(ValueError):
        v.values[0] = 99.0


def test_view_bounds_checked():
    s = numeric_series("a", [0.0, 1.0])
    with pytest.raises(LengthMismatch):
        s.view(0, 3)
    with pytest.raises(LengthMismatch):
        s.view(-1, 1)


def test_value_tag_inference():
    idx = np.array([0.0, 1.0])
    assert Series("a", idx, np.array([1.0, 2.0])).values.tag is ValueTag.F64
    assert Series("a", idx, np.array([1.0, 2.0], dtype=np.float32)).values.tag is ValueTag.F32
    assert Series("a", idx, np.array([1, 2])).values.tag is ValueTag.I64
    assert Series("a", idx, np.array([True, False])).values.tag is ValueTag.BOOL
    s = Series("a", idx, np.array(["walk", "run"]))
    assert s.values.tag is ValueTag.CATEGORICAL
    assert s.values.categories == ("run", "walk")
    assert [s.values.decode(c) for c in s.values.data] == ["walk", "run"]


def test_categorical_duplicate_labels_rejected():
    with pytest.raises(LengthMismatch):
        ValueColumn(ValueTag.CATEGORICAL, np.array([0, 1], dtype=np.int32),
                    categories=("a", "a"))


# ---------------------------------------------------------------------------
# slice_range
# ---------------------------------------------------------------------------

def test_slice_range_left_closed_right_open():
    s = numeric_series("a", [0.0, 1.0, 2.0, 3.0, 4.0])
    v = slice_range(s, 1.0, 3.0)
    assert list(v.index) == [1.0, 2.0]


def test_slice_range_start_after_end():
    s = numeric_series("a", [0.0, 1.0])
    with pytest.raises(ValueError):
        slice_range(s, 2.0, 1.0)


def test_slice_range_time_kind_rejects_float_bounds():
    s = time_series("a", [0.0, 1.0])
    with pytest.raises(KindMismatch):
        slice_range(s, 0.5, 1.0)


def test_slice_range_accepts_datetime64_bounds():
    s = time_series("a", [0.0, 1.0, 2.0])
    v = slice_range(s, np.datetime64("1970-01-01T00:00:01"), np.datetime64("1970-01-01T00:00:03"))
    assert len(v) == 2


@given(
    idx=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                 min_size=0, max_size=60),
    bounds=st.tuples(st.floats(min_value=-1e6, max_value=1e6),
                     st.floats(min_value=-1e6, max_value=1e6)),
)
def test_slice_range_matches_linear_scan(idx, bounds):
    idx = sorted(idx)
    s = numeric_series("a", idx, np.zeros(len(idx)))
    start, end = min(bounds), max(bounds)
    v = slice_range(s, start, end)
    arr = np.asarray(idx)
    expected = np.nonzero((arr >= start) & (arr < end))[0]
    assert v.lo == (expected[0] if len(expected) else v.hi)
    assert len(v) == len(expected)


# ---------------------------------------------------------------------------
# Delta
# ---------------------------------------------------------------------------

def test_delta_render_uses_largest_exact_unit():
    assert Delta.parse("30s").render() == "30s"
    assert Delta.parse("60s").render() == "1m"
    assert Delta.parse("2500ms").render() == "2500ms"
    assert Delta.time_ns(86_400_000_000_000).render() == "1D"
    assert Delta.time_ns(1).render() == "1ns"
    assert Delta.parse("0ms").render() == "0s"
    assert Delta.time_ns(-90 * 10**9).render() == "-90s"


def test_delta_numeric_render_shortest():
    assert Delta.numeric(0.5).render() == "0.5"
    assert Delta.numeric(2.0).render() == "2"
    assert Delta.parse("0.25").value == 0.25
    assert Delta.numeric("0.25") == Delta.numeric(0.25) == Delta.numeric("2.5e-1")


def test_delta_coerce():
    assert Delta.coerce(datetime.timedelta(seconds=30)) == Delta.parse("30s")
    assert Delta.coerce(np.timedelta64(10, "ms")) == Delta.parse("10ms")
    assert Delta.coerce(1.5) == Delta.numeric(1.5)
    assert Delta.coerce(Delta.parse("1m")) == Delta.time_ns(60 * NS)
    with pytest.raises(MalformedName):
        Delta.coerce(object())
    with pytest.raises(MalformedName):
        Delta.parse("30x")
    with pytest.raises(MalformedName, match="too large"):
        Delta.coerce(10**400)  # float() of it raises OverflowError


@pytest.mark.parametrize("value", [True, False])
def test_delta_coerce_rejects_bools(value):
    # bool is an int subclass, so True would be a numeric delta of 1
    with pytest.raises(MalformedName):
        Delta.coerce(value)
    with pytest.raises(MalformedName):
        Delta.numeric(value)


@pytest.mark.parametrize("text", ["30s\n", "\u0663s", "3\u0660s", "nan", "-inf", "1e400",
                                  "\u0663", " 5 ", "1_000", "1_0", "5\n", "0x10", ""])
def test_delta_parse_takes_ascii_digits_in_full_and_finite_numbers(text):
    with pytest.raises(MalformedName):
        Delta.parse(text)
    with pytest.raises(MalformedName):
        Delta.numeric(text)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_numeric_delta_must_be_finite(x):
    with pytest.raises(MalformedName, match="not finite"):
        Delta.numeric(x)
    with pytest.raises(MalformedName, match="not finite"):
        Delta.coerce(x)


@given(count=st.integers(min_value=1, max_value=10**9),
       unit=st.sampled_from(["D", "h", "m", "s", "ms", "us", "ns"]))
def test_delta_time_round_trip(count, unit):
    d = Delta.parse(f"{count}{unit}")
    assert Delta.parse(d.render()) == d


@given(x=st.floats(min_value=1e-9, max_value=1e12, allow_nan=False))
def test_delta_numeric_round_trip(x):
    d = Delta.numeric(x)
    assert Delta.parse(d.render()) == d


# ---------------------------------------------------------------------------
# SeriesSet, infer_period
# ---------------------------------------------------------------------------

def test_series_set_unique_names():
    ss = SeriesSet([numeric_series("a", [0.0])])
    with pytest.raises(DuplicateSeriesName):
        ss.add(numeric_series("a", [1.0]))
    with pytest.raises(UnknownSeries):
        ss["missing"]


def test_series_set_updated_shares_untouched_storage():
    a = numeric_series("a", [0.0, 1.0])
    b = numeric_series("b", [0.0, 1.0])
    ss = SeriesSet([a, b])
    replacement = numeric_series("b", [0.0, 1.0], [9.0, 9.0])
    out = ss.updated([replacement, numeric_series("c", [5.0])])
    assert out["a"] is a
    assert out["b"] is replacement
    assert len(ss) == 2 and len(out) == 3


def test_infer_period_median():
    s = numeric_series("a", [0.0, 1.0, 2.0, 3.0, 10.0])
    assert infer_period(s) == 1.0
    with pytest.raises(TooShort):
        infer_period(numeric_series("a", [0.0]))
