"""Descriptor registry and the strided-window extraction engine."""

import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridekit import (
    Delta,
    ExtractOptions,
    FeatureCollection,
    FeatureColumn,
    FeatureDescriptor,
    FeatureMatrix,
    FuncWrapper,
    IndexKind,
    OutputPosition,
    Series,
    SeriesSet,
    ValueTag,
    aggregate_log,
    builtin,
    expand_multiple,
    extract,
    make_robust,
    parse_feature_config,
    slice_range,
)
from stridekit.errors import (
    BadParam,
    ConfigError,
    DisjointSpans,
    DuplicateFeature,
    EmptyAxis,
    FunctionFailure,
    InvalidDescriptor,
    IoError,
    KindMismatch,
    LengthMismatch,
    MalformedName,
    UnknownColumn,
    UnknownSeries,
)

from stridekit import features
from stridekit.segment import SegmentGrid
from stridekit.series import DTYPES

from conftest import NS, numeric_series, time_series


def tmp_4hz(seconds=100.0):
    t = np.arange(0.0, seconds + 1e-9, 0.25)
    return time_series("TMP", t, values=20.0 + 0.01 * np.arange(len(t)))


def collection_of(*entries):
    c = FeatureCollection()
    for series_names, func, w, s in entries:
        c.add(FeatureDescriptor(series_names, func, w, s))
    return c


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_single_descriptor_forms_one_group():
    c = collection_of(("TMP", builtin("mean"), "30s", "10s"))
    assert c.n_groups == 1
    assert c.n_descriptors == 1


def test_same_key_shares_a_group():
    c = collection_of(
        ("TMP", builtin("mean"), "30s", "10s"),
        ("TMP", builtin("std"), "30s", "10s"),
        ("TMP", builtin("mean"), "60s", "10s"),
    )
    assert c.n_groups == 2
    assert c.n_descriptors == 3


def test_duplicate_registration_rejected():
    c = collection_of(("TMP", builtin("mean"), "30s", "10s"))
    with pytest.raises(DuplicateFeature):
        c.add(FeatureDescriptor("TMP", builtin("mean"), "30s", "10s"))
    # Same function under another window is a separate feature.
    c.add(FeatureDescriptor("TMP", builtin("mean"), "45s", "10s"))


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor("TMP", builtin("mean"), "30s", 10.0)  # kind mix
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor("TMP", builtin("mean"), "0s", "10s")
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor((), builtin("mean"), "30s", "10s")
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor("TMP", lambda x: 0.0, "30s", "10s")


def test_descriptor_rejects_a_bool_window_or_stride():
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor("TMP", builtin("mean"), True, 1.0)
    with pytest.raises(InvalidDescriptor):
        FeatureDescriptor("TMP", builtin("mean"), 1.0, True)


def test_expand_multiple_counts():
    assert len(expand_multiple([builtin("mean")], ["TMP"], ["30s"], ["10s"])) == 1
    funcs = [builtin("mean"), builtin("std"), builtin("min")]
    got = expand_multiple(funcs, ["TMP"], ["30s", "60s"], ["10s", "20s"])
    assert len(got) == 12
    with pytest.raises(EmptyAxis):
        expand_multiple([], ["TMP"], ["30s"], ["10s"])
    with pytest.raises(EmptyAxis):
        expand_multiple(funcs, ["TMP"], [], ["10s"])


def test_column_names_follow_registration_order():
    c = collection_of(
        ("TMP", builtin("mean"), "30s", "10s"),
        ("TMP", builtin("std"), "30s", "10s"),
        ("TMP", builtin("mean"), "60s", "10s"),
    )
    assert c.column_names() == [
        "TMP__mean__w=30s_s=10s",
        "TMP__std__w=30s_s=10s",
        "TMP__mean__w=1m_s=10s",
    ]


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_two_windows_outer_join():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple(
        [builtin("mean"), builtin("std")], ["TMP"], ["30s", "60s"], ["10s"]
    ))
    matrix, records, warnings = extract(data, c)
    assert matrix.n_columns == 4
    assert warnings == []
    # 100 s span: 8 complete 30 s windows, 5 complete 60 s windows.
    assert list(matrix.index) == [(30 + 10 * k) * NS for k in range(8)]
    col60 = matrix["TMP__mean__w=1m_s=10s"].data
    assert np.isnan(col60[:3]).all() and not np.isnan(col60[3:]).any()
    col30 = matrix["TMP__mean__w=30s_s=10s"].data
    assert not np.isnan(col30).any()
    assert len(records) == 4


def test_window_values_match_fsum_oracle():
    series = tmp_4hz()
    data = SeriesSet([series])
    c = collection_of(("TMP", builtin("mean"), "30s", "10s"))
    matrix, _, _ = extract(data, c)
    col = matrix["TMP__mean__w=30s_s=10s"].data
    for k in range(8):
        view = slice_range(series, 10 * k * NS, (10 * k + 30) * NS)
        want = math.fsum(view.values.tolist()) / len(view.values)
        assert math.isclose(col[k], want, rel_tol=1e-12)


def test_output_position_begin():
    data = SeriesSet([tmp_4hz()])
    c = collection_of(("TMP", builtin("mean"), "30s", "10s"))
    matrix, _, _ = extract(data, c, ExtractOptions(output_position=OutputPosition.BEGIN))
    assert list(matrix.index) == [10 * k * NS for k in range(8)]


def test_output_position_text_labels_rows_by_that_end():
    data = SeriesSet([numeric_series("X", np.arange(10.0))])
    c = collection_of(("X", builtin("mean"), 2.0, 2.0))
    end = extract(data, c, ExtractOptions(output_position="end")).matrix
    begin = extract(data, c, ExtractOptions(output_position="begin")).matrix
    assert list(end.index) == [2.0, 4.0, 6.0, 8.0]
    assert list(begin.index) == [0.0, 2.0, 4.0, 6.0]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FeatureDescriptor(None, builtin("mean"), "1s", "1s"), id="no-names"),
    pytest.param(lambda: expand_multiple([builtin("mean")], [5], ["1s"], ["1s"]), id="entry"),
    pytest.param(lambda: expand_multiple([builtin("mean")], ["A"], 5, ["1s"]), id="axis"),
    pytest.param(lambda: FuncWrapper(len, output_names=5), id="output-names"),
    pytest.param(lambda: FuncWrapper(len, output_tags=5), id="output-tags"),
    pytest.param(lambda: FuncWrapper(len, bound_kwargs=5), id="bound-kwargs"),
])
def test_constructors_reject_a_non_sequence_with_invalid_descriptor(make):
    with pytest.raises(InvalidDescriptor):
        make()


def test_a_str_axis_is_one_item():
    got = expand_multiple([builtin("mean")], "TMP", "30s", "10s")
    assert [d.key() for d in got] == [(("TMP",), Delta.parse("30s"), Delta.parse("10s"))]


@pytest.mark.parametrize("fill, message", [
    pytest.param(True, "'mean': fill_value must be a number, got True", id="bool"),
    pytest.param("1.5", "'mean': fill_value must be a number, got '1.5'", id="text"),
    pytest.param(10**400, "'mean': fill_value is too large for a float", id="401-digits"),
])
def test_make_robust_of_a_builtin_takes_a_number_a_float_holds(fill, message):
    with pytest.raises(InvalidDescriptor) as exc:
        make_robust(builtin("mean"), 2, fill)
    assert str(exc.value) == message


def test_make_robust_of_a_user_function_keeps_a_bool_fill():
    def any_high(v):
        return bool((v > 1).any())
    wrapper = make_robust(FuncWrapper(any_high, output_tags=[ValueTag.BOOL]), 2, True)
    assert wrapper.apply([np.array([5.0])]) == (True,)


@pytest.mark.parametrize("wrapper, fill", [
    pytest.param(builtin("count"), 1e300, id="count-1e300"),
    pytest.param(builtin("count"), 2.0**63, id="count-2**63"),
    pytest.param(builtin("count"), 0.5, id="count-half"),
    pytest.param(builtin("count"), math.inf, id="count-inf"),
    pytest.param(FuncWrapper(len, output_tags=[ValueTag.I64]), -2**63 - 1, id="user-below"),
    pytest.param(FuncWrapper(len, output_tags=[ValueTag.I64]), "7", id="user-text"),
])
@pytest.mark.parametrize("min_samples", [0, 1, 3])
def test_make_robust_rejects_a_fill_an_i64_output_cannot_hold(wrapper, fill, min_samples):
    with pytest.raises(InvalidDescriptor) as exc:
        make_robust(wrapper, min_samples, fill)
    assert str(exc.value) == (f"{wrapper.base_name!r}: an I64 output cannot hold the "
                              f"fill_value {fill!r}")


def test_make_robust_keeps_an_i64_fill_that_int64_holds():
    assert make_robust(builtin("count"), 1, -2.0**63).fills == (-2**63,)
    assert make_robust(builtin("count"), 1, 2**62).fills == (2**62,)
    user = FuncWrapper(len, output_tags=[ValueTag.I64])
    assert make_robust(user, 1, 2**63 - 1).fills == (2**63 - 1,)
    # A tag-preserving output's fill is checked by extract, against the input's tag.
    assert make_robust(builtin("first"), 1, 1e300).fills == (1e300,)


def test_a_config_robust_fill_an_i64_output_cannot_hold_is_a_config_error():
    doc = {"features": [{"series": "S", "windows": [2.0], "strides": [2.0], "functions": [
        {"name": "count", "robust": {"min_samples": 1, "fill_value": 1e300}}]}]}
    with pytest.raises(ConfigError) as exc:
        parse_feature_config(doc)
    assert str(exc.value) == ("features[0].functions[0]: 'count': an I64 output cannot hold "
                              "the fill_value 1e+300")


def test_robust_fill_for_empty_windows():
    # Irregular beats with a silent stretch between t=30 s and t=80 s.
    beats = np.concatenate([np.arange(0.0, 30.0, 0.8), np.arange(80.0, 100.0, 0.8)])
    ibi = time_series("IBI", beats, values=np.diff(beats, prepend=0.0))
    c = collection_of(
        ("IBI", make_robust(builtin("mean")), "10s", "10s"),
        ("IBI", builtin("count"), "10s", "10s"),
    )
    matrix, _, _ = extract(SeriesSet([ibi]), c, ExtractOptions(approve_sparsity=True))
    means = matrix["IBI__mean__w=10s_s=10s"].data
    counts = matrix["IBI__count__w=10s_s=10s"].data
    # Windows [30,40) .. [70,80) contain no samples at all.
    for k, (lo_t, hi_t) in enumerate((10 * k, 10 * k + 10) for k in range(9)):
        n_inside = int(np.count_nonzero((beats >= lo_t) & (beats < hi_t)))
        assert counts[k] == n_inside
        assert math.isnan(means[k]) == (n_inside == 0)
    assert matrix["IBI__count__w=10s_s=10s"].tag is ValueTag.I64


def test_unknown_series_rejected():
    c = collection_of(("EDA", builtin("mean"), "30s", "10s"))
    with pytest.raises(UnknownSeries):
        extract(SeriesSet([tmp_4hz()]), c)


def test_window_kind_must_match_series_kind():
    c = collection_of(("TMP", builtin("mean"), 30.0, 10.0))
    with pytest.raises(KindMismatch):
        extract(SeriesSet([tmp_4hz()]), c)


def test_groups_may_not_mix_index_kinds():
    t = tmp_4hz()
    x = numeric_series("X", np.arange(100.0))
    c = collection_of(
        ("TMP", builtin("mean"), "30s", "10s"),
        ("X", builtin("mean"), 30.0, 10.0),
    )
    with pytest.raises(KindMismatch):
        extract(SeriesSet([t, x]), c)


def test_disjoint_spans_rejected():
    a = numeric_series("A", np.arange(0.0, 10.0))
    b = numeric_series("B", np.arange(20.0, 30.0))

    def f(x, y):
        return 0.0

    c = collection_of((("A", "B"), FuncWrapper(f, base_name="f"), 5.0, 5.0))
    with pytest.raises(DisjointSpans):
        extract(SeriesSet([a, b]), c)


def test_function_failure_names_group_and_segment():
    def boom(x):
        if len(x) and x[0] >= 4.0:
            raise RuntimeError("bad window")
        return 0.0

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", FuncWrapper(boom, base_name="boom"), 2.0, 2.0))
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c)
    assert "'S'" in str(err.value) and "segment 2" in str(err.value)


def test_a_failure_stops_before_a_later_unit_runs():
    ran = []

    def fail(x):
        raise RuntimeError("first unit fails")

    def record(x):
        ran.append(len(x))
        return 0.0

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", FuncWrapper(fail, base_name="fail"), 2.0, 2.0),
                      ("S", FuncWrapper(record, base_name="record"), 2.0, 2.0))
    with pytest.raises(FunctionFailure, match="'fail'"):
        extract(SeriesSet([s]), c)
    assert ran == []


def test_a_failure_on_the_pool_drops_the_queued_units(tmp_path):
    def fail(x):
        raise RuntimeError("first unit fails")

    def slow(i):
        def run(x):
            (tmp_path / f"ran_{i}").touch()
            time.sleep(0.05)
            return 0.0
        return FuncWrapper(run, base_name=f"slow{i}")

    s = numeric_series("S", np.arange(0.0, 4.0))
    c = collection_of(("S", FuncWrapper(fail, base_name="fail"), 3.0, 3.0),
                      *(("S", slow(i), 3.0, 3.0) for i in range(30)))
    with pytest.raises(FunctionFailure, match="'fail'"):
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=2))
    # units already running or handed to a worker finish; the rest never start
    assert len(list(tmp_path.iterdir())) < 10


@pytest.mark.parametrize("field, value", [
    ("n_workers", 0), ("n_workers", -3), ("n_workers", True), ("n_workers", 1.5),
    ("approve_sparsity", "no"), ("approve_sparsity", 1), ("approve_sparsity", None),
    ("output_position", "middle"), ("output_position", None), ("output_position", 7),
    ("log_path", True), ("log_path", 3),
])
def test_extract_options_reject_bad_values(field, value):
    with pytest.raises(BadParam, match=field):
        ExtractOptions(**{field: value})


@pytest.mark.parametrize("min_samples", [1.5, True, "2", -1])
def test_make_robust_takes_an_integer_min_samples(min_samples):
    with pytest.raises(InvalidDescriptor, match="min_samples must be an integer"):
        make_robust(builtin("mean"), min_samples=min_samples)


@pytest.mark.parametrize("wrapper", [
    FuncWrapper(lambda x: float(len(x)), base_name="n"),
    builtin("mean"),
], ids=["user", "builtin"])
def test_make_robust_below_the_wrapped_threshold_is_invalid_descriptor(wrapper):
    inner = make_robust(wrapper, 5, 1.0)
    with pytest.raises(InvalidDescriptor) as err:
        make_robust(inner, 2, 2.0)
    assert str(err.value) == (f"{inner.base_name!r}: min_samples 2 is below the wrapped "
                              f"function's own min_samples 5")
    for min_samples in (0, 5, 6):  # 0 keeps the rule; an equal or higher one covers it
        make_robust(inner, min_samples, 2.0)


def test_the_fork_pool_has_no_more_workers_than_units():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple([builtin("mean"), builtin("min"), builtin("max")],
                                          ["TMP"], ["30s"], ["10s"]))
    serial = extract(data, c).matrix
    # mean, min and max: one unit each; no more workers than CPUs either
    for n_workers, cpus, forks in [(10**6, 8, 3), (10**6, 2, 2), (2, 8, 2), (3, 1, 1),
                                   (1, 8, 0)]:
        with mock.patch.object(features.os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(features.os, "cpu_count", return_value=cpus):
            pooled = extract(data, c, ExtractOptions(n_workers=n_workers)).matrix
        assert fork.call_count == forks
        assert pooled.equals(serial)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kill_in_a_worker(how):
    parent = os.getpid()

    def run(x):
        if os.getpid() != parent:
            if how != "exit":
                os.kill(os.getpid(), signal.SIGKILL if how == "signal" else signal.SIGRTMIN + 1)
            os._exit(3)
        return 0.0
    return run


@pytest.mark.parametrize("how, status", [("signal", "was killed by SIGKILL"),
                                         ("exit", "exited with status 3"),
                                         ("unnamed-signal",
                                          f"was killed by signal {signal.SIGRTMIN + 1}")])
def test_a_worker_that_dies_fails_the_function_it_held(how, status):
    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", builtin("mean"), 2.0, 2.0),
                      ("S", FuncWrapper(_kill_in_a_worker(how), base_name="die"), 2.0, 2.0),
                      ("S", builtin("slope"), 2.0, 2.0))
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=2))
    assert str(err.value) == f"function 'die' on group 'S': its worker {status} before reporting it"
    _no_child_left()
    # in this process the function returns
    assert extract(SeriesSet([s]), c).matrix.n_rows == 4


@pytest.mark.parametrize("late", [False, True], ids=["read-at-once", "read-late"])
def test_a_worker_that_dies_after_reporting_a_unit_fails_the_unit_it_was_handed(late):
    parent, send, loads = os.getpid(), features._send, pickle.loads

    def send_once(*args):  # a worker dies once it has reported its first unit
        send(*args)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    def late_loads(payload):
        # the caller reads a report once its worker is dead, so the unit it
        # hands that worker next meets a closed pipe (BrokenPipeError)
        time.sleep(0.2)
        return loads(payload)

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(*(("S", builtin(f), 2.0, 2.0) for f in ("mean", "min", "slope")))
    with mock.patch.object(features, "_send", send_once), \
            mock.patch.object(features.pickle, "loads", late_loads if late else loads):
        with pytest.raises(FunctionFailure) as err:
            extract(SeriesSet([s]), c, ExtractOptions(n_workers=2))
    assert str(err.value) == ("function 'slope' on group 'S': its worker was killed by SIGKILL "
                              "before reporting it")
    _no_child_left()


@pytest.mark.parametrize("exc", [SystemExit(7), KeyboardInterrupt()], ids=repr)
@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_base_exception_surfaces_alike_for_every_worker_count(exc, n_workers):
    def stop(x):
        raise exc

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", builtin("mean"), 2.0, 2.0),
                      ("S", FuncWrapper(stop, base_name="stop"), 2.0, 2.0),
                      ("S", builtin("slope"), 2.0, 2.0))
    with pytest.raises(type(exc)) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert err.value.args == exc.args
    _no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("between, raised", [
    ("exit", (SystemExit, "5")),
    ("fail", (FunctionFailure, "function 'between' failed on group 'S' segment 0: "
                               "between fails")),
    ("pass", (FunctionFailure, "function 'mean' failed on group 'S' segment 1: "
                               "mean of an empty window is undefined")),
])
def test_the_first_failure_in_registration_order_wins_over_a_fused_unit(between, raised,
                                                                        n_workers):
    # sum and mean fuse into one unit, whose mean fails on the empty second
    # window; a function registered between them runs as a unit of its own
    def run(x):
        if between == "exit":
            raise SystemExit(5)
        if between == "fail":
            raise RuntimeError("between fails")
        return 0.0

    s = numeric_series("S", [0.0, 1.0, 4.0, 5.0, 6.0, 7.0])
    c = collection_of(("S", builtin("sum"), 2.0, 2.0),
                      ("S", FuncWrapper(run, base_name="between"), 2.0, 2.0),
                      ("S", builtin("mean"), 2.0, 2.0))
    with pytest.raises((SystemExit, FunctionFailure)) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert (type(err.value), str(err.value)) == raised
    _no_child_left()


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_failure_has_the_same_cause_for_every_worker_count(n_workers):
    def divide(x):
        return 1 / 0

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", FuncWrapper(divide, base_name="divide"), 2.0, 2.0),
                      ("S", builtin("mean"), 2.0, 2.0))  # a second unit for the pool
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert str(err.value) == "function 'divide' failed on group 'S' segment 0: division by zero"
    assert type(err.value.__cause__) is ZeroDivisionError
    assert err.value.__cause__.args == ("division by zero",)


class _TwoArgumentError(Exception):  # pickles, but does not unpickle
    def __init__(self, message, code):
        super().__init__(message)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("local", [True, False], ids=["local-class", "two-arguments"])
def test_a_cause_that_does_not_cross_the_pipe_is_dropped_alone(n_workers, local):
    class LocalError(Exception):  # does not pickle
        pass

    error = LocalError if local else (lambda message: _TwoArgumentError(message, 1))

    def fail(x):
        raise error("bad window")

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", FuncWrapper(fail, base_name="fail"), 2.0, 2.0),
                      ("S", builtin("mean"), 2.0, 2.0))
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert str(err.value) == "function 'fail' failed on group 'S' segment 0: bad window"
    if n_workers == 1:
        assert isinstance(err.value.__cause__, LocalError if local else _TwoArgumentError)
    else:
        assert err.value.__cause__ is None
    _no_child_left()


@pytest.mark.parametrize("failing", [False, True])
def test_the_pool_leaves_no_process_behind(failing):
    def boom(x):
        raise RuntimeError("bad window")

    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", builtin("mean"), 2.0, 2.0), ("S", builtin("slope"), 2.0, 2.0),
                      *([("S", FuncWrapper(boom, base_name="boom"), 2.0, 2.0)] * failing))
    if failing:
        with pytest.raises(FunctionFailure, match="'boom'"):
            extract(SeriesSet([s]), c, ExtractOptions(n_workers=2))
    else:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=2))
    _no_child_left()


def test_the_pool_runs_more_units_than_a_pipe_holds_positions():
    # 16,384 eight-byte positions fill a 64 KiB pipe
    s = numeric_series("S", np.arange(0.0, 5.0))
    c = FeatureCollection(FeatureDescriptor("S", FuncWrapper(lambda x, i=i: i + float(len(x)),
                                                             base_name=f"f{i}"), 2.0, 2.0)
                          for i in range(16_500))
    pooled = extract(SeriesSet([s]), c, ExtractOptions(n_workers=2)).matrix
    assert pooled.equals(extract(SeriesSet([s]), c).matrix)
    _no_child_left()


def _pooled_and_serial_matrices():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple([builtin("mean"), builtin("min"), builtin("max")],
                                          ["TMP"], ["30s"], ["10s"]))
    return extract(data, c, ExtractOptions(n_workers=2)).matrix, extract(data, c).matrix


def test_the_pool_runs_inside_a_daemonic_multiprocessing_worker():
    # a multiprocessing.Process may not start there; os.fork may
    with multiprocessing.get_context("fork").Pool(1) as outer:
        pooled, serial = outer.apply_async(_pooled_and_serial_matrices).get(timeout=60)
    assert pooled.equals(serial)
    assert pooled.n_rows > 0
    _no_child_left()


def test_forked_workers_run_every_unit_exactly_once(tmp_path):
    def unit(i):
        ran = []

        def run(x):
            if not ran:  # a unit run twice, in two workers, raises here
                open(tmp_path / str(i), "x").close()
                ran.append(i)
            return i + float(len(x))
        return FuncWrapper(run, base_name=f"f{i}")

    s = numeric_series("S", np.arange(0.0, 5.0))
    c = FeatureCollection(FeatureDescriptor("S", unit(i), 2.0, 2.0) for i in range(2000))
    # more workers than cores, so that the workers' outcomes arrive interleaved
    with mock.patch.object(features.os, "cpu_count", return_value=4):
        pooled = extract(SeriesSet([s]), c, ExtractOptions(n_workers=4)).matrix
    assert len(list(tmp_path.iterdir())) == 2000
    for marker in tmp_path.iterdir():
        marker.unlink()
    assert pooled.equals(extract(SeriesSet([s]), c).matrix)
    _no_child_left()


def test_the_pool_returns_a_dictionary_grown_in_a_worker_whole():
    """A user function's label outside the series' dictionary is appended to
    its column's dictionary in the worker that runs it; its I64 and BOOL
    outputs come back typed, and the matrix is the one-worker matrix."""
    s = numeric_series("S", np.arange(12.0), values=np.array(list("aabbbaaabbba"), dtype=object))

    def describe(x):  # codes into ("a", "b"); a window holding both is "mixed"
        return ("mixed" if len(set(x.tolist())) > 1 else int(x[0])), int(x.sum()), bool(x[0])

    wrapper = FuncWrapper(describe, output_names=["label", "bs", "starts_b"],
                          output_tags=[ValueTag.CATEGORICAL, ValueTag.I64, ValueTag.BOOL])
    c = collection_of(("S", wrapper, 2.0, 2.0), ("S", wrapper, 3.0, 3.0))  # two units
    serial = extract(SeriesSet([s]), c).matrix
    with mock.patch.object(features.os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(features.os, "cpu_count", return_value=2):
        pooled = extract(SeriesSet([s]), c, ExtractOptions(n_workers=2)).matrix
    assert fork.call_count == 2
    _no_child_left()
    assert pooled.equals(serial)
    assert serial.index.tolist() == [2.0, 3.0, 4.0, 6.0, 8.0, 9.0, 10.0]
    label = pooled["S__label__w=2_s=2"]
    assert label.categories == ("a", "b", "mixed")
    assert label.data.tolist() == [0, -1, 1, 2, 0, -1, 1]
    assert label.missing.tolist() == [False, True, False, False, False, True, False]
    assert pooled["S__label__w=3_s=3"].categories == ("a", "b", "mixed")
    for name, dtype in [("S__bs__w=3_s=3", np.int64), ("S__starts_b__w=3_s=3", bool)]:
        assert pooled[name].data.dtype == dtype
        assert pooled[name].missing.tolist() == [True, False, True, False, True, False, True]


LABELS = np.array(["lo", "hi", "lo"] * 3, dtype=object)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("result, tag, values, reason", [
    pytest.param(None, ValueTag.F64, None, "'NoneType'", id="None-ValueTag.F64"),
    pytest.param("x", ValueTag.I64, None, "cannot be interpreted as an integer",
                 id="x-ValueTag.I64"),
    pytest.param(2.7, ValueTag.I64, None, "cannot be interpreted as an integer",
                 id="2.7-ValueTag.I64"),
    pytest.param("false", ValueTag.BOOL, None, "a BOOL output must be a bool, got 'false'",
                 id="false-ValueTag.BOOL"),
    pytest.param(1, ValueTag.BOOL, None, "a BOOL output must be a bool, got 1",
                 id="1-ValueTag.BOOL"),
    # a dictionary code, but the series is float
    pytest.param(0, ValueTag.CATEGORICAL, None,
                 "needs a label dictionary, but series 'S' has none",
                 id="0-ValueTag.CATEGORICAL"),
    pytest.param(-1, ValueTag.CATEGORICAL, LABELS,
                 "code -1 is outside the 2 labels of series 'S'",
                 id="-1-ValueTag.CATEGORICAL-labels"),
    pytest.param(2, ValueTag.CATEGORICAL, LABELS,
                 "code 2 is outside the 2 labels of series 'S'",
                 id="2-ValueTag.CATEGORICAL-labels"),
    pytest.param(0.0, ValueTag.CATEGORICAL, LABELS, "cannot be interpreted as an integer",
                 id="0.0-ValueTag.CATEGORICAL-labels"),
])
def test_output_that_misfits_its_tag_names_group_and_segment(result, tag, values, reason,
                                                             n_workers):
    s = numeric_series("S", np.arange(0.0, 9.0), values=values)
    c = collection_of(
        ("S", FuncWrapper(lambda x: result, base_name="odd", output_tags=[tag]), 2.0, 2.0),
        ("S", builtin("mean"), 2.0, 2.0),  # a second unit, so two workers use the pool
    )
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    message = str(err.value)
    assert "'odd'" in message and "'S'" in message and "segment 0" in message
    assert reason in message


@pytest.mark.parametrize("result, tag, want", [
    (np.int64(3), ValueTag.I64, 3),
    (True, ValueTag.I64, 1),
    (np.bool_(False), ValueTag.BOOL, False),
    (1, ValueTag.CATEGORICAL, "lo"),
    ("new", ValueTag.CATEGORICAL, "new"),
])
def test_output_that_fits_its_tag_is_stored_as_a_python_scalar(result, tag, want):
    """Stored in the tag's dtype, a cell reads back (``tolist``, a label
    through the column's dictionary) as the Python scalar of its tag."""
    s = numeric_series("S", np.arange(0.0, 9.0), values=LABELS)
    c = collection_of(("S", FuncWrapper(lambda x: result, base_name="odd", output_tags=[tag]),
                       2.0, 2.0))
    column = extract(SeriesSet([s]), c).matrix["S__odd__w=2_s=2"]
    assert column.data.dtype == DTYPES[tag] and column.missing is None
    cells = column.data.tolist()
    if tag is ValueTag.CATEGORICAL:  # the series' dictionary, a new label appended
        assert column.categories == ("hi", "lo", *(("new",) if want == "new" else ()))
        cells = [column.categories[code] for code in cells]
    assert cells == [want] * 4
    assert {type(v) for v in cells} == {type(want)}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("wrapper, reason", [
    pytest.param(FuncWrapper(lambda x: 2**70, base_name="huge", output_tags=[ValueTag.I64]),
                 "function 'huge' failed on group 'S' segment 0: an I64 output must fit "
                 "int64, got 1180591620717411303424", id="user"),
    pytest.param(FuncWrapper(lambda x: -2**63 - 1, base_name="huge",
                             output_tags=[ValueTag.I64]),
                 "function 'huge' failed on group 'S' segment 0: an I64 output must fit "
                 "int64, got -9223372036854775809", id="user-below"),
    # make_robust checks only I64-tagged fills; a tag-preserving one meets its
    # input's tag at extract
    pytest.param(make_robust(builtin("first"), 3, 2**70),
                 "function 'first' failed on group 'S' segment 0: an I64 output must fit "
                 "int64, got 1180591620717411303424", id="robust-fill"),
])
def test_an_i64_output_outside_int64_names_group_and_segment(wrapper, reason, n_workers):
    s = numeric_series("S", np.arange(0.0, 9.0), values=np.arange(9))
    c = collection_of(("S", wrapper, 2.0, 2.0),
                      ("S", builtin("mean"), 2.0, 2.0))  # a second unit for the pool
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert str(err.value) == reason


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("wrapper, reason", [
    pytest.param(FuncWrapper(lambda x: (1.0, 2.0), base_name="two"),
                 "function 'two' failed on group 'S' segment 0: 'two' returned 2 outputs, "
                 "expected 1", id="tuple"),
    pytest.param(FuncWrapper(lambda x: 1.0, base_name="pair", output_names=["a", "b"]),
                 "function 'pair' failed on group 'S' segment 0: 'pair' returned a scalar "
                 "but declares 2 outputs", id="scalar"),
])
def test_a_user_function_with_the_wrong_output_count_names_group_and_segment(wrapper, reason,
                                                                              n_workers):
    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(("S", wrapper, 2.0, 2.0),
                      ("S", builtin("mean"), 2.0, 2.0))  # a second unit for the pool
    with pytest.raises(FunctionFailure) as err:
        extract(SeriesSet([s]), c, ExtractOptions(n_workers=n_workers))
    assert str(err.value) == reason


def test_an_i64_output_at_the_int64_bounds_is_stored():
    s = numeric_series("S", np.arange(0.0, 9.0))
    c = collection_of(
        ("S", FuncWrapper(lambda x: 2**63 - 1, base_name="hi", output_tags=[ValueTag.I64]),
         2.0, 2.0),
        ("S", FuncWrapper(lambda x: -2**63, base_name="lo", output_tags=[ValueTag.I64]),
         2.0, 2.0),
    )
    matrix = extract(SeriesSet([s]), c).matrix
    assert matrix["S__hi__w=2_s=2"].data.tolist() == [2**63 - 1] * 4
    assert matrix["S__lo__w=2_s=2"].data.tolist() == [-2**63] * 4


def test_joint_function_intersects_spans():
    a = numeric_series("A", np.arange(0.0, 21.0), values=np.full(21, 2.0))
    b = numeric_series("B", np.arange(5.0, 31.0), values=np.full(26, 3.0))

    def added_means(x, y):
        return float(np.mean(x) + np.mean(y))

    c = collection_of((("A", "B"), FuncWrapper(added_means, base_name="am"), 5.0, 5.0))
    matrix, _, _ = extract(SeriesSet([a, b]), c)
    # Intersection span [5, 20] holds 3 complete windows.
    assert list(matrix.index) == [10.0, 15.0, 20.0]
    got = matrix["A|B__am__w=5_s=5"].data
    assert np.allclose(got, 5.0)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("wrapper", [
    builtin("count"),
    builtin("mean"),
    make_robust(builtin("std"), min_samples=2),
], ids=["count", "mean", "robust-std"])
def test_builtin_on_a_multi_series_group_is_rejected_before_any_unit_runs(n_workers, wrapper):
    a = numeric_series("A", np.arange(0.0, 21.0))
    b = numeric_series("B", np.arange(0.0, 21.0))
    calls = []

    def spy(x):
        calls.append(len(x))
        return 0.0

    c = collection_of(
        ("A", FuncWrapper(spy, base_name="spy"), 5.0, 5.0),
        (("A", "B"), wrapper, 5.0, 5.0),
    )
    with pytest.raises(InvalidDescriptor) as err:
        extract(SeriesSet([a, b]), c, ExtractOptions(n_workers=n_workers))
    assert str(err.value) == (f"builtin {wrapper.base_name!r} takes one series, "
                              f"but group 'A|B' has 2")
    assert calls == []


@pytest.mark.parametrize("series, window, stride, n", [
    pytest.param(time_series("S", np.arange(61.0)), "1s", "1ns", 59_000_000_001, id="time"),
    # float rounding of the 1e-9 stride leaves one window fewer than on a time grid
    pytest.param(numeric_series("S", np.arange(61.0)), 1.0, 1e-9, 59_000_000_000, id="numeric"),
])
def test_a_grid_with_more_windows_than_max_segments_fails_before_allocating(series, window,
                                                                          stride, n):
    # About 5.9e10 windows: their starts alone would take 440 GiB.
    c = collection_of(("S", builtin("mean"), window, stride))
    (_, w, s), _ = c.groups()[0]
    with mock.patch.object(features, "segment_positions") as positions:
        with pytest.raises(InvalidDescriptor) as err:
            extract(SeriesSet([series]), c)
    positions.assert_not_called()
    assert str(err.value) == (f"group 'S' with window {w.render()} and stride {s.render()} has "
                              f"{n} windows, more than the {features.MAX_SEGMENTS} "
                              f"one grid may have")


def test_multi_output_function_emits_one_column_per_name():
    def span_ends(x):
        return float(x[0]), float(x[-1])

    w = FuncWrapper(span_ends, base_name="ends", output_names=["lo", "hi"])
    s = numeric_series("S", np.arange(0.0, 10.0), values=np.arange(10.0))
    matrix, _, _ = extract(SeriesSet([s]), collection_of(("S", w, 4.0, 2.0)))
    assert matrix.column_names == ["S__lo__w=4_s=2", "S__hi__w=4_s=2"]
    assert list(matrix["S__lo__w=4_s=2"].data) == [0.0, 2.0, 4.0]
    assert list(matrix["S__hi__w=4_s=2"].data) == [3.0, 5.0, 7.0]


def test_index_aware_function_sees_window_timestamps():
    t = np.arange(0.0, 60.5, 0.5)
    line = time_series("L", t, values=2.0 * t)
    c = collection_of(("L", builtin("slope"), "10s", "5s"))
    matrix, _, _ = extract(SeriesSet([line]), c)
    assert np.allclose(matrix["L__slope__w=10s_s=5s"].data, 2.0, atol=1e-12)


def test_collision_between_distinct_functions_rejected():
    one = FuncWrapper(lambda x: 0.0, base_name="f1", output_names="same")
    two = FuncWrapper(lambda x: 1.0, base_name="f2", output_names="same")
    with pytest.raises(DuplicateFeature, match="S__same__w=4_s=2"):
        collection_of(("S", one, 4.0, 2.0), ("S", two, 4.0, 2.0))


def test_function_repeating_an_output_name_rejected_at_registration():
    twice = FuncWrapper(lambda x: (0.0, 1.0), base_name="f", output_names=["a", "a"])
    c = collection_of(("S", builtin("mean"), 4.0, 2.0))
    with pytest.raises(DuplicateFeature, match="S__a__w=4_s=2"):
        c.add(FeatureDescriptor("S", twice, 4.0, 2.0))
    # the rejected function left no group, column or descriptor behind
    assert c.n_groups == 1 and c.column_names() == ["S__mean__w=4_s=2"]


# ---------------------------------------------------------------------------
# datatype preservation
# ---------------------------------------------------------------------------

def test_last_on_categorical_yields_categorical_labels():
    labels = np.array(["lo", "hi", "lo", "lo", "hi", "hi", "lo", "hi"], dtype=object)
    s = numeric_series("PHASE", np.arange(8.0), values=labels)
    matrix, _, _ = extract(SeriesSet([s]), collection_of(("PHASE", builtin("last"), 2.0, 2.0)))
    col = matrix["PHASE__last__w=2_s=2"]
    assert col.tag is ValueTag.CATEGORICAL
    assert col.data.dtype == np.int32 and col.categories == s.values.categories
    assert [col.categories[code] for code in col.data] == ["hi", "lo", "hi"]


def test_first_preserves_float32():
    vals = np.arange(10, dtype=np.float32) / 4
    s = numeric_series("S", np.arange(10.0), values=vals)
    matrix, _, _ = extract(SeriesSet([s]), collection_of(("S", builtin("first"), 2.0, 2.0)))
    col = matrix["S__first__w=2_s=2"]
    assert col.tag is ValueTag.F32
    assert col.data.dtype == np.float32
    assert list(col.data) == [0.0, 0.5, 1.0, 1.5]


def test_last_on_bool_series_yields_bools():
    vals = np.array([True, False, True, True, False, False, True, False])
    s = numeric_series("FLAG", np.arange(8.0), values=vals)
    matrix, _, _ = extract(SeriesSet([s]), collection_of(("FLAG", builtin("last"), 2.0, 2.0)))
    col = matrix["FLAG__last__w=2_s=2"]
    assert col.tag is ValueTag.BOOL
    assert col.data.dtype == bool
    assert col.data.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# sparsity warnings
# ---------------------------------------------------------------------------

def test_sparsity_warning_on_gapped_series():
    beats = np.concatenate([np.arange(0.0, 30.0, 1.0), np.arange(60.0, 100.0, 1.0)])
    ibi = time_series("IBI", beats)
    c = collection_of(("IBI", builtin("count"), "10s", "10s"))
    _, _, warnings = extract(SeriesSet([ibi]), c)
    assert len(warnings) == 1
    w = warnings[0]
    assert w.series == "IBI"
    assert w.modal_count == 10
    # Windows [30,40), [40,50), [50,60) are empty and deviate from the mode.
    assert w.n_deviant == 3
    assert "approve_sparsity" in w.message()


def test_regular_series_produces_no_warning():
    _, _, warnings = extract(
        SeriesSet([tmp_4hz()]), collection_of(("TMP", builtin("mean"), "10s", "10s"))
    )
    assert warnings == []


def test_approve_sparsity_silences_warnings():
    beats = np.concatenate([np.arange(0.0, 30.0, 1.0), np.arange(60.0, 100.0, 1.0)])
    ibi = time_series("IBI", beats)
    c = collection_of(("IBI", builtin("count"), "10s", "10s"))
    _, _, warnings = extract(SeriesSet([ibi]), c, ExtractOptions(approve_sparsity=True))
    assert warnings == []


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------

def test_one_log_record_per_group_function():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple(
        [builtin("mean"), builtin("std")], ["TMP"], ["30s", "60s"], ["10s"]
    ))
    _, records, _ = extract(data, c)
    assert len(records) == 4
    seen = {(r.func, r.window.render(), r.n_segments) for r in records}
    assert seen == {("mean", "30s", 8), ("std", "30s", 8), ("mean", "1m", 5), ("std", "1m", 5)}
    assert all(r.series == "TMP" and r.duration_s >= 0.0 for r in records)


def test_aggregate_log_examples():
    assert aggregate_log([]) == []
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple(
        [builtin("std"), builtin("mean")], ["TMP"], ["30s", "60s"], ["10s"]
    ))
    _, records, _ = extract(data, c)
    summary = aggregate_log(records)
    assert [row.func for row in summary] == ["mean", "std"]
    for row in summary:
        assert row.count == 2
        assert math.isclose(row.total_s, row.mean_s * row.count, rel_tol=1e-12)


def test_aggregate_log_arithmetic():
    from stridekit.features import LogRecord

    w, s = Delta.parse("30s"), Delta.parse("10s")
    records = [
        LogRecord("mean", "TMP", w, s, 8, 0.2),
        LogRecord("mean", "EDA", w, s, 8, 0.4),
    ]
    (row,) = aggregate_log(records)
    assert row.total_s == pytest.approx(0.6)
    assert row.mean_s == pytest.approx(0.3)
    assert row.count == 2


def test_log_path_writes_json_lines(tmp_path):
    log_file = tmp_path / "extract.log"
    data = SeriesSet([tmp_4hz()])
    c = collection_of(("TMP", builtin("mean"), "30s", "10s"))
    extract(data, c, ExtractOptions(log_path=str(log_file)))
    lines = log_file.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"func", "series", "window", "stride", "n_segments", "duration_s", "path"}
    assert obj["func"] == "mean" and obj["window"] == "30s" and obj["n_segments"] == 8
    assert obj["path"] == "block"


def test_a_log_path_outside_a_directory_is_refused_before_any_unit_runs(tmp_path):
    calls = []

    def spy(x):
        calls.append(len(x))
        return 0.0
    data = SeriesSet([tmp_4hz()])
    c = collection_of(("TMP", FuncWrapper(spy, base_name="spy"), "30s", "10s"))
    log_file = tmp_path / "missing" / "extract.log"
    with pytest.raises(IoError) as err:
        extract(data, c, ExtractOptions(log_path=str(log_file)))
    try:
        open(log_file, "w")
    except OSError as exc:
        expected = f"cannot write {log_file}: {exc}"
    assert str(err.value) == expected
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# determinism and parallelism
# ---------------------------------------------------------------------------

def test_repeat_runs_are_bitwise_identical():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple(
        [builtin("mean"), builtin("std"), builtin("skewness")],
        ["TMP"], ["30s", "60s"], ["10s"],
    ))
    first, _, _ = extract(data, c)
    second, _, _ = extract(data, c)
    assert first.equals(second)


def test_worker_count_does_not_change_results():
    data = SeriesSet([tmp_4hz()])
    c = FeatureCollection(expand_multiple(
        [builtin("mean"), builtin("std"), builtin("min"), builtin("max")],
        ["TMP"], ["30s", "60s"], ["10s"],
    ))
    serial, serial_records, serial_warn = extract(data, c, ExtractOptions(n_workers=1))
    pooled, pooled_records, pooled_warn = extract(data, c, ExtractOptions(n_workers=2))
    assert serial.equals(pooled)
    strip = lambda rs: [(r.func, r.series, r.window, r.stride, r.n_segments) for r in rs]
    assert strip(serial_records) == strip(pooled_records)
    assert serial_warn == pooled_warn


# ---------------------------------------------------------------------------
# reduce and projection
# ---------------------------------------------------------------------------

def full_collection():
    return FeatureCollection(expand_multiple(
        [builtin("mean"), builtin("std")], ["TMP"], ["30s", "60s"], ["10s"]
    ))


def test_reduce_to_single_column():
    reduced = full_collection().reduce(["TMP__mean__w=30s_s=10s"])
    assert reduced.n_descriptors == 1
    assert reduced.column_names() == ["TMP__mean__w=30s_s=10s"]


def test_reduce_unknown_column():
    with pytest.raises(UnknownColumn):
        full_collection().reduce(["TMP__bogus__w=30s_s=10s"])
    with pytest.raises(UnknownColumn):
        full_collection().reduce(["EDA__mean__w=30s_s=10s"])


def test_reduce_takes_any_spelling_of_a_registered_column():
    reduced = full_collection().reduce(["TMP__mean__w=30000ms_s=10s",
                                        "TMP__std__w=60s_s=10000000000ns"])
    assert reduced.column_names() == ["TMP__mean__w=30s_s=10s", "TMP__std__w=1m_s=10s"]
    for bad in ["TMP__mean__w=30s", "TMP__mean__w=30x_s=10s", "TMP__mean__w=30s_s=10"]:
        with pytest.raises(MalformedName):
            full_collection().reduce([bad])


def test_reduce_then_extract_matches_projection():
    data = SeriesSet([tmp_4hz()])
    keep = ["TMP__std__w=30s_s=10s", "TMP__mean__w=30s_s=10s"]
    full, _, _ = extract(data, full_collection())
    reduced, _, _ = extract(data, full_collection().reduce(keep))
    # Both 30 s columns exist, so the reduced index equals the full union.
    assert reduced.equals(full.project(reduced.column_names))


def test_reduce_keeps_multi_output_functions_whole():
    def span_ends(x):
        return float(x[0]), float(x[-1])

    w = FuncWrapper(span_ends, base_name="ends", output_names=["lo", "hi"])
    c = collection_of(("S", w, 4.0, 2.0))
    reduced = c.reduce(["S__lo__w=4_s=2"])
    assert reduced.column_names() == ["S__lo__w=4_s=2", "S__hi__w=4_s=2"]


def test_matrix_projection_and_lookup():
    data = SeriesSet([tmp_4hz()])
    matrix, _, _ = extract(data, full_collection())
    sub = matrix.project(["TMP__std__w=1m_s=10s", "TMP__mean__w=30s_s=10s"])
    assert sub.column_names == ["TMP__std__w=1m_s=10s", "TMP__mean__w=30s_s=10s"]
    assert sub.index.tobytes() == matrix.index.tobytes()
    with pytest.raises(UnknownColumn):
        matrix["TMP__median__w=30s_s=10s"]
    with pytest.raises(UnknownColumn):
        matrix.project(["nope__x__w=1_s=1"])


def test_matrix_equality_is_strict():
    data = SeriesSet([tmp_4hz()])
    c = full_collection()
    a, _, _ = extract(data, c)
    b, _, _ = extract(data, c)
    assert a.equals(b)
    assert not a.equals(b.project(list(reversed(b.column_names))))
    shifted = SeriesSet([tmp_4hz(99.0)])
    d, _, _ = extract(shifted, c)
    assert not a.equals(d)


def test_matrix_equality_checks_kind_tags_and_float_bits():
    a, _, _ = extract(SeriesSet([tmp_4hz()]), full_collection())
    name = a.column_names[0]

    def changed(kind=a.kind, tag=ValueTag.F64, data=a[name].data):
        columns = {n: a[n] for n in a.column_names}
        columns[name] = FeatureColumn(tag, data)
        return FeatureMatrix(kind, a.index, columns)

    assert a.equals(changed())
    assert not a.equals(changed(kind=IndexKind.NUMERIC))
    assert not a.equals(changed(tag=ValueTag.F32, data=a[name].data.astype(np.float32)))
    flipped = a[name].data.copy()
    flipped[0] = np.nextafter(flipped[0], np.inf)
    assert not a.equals(changed(data=flipped))


MASK_REFUSED = ("missing must be None or, for a non-float tag, a bool mask of the column's "
                "2 cells, each holding -1")


@pytest.mark.parametrize("args, reason", [
    # a dtype that does not fit the tag
    ((ValueTag.F32, np.zeros(2)), "f32 column must be a 1-d float32 array"),
    ((ValueTag.BOOL, np.zeros(2, dtype=np.int64)), "bool column must be a 1-d bool array"),
    ((ValueTag.CATEGORICAL, np.zeros(2, dtype=np.int64), ("a",)),
     "categorical column must be a 1-d int32 array"),
    ((ValueTag.I64, np.zeros((2, 1), dtype=np.int64)), "i64 column must be a 1-d int64 array"),
    ((ValueTag.I64, [1, 2]), "i64 column must be a 1-d int64 array"),
    # categories on another tag, a missing or a repeating dictionary
    ((ValueTag.I64, np.zeros(2, dtype=np.int64), ("a",)),
     "only categorical columns carry a dictionary"),
    ((ValueTag.CATEGORICAL, np.zeros(2, dtype=np.int32)),
     "categorical column requires a dictionary"),
    ((ValueTag.CATEGORICAL, np.zeros(2, dtype=np.int32), ("a", "a")),
     "categorical dictionary contains duplicate labels"),
    # Python cells that do not fit the tag
    ((ValueTag.I64, np.array([1, 2**63], dtype=object)),
     f"i64 column cell 1: an I64 output must fit int64, got {2**63}"),
    ((ValueTag.I64, np.array([None, 1.5], dtype=object)),
     "i64 column cell 1: 'float' object cannot be interpreted as an integer"),
    ((ValueTag.BOOL, np.array([True, 1], dtype=object)),
     "bool column cell 1: a BOOL output must be a bool, got 1"),
    ((ValueTag.CATEGORICAL, np.array(["a", 3], dtype=object), ("a", "b")),
     "categorical column cell 1: CATEGORICAL code 3 is outside the 2 labels of the column"),
    ((ValueTag.CATEGORICAL, np.array([0], dtype=object)),
     "categorical column cell 0: a CATEGORICAL code (0) needs a label dictionary, "
     "but the column has none"),
    # a mask on a float column, of the wrong length or dtype, over a cell other than -1
    ((ValueTag.F64, np.zeros(2), None, np.array([True, False])), MASK_REFUSED),
    ((ValueTag.I64, np.zeros(2, dtype=np.int64), None, np.array([True])), MASK_REFUSED),
    ((ValueTag.I64, np.zeros(2, dtype=np.int64), None, np.array([1, 0])), MASK_REFUSED),
    ((ValueTag.I64, np.zeros(2, dtype=np.int64), None, [True, False]), MASK_REFUSED),
    ((ValueTag.I64, np.array([-1, 0]), None, np.array([True, True])), MASK_REFUSED),
    ((ValueTag.BOOL, np.array([False, True]), None, np.array([True, False])), MASK_REFUSED),
])
def test_a_feature_column_is_checked_when_it_is_built(args, reason):
    with pytest.raises(LengthMismatch, match=f"^{re.escape(reason)}$"):
        FeatureColumn(*args)


def test_python_cells_are_typed_when_a_feature_column_is_built():
    """An object array of Python cells, None where missing, becomes the
    tag's dtype with -1 (True for BOOL) under the mask; labels become codes,
    a new one appended to the dictionary in first-seen order."""
    def built(tag, cells, categories=None):
        c = FeatureColumn(tag, np.array(cells, dtype=object), categories)
        return c.data.dtype, c.data.tolist(), c.categories, c.missing

    def mask(c):
        return None if c is None else c.tolist()

    assert built(ValueTag.I64, [3, None, np.int64(-2), True])[:3] == \
        (np.int64, [3, -1, -2, 1], None)
    assert built(ValueTag.BOOL, [None, np.bool_(False), True])[:3] == \
        (bool, [True, False, True], None)
    assert built(ValueTag.CATEGORICAL, ["b", None, 0, "c", "b"], ("a",))[:3] == \
        (np.int32, [1, -1, 0, 2, 1], ("a", "b", "c"))
    assert built(ValueTag.CATEGORICAL, [None])[:3] == (np.int32, [-1], ())
    assert mask(built(ValueTag.I64, [3, None, 1])[3]) == [False, True, False]
    assert mask(built(ValueTag.BOOL, [True, None])[3]) == [False, True]
    assert mask(built(ValueTag.I64, [1, 2])[3]) is None  # no cell missing: no mask


def test_matrix_equality_compares_typed_cells_masks_and_dictionaries():
    s = numeric_series("S", np.arange(8.0))
    c = collection_of(
        ("S", FuncWrapper(lambda x: int(x.sum()), base_name="total",
                          output_tags=[ValueTag.I64]), 2.0, 2.0),
        ("S", FuncWrapper(lambda x: "lo" if x[0] < 3 else "hi", base_name="label",
                          output_tags=[ValueTag.CATEGORICAL]), 3.0, 3.0),
    )
    a, _, _ = extract(SeriesSet([s]), c)
    total, label = a.column_names
    assert a[total].data.dtype == np.int64
    assert a[total].missing.tolist() == [False, True, False, False]
    assert a[label].categories == ("lo", "hi")

    def with_cell(name, row, value, categories=None):
        columns = {n: a[n] for n in a.column_names}
        data, missing = a[name].data.copy(), a[name].missing.copy()
        data[row], missing[row] = (-1, True) if value is None else (value, False)
        columns[name] = FeatureColumn(a[name].tag, data, categories or a[name].categories,
                                      missing)
        return FeatureMatrix(a.kind, a.index, columns)

    assert a.equals(with_cell(total, 0, a[total].data[0]))
    assert not a.equals(with_cell(total, 1, 0))  # hole against a value
    assert not with_cell(total, 0, None).equals(a)  # value against a hole
    assert not a.equals(with_cell(label, 3, 0))  # one label changed
    assert not a.equals(with_cell(label, 3, 1, ("lo", "hi", "x")))  # a longer dictionary
    # a mask that marks no cell marks the same cells as None
    counts = np.arange(4, dtype=np.int64)
    none, unmarked = (FeatureMatrix(a.kind, a.index, {"n": FeatureColumn(ValueTag.I64, counts,
                                                                         missing=mask)})
                      for mask in (None, np.zeros(4, dtype=bool)))
    assert none.equals(unmarked) and unmarked.equals(none)


# ---------------------------------------------------------------------------
# index maintenance property
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(
    seconds=st.lists(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        min_size=2, max_size=80, unique=True,
    ),
    w_s=st.tuples(st.integers(1, 40), st.integers(1, 40)),
)
def test_output_index_equals_grid_formula(seconds, w_s):
    w_sec, s_sec = w_s
    idx = np.array(sorted(seconds))
    series = time_series("S", idx)
    c = collection_of(
        ("S", make_robust(builtin("mean")), Delta.time_ns(w_sec * NS), Delta.time_ns(s_sec * NS))
    )
    matrix, records, _ = extract(SeriesSet([series]), c, ExtractOptions(approve_sparsity=True))
    begin = series.index[0]
    end = series.index[-1]
    want = []
    k = 0
    while begin + k * s_sec * NS + w_sec * NS <= end:
        want.append(begin + k * s_sec * NS + w_sec * NS)
        k += 1
    assert list(matrix.index) == want
    assert records[0].n_segments == len(want)


def unique_merge(groups, results):
    """The outer join as np.unique of every grid's stamps and one
    searchsorted per group: the reference for features._merge."""
    active = [g for g in groups if g.grid.n_segments > 0]
    index_dtype = np.int64 if groups[0].grid.kind is IndexKind.TIME_NS else np.float64
    index = np.unique(np.concatenate([g.grid.output_index() for g in active]
                                     or [np.array([], dtype=index_dtype)]))
    index = index.astype(index_dtype, copy=False)
    columns = {}
    for gi, g in enumerate(groups):
        rows = np.searchsorted(index, g.grid.output_index())
        for fi, wrapper in enumerate(g.wrappers):
            for j, out_name in enumerate(wrapper.output_names):
                col = results[gi, fi][0][j]
                data = features._blank(col.tag, len(index))
                data[rows] = col.data
                missing = None
                if col.tag is ValueTag.I64:  # sum and count
                    missing = np.ones(len(index), dtype=bool)
                    missing[rows] = False
                columns[features.format_output_name(g.key[0], out_name, g.key[1], g.key[2])] = \
                    FeatureColumn(col.tag, data, None, missing)
    return FeatureMatrix(groups[0].grid.kind, index, columns)


@pytest.mark.parametrize("case", ["shared", "shared_and_empty", "mixed", "drift"])
def test_merge_equals_the_unique_join_bitwise(case):
    t = np.arange(0.0, 20.0, 0.5)
    a, b = time_series("A", t), time_series("B", t, values=-t)
    short = time_series("C", t[:3])
    windows = [("2s", "1s")]
    if case == "mixed":
        windows += [("3s", "2s"), ("1500ms", "500ms")]
    series = [a, b, short] if case == "shared_and_empty" else [a, b]
    if case == "drift":  # float64 spacing is 2 here: begin + k * 1.0 repeats stamps
        idx = 1e16 + 2.0 * np.arange(12)
        series = [numeric_series("A", idx), numeric_series("B", idx, values=-idx)]
        windows = [(1.0, 1.0)]
    c = FeatureCollection(FeatureDescriptor(s.name, builtin(f), w, st_)
                          for s in series for w, st_ in windows for f in ("sum", "count"))
    groups = features._resolve_groups(SeriesSet(series), c, OutputPosition.END)
    results = features._run_units(groups, 1)
    got = features._merge(groups, results)
    assert got.equals(unique_merge(groups, results))
    n_stamps = sum(g.grid.n_segments for g in groups if g.key[0] == ("A",))
    assert (got.n_rows < n_stamps) is (case in ("mixed", "drift"))


_POSITIONS = st.sampled_from(list(OutputPosition))
#: Grids as the segmenter builds them (begin + k * stride, plus the window
#: for END stamps): time grids, and numeric grids that cross zero or sit
#: past 2**53, where float drift repeats stamps.
_TIME_GRIDS = st.builds(lambda *a: SegmentGrid(IndexKind.TIME_NS, *a),
                        st.integers(-10**12, 10**12), st.integers(1, 10**9),
                        st.integers(1, 10**9), st.integers(0, 40), _POSITIONS)
_NUMERIC_GRIDS = st.builds(
    lambda *a: SegmentGrid(IndexKind.NUMERIC, *a),
    st.sampled_from([-3.0, -1.5, -0.5, -0.0, 0.0, 1e16, 1e16 + 2.0, -1e16])
    | st.floats(-100.0, 100.0),
    st.sampled_from([0.5, 1.0, 1.5, 0.1, 1 / 3]), st.sampled_from([0.5, 1.0, 0.25, 0.1, 1 / 3]),
    st.integers(0, 40), _POSITIONS)
#: Sorted stamp runs holding -0.0 and 0.0 in drawn order, which no grid
#: formula yields (-0.0 + 0.0 is 0.0).
_SIGNED_ZEROS = st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]), max_size=6).map(
    lambda xs: np.array(sorted(xs), dtype=np.float64))


@settings(max_examples=300)
@given(data=st.data(), time=st.booleans())
def test_grid_union_equals_np_unique_bitwise(data, time):
    grids = data.draw(st.lists(_TIME_GRIDS if time else _NUMERIC_GRIDS, min_size=1, max_size=4))
    stamps = [g.output_index() for g in grids]
    if not time:
        stamps += data.draw(st.lists(_SIGNED_ZEROS, max_size=3))
    dtype = np.int64 if time else np.float64
    got = features._union(stamps, dtype)
    expected = np.unique(np.concatenate([np.array([], dtype=dtype), *stamps]))
    assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())
