"""The whole library path on random inputs: a feature config document goes
through parse_feature_config, extract at one and two workers, write_matrix
and load_csv. Only StridekitErrors may escape, the worker count may not
change a bit, sampled builtin cells match criterion 2's oracles, and the
written CSV reloads to the same cells."""

import dataclasses
import math
import os
import tempfile

import numpy as np
from hypothesis import event, given, settings, strategies as st

from stridekit import (
    BUILTIN_NAMES,
    IndexKind,
    Series,
    SeriesSet,
    StridekitError,
    ValueTag,
    extract,
    format_output_name,
    load_csv,
    parse_feature_config,
    write_matrix,
)
from stridekit.errors import ParseError
from stridekit.features import BlockKernel
from stridekit.segment import build_grid, intersect_spans, segment_positions
from stridekit.series import FLOAT_TAGS

from test_acceptance import _oracle_battery

NAMES = ("A", "B", "C")
LABELS = ("a", "b", "c")
BIG = (-2**63, -2**53 - 1, 2**53 + 1, 2**63 - 1)
# Steps in tenths of a second (time) or of an index unit (numeric); 0 repeats a stamp.
STEPS = (0, 1, 1, 1, 2, 7, 30)
WINDOWS = {IndexKind.TIME_NS: ("1ns", "100ms", "300ms", "1s", "2500ms"),
           IndexKind.NUMERIC: (1e-9, 0.1, 0.3, 1, 2.5)}
STRIDES = {IndexKind.TIME_NS: ("1ms", "100ms", "300ms", "1s"),
           IndexKind.NUMERIC: (1e-3, 0.1, 0.3, 1)}
# Any span is a whole number of tenths, so a 1ns-scale stride on a window
# shorter than the span asks for more than features.MAX_SEGMENTS windows.
FINE = {IndexKind.TIME_NS: ("1ns", "2ns"), IndexKind.NUMERIC: (1e-9, 2e-9)}
BAD_DELTAS = ("0s", "-1s", "soon", 0, -1, "1s", 2)

garbage = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3),
                    st.lists(st.integers(), max_size=2))


def mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


def output_key(entry):
    """A function entry's output name: entries that share it would be a
    DuplicateFeature."""
    return repr((entry.get("name"), entry.get("params"))) if isinstance(entry, dict) else repr(entry)


FLOAT_CELLS = st.one_of(st.floats(-1e3, 1e3, width=32),
                        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 3e38]))


@st.composite
def series_of(draw, name, kind, tags=tuple(ValueTag), float_cells=FLOAT_CELLS):
    tag = draw(st.sampled_from(tags))
    n = draw(mostly(st.integers(2, 40), st.sampled_from([0, 1])))
    steps = np.array(draw(st.lists(st.sampled_from(STEPS), min_size=max(n - 1, 0),
                                   max_size=max(n - 1, 0))), dtype=np.int64)
    start = draw(st.integers(0, 5))
    if kind is IndexKind.TIME_NS:
        index = (start + np.concatenate([[0], np.cumsum(steps)])[:n]) * 100_000_000
    else:  # float drift: the steps' tenths summed one by one
        index = start * 0.1 + np.cumsum(np.concatenate([[0.0], steps * 0.1]))[:n]
    if tag in FLOAT_TAGS:
        values = np.array(draw(st.lists(float_cells, min_size=n, max_size=n)),
                          dtype=np.float32 if tag is ValueTag.F32 else np.float64)
    elif tag is ValueTag.I64:
        cells = st.one_of(st.integers(-50, 50), st.sampled_from(BIG))
        values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
    elif tag is ValueTag.BOOL:
        values = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        values = np.array(draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)),
                          dtype=object)
    series = Series(name, index, values, kind=kind)
    assert series.values.tag is tag
    return series


@st.composite
def series_sets(draw):
    kind = draw(st.sampled_from(list(IndexKind)))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    return kind, SeriesSet(draw(series_of(name, kind)) for name in names)


robust = mostly(
    st.fixed_dictionaries({"min_samples": st.sampled_from([0, 1, 2, 5]),
                           "fill_value": st.sampled_from([0.0, 1, -2.5])}),
    st.fixed_dictionaries({}, optional={
        "min_samples": st.sampled_from([1, -1, 1.5, "x"]),
        "fill_value": st.sampled_from([math.nan, 2**70, "x"])}))


def builtin_entry(name):
    """A well-formed entry of builtin ``name``, nine times in ten made robust:
    a bare builtin fails on the empty windows a gapped series has."""
    entry = {"name": st.just(name)}
    if name == "quantile":
        entry["params"] = st.fixed_dictionaries({"q": st.sampled_from(
            [0.0, 0.1, 0.25, 0.5, 0.7, 0.75, 1.0])})
    return mostly(st.fixed_dictionaries({**entry, "robust": robust}), st.fixed_dictionaries(entry))


function_entry = mostly(
    st.sampled_from(BUILTIN_NAMES).flatmap(builtin_entry),
    st.fixed_dictionaries({"name": st.sampled_from(BUILTIN_NAMES) | garbage},
                          optional={"params": st.fixed_dictionaries({"q": garbage}) | garbage,
                                    "robust": robust | garbage}) | garbage)


def documents(kind, names):
    window = mostly(st.sampled_from(WINDOWS[kind]), st.sampled_from(BAD_DELTAS))
    stride = mostly(st.sampled_from(STRIDES[kind] * 8 + FINE[kind]), st.sampled_from(BAD_DELTAS))
    entry = mostly(st.sampled_from(names), st.sampled_from([["A", "B"], "Z"]) | garbage)
    feature = mostly(st.fixed_dictionaries({
        "series": st.lists(entry, min_size=1, max_size=3, unique_by=repr),
        "functions": st.lists(function_entry, min_size=1, max_size=4, unique_by=output_key),
        "windows": st.lists(window, min_size=1, max_size=2, unique_by=repr),
        "strides": st.lists(stride, min_size=1, max_size=2, unique_by=repr),
    }), garbage)
    options = st.fixed_dictionaries({}, optional={
        "approve_sparsity": mostly(st.booleans(), garbage),
        "output_position": mostly(st.sampled_from(["begin", "end"]), garbage)})
    return mostly(st.fixed_dictionaries({"features": st.lists(feature, min_size=1, max_size=2)},
                                        optional={"options": options}), garbage)


def outcome(series_set, collection, options, n_workers):
    try:
        return extract(series_set, collection,
                       dataclasses.replace(options, n_workers=n_workers)).matrix
    except StridekitError as exc:
        return f"{type(exc).__name__}: {exc}"


def matrix_cells(column):
    """A matrix column's cells, None where missing."""
    if column.tag in FLOAT_TAGS:
        return [None if math.isnan(v) else v for v in column.data.astype(np.float64).tolist()]
    return column.data.tolist()


def loaded_cells(series):
    if series.values.tag is ValueTag.CATEGORICAL:
        return [series.values.decode(c) for c in series.values.data.tolist()]
    if series.values.tag is ValueTag.F64:
        return [None if math.isnan(v) else v for v in series.values.data.tolist()]
    return series.values.data.tolist()


def same_cell(want, got):
    if want is None or got is None:
        return want is got
    if isinstance(got, float):  # floats by bits (-0.0), ints through the F64 an empty cell forces
        return np.float64(want).tobytes() == np.float64(got).tobytes()
    return type(want) is type(got) and want == got


def assert_reloads(matrix, path):
    """load_csv reads the written matrix back cell for cell, under the
    README's typing rules; it may only refuse a label or boolean column that
    is missing some cells but not all, as the README documents. A column
    name holds "__", which a series name may not, so the header is renamed
    to C0, C1, ... before the reload."""
    write_matrix(matrix, path)
    with open(path, "rb") as fh:
        header, rows = fh.read().split(b"\r\n", 1)
    assert header.decode() == ",".join(["index", *matrix.column_names])
    names = [f"C{i}" for i in range(matrix.n_columns)]
    with open(path, "wb") as fh:
        fh.write(",".join(["index", *names]).encode() + b"\r\n" + rows)
    try:
        loaded = load_csv(path)
    except ParseError as exc:
        event("reload: ParseError")
        assert "empty cell in non-numeric column" in str(exc)
        partial = [name for name in matrix.column_names
                   if matrix[name].tag not in FLOAT_TAGS
                   and len({v is None for v in matrix[name].data.tolist()}) == 2]
        assert partial, exc
        return
    event(f"reload: {'rows' if matrix.n_rows else 'empty'}")
    assert [s.name for s in loaded] == names
    for name, series in zip(matrix.column_names, loaded):
        if matrix.n_rows:
            assert series.kind is matrix.kind
            assert series.index.tobytes() == matrix.index.tobytes()
        want, got = matrix_cells(matrix[name]), loaded_cells(series)
        assert len(want) == len(got)
        assert all(same_cell(a, b) for a, b in zip(want, got)), name


EXACT = ("count", "min", "max", "first", "last")
MOMENTS = ("sum", "mean", "var", "std", "rms", "abs_energy", "skewness", "kurtosis")
SAMPLED_ROWS = 12  # per column: the first and last window and evenly spaced ones


def assert_oracle_cells(series_set, collection, options, matrix):
    """Criterion 2's oracles (tests/test_acceptance.py) on sampled windows:
    count, min, max, first and last exactly, NaN for a min or max over a
    NaN, and the moment builtins of a float-tagged series within a relative
    1e-9 on windows of finite samples (math.fsum has no value for inf - inf).
    Windows below a function's min_samples hold its fill and are skipped."""
    exact, approx = _oracle_battery()
    for (names, w, s), wrappers in collection.groups():
        series = series_set[names[0]]
        grid = build_grid(*intersect_spans([series]), w, s, options.output_position)
        positions = segment_positions(series, grid).tolist()
        rows = np.searchsorted(matrix.index, grid.output_index()).tolist()
        stored = series.values.data.tolist()
        if series.values.tag is ValueTag.CATEGORICAL:
            stored = [series.values.decode(c) for c in stored]
        numbers = [float(v) for v in series.values.data.tolist()]
        for wrapper in wrappers:
            name = wrapper.func.name if isinstance(wrapper.func, BlockKernel) else None
            moment = name in MOMENTS and series.values.tag in FLOAT_TAGS
            if name not in EXACT and not moment:
                continue
            cells = matrix[format_output_name(names, wrapper.output_names[0], w, s)].data
            for j in sorted(set(np.linspace(0, len(rows) - 1, SAMPLED_ROWS).astype(int).tolist())
                            if rows else ()):
                lo, hi = positions[j]
                if hi - lo < wrapper.min_samples:
                    continue
                got, xs = cells[rows[j]], numbers[lo:hi]
                if moment:
                    if not all(map(math.isfinite, xs)):
                        event("oracle: non-finite moment window")
                        continue
                    want = approx[name](xs, None)
                    tol = 1e-9 * max(1.0, abs(want))
                    assert abs(float(got) - want) <= tol, (name, j, got, want)
                elif name in ("min", "max") and any(map(math.isnan, xs)):
                    assert got != got, (name, j, got)
                else:
                    want = exact[name](stored[lo:hi] if name in ("first", "last") else xs, None)
                    assert got == want or (got != got and want != want), (name, j, got, want)
                event(f"oracle: {name}")


@settings(max_examples=200)
@given(data=st.data())
def test_config_to_reloaded_csv_raises_only_stridekit_errors(data):
    kind, series_set = data.draw(series_sets())
    doc = data.draw(documents(kind, [s.name for s in series_set]))
    try:
        collection, options = parse_feature_config(doc)
    except StridekitError as exc:
        event(f"parse: {type(exc).__name__}")
        return
    one = outcome(series_set, collection, options, 1)
    two = outcome(series_set, collection, options, 2)
    if isinstance(one, str):
        event(f"extract: {one.split(':')[0]}")
        assert one == two
        return
    assert not isinstance(two, str), two
    assert one.equals(two)
    assert_oracle_cells(series_set, collection, options, one)
    with tempfile.TemporaryDirectory() as tmp:
        assert_reloads(one, os.path.join(tmp, "features.csv"))


@settings(max_examples=150)
@given(data=st.data())
def test_moment_builtins_match_the_oracle(data):
    """Only well-formed robust moment entries on finite float series, so
    that most sampled windows reach criterion 2's moment oracles."""
    kind = data.draw(st.sampled_from(list(IndexKind)))
    names = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    finite = st.one_of(st.floats(-1e3, 1e3, width=32), st.sampled_from([-0.0, 0.0, 3e38]))
    series_set = SeriesSet(
        data.draw(series_of(name, kind, (ValueTag.F32, ValueTag.F64), finite).filter(len))
        for name in names)
    moments = data.draw(st.lists(st.sampled_from(MOMENTS), min_size=1, unique=True))
    min_samples = data.draw(st.sampled_from([1, 2, 5]))
    doc = {"features": [{
        "series": names,
        "functions": [{"name": name, "robust": {"min_samples": min_samples}} for name in moments],
        # not WINDOWS[kind][0]: a 1ns (1e-9) window holds a single stamp
        "windows": data.draw(st.lists(st.sampled_from(WINDOWS[kind][1:]), min_size=1, max_size=2,
                                      unique=True)),
        "strides": [data.draw(st.sampled_from(STRIDES[kind]))],
    }]}
    collection, options = parse_feature_config(doc)
    matrix = extract(series_set, collection, options).matrix
    assert_oracle_cells(series_set, collection, options, matrix)
