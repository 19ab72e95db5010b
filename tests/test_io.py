"""CSV round trips, timestamp parsing, and JSON config documents."""

import csv
import datetime as dt
import io
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from stridekit import (
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
    ValueColumn,
    ValueTag,
    builtin,
    builtin_processor,
    extract,
    load_csv,
    make_robust,
    parse_feature_config,
    parse_pipeline_config,
    parse_rfc3339_ns,
    format_rfc3339,
    read_json,
    run_pipeline,
    serialize_feature_config,
    serialize_pipeline_config,
    write_json,
    write_matrix,
    write_series_csv,
)
from stridekit.errors import (
    ConfigError,
    DuplicateHeader,
    InvalidDescriptor,
    IoError,
    KindMismatch,
    LengthMismatch,
    NonFloatOutput,
    NonMonotonicIndex,
    ParseError,
    StridekitError,
    UnknownBuiltin,
)

from stridekit import io as stridekit_io
from stridekit.calculators import BUILTIN_NAMES
from stridekit.series import render_number

from conftest import NS, numeric_series, time_series


# ---------------------------------------------------------------------------
# RFC 3339 timestamps
# ---------------------------------------------------------------------------

def test_parse_epoch_and_fractions():
    assert parse_rfc3339_ns("1970-01-01T00:00:00Z") == 0
    assert parse_rfc3339_ns("1970-01-01T00:00:01.5Z") == 1_500_000_000
    assert parse_rfc3339_ns("1970-01-01T00:00:00.000000001Z") == 1


def test_parse_applies_offsets():
    utc = parse_rfc3339_ns("2020-01-01T00:00:00Z")
    assert parse_rfc3339_ns("2020-01-01T01:00:00+01:00") == utc
    assert parse_rfc3339_ns("2019-12-31T18:30:00-05:30") == utc
    # Missing offset reads as UTC; space and lowercase separators accepted.
    assert parse_rfc3339_ns("2020-01-01T00:00:00") == utc
    assert parse_rfc3339_ns("2020-01-01 00:00:00z") == utc
    assert parse_rfc3339_ns("2020-01-01t00:00:00Z") == utc


@pytest.mark.parametrize(
    "bad",
    ["", "garbage", "2020-13-01T00:00:00Z", "2020-01-32T00:00:00Z",
     "2020-01-01T25:00:00Z", "2020-01-01T00:61:00Z", "20200101T000000Z",
     "2020-01-01T00:00:00.1234567890Z"],
)
def test_parse_rejects_malformed_timestamps(bad):
    with pytest.raises(ValueError):
        parse_rfc3339_ns(bad)


@pytest.mark.parametrize("bad", [
    "2020-01-01T00:00:00Z\n", "2020-01-01T00:00:00\n",
    "\u0662\u0660\u0662\u0660-01-01T00:00:00Z", "2020-01-01T00:00:0\uff15Z",
    "2020-01-01T00:00:00+0\u0661:00",
])
def test_parse_matches_ascii_digits_in_full(bad):
    with pytest.raises(ValueError, match="not an RFC 3339 timestamp"):
        parse_rfc3339_ns(bad)


def test_format_trims_fraction_to_unit_boundaries():
    assert format_rfc3339(0) == "1970-01-01T00:00:00Z"
    assert format_rfc3339(1_500_000_000) == "1970-01-01T00:00:01.500Z"
    assert format_rfc3339(1_500_000) == "1970-01-01T00:00:00.001500Z"
    assert format_rfc3339(1) == "1970-01-01T00:00:00.000000001Z"
    assert format_rfc3339(-1) == "1969-12-31T23:59:59.999999999Z"


@given(st.integers(min_value=-9_200_000_000_000_000_000,
                   max_value=9_200_000_000_000_000_000))
def test_rfc3339_round_trip(ns):
    assert parse_rfc3339_ns(format_rfc3339(ns)) == ns


def format_rfc3339_reference(ns: int) -> str:
    """Scalar oracle for the block stamp formatter: one datetime per stamp."""
    sec, frac = divmod(int(ns), 1_000_000_000)
    t = dt.datetime(1970, 1, 1) + dt.timedelta(seconds=sec)
    base = (
        f"{t.year:04d}-{t.month:02d}-{t.day:02d}"
        f"T{t.hour:02d}:{t.minute:02d}:{t.second:02d}"
    )
    if frac == 0:
        return base + "Z"
    if frac % 1_000_000 == 0:
        return f"{base}.{frac // 1_000_000:03d}Z"
    if frac % 1_000 == 0:
        return f"{base}.{frac // 1_000:06d}Z"
    return f"{base}.{frac:09d}Z"


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

# A whole second (pre-1970 ones included) plus a fraction of 0, 3, 6 or 9
# digits, or any int64, or a named edge.
stamps = st.one_of(
    st.builds(lambda sec, frac: sec * NS + frac,
              st.integers(min_value=INT64_MIN // NS + 1, max_value=INT64_MAX // NS - 1),
              st.one_of(st.just(0),
                        st.integers(0, 999).map(lambda f: f * 1_000_000),
                        st.integers(0, 999_999).map(lambda f: f * 1_000),
                        st.integers(0, NS - 1))),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([0, -1, 1, 999_999_999, -999_999_999, -NS, NS, INT64_MIN, INT64_MIN + 1,
                     INT64_MAX, INT64_MAX - 1, -1_000_000, -1_000]),
)


# The last instant of February and March 1 in century years, leap (2000) or not.
CENTURY_EDGES = [parse_rfc3339_ns(f"{year}-{day}Z") for year in (1700, 1800, 1900, 2100, 2200)
                 for day in ("02-28T23:59:59.999999999", "03-01T00:00:00")]


@settings(max_examples=300)
@given(st.lists(stamps, max_size=40))
@example([0, -1, 999_999_999, INT64_MIN, INT64_MAX])
@example(CENTURY_EDGES)
@example([parse_rfc3339_ns("2000-02-29T12:00:00.5Z"), -1_000_000, INT64_MIN + 1])
def test_block_stamp_formatter_equals_scalar_oracle(ns):
    cells = stridekit_io._format_stamps(np.array(ns, dtype=np.int64))
    assert cells == [format_rfc3339_reference(v) for v in ns]
    assert [format_rfc3339(v) for v in ns] == cells
    assert [format_rfc3339(np.int64(v)) for v in ns] == cells


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_parse_agrees_with_datetime64_rendering(ns):
    text = str(np.datetime64(ns, "ns"))
    assert parse_rfc3339_ns(text) == ns


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def write_text(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_time_indexed_columns(tmp_path):
    path = write_text(tmp_path / "acc.csv", [
        "index,ACC_x,ACC_y,ACC_z",
        "2020-01-01T00:00:00Z,1.0,2.0,3.0",
        "2020-01-01T00:00:01Z,4.0,5.0,6.0",
        "2020-01-01T00:00:02Z,7.0,8.0,9.0",
    ])
    series = load_csv(path)
    assert [s.name for s in series] == ["ACC_x", "ACC_y", "ACC_z"]
    base = parse_rfc3339_ns("2020-01-01T00:00:00Z")
    for s in series:
        assert s.kind is IndexKind.TIME_NS
        assert list(s.index) == [base, base + NS, base + 2 * NS]
        assert len(s) == 3
    assert list(series[0].values.data) == [1.0, 4.0, 7.0]


def test_load_numeric_index(tmp_path):
    path = write_text(tmp_path / "n.csv", [
        "index,V",
        "0.5,10",
        "1.5,20",
    ])
    (s,) = load_csv(path)
    assert s.kind is IndexKind.NUMERIC
    assert list(s.index) == [0.5, 1.5]
    assert s.values.tag is ValueTag.I64


def test_decreasing_index_names_row_seven(tmp_path):
    stamps = ["2020-01-01T00:00:0%dZ" % i for i in range(6)]
    stamps[5] = "2020-01-01T00:00:02Z"  # drops below its predecessor
    path = write_text(tmp_path / "bad.csv",
                      ["index,V"] + [f"{t},{i}" for i, t in enumerate(stamps)])
    with pytest.raises(NonMonotonicIndex) as err:
        load_csv(path)
    assert "row 7" in str(err.value)
    series = load_csv(path, sort=True)
    assert list(np.diff(series[0].index) >= 0) == [True] * 5


def test_sort_is_stable_for_equal_keys(tmp_path):
    path = write_text(tmp_path / "dup.csv", [
        "index,V",
        "5,first",
        "1,early",
        "5,second",
    ])
    (s,) = load_csv(path, sort=True)
    decoded = [s.values.decode(c) for c in s.values.data]
    assert decoded == ["early", "first", "second"]


def test_unparseable_timestamp_names_row(tmp_path):
    path = write_text(tmp_path / "bad.csv", [
        "index,V",
        "2020-01-01T00:00:00Z,1",
        "not-a-time,2",
    ])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 3" in str(err.value)


@pytest.mark.parametrize("first", ["2020-01-01T00:00:00Z", '"2020-01-01T00:00:00Z\n"'])
def test_quoted_time_cell_with_a_line_end_names_its_row(tmp_path, first):
    path = tmp_path / "lf.csv"
    path.write_text(f'index,V\n{first},1\n"2020-01-01T00:00:01Z\n",2\n', encoding="utf-8")
    with pytest.raises(ParseError, match="row 2" if "\n" in first else "row 3"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["2020-01-01T00:01", "2020-01-02"])
def test_truncated_timestamp_names_row_even_when_all_cells_parse(tmp_path, cell):
    # numpy alone would accept every cell of this column.
    path = write_text(tmp_path / "short.csv", [
        "index,V",
        "2020-01-01T00:00:00Z,1",
        f"{cell},2",
    ])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 3: not an RFC 3339 timestamp" in str(err.value)


def test_offset_timestamps_load_exactly_without_warnings(tmp_path):
    path = write_text(tmp_path / "offsets.csv", [
        "index,V",
        "2020-01-01T01:00:00+01:00,1",
        "2019-12-31T18:30:00.5-05:30,2",
        "2020-01-01t00:00:01z,3",
        "2020-01-01 00:00:02.000000001,4",
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (s,) = load_csv(path)
    base = parse_rfc3339_ns("2020-01-01T00:00:00Z")
    assert s.index.tolist() == [base, base + NS // 2, base + NS, base + 2 * NS + 1]


def test_timestamp_outside_int64_nanoseconds_names_row(tmp_path):
    path = write_text(tmp_path / "old.csv", ["index,V", "1600-01-01T00:00:00Z,1"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 2" in str(err.value)


_STAMP_FORMS = st.tuples(
    st.integers(-(2**62), 2**62),                           # nanoseconds
    st.sampled_from(["T", "t", " "]),                       # date/time separator
    st.integers(0, 9),                                      # fraction digits
    st.sampled_from(["", "Z", "z", "+01:00", "-05:30", "+00:00", "-23:59"]),
)


def _render_stamp(ns, sep, digits, zone):
    text = format_rfc3339(ns)[:19].replace("T", sep)
    if digits:
        text += "." + f"{ns % NS:09d}"[:digits]
    return text + zone


@settings(max_examples=100)
@given(forms=st.lists(_STAMP_FORMS, min_size=1, max_size=20),
       cut=st.integers(0, 40))
def test_time_index_matches_per_cell_parser(tmp_path_factory, forms, cut):
    cells = [_render_stamp(*f) for f in forms]
    cells[0] = cells[0][:cut] or cells[0]  # sometimes a malformed first cell
    try:
        expected = [parse_rfc3339_ns(c) for c in cells]
    except ValueError:
        expected = None
    path = tmp_path_factory.mktemp("ts") / "t.csv"
    path.write_text("index,V\n" + "".join(f"{c},0\n" for c in cells), encoding="utf-8")
    if expected is None:
        with pytest.raises(ParseError):
            load_csv(str(path), kind_hint=IndexKind.TIME_NS, sort=True)
    else:
        (s,) = load_csv(str(path), kind_hint=IndexKind.TIME_NS, sort=True)
        assert s.index.tolist() == sorted(expected)


def test_kind_hint_forces_index_interpretation(tmp_path):
    path = write_text(tmp_path / "n.csv", ["timestamp,V", "0.5,1", "1.5,2"])
    (s,) = load_csv(path, index_column="timestamp")
    assert s.kind is IndexKind.NUMERIC
    with pytest.raises(ParseError) as err:
        load_csv(path, index_column="timestamp", kind_hint=IndexKind.TIME_NS)
    assert "row 2" in str(err.value)


def test_structural_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(IoError):
        load_csv(str(missing))
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_csv(str(empty))
    no_index = write_text(tmp_path / "noidx.csv", ["time,V", "1,2"])
    with pytest.raises(ParseError):
        load_csv(no_index)
    dup = write_text(tmp_path / "dup.csv", ["index,V,V", "1,2,3"])
    with pytest.raises(DuplicateHeader):
        load_csv(dup)
    ragged = write_text(tmp_path / "ragged.csv", ["index,V", "1,2", "3"])
    with pytest.raises(ParseError) as err:
        load_csv(ragged)
    assert "row 3" in str(err.value)


def test_value_tag_inference(tmp_path):
    path = write_text(tmp_path / "tags.csv", [
        "index,flag,whole,frac,label,gappy",
        "0,true,4,0.5,walk,1",
        "1,false,-2,1.5,run,",
        "2,true,+7,2.5,walk,3",
    ])
    series = {s.name: s for s in load_csv(path)}
    assert series["flag"].values.tag is ValueTag.BOOL
    assert series["whole"].values.tag is ValueTag.I64
    assert list(series["whole"].values.data) == [4, -2, 7]
    assert series["frac"].values.tag is ValueTag.F64
    assert series["label"].values.tag is ValueTag.CATEGORICAL
    # An empty cell turns an otherwise integer column into floats with NaN.
    gappy = series["gappy"].values.data
    assert series["gappy"].values.tag is ValueTag.F64
    assert gappy[0] == 1.0 and math.isnan(gappy[1]) and gappy[2] == 3.0


def test_nonnumeric_tokens_become_categorical(tmp_path):
    # "1_0" fails the strict numeric grammar, so the column is labels.
    path = write_text(tmp_path / "odd.csv", ["index,V", "0,1_0", "1,2"])
    (s,) = load_csv(path)
    assert s.values.tag is ValueTag.CATEGORICAL


def test_empty_cell_in_label_column_rejected(tmp_path):
    path = write_text(tmp_path / "bad.csv", ["index,V", "0,walk", "1,", "2,run"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 3" in str(err.value)


@pytest.mark.parametrize("cell", ["99999999999999999999", "9223372036854775808",
                                  "-9223372036854775809"])
def test_integer_outside_int64_names_column_and_row(tmp_path, cell):
    path = write_text(tmp_path / "big.csv", ["index,N", "0,1", f"1,{cell}", "2,3"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == f"row 3: integer {cell!r} in column 'N' is outside the I64 range"


@pytest.mark.parametrize("data, row, byte", [
    (b"index,V\n0,walk\n1,caf\xe9\n2,run\n", 3, "0xe9"),
    (b"ind\xffex,V\n0,1\n", 1, "0xff"),
    # A quoted line break keeps the fourth line inside row 2; a truncated
    # two-byte sequence is reported at its first byte.
    (b'index,V\r\n0,"two\r\nlines"\r\n1,\xc3\r\n', 3, "0xc3"),
])
def test_invalid_utf8_names_file_and_row(tmp_path, data, row, byte):
    path = tmp_path / "bytes.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert str(err.value) == f"row {row}: {path}: not valid UTF-8 (byte {byte})"


@pytest.mark.parametrize("data, row", [
    (b'index,V\n1,"' + b"x" * 200_000 + b'"\n', 2),
    # Rows are counted as records: the quoted line break keeps row 2 one row.
    (b'index,V\r\n0,"two\r\nlines"\r\n1,"' + b"x" * 200_000 + b'"\r\n', 3),
], ids=["first-row", "after-a-quoted-line-break"])
def test_quoted_field_over_the_csv_limit_names_file_row_and_limit(tmp_path, data, row):
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    limit = csv.field_size_limit()
    assert str(err.value) == f"row {row}: {path}: field larger than field limit ({limit})"


def test_quoted_field_at_the_csv_limit_loads(tmp_path):
    path = tmp_path / "long.csv"
    label = "x" * csv.field_size_limit()
    path.write_bytes(b'index,V\n0,"' + label.encode() + b'"\n1,y\n')
    (s,) = load_csv(str(path))
    assert s.values.categories[s.values.data[0]] == label


#: load_csv's number grammar, matched in full on ASCII digits only.
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?(?:inf|nan)",
                       re.ASCII | re.IGNORECASE)


def reference_numeric_index(cells):
    out = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if not _FLOAT_RE.fullmatch(cell):
            raise ParseError(f"bad numeric index value {cell!r}", row=2 + i)
        out[i] = float(cell)
        if math.isnan(out[i]):
            raise ParseError("index value is NaN", row=2 + i)
    return out


def reference_value_column(name, cells):
    """load_csv's column typing, cell by cell."""
    if cells and all(c in ("true", "false") for c in cells):
        return np.array([c == "true" for c in cells], dtype=np.bool_)
    if cells and all(_INT_RE.fullmatch(c) for c in cells):
        values = [int(c) for c in cells]
        for i, v in enumerate(values):
            if not -2**63 <= v < 2**63:
                raise ParseError(f"integer {cells[i]!r} in column {name!r} is outside the I64 "
                                 f"range", row=2 + i)
        return np.array(values, dtype=np.int64)
    if all(c == "" or _FLOAT_RE.fullmatch(c) for c in cells):
        return np.array([math.nan if c == "" else float(c) for c in cells], dtype=np.float64)
    for i, c in enumerate(cells):
        if c == "":
            raise ParseError(f"empty cell in non-numeric column {name!r}", row=2 + i)
    return np.array(cells, dtype=object)


def reference_load(path, index_column="index", kind_hint=None, sort=False):
    """load_csv by csv.reader and the per-cell parsers alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: file is empty, expected a header row")
    header, data = rows[0], rows[1:]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DuplicateHeader(f"{path}: repeated column names {dupes}")
    if index_column not in header:
        raise ParseError(f"{path}: no column named {index_column!r} in header")
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=i + 2)
    idx_pos = header.index(index_column)
    cells = [row[idx_pos] for row in data]
    kind = kind_hint
    if kind is None:
        probe = cells[0] if cells else ""
        kind = IndexKind.TIME_NS if stridekit_io._RFC_RE.fullmatch(probe) else IndexKind.NUMERIC
    if kind is IndexKind.TIME_NS:
        index = stridekit_io._parse_time_cells(cells, 2)
    else:
        index = reference_numeric_index(cells)
    columns = {
        name: reference_value_column(name, [row[pos] for row in data])
        for pos, name in enumerate(header) if pos != idx_pos
    }
    decreasing = np.flatnonzero(index[1:] < index[:-1])
    if len(decreasing):
        if not sort:
            raise NonMonotonicIndex(f"{path}: index decreases at row {decreasing[0] + 3} "
                                    f"(pass sort=True / --sort to sort)")
        order = np.argsort(index, kind="stable")
        index = index[order]
        columns = {n: v[order] for n, v in columns.items()}
    return [Series(name, index, values, kind=kind) for name, values in columns.items()]


def reference_error(path):
    """The ParseError load_csv raises where reference_load's own readers
    fail: on bytes that are not UTF-8, at the row of the first bad byte (the
    last row of the text before it with one character appended), and on a
    field longer than csv.field_size_limit(), at its record."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode("utf-8") + "?"
        row = sum(1 for _ in csv.reader(io.StringIO(before, newline="")))
        return ParseError(f"{path}: not valid UTF-8 (byte 0x{raw[exc.start]:02x})", row=row)
    rows = 0
    try:
        for _ in csv.reader(io.StringIO(text, newline="")):
            rows += 1
    except csv.Error as exc:
        return ParseError(f"{path}: {exc}", row=rows + 1)
    raise AssertionError(f"{path}: csv.reader reads it without an error")


def assert_loads_like_reference(path, **kw):
    try:
        expected = reference_load(path, **kw)
    except (UnicodeDecodeError, csv.Error):
        expected = reference_error(path)
    except StridekitError as exc:
        expected = exc
    if isinstance(expected, StridekitError):
        with pytest.raises(type(expected)) as err:
            load_csv(path, **kw)
        assert str(err.value) == str(expected)
        return
    got = load_csv(path, **kw)
    assert [s.name for s in got] == [s.name for s in expected]
    for g, e in zip(got, expected):
        assert g.kind is e.kind
        assert (g.index.dtype, g.index.tobytes()) == (e.index.dtype, e.index.tobytes())
        assert g.values.tag is e.values.tag
        assert (g.values.data.dtype, g.values.data.tobytes()) == (
            e.values.data.dtype, e.values.data.tobytes())
        assert g.values.categories == e.values.categories


_DECIMALS = st.from_regex(r"[+-]?[0-9]{1,20}\.[0-9]{0,20}([eE][+-]?[0-9]{1,3})?", fullmatch=True)
_FLOATS = st.floats(width=64).map(repr) | _DECIMALS | st.sampled_from(
    ["-0.0", "5e-324", "1e400", "-1E400", "inf", "-Inf", "+nan", "NaN", ".5", "5.", "1.e5",
     "0.123456789", "1.000000001e-7"])

_CELLS = {
    "int": st.integers(-10**6, 10**6).map(str) | st.sampled_from(["+7", "-0", "007"]),
    "wide_int": st.integers(-(10**20), 10**20).map(str),
    "float": _FLOATS,
    "gappy": _FLOATS | st.just(""),
    "empty": st.just(""),
    "bool": st.sampled_from(["true", "false"]),
    "label": st.sampled_from(["walk", "run, fast", 'say "hi"', "TRUE", "café", "two\nlines"]),
    # Tokens that numpy or float() would read as numbers but that keep a
    # column categorical.
    "near_numeric": st.sampled_from(["1_0", " 1", "1 ", "0x10", "infinity", "e5", ".", "+",
                                     "1e", "--1", "1.2.3", "nan1", "+-1", "True", "1\t",
                                     "5\n", "\u0661\u0662", "true\n", "\uff15"]),
}

_INDEX_CELLS = {
    "time": _STAMP_FORMS.map(lambda f: _render_stamp(*f)),
    "numeric": st.floats(allow_nan=False, width=64).map(repr)
    | st.integers(-10**6, 10**6).map(str)
    | st.sampled_from(["-0.0", "1e400", "nan", "x", "5\n", "\u0661"]),
}


_index_sort_key = {
    "time": parse_rfc3339_ns,
    "numeric": lambda c: float(c) if _FLOAT_RE.fullmatch(c) else 0.0,
}


@st.composite
def csv_documents(draw):
    n_rows = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(sorted(_INDEX_CELLS)))
    index = draw(st.lists(_INDEX_CELLS[kind], min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        index.sort(key=_index_sort_key[kind])
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        flavors = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=2,
                                unique=True))
        cells = st.one_of(*(_CELLS[f] for f in flavors))
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    rows = [["index", *(f"C{j}" for j in range(len(columns)))]]
    rows += [list(cells) for cells in zip(index, *columns)]
    defect = draw(st.sampled_from([None, None, None, "ragged", "blank", "extra"]))
    if defect and n_rows:
        at = draw(st.integers(1, n_rows))
        if defect == "ragged":
            rows[at] = rows[at][:-1]
        elif defect == "blank":
            rows.insert(at, [])
        else:
            rows[at] = rows[at] + ["1"]
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(out, quoting=quoting, lineterminator=end).writerows(rows)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(end)
    return text.encode("utf-8")


@settings(max_examples=300)
@given(doc=csv_documents(), sort=st.booleans())
def test_load_matches_csv_reader_reference(tmp_path_factory, doc, sort):
    path = tmp_path_factory.mktemp("ingest") / "doc.csv"
    path.write_bytes(doc)
    assert_loads_like_reference(str(path), sort=sort)


def test_float_cells_past_float64_load_as_inf_without_a_warning(tmp_path):
    path = tmp_path / "doc.csv"
    path.write_bytes(b"index,V\n20000.1E320,20000.1E320\n1e400,-1e400\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (series,) = load_csv(str(path), sort=True)
    assert series.index.tolist() == [math.inf, math.inf]
    assert series.values.data.tolist() == [math.inf, -math.inf]


@settings(max_examples=150)
@given(doc=csv_documents(), sort=st.booleans(), scan=st.integers(1, 40),
       gather=st.integers(1, 40), stamp_rows=st.integers(1, 4))
def test_load_block_edges_match_csv_reader_reference(tmp_path_factory, doc, sort, scan,
                                                     gather, stamp_rows):
    path = tmp_path_factory.mktemp("ingest") / "doc.csv"
    path.write_bytes(doc)
    # Small budgets put the delimiter scan's, the cell gather's and the
    # timestamp parser's block edges inside the drawn documents.
    with mock.patch.multiple(stridekit_io, _SCAN_BYTES=scan, _GATHER_BYTES=gather,
                             _STAMP_ROWS=stamp_rows):
        assert_loads_like_reference(str(path), sort=sort)


@pytest.mark.parametrize("doc", [
    b"index,V\n1,123456\n2,5\n",  # the last cell is shorter than the widest
    b"index,V\n1,123456\n2,5",
    b"index,V\r\n1,123456\r\n2,5\r\n",
    b"index,V\n1,2\r\n3,4\n",
    b'index,V\n1,"1.5"\n2,2\n',
    b"index,V\n1,1_0\n2,2\n",
    b"index,V\n1, 1\n2,2\n",
    b"index,V\r1,2\r3,4\r",
    b"index,V\n1,a\rb\n2,c\n",  # a lone CR inside a line ends a row
    b"index,V\r\n1,2\r\n3,4\r",
    b"index,V\n1,a\x00b\n2,c\n",
    b"index\n1\n\n3\n",
    b"index,V\n1,2\n\n",
    b"index,V\n",
    b"index,V",
    b"",
    b"\n1,2\n",
    b"\xef\xbb\xbfindex,V\n1,2\n",
    b"index,V,V\n1,2,3\n",
    b"index,V\n1,2,3\n",
    b"index,a,b\n1,2\n3,4,5,6\n",  # as many delimiters as two full rows
    b"index,V\n1,\n2,\n",
    b"index,V\n1,true\n2,\n",
    b"index,V\n1,true\n2,false\n",
    b"index,V\n1,123456789012345678\n2,-12345678901234567\n",
    b"index,V\n1,1234567890123456789\n",
    b"index,V\n1,9223372036854775807\n2,-9223372036854775808\n3,+000000000000000000007\n",
    b"index,V\n1," + b"1" * 70 + b"\n",
    b"index,V\n1,0." + b"1" * 70 + b"\n",
    b"index,V\n1,nan\n2,-nan\n",
    b"index,V\nnan,1\n",
    b"index,V\n2020-01-01T00:00:60Z,1\n2020-01-01 00:00:00.5+01:00,2\n",
    # Every field is held to csv.field_size_limit(), quoted or not.
    b"index,V\n1," + b"x" * 200_000 + b"\n",
    b"index," + b"x" * 200_000 + b"\n1,2\n",
    # A fixed-width bytes array would drop the trailing NUL.
    b"index,V\n1,5\x00\n2,6\n",
    b"index,V\n2020-01-01T00:00:00Z,1\n2020-01-01T00:00:01Z\x00,2\n",
    b'index,V\n1,"a\r\n',  # an unclosed quote keeps the last CRLF
])
def test_edge_documents_load_like_reference(tmp_path, doc):
    path = tmp_path / "doc.csv"
    path.write_bytes(doc)
    assert_loads_like_reference(str(path), sort=True)


_RAW_BYTES = st.sampled_from([b"0", b"1", b".", b"e", b",", b'"', b"\r", b"\n", b"\r\n", b"\0",
                              "\u00e9".encode(), b"\xff"])
#: Quoted cells, quotes csv.reader takes as literal bytes or ends a field
#: early on, and an unclosed one.
_QUOTES = st.sampled_from([b'"1"', b'"a,b"', b'"x""y"', b'"\r\n"', b'ab"c', b'"ab"c', b'"ab" ,d',
                           b'"'])
_RAW_ROWS = st.one_of(
    _STAMP_FORMS.map(lambda f: _render_stamp(*f).encode() + b",1\n"),
    st.integers(-5, 99).map(lambda i: b"%d,%d\n" % (i, i)),
    st.integers(-5, 99).map(lambda i: b"%d," % i),  # a row's start
)


@st.composite
def raw_documents(draw):
    """A header and then any bytes: pieces of rows, quotes, line ends, NULs
    and non-UTF-8 bytes mixed into stamp- and number-shaped rows."""
    header = draw(st.sampled_from([b"index,V\n", b"index\r\n", b'"index",V\n', b"V,index\n"]))
    pieces = st.lists(st.one_of(_RAW_BYTES, _QUOTES, _RAW_ROWS), max_size=24)
    end = st.sampled_from([b"", b"\n", b"\r\n", b"\r"])
    return header + b"".join(draw(pieces)) + draw(end)


@settings(max_examples=400)
@given(doc=raw_documents(), sort=st.booleans(),
       budgets=st.none() | st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 3)))
def test_raw_bytes_load_like_reference(tmp_path_factory, doc, sort, budgets):
    path = tmp_path_factory.mktemp("raw") / "doc.csv"
    path.write_bytes(doc)
    scan, gather, stamp_rows = budgets or (stridekit_io._SCAN_BYTES, stridekit_io._GATHER_BYTES,
                                           stridekit_io._STAMP_ROWS)
    with mock.patch.multiple(stridekit_io, _SCAN_BYTES=scan, _GATHER_BYTES=gather,
                             _STAMP_ROWS=stamp_rows):
        assert_loads_like_reference(str(path), sort=sort)


def test_load_peak_is_bounded_by_array_and_file_bytes(tmp_path):
    n = 100_000
    index = 1_700_000_000 * NS + np.arange(n, dtype=np.int64) * 31_250_000
    rng = np.random.default_rng(5)
    series = [Series(f"V{j}", index, np.round(rng.normal(0.0, 0.3, n), 3),
                     kind=IndexKind.TIME_NS) for j in range(3)]
    path = tmp_path / "big.csv"
    write_series_csv(series, path)
    tracemalloc.start()
    try:
        loaded = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = loaded[0].index.nbytes + sum(s.values.data.nbytes for s in loaded)
    assert array_bytes == 4 * 8 * n
    assert peak < 3 * array_bytes + path.stat().st_size


# ---------------------------------------------------------------------------
# The column decoder: numbers and timestamps from their bytes
# ---------------------------------------------------------------------------

def _decimal(sign, digits, point, zeros):
    """``digits`` with ``zeros`` leading zeros and a "." ``point`` digits
    from the left (none when None), after ``sign``."""
    text = "0" * zeros + digits
    if point is not None:
        point = min(point, len(text))
        text = text[:point] + "." + text[point:]
    return sign + text


_PLAIN_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)")
_SIGNIFICANDS = st.one_of(
    st.integers(1, 16).flatmap(lambda k: st.integers(10 ** (k - 1), 10 ** k - 1)),
    st.integers(-3, 3).map(lambda d: 2**53 + d),
    st.sampled_from([10**14, 10**15 - 1, 10**15, 10**16 - 1, 999999999999999]),
).map(str)
#: Number cells clustered at the fast path's edges (14, 15 and 16 digits,
#: significands within 3 of 2**53, leading zeros, signed zeros, a bare "."
#: at either end), and cells it hands on: more than 15 digits, exponents,
#: inf and nan.
_DECODER_NUMBERS = st.one_of(
    st.builds(_decimal, st.sampled_from(["", "-", "+"]), _SIGNIFICANDS,
              st.none() | st.integers(0, 20), st.integers(0, 3)),
    st.builds(lambda m, e: m + e, st.builds(_decimal, st.sampled_from(["", "-"]), _SIGNIFICANDS,
                                            st.none() | st.integers(0, 20), st.just(0)),
              st.from_regex(r"[eE][+-]?[0-9]{1,3}", fullmatch=True)),
    st.floats(width=64).map(repr),
    st.sampled_from(["-0", "-0.000", "0", "+0.0", ".5", "5.", "+5", "-.5", "0.1234567890123456789",
                     "123456789012345.6", "1234567890123456.7", "9007199254740993", "inf",
                     "-Inf", "nan", "+NaN", "1e400", "-1E400", "5e-324", "2.2250738585072014e-308"]),
)


@settings(max_examples=400)
@given(cells=st.lists(_DECODER_NUMBERS, min_size=1, max_size=30),
       rows=st.none() | st.integers(1, 4), index=st.booleans())
def test_number_decoder_is_bitwise_float_and_int(cells, rows, index):
    raw = np.array([c.encode() for c in cells])
    if index:
        decode, reference = stridekit_io._parse_numeric_index, reference_numeric_index
    else:
        decode = lambda raw, cells: stridekit_io._value_column("V", raw, cells)  # noqa: E731
        reference = lambda cells: reference_value_column("V", cells)  # noqa: E731
    try:
        expected = reference(cells)
    except ParseError as exc:  # a NaN index cell
        expected = exc
    with mock.patch.object(stridekit_io, "_STAMP_ROWS", rows or stridekit_io._STAMP_ROWS):
        if isinstance(expected, ParseError):
            with pytest.raises(ParseError) as err:
                decode(raw, lambda: cells)
            assert str(err.value) == str(expected)
            return
        got = decode(raw, lambda: cells)
    assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())
    # the fast path takes every plain decimal of at most 15 digits
    _, _, code = stridekit_io._numbers(raw, lambda: cells)
    assert ((code & 127) != 127).tolist() == [
        bool(_PLAIN_DECIMAL.fullmatch(c)) and sum(map(str.isdigit, c)) <= 15 for c in cells]


@settings(max_examples=200)
@given(cells=st.lists(st.integers(-(10**17) + 1, 10**17 - 1).map(str)
                      | st.sampled_from(["-0", "+0", "+7", "007", "-000000000000000001"]),
                      min_size=1, max_size=30), rows=st.integers(1, 4))
def test_integer_decoder_is_int(cells, rows):
    raw = np.array([c.encode() for c in cells])
    with mock.patch.object(stridekit_io, "_STAMP_ROWS", rows):
        got = stridekit_io._value_column("V", raw, lambda: cells)
    assert got.dtype == np.int64 and got.tolist() == [int(c) for c in cells]


def _stamp(date, clock, sep, fraction, zone):
    (y, mo, d), (h, mi, s) = date, clock
    return f"{y:04d}-{mo:02d}-{d:02d}{sep}{h:02d}:{mi:02d}:{s:02d}{fraction}{zone}"


def _month_end(year, month):
    return (dt.date(year + month // 12, month % 12 + 1, 1) - dt.timedelta(days=1)).day


_STAMP_TAILS = (st.sampled_from(["T", "t", " "]),
                st.just("") | st.from_regex(r"\.[0-9]{1,9}", fullmatch=True),
                st.sampled_from(["", "Z", "z"])
                | st.from_regex(r"[+-](0[0-9]|1[0-9]|2[0-3]):[0-5][0-9]", fullmatch=True))
_CLOCKS = st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59) | st.just(60))
#: Stamp cells at the calendar's edges: month ends, Feb 29 of 2000 and
#: 2024, the first and last years of the decoder's 1678-2261 range, every
#: fraction length, both separators and cases, offsets, and second 60.
_GOOD_STAMPS = st.builds(
    _stamp,
    st.one_of(st.tuples(st.integers(1678, 2261), st.integers(1, 12), st.integers(1, 28)),
              st.tuples(st.sampled_from([1678, 1900, 2000, 2024, 2100, 2261]), st.integers(1, 12))
              .map(lambda ym: (*ym, _month_end(*ym))),
              st.sampled_from([(2000, 2, 29), (2024, 2, 29), (1904, 2, 29), (2260, 2, 29)])),
    _CLOCKS, *_STAMP_TAILS)
#: Cells the decoder must hand on: Feb 29 of 1900 and 2100, a day past a
#: month's end, fields out of range, and years outside 1678-2261 (1677 and
#: 2262 stamps that still fit int64 nanoseconds parse cell by cell).
_BAD_STAMPS = st.one_of(
    st.builds(_stamp, st.sampled_from([(1900, 2, 29), (2100, 2, 29), (2023, 2, 29), (2024, 4, 31),
                                       (2024, 2, 30), (2024, 0, 1), (2024, 13, 1), (2024, 1, 0),
                                       (2024, 1, 32), (1677, 12, 31), (1677, 1, 1), (2262, 1, 1),
                                       (2262, 12, 31)]), _CLOCKS, *_STAMP_TAILS),
    st.builds(_stamp, st.just((2024, 3, 1)), st.sampled_from([(24, 0, 0), (0, 60, 0), (0, 0, 61)]),
              *_STAMP_TAILS),
    # one byte replaced, which mostly breaks the layout
    st.builds(lambda cell, at, byte: cell[:at % len(cell)] + byte + cell[at % len(cell) + 1:],
              _GOOD_STAMPS, st.integers(0, 40), st.sampled_from(list("x:-T.Z+0 /"))))


@st.composite
def stamp_columns(draw):
    """Edge stamps, and in half the columns one cell the decoder hands on."""
    cells = draw(st.lists(_GOOD_STAMPS, min_size=1, max_size=30))
    if draw(st.booleans()):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_BAD_STAMPS)
    return cells


@settings(max_examples=400)
@given(cells=stamp_columns(), rows=st.none() | st.integers(1, 4))
def test_stamp_decoder_matches_per_cell_parser(cells, rows):
    raw = np.array([c.encode() for c in cells])
    try:
        expected = stridekit_io._parse_time_cells(cells, first_data_line=2)
    except ParseError as exc:
        expected = exc
    # the decoder takes a block exactly when each of its cells parses, in 1678-2261
    decoded = stridekit_io._parse_stamps(raw.copy())
    assert (decoded is None) == (isinstance(expected, ParseError)
                                 or not all("1678" <= c[:4] <= "2261" for c in cells))
    with mock.patch.object(stridekit_io, "_STAMP_ROWS", rows or stridekit_io._STAMP_ROWS):
        if isinstance(expected, ParseError):
            with pytest.raises(ParseError) as err:
                stridekit_io._parse_time_index(raw, lambda: cells)
            assert str(err.value) == str(expected)
        else:
            got = stridekit_io._parse_time_index(raw, lambda: cells)
            assert got.tolist() == expected.tolist()


def test_mixed_fast_and_fallback_column_loads_like_reference(tmp_path):
    path = tmp_path / "doc.csv"
    path.write_bytes(b"index,V\n0.5,0.1\n1,1e5\n1.5,0.12345678901234567\n2,-0\n2.5,inf\n"
                     b"3,9007199254740993\n3.5,.5\n4,\n4.5,-123456789012345.6\n5,5.\n")
    assert_loads_like_reference(str(path))


# ---------------------------------------------------------------------------
# write_series_csv round trips
# ---------------------------------------------------------------------------

def test_float_round_trip_with_nan(tmp_path):
    vals = np.array([0.1, -0.0, 1e-17, math.nan, 3.5e300])
    s = time_series("F", [0, 1, 2, 3, 4], values=vals)
    path = tmp_path / "f.csv"
    write_series_csv([s], path)
    (back,) = load_csv(str(path))
    assert back.kind is IndexKind.TIME_NS
    assert list(back.index) == list(s.index)
    assert np.array_equal(back.values.data, vals, equal_nan=True)
    # Signed zero survives repr.
    assert math.copysign(1.0, back.values.data[1]) == -1.0


def test_bool_int_categorical_round_trip(tmp_path):
    idx = np.arange(4.0)
    flags = numeric_series("flags", idx, values=np.array([True, False, False, True]))
    counts = numeric_series("counts", idx, values=np.array([1, -2, 3, 4], dtype=np.int64))
    labels = numeric_series(
        "labels", idx,
        values=np.array(['walk', 'run, fast', 'say "hi"', 'walk'], dtype=object),
    )
    path = tmp_path / "mix.csv"
    write_series_csv([flags, counts, labels], path)
    back = {s.name: s for s in load_csv(str(path))}
    assert back["flags"].values.tag is ValueTag.BOOL
    assert list(back["flags"].values.data) == [True, False, False, True]
    assert back["counts"].values.tag is ValueTag.I64
    assert list(back["counts"].values.data) == [1, -2, 3, 4]
    lab = back["labels"].values
    assert lab.tag is ValueTag.CATEGORICAL
    assert [lab.decode(c) for c in lab.data] == ['walk', 'run, fast', 'say "hi"', 'walk']


def test_labels_that_only_look_numeric_round_trip_as_labels(tmp_path):
    # a trailing LF and non-ASCII digits are outside the number grammar
    labels = ["5\n", "\u0661\u0662", "7"]
    s = numeric_series("L", np.arange(3.0), values=np.array(labels, dtype=object))
    path = tmp_path / "labels.csv"
    write_series_csv([s], path)
    (back,) = load_csv(str(path))
    assert back.values.tag is ValueTag.CATEGORICAL
    assert [back.values.decode(c) for c in back.values.data] == labels


def test_float32_reloads_as_float64_with_exact_values(tmp_path):
    vals = (np.arange(5, dtype=np.float32) / 3).astype(np.float32)
    s = numeric_series("S", np.arange(5.0), values=vals)
    assert s.values.tag is ValueTag.F32
    path = tmp_path / "f32.csv"
    write_series_csv([s], path)
    (back,) = load_csv(str(path))
    assert back.values.tag is ValueTag.F64
    assert np.array_equal(back.values.data, vals.astype(np.float64))


def test_labels_keep_trailing_nuls_and_stay_distinct():
    s = numeric_series("L", np.arange(3.0), values=np.array(["a\0", "a", "b\0c"], dtype=object))
    assert s.values.categories == ("a", "a\0", "b\0c")
    assert s.values.data.tolist() == [1, 0, 2]


@pytest.mark.skipif(not stridekit_io._CSV_NUL, reason="csv reads NUL from Python 3.11")
def test_labels_ending_in_nul_reload(tmp_path):
    path = tmp_path / "nul.csv"
    path.write_bytes(b"index,L\n0,a\0\n1,\0\n2,a\n")
    (back,) = load_csv(str(path))
    assert [back.values.decode(c) for c in back.values.data] == ["a\0", "\0", "a"]
    labels = np.array(["\0", "a\0", "a", "\0\0"], dtype=object)
    write_series_csv([numeric_series("L", np.arange(4.0), values=labels)], path)
    (back,) = load_csv(str(path))
    assert back.values.tag is ValueTag.CATEGORICAL
    assert [back.values.decode(c) for c in back.values.data] == labels.tolist()


def test_write_series_requires_alignment(tmp_path):
    a = numeric_series("A", np.arange(3.0))
    b = numeric_series("B", np.arange(3.0) + 0.5)
    c = time_series("C", [0, 1, 2])
    with pytest.raises(LengthMismatch):
        write_series_csv([a, b], tmp_path / "x.csv")
    with pytest.raises(KindMismatch):
        write_series_csv([a, c], tmp_path / "x.csv")
    with pytest.raises(LengthMismatch):
        write_series_csv([], tmp_path / "x.csv")


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=1, max_size=30, unique=True))
@example(xs=[-0.0, 2.5])  # written as "-0.0", read back with its sign
def test_numeric_index_round_trip(tmp_path_factory, xs):
    tmp = tmp_path_factory.mktemp("idx")
    idx = np.array(sorted(xs))
    s = numeric_series("S", idx)
    path = tmp / "s.csv"
    write_series_csv([s], path)
    (back,) = load_csv(str(path))
    assert back.index.tobytes() == idx.tobytes()


# ---------------------------------------------------------------------------
# write_matrix
# ---------------------------------------------------------------------------

def small_matrix():
    t = np.arange(0.0, 100.25, 0.25)
    data = SeriesSet([time_series("TMP", t, values=20.0 + 0.01 * np.arange(len(t)))])
    c = FeatureCollection([
        FeatureDescriptor("TMP", builtin("mean"), "30s", "10s"),
        FeatureDescriptor("TMP", builtin("std"), "1m", "10s"),
    ])
    return extract(data, c).matrix


def test_write_matrix_shape_and_nan_cells(tmp_path):
    matrix = small_matrix()
    path = tmp_path / "out.csv"
    write_matrix(matrix, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == matrix.n_rows + 1
    assert lines[0] == "index,TMP__mean__w=30s_s=10s,TMP__std__w=1m_s=10s"
    # The first three rows predate the first complete 1-minute window.
    first = lines[1].split(",")
    assert first[0] == format_rfc3339(int(matrix.index[0]))
    assert first[2] == ""
    assert lines[4].split(",")[2] != ""


def test_write_matrix_golden_cells_for_every_tag(tmp_path):
    # Two grids over one series: w=2/s=2 ends at 2, 4, 6 and w=3/s=3 at 3, 6,
    # so each grid's columns have holes where only the other grid has a row.
    s = numeric_series("S", np.arange(8.0))
    c = FeatureCollection([
        FeatureDescriptor("S", FuncWrapper(lambda x: x[0] / 10, base_name="tenth",
                                           output_tags=[ValueTag.F32]), 2.0, 2.0),
        FeatureDescriptor("S", FuncWrapper(lambda x: int(x.sum()), base_name="total",
                                           output_tags=[ValueTag.I64]), 2.0, 2.0),
        FeatureDescriptor("S", FuncWrapper(lambda x: bool(x[0] > 2), base_name="big",
                                           output_tags=[ValueTag.BOOL]), 3.0, 3.0),
        FeatureDescriptor("S", FuncWrapper(lambda x: "a,b" if x[0] < 3 else 'say "hi"',
                                           base_name="label",
                                           output_tags=[ValueTag.CATEGORICAL]), 3.0, 3.0),
    ])
    path = tmp_path / "out.csv"
    write_matrix(extract(SeriesSet([s]), c).matrix, path)
    assert path.read_bytes().decode("utf-8").split("\r\n") == [
        "index,S__tenth__w=2_s=2,S__total__w=2_s=2,S__big__w=3_s=3,S__label__w=3_s=3",
        "2,0.0,1,,",
        '3,,,false,"a,b"',
        "4,0.20000000298023224,5,,",
        '6,0.4000000059604645,9,true,"say ""hi"""',
        "",
    ]


def test_write_matrix_is_byte_stable(tmp_path):
    matrix = small_matrix()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix(matrix, a)
    write_matrix(small_matrix(), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_empty_matrix_header_only(tmp_path):
    data = SeriesSet([numeric_series("S", np.arange(0.0, 5.0))])
    c = FeatureCollection([FeatureDescriptor("S", builtin("mean"), 50.0, 10.0)])
    matrix = extract(data, c).matrix
    assert matrix.n_rows == 0
    path = tmp_path / "empty.csv"
    write_matrix(matrix, path)
    assert path.read_bytes() == b"index,S__mean__w=50_s=10\r\n"
    # no groups at all: no index kind, an empty float64 index, the index header
    result = extract(data, FeatureCollection())
    assert result.matrix.kind is None and result.matrix.n_columns == 0
    assert result.matrix.index.dtype == np.float64 and result.matrix.n_rows == 0
    assert result.log_records == [] and result.sparsity_warnings == []
    write_matrix(result.matrix, path)
    assert path.read_bytes() == b"index\r\n"


# ---------------------------------------------------------------------------
# the writers' float formatter against repr and render_number
# ---------------------------------------------------------------------------

def float_cells(x, index_rule=False):
    """The writers' cells of the float64 array ``x``: as a value column, or
    as a numeric index (render_number's rule)."""
    columns = [] if index_rule else [(ValueTag.F64, x, None, None)]
    index = x if index_rule else np.zeros(len(x))
    text = stridekit_io._row_bytes(IndexKind.NUMERIC, index, columns, eol=False).decode()
    cells = text.split(",")[:-1]
    return cells if index_rule else cells[1::2]


def bits_of(*values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


EDGE_FLOATS = bits_of(
    5e-324, -5e-324, 1e-323, 3 * 5e-324, 2.225073858507201e-308, 2.0 ** -1022,
    2.0 ** -1021, 1e-4, 9.999999999999999e-05, 1e-05, 1e16, 9999999999999998.0,
    1e15, 1.0000000000000002e16, 2.0 ** 53, 0.1, 0.3, 100.0, 123.0, 1e22, 1e23,
    2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 1e100, 1.7976931348623157e308, -0.0, 0.0,
    math.inf, -math.inf, math.nan, -math.nan)


@settings(max_examples=400)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1),
                          st.floats(width=64).map(lambda v: bits_of(v)[0])),
                min_size=1, max_size=64))
@example(EDGE_FLOATS)
@example(bits_of(*(2.0 ** np.arange(-1074, 1024))))  # the interval below is half the one above
@example(bits_of(*np.nextafter(2.0 ** np.arange(-1074, 1024), 0)))
@example(bits_of(*(-(2.0 ** np.arange(-1074, 1024)))))
@example(list(range(1, 4096)))  # subnormals
def test_float_cells_are_repr_and_render_number_bitwise(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert float_cells(x) == ["" if v != v else repr(v) for v in x.tolist()]
    numbers = x[~np.isnan(x)]  # an index holds no NaN
    assert float_cells(numbers, index_rule=True) == [render_number(v) for v in numbers.tolist()]


@pytest.mark.parametrize("write", ["matrix", "series"])
@pytest.mark.parametrize("bad, row", [("name", 1), ("label", 4)])
def test_unencodable_text_is_refused_before_the_file_is_opened(tmp_path, write, bad, row):
    odd = "a\ud800"
    labels = ["x", "y", odd if bad == "label" else "z"]
    name = odd if bad == "name" else "L"
    path = tmp_path / "never.csv"
    with pytest.raises(IoError) as err:
        if write == "matrix":
            column = FeatureColumn(ValueTag.CATEGORICAL, np.array(labels, dtype=object))
            write_matrix(FeatureMatrix(IndexKind.NUMERIC, np.arange(3.0), {name: column}), path)
        else:
            values = ValueColumn(ValueTag.CATEGORICAL, np.array([0, 1, 2], dtype=np.int32),
                                 tuple(labels))
            write_series_csv([Series(name, np.arange(3.0), values)], path)
    assert str(err.value).startswith(f"cannot write {path}: column {name!r} row {row}: "
                                     "'utf-8' codec can't encode character")
    assert not path.exists()


def test_an_unwritten_category_may_be_unencodable(tmp_path):
    values = ValueColumn(ValueTag.CATEGORICAL, np.array([0, 0], dtype=np.int32), ("a", "\ud800"))
    path = tmp_path / "ok.csv"
    write_series_csv([Series("L", np.arange(2.0), values)], path)
    assert path.read_bytes() == b"index,L\r\n0,a\r\n1,a\r\n"


# ---------------------------------------------------------------------------
# block writer against the csv.writer oracle
# ---------------------------------------------------------------------------

def reference_cells(tag, data, categories=None):
    values = data.tolist()
    if tag in (ValueTag.F64, ValueTag.F32):
        return ["" if v != v else repr(v) for v in values]
    if tag is ValueTag.BOOL:
        return ["" if v is None else "true" if v else "false" for v in values]
    if categories is not None:
        values = [categories[code] for code in values]
    return ["" if v is None else str(v) for v in values]


def reference_write(path, header, kind, index, columns):
    """The writers as they were before they streamed: every cell formatted
    first, then all rows through csv.writer. ``columns`` holds (tag, data,
    categories) per value column."""
    if kind is IndexKind.TIME_NS:
        index_cells = [format_rfc3339_reference(int(v)) for v in index]
    else:
        index_cells = [render_number(float(v)) for v in index]
    cells = [reference_cells(*c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(index_cells, *cells))


def written(write, path, *args):
    """The bytes ``write`` leaves at ``path``, or "refused" where it raises
    csv.Error or IoError: before Python 3.11, csv.writer refuses a NUL cell
    and the writers refuse it before the file is opened."""
    try:
        write(*args)
    except (csv.Error, IoError):
        return "refused"
    return path.read_bytes()


NASTY_LABELS = ["", "a,b", 'say "hi"', "cr\ronly", "lf\nonly", "crlf\r\n", "nul\0", "ünï€", "x",
                '"', ",", " lead", "trail "]
labels = st.one_of(st.sampled_from(NASTY_LABELS),
                   st.text(alphabet=st.sampled_from('ab ,"\r\n\0é'), max_size=4))
floats = st.one_of(st.floats(width=64), st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf,
                                                          5e-324, -5e-324, 1e16, 0.1]))
TAGS = [ValueTag.F64, ValueTag.F32, ValueTag.I64, ValueTag.BOOL, ValueTag.CATEGORICAL]


@st.composite
def value_cells(draw, tag, n):
    """``n`` cells of one FeatureMatrix column of ``tag``."""
    if tag in (ValueTag.F64, ValueTag.F32):
        dtype = np.float64 if tag is ValueTag.F64 else np.float32
        with np.errstate(over="ignore"):
            return np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=dtype)
    cell = {ValueTag.I64: st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
            ValueTag.BOOL: st.booleans(), ValueTag.CATEGORICAL: labels}[tag]
    data = np.empty(n, dtype=object)
    data[:] = draw(st.lists(st.one_of(st.none(), cell), min_size=n, max_size=n))
    return data


@st.composite
def sorted_index(draw, kind, n):
    """``n`` increasing stamps (from int64's extremes too) or numbers."""
    if kind is IndexKind.TIME_NS:
        start = draw(st.sampled_from([0, -3 * NS - 7, 1_700_000_000 * NS, INT64_MIN,
                                      INT64_MAX - 40 * NS]))
        steps = draw(st.lists(st.sampled_from([1, 1_000, 1_000_000, NS, 250_000_000, 7]),
                              min_size=n, max_size=n))
        return start + np.cumsum([0, *steps[1:]], dtype=np.int64)[:n]
    steps = draw(st.lists(st.sampled_from([0.1, 1.0, 2.5, 1e-7, 3e15]), min_size=n, max_size=n))
    return draw(st.sampled_from([0.0, -5.0, 1e15])) + np.cumsum(steps)


@settings(max_examples=150)
@given(data=st.data(),
       kind=st.sampled_from([IndexKind.TIME_NS, IndexKind.NUMERIC]),
       n_rows=st.integers(0, 25),
       tags=st.lists(st.sampled_from(TAGS), max_size=5),
       block_cells=st.sampled_from([1, 2, 5, 12, stridekit_io.WRITE_BLOCK_CELLS]))
def test_write_matrix_equals_csv_writer_oracle(tmp_path_factory, data, kind, n_rows, tags,
                                               block_cells):
    names = [data.draw(st.sampled_from(["c", "a,b", 'q"q', "nl\nx", "é", "", "m" * 3]))
             + str(j) for j in range(len(tags))]
    index = data.draw(sorted_index(kind, n_rows))
    cells = [(tag, data.draw(value_cells(tag, n_rows))) for tag in tags]
    matrix = FeatureMatrix(kind, index, {name: FeatureColumn(tag, c)
                                         for name, (tag, c) in zip(names, cells)})
    tmp = tmp_path_factory.mktemp("w")
    expected = written(reference_write, tmp / "ref.csv", tmp / "ref.csv", ["index", *names],
                       kind, index, [(tag, c, None) for tag, c in cells])
    # Small budgets put block boundaries inside the drawn row counts.
    with mock.patch.object(stridekit_io, "WRITE_BLOCK_CELLS", block_cells):
        assert written(write_matrix, tmp / "out.csv", matrix, tmp / "out.csv") == expected


@st.composite
def series_column(draw, tag, n):
    """Values for ``Series`` of ``tag``: typed arrays, labels as a dictionary."""
    if tag is ValueTag.I64:
        return np.array(draw(st.lists(st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
                                      min_size=n, max_size=n)), dtype=np.int64)
    if tag is ValueTag.BOOL:
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if tag is ValueTag.CATEGORICAL:
        cats = tuple(draw(st.lists(labels, min_size=1, max_size=5, unique=True)))
        codes = draw(st.lists(st.integers(0, len(cats) - 1), min_size=n, max_size=n))
        return ValueColumn(tag, np.array(codes, dtype=np.int32), cats)
    return draw(value_cells(tag, n))


@settings(max_examples=150)
@given(data=st.data(),
       kind=st.sampled_from([IndexKind.TIME_NS, IndexKind.NUMERIC]),
       n_rows=st.integers(0, 25),
       tags=st.lists(st.sampled_from(TAGS), min_size=1, max_size=4),
       index_column=st.sampled_from(["index", "t,s", 'say "t"', "line\r\nbreak", "ß"]),
       block_cells=st.sampled_from([1, 2, 5, 12, stridekit_io.WRITE_BLOCK_CELLS]))
def test_write_series_csv_equals_csv_writer_oracle(tmp_path_factory, data, kind, n_rows, tags,
                                                   index_column, block_cells):
    index = data.draw(sorted_index(kind, n_rows))
    series = [Series(data.draw(st.sampled_from(["S", "a,b", 'q"q', "nl\nx", "é"])) + str(j),
                     index, data.draw(series_column(tag, n_rows)), kind=kind)
              for j, tag in enumerate(tags)]
    tmp = tmp_path_factory.mktemp("w")
    columns = [(s.values.tag, s.values.data, s.values.categories) for s in series]
    expected = written(reference_write, tmp / "ref.csv", tmp / "ref.csv",
                       [index_column, *(s.name for s in series)], kind, index, columns)
    with mock.patch.object(stridekit_io, "WRITE_BLOCK_CELLS", block_cells):
        got = written(write_series_csv, tmp / "out.csv", series, tmp / "out.csv", index_column)
    assert got == expected


@pytest.mark.parametrize("block_cells", [1, 2, stridekit_io.WRITE_BLOCK_CELLS])
def test_label_edge_cases_equal_csv_writer_oracle(tmp_path, block_cells):
    big = "x" * 50_000 + '",\r\n\0' + "y" * 50_000  # a 100 KB label that needs quotes
    a = np.array(["\r\n", '"', big, None, 'a"b', "\0", "", "z\0"], dtype=object)
    b = np.array([None, "z\0", ",", '\r\n"', "", "q", big, "\0\0"], dtype=object)
    index = np.arange(8.0)
    matrix = FeatureMatrix(IndexKind.NUMERIC, index, {  # every value column a label
        "a": FeatureColumn(ValueTag.CATEGORICAL, a), 'b"': FeatureColumn(ValueTag.CATEGORICAL, b)})
    cats = ("\r\n", '"', big, "\0", "q,")
    codes = np.array([2, 0, 1, 3, 4, 2, 3, 0], dtype=np.int32)
    series = [Series("L", index, ValueColumn(ValueTag.CATEGORICAL, codes, cats)),
              Series("F", index, np.array([0.5, -0.0, math.nan, 1e300, 2.0, 3.0, 4.0, 5.0]))]
    ref_matrix = written(reference_write, tmp_path / "rm.csv", tmp_path / "rm.csv",
                         ["index", "a", 'b"'], IndexKind.NUMERIC, index,
                         [(ValueTag.CATEGORICAL, a, None), (ValueTag.CATEGORICAL, b, None)])
    ref_series = written(reference_write, tmp_path / "rs.csv", tmp_path / "rs.csv",
                         ["index", "L", "F"], IndexKind.NUMERIC, index,
                         [(s.values.tag, s.values.data, s.values.categories) for s in series])
    with mock.patch.object(stridekit_io, "WRITE_BLOCK_CELLS", block_cells):
        assert written(write_matrix, tmp_path / "m.csv", matrix, tmp_path / "m.csv") == ref_matrix
        got = written(write_series_csv, tmp_path / "s.csv", series, tmp_path / "s.csv")
        assert got == ref_series


def test_nul_is_refused_before_the_file_is_opened_where_csv_cannot_read_it(tmp_path):
    path = tmp_path / "never.csv"
    index = np.arange(3.0)
    used = ValueColumn(ValueTag.CATEGORICAL, np.array([0, 1, 1], dtype=np.int32), ("a", "b\0"))
    labels = FeatureColumn(ValueTag.CATEGORICAL, np.array(["a", None, "\0"], dtype=object))
    cases = [
        (lambda: write_series_csv([numeric_series("S", index)], path, "i\0"), "'i\\x00' row 1"),
        (lambda: write_matrix(FeatureMatrix(IndexKind.NUMERIC, index, {"L": labels}), path),
         "'L' row 4"),
        (lambda: write_series_csv([Series("L", index, used)], path), "'L' row 3"),
    ]
    unused = ValueColumn(ValueTag.CATEGORICAL, np.array([0, 0], dtype=np.int32), ("a", "b\0"))
    with mock.patch.object(stridekit_io, "_CSV_NUL", False):
        for write, where in cases:
            with pytest.raises(IoError) as err:
                write()
            assert str(err.value) == (f"cannot write {path}: column {where}: "
                                      "NUL is unreadable by csv before Python 3.11")
            assert not path.exists()
        write_series_csv([Series("L", np.arange(2.0), unused)], path)
    assert path.read_bytes() == b"index,L\r\n0,a\r\n1,a\r\n"


@st.composite
def reloadable_values(draw, tag, n):
    """Values of ``Series`` of ``tag`` that load_csv types back as ``tag``:
    labels non-empty (an empty one is a ParseError on load), as text or as a
    dictionary with unused entries, the empty one among them."""
    if tag is not ValueTag.CATEGORICAL:
        return draw(series_column(tag, n))
    cells = draw(st.lists(labels.filter(bool), min_size=n, max_size=n))
    if draw(st.booleans()):
        return np.array(cells, dtype=object)
    cats = tuple(dict.fromkeys(draw(st.lists(labels, max_size=2)) + cells))
    return ValueColumn(tag, np.array([cats.index(c) for c in cells], dtype=np.int32), cats)


@settings(max_examples=400)
@given(data=st.data(),
       kind=st.sampled_from([IndexKind.TIME_NS, IndexKind.NUMERIC]),
       n_rows=st.integers(1, 25),
       tags=st.lists(st.sampled_from(TAGS), min_size=1, max_size=4))
def test_written_series_reload_to_their_values(tmp_path_factory, data, kind, n_rows, tags):
    index = data.draw(sorted_index(kind, n_rows))
    series = [Series(f"S{j}", index, data.draw(reloadable_values(tag, n_rows)), kind=kind)
              for j, tag in enumerate(tags)]
    for s in series:  # the documented exceptions: labels that load as numbers or BOOL
        if s.values.tag is ValueTag.CATEGORICAL:
            text = [s.values.decode(c) for c in s.values.data]
            assume(not all(_FLOAT_RE.fullmatch(t) for t in text))
            assume(not all(t in ("true", "false") for t in text))
            assume(stridekit_io._CSV_NUL or not any("\0" in t for t in text))
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_series_csv(series, path)
    back = load_csv(str(path), kind_hint=kind)
    assert [b.name for b in back] == [s.name for s in series]
    for s, b in zip(series, back):
        assert b.kind is kind and b.index.tobytes() == s.index.tobytes()
        if s.values.tag in (ValueTag.F64, ValueTag.F32):  # F32 widened exactly
            x, nan = s.values.data.astype(np.float64), np.isnan(s.values.data)
            assert b.values.tag is ValueTag.F64
            assert np.isnan(b.values.data).tolist() == nan.tolist()
            assert b.values.data[~nan].tobytes() == x[~nan].tobytes()
        elif s.values.tag is ValueTag.CATEGORICAL:
            assert b.values.tag is ValueTag.CATEGORICAL
            assert ([b.values.decode(c) for c in b.values.data]
                    == [s.values.decode(c) for c in s.values.data])
        else:
            assert b.values.tag is s.values.tag
            assert b.values.data.tolist() == s.values.data.tolist()


def write_peak(write, *args) -> int:
    """tracemalloc's peak over one call of ``write``."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wide_values(rows):
    """Six float columns with NaN, and an int and a bool object column with None."""
    rng = np.random.default_rng(7)
    floats = [rng.normal(0.0, 1e3, rows) for _ in range(6)]
    for f in floats:
        f[::5] = np.nan
    counts = np.array([None, 4, 5, 6] * (rows // 4), dtype=object)
    flags = np.array([True, None, False, False] * (rows // 4), dtype=object)
    return floats, counts, flags


def assert_peak_bounded(peak_of_rows):
    peak_of_rows(5_000)  # a first write over full blocks fills numpy's and Python's caches
    small, large = peak_of_rows(50_000), peak_of_rows(100_000)
    assert large < 2_000_000
    assert abs(large - small) <= 0.1 * small


def test_write_matrix_extra_peak_does_not_grow_with_rows(tmp_path):
    def peak(rows):
        floats, counts, flags = wide_values(rows)
        cols = {f"F{j}": FeatureColumn(ValueTag.F64, f) for j, f in enumerate(floats)}
        cols["count"] = FeatureColumn(ValueTag.I64, counts)
        cols["flag"] = FeatureColumn(ValueTag.BOOL, flags)
        cols["label"] = FeatureColumn(ValueTag.CATEGORICAL, np.array(
            ["walk", None, "run, fast", 'say "hi"'] * (rows // 4), dtype=object))
        index = 1_700_000_000 * NS + np.arange(rows, dtype=np.int64) * 31_250_000
        return write_peak(write_matrix, FeatureMatrix(IndexKind.TIME_NS, index, cols),
                          tmp_path / f"m{rows}.csv")
    assert_peak_bounded(peak)


def test_write_series_csv_extra_peak_does_not_grow_with_rows(tmp_path):
    def peak(rows):
        floats, _, _ = wide_values(rows)
        index = 1_700_000_000 * NS + np.arange(rows, dtype=np.int64) * 31_250_000
        labels = ValueColumn(ValueTag.CATEGORICAL, (np.arange(rows) % 3).astype(np.int32),
                             ("walk", "run, fast", 'say "hi"'))
        values = [*floats, np.arange(rows, dtype=np.int64), labels]
        series = [Series(f"V{j}", index, v, kind=IndexKind.TIME_NS) for j, v in enumerate(values)]
        return write_peak(write_series_csv, series, tmp_path / f"s{rows}.csv")
    assert_peak_bounded(peak)


@pytest.mark.parametrize("big", [2**63, -2**63 - 1, 2**70])
@pytest.mark.parametrize("rows", [3, stridekit_io.WRITE_BLOCK_CELLS + 5])
def test_an_i64_cell_outside_int64_is_refused_before_the_file_is_opened(tmp_path, big, rows):
    # the column is typed when it is built, so no writer meets such a cell
    cells = np.array([7] * (rows - 2) + [big, None], dtype=object)
    with pytest.raises(LengthMismatch) as err:
        FeatureColumn(ValueTag.I64, cells)
    assert str(err.value) == f"i64 column cell {rows - 2}: an I64 output must fit int64, got {big}"
    edges = np.array([INT64_MIN, None, INT64_MAX], dtype=object)
    ok = tmp_path / "edges.csv"
    write_matrix(FeatureMatrix(IndexKind.NUMERIC, np.arange(3.0),
                               {"n": FeatureColumn(ValueTag.I64, edges)}), ok)
    assert ok.read_bytes() == f"index,n\r\n0,{INT64_MIN}\r\n1,\r\n2,{INT64_MAX}\r\n".encode()


def test_write_series_rejects_codes_outside_the_dictionary_before_opening(tmp_path):
    bad = ValueColumn(ValueTag.CATEGORICAL, np.array([0, 2], dtype=np.int32), ("a", "b"))
    path = tmp_path / "never.csv"
    with pytest.raises(LengthMismatch, match="codes outside its 2 categories"):
        write_series_csv([Series("L", np.array([0.0, 1.0]), bad)], path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# feature config documents
# ---------------------------------------------------------------------------

FEATURE_DOC = {
    "features": [
        {
            "series": "TMP",
            "functions": [
                {"name": "mean"},
                {"name": "quantile", "params": {"q": 0.25}},
                {"name": "std", "params": {}, "robust": {"min_samples": 4}},
            ],
            "windows": ["30s"],
            "strides": ["10s"],
        },
        {
            "series": [["ACC_x", "ACC_y"]],
            "functions": [{"name": "count", "robust": {"min_samples": 1, "fill_value": 0}}],
            "windows": ["5s"],
            "strides": ["2500ms"],
        },
    ],
    "options": {"approve_sparsity": True, "n_workers": 2, "output_position": "begin"},
}


def test_parse_feature_config_builds_collection():
    collection, options = parse_feature_config(FEATURE_DOC)
    assert collection.n_groups == 2
    cols = collection.column_names()
    assert "TMP__quantile_0.25__w=30s_s=10s" in cols
    assert "ACC_x|ACC_y__count__w=5s_s=2500ms" in cols
    assert options.approve_sparsity is True
    assert options.n_workers == 2
    assert options.output_position is OutputPosition.BEGIN


def test_robust_duplicate_of_plain_function_conflicts():
    # The robust-wrapped mean shares base name and output name with the plain
    # mean on the same group, which would collide in the output matrix.
    doc = {
        "features": [{
            "series": "TMP",
            "functions": [{"name": "mean"}, {"name": "mean", "robust": {"min_samples": 2}}],
            "windows": ["30s"], "strides": ["10s"],
        }]
    }
    with pytest.raises(StridekitError):
        parse_feature_config(doc)


def test_feature_config_round_trip_is_idempotent():
    doc = {
        "features": [
            {
                "series": "TMP",
                "functions": [
                    {"name": "mean"},
                    {"name": "quantile", "params": {"q": 0.25}},
                ],
                "windows": ["30s"],
                "strides": ["10s"],
            },
            {
                "series": [["ACC_x", "ACC_y"]],
                "functions": [{"name": "count", "robust": {"min_samples": 1, "fill_value": 0}}],
                "windows": ["5s"],
                "strides": ["2500ms"],
            },
        ],
    }
    collection, options = parse_feature_config(doc)
    serialized = serialize_feature_config(collection, options)
    collection2, options2 = parse_feature_config(serialized)
    assert collection.column_names() == collection2.column_names()
    assert options == options2
    assert serialize_feature_config(collection2, options2) == serialized


def test_multi_window_entry_expands_to_groups():
    doc = {
        "features": [{
            "series": ["TMP", "EDA"],
            "functions": [{"name": "mean"}],
            "windows": ["30s", "1m"],
            "strides": ["10s"],
        }]
    }
    collection, _ = parse_feature_config(doc)
    assert collection.n_groups == 4
    assert collection.n_descriptors == 4


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"features": []},
        {"features": "TMP"},
        {"features": [{"series": "TMP"}]},
        {"features": [{"series": [], "functions": [{"name": "mean"}],
                       "windows": ["30s"], "strides": ["10s"]}]},
        {"features": [{"series": "TMP", "functions": [],
                       "windows": ["30s"], "strides": ["10s"]}]},
        {"features": [{"series": "TMP", "functions": [{"name": "mean"}],
                       "windows": [], "strides": ["10s"]}]},
        {"features": [{"series": "TMP", "functions": [{"params": {}}],
                       "windows": ["30s"], "strides": ["10s"]}]},
        {"features": [{"series": "TMP", "functions": [{"name": "mean"}],
                       "windows": ["30s"], "strides": ["10s"], "extra": 1}]},
        {"features": [{"series": "TMP",
                       "functions": [{"name": "mean", "robust": {"min_samples": "1"}}],
                       "windows": ["30s"], "strides": ["10s"]}]},
        {"features": [{"series": "TMP", "functions": [{"name": "mean"}],
                       "windows": ["30s"], "strides": ["10s"]}],
         "options": {"n_workers": 0}},
        {"features": [{"series": "TMP", "functions": [{"name": "mean"}],
                       "windows": ["30s"], "strides": ["10s"]}],
         "options": {"output_position": "middle"}},
    ],
)
def test_feature_config_errors(doc):
    with pytest.raises(ConfigError):
        parse_feature_config(doc)


def test_feature_config_propagates_function_errors():
    bad_builtin = {
        "features": [{"series": "TMP", "functions": [{"name": "entropy"}],
                      "windows": ["30s"], "strides": ["10s"]}]
    }
    with pytest.raises(UnknownBuiltin):
        parse_feature_config(bad_builtin)
    nan_robust_count = {
        "features": [{"series": "TMP",
                      "functions": [{"name": "count", "robust": {"min_samples": 1}}],
                      "windows": ["30s"], "strides": ["10s"]}]
    }
    with pytest.raises(NonFloatOutput):
        parse_feature_config(nan_robust_count)
    bad_delta = {
        "features": [{"series": "TMP", "functions": [{"name": "mean"}],
                      "windows": ["thirty"], "strides": ["10s"]}]
    }
    with pytest.raises(StridekitError):
        parse_feature_config(bad_delta)


def _feature_doc(series="TMP", function=None, window="30s", options=None):
    doc = {"features": [{"series": series, "functions": [function or {"name": "mean"}],
                         "windows": [window], "strides": ["10s"]}]}
    if options is not None:
        doc["options"] = options
    return doc


@pytest.mark.parametrize("parse, doc, prefix, owner", [
    pytest.param(parse_feature_config, _feature_doc(series=["TMP", [5]]), "features[0]: ",
                 lambda: builtin_processor("clip", ["TMP", [5]], {"hi": 1.0}),
                 id="series-entry"),
    pytest.param(parse_feature_config, _feature_doc(series=7), "features[0]: ",
                 lambda: builtin_processor("clip", 7, {"hi": 1.0}), id="series-field"),
    pytest.param(parse_pipeline_config,
                 {"steps": [{"function": "clip", "series": [[]], "params": {"hi": 1.0}}]},
                 "steps[0]: ", lambda: builtin_processor("clip", [[]], {"hi": 1.0}),
                 id="pipeline-series-entry"),
    pytest.param(parse_feature_config,
                 _feature_doc(function={"name": "mean", "robust": {"fill_value": True}}),
                 "features[0].functions[0]: ",
                 lambda: make_robust(builtin("mean"), fill_value=True), id="bool-fill"),
    pytest.param(parse_feature_config,
                 _feature_doc(function={"name": "mean", "robust": {"fill_value": 10**400}}),
                 "features[0].functions[0]: ",
                 lambda: make_robust(builtin("mean"), fill_value=10**400), id="huge-fill"),
    pytest.param(parse_feature_config,
                 _feature_doc(function={"name": "mean", "robust": {"min_samples": -1}}),
                 "features[0].functions[0]: ",
                 lambda: make_robust(builtin("mean"), min_samples=-1), id="min-samples"),
    pytest.param(parse_feature_config,
                 _feature_doc(function={"name": "quantile", "params": {"q": 2}}),
                 "features[0].functions[0]: ", lambda: builtin("quantile", {"q": 2}),
                 id="builtin-params"),
    pytest.param(parse_feature_config, _feature_doc(window="0s"), "features[0]: ",
                 lambda: FeatureDescriptor("TMP", builtin("mean"), "0s", "10s"),
                 id="zero-window"),
    pytest.param(parse_feature_config, _feature_doc(options={"output_position": "middle"}),
                 "options: ", lambda: ExtractOptions(output_position="middle"),
                 id="output-position"),
    pytest.param(parse_feature_config, _feature_doc(options={"output_position": None}),
                 "options: ", lambda: ExtractOptions(output_position=None),
                 id="null-output-position"),
])
def test_config_rejects_what_the_library_rejects_with_the_entry_prefix(parse, doc, prefix,
                                                                        owner):
    with pytest.raises(StridekitError) as library:
        owner()
    with pytest.raises(ConfigError) as config:
        parse(doc)
    assert str(config.value) == prefix + str(library.value)


def test_serialize_rejects_custom_functions():
    c = FeatureCollection([
        FeatureDescriptor("S", FuncWrapper(lambda x: 0.0, base_name="custom"), 5.0, 1.0)
    ])
    with pytest.raises(ConfigError):
        serialize_feature_config(c)


@st.composite
def robust_builtins(draw):
    """A builtin wrapped 1 to 3 times by make_robust, with min_samples from
    0 and fills that may be NaN, -0.0, +-inf or integers int64 holds; a
    layering make_robust rejects is drawn again."""
    name = draw(st.sampled_from(BUILTIN_NAMES))
    wrapper = builtin(name, {"q": draw(st.floats(0, 1))} if name == "quantile" else None)
    fills = st.one_of(st.just(math.nan), st.floats(width=64, allow_nan=False),
                      st.integers(INT64_MIN, INT64_MAX))
    for _ in range(draw(st.integers(1, 3))):
        try:
            wrapper = make_robust(wrapper, draw(st.integers(0, 5)), draw(fills))
        except (InvalidDescriptor, NonFloatOutput):
            reject()
    return wrapper


@settings(max_examples=300)
@given(wrapper=robust_builtins())
@example(wrapper=make_robust(builtin("count"), 3, 2**53 + 1))  # not a float
@example(wrapper=make_robust(builtin("first"), 3, 5))  # an int fill for an I64 series
def test_a_robust_builtin_serializes_as_its_effective_rule(wrapper):
    collection = FeatureCollection([FeatureDescriptor("S", wrapper, 5.0, 1.0)])
    doc = serialize_feature_config(collection)
    parsed, _ = parse_feature_config(doc)
    [(_, [again])] = parsed.groups()
    assert again.min_samples == wrapper.min_samples
    assert (again.fills is None) == (wrapper.fills is None)
    for a, b in zip(again.fills or (), wrapper.fills or ()):
        assert type(a) is type(b)
        assert a == b or math.isnan(a) and math.isnan(b)
    assert parsed.column_names() == collection.column_names()
    assert serialize_feature_config(parsed) == doc


def test_a_nested_robust_builtin_serializes_its_outer_rule():
    inner = make_robust(builtin("mean"), 2, 0.0)
    for outer, entry in [(make_robust(inner, 3, 1.0),
                          {"name": "mean", "robust": {"min_samples": 3, "fill_value": 1.0}}),
                         (make_robust(inner, 0, 1.0),
                          {"name": "mean", "robust": {"min_samples": 2, "fill_value": 0.0}})]:
        c = FeatureCollection([FeatureDescriptor("S", outer, 5.0, 1.0)])
        assert serialize_feature_config(c)["features"][0]["functions"] == [entry]


# ---------------------------------------------------------------------------
# pipeline config documents
# ---------------------------------------------------------------------------

PIPELINE_DOC = {
    "steps": [
        {"function": "smv", "series": [["ACC_x", "ACC_y", "ACC_z"]],
         "params": {"output": "ACC_SMV"}},
        {"function": "median_filter", "series": "ACC_SMV", "params": {"size": 3}},
        {"function": "clip", "series": ["ACC_SMV"], "params": {"lo": 0.0}},
        {"function": "resample_linear", "series": "ACC_SMV", "params": {"period": "1s"}},
    ]
}


def test_parse_pipeline_config_and_run():
    pipeline = parse_pipeline_config(PIPELINE_DOC)
    assert len(pipeline) == 4
    t = np.arange(0.0, 4.0)
    data = SeriesSet([
        time_series("ACC_x", t, values=np.array([3.0, 0.0, 0.0, 1.0])),
        time_series("ACC_y", t, values=np.array([4.0, 0.0, 0.0, 2.0])),
        time_series("ACC_z", t, values=np.array([0.0, 5.0, 5.0, 2.0])),
    ])
    out = run_pipeline(pipeline, data)
    assert "ACC_SMV" in out.names()


def test_pipeline_config_round_trip_is_idempotent():
    pipeline = parse_pipeline_config(PIPELINE_DOC)
    serialized = serialize_pipeline_config(pipeline)
    again = serialize_pipeline_config(parse_pipeline_config(serialized))
    assert serialized == again
    # clip's unset bound is dropped rather than written as null.
    assert serialized["steps"][2]["params"] == {"lo": 0.0}
    assert serialized["steps"][3]["params"] == {"period": "1s"}


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"steps": "x"},
        {"steps": [{"series": "A"}]},
        {"steps": [{"function": "clip", "series": "A", "params": {"lo": 0.0}, "extra": 1}]},
        {"steps": [{"function": "clip", "series": 7, "params": {"lo": 0.0}}]},
    ],
)
def test_pipeline_config_errors(doc):
    with pytest.raises(ConfigError):
        parse_pipeline_config(doc)


def test_pipeline_config_unknown_processor():
    with pytest.raises(UnknownBuiltin):
        parse_pipeline_config({"steps": [{"function": "fft", "series": "A"}]})


def test_serialize_rejects_unregistered_steps():
    from stridekit import Pipeline, ProcessorStep

    p = Pipeline([ProcessorStep(lambda v: v.values, ["A"], label="custom")])
    with pytest.raises(ConfigError):
        serialize_pipeline_config(p)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "step 'clip' cannot be serialized: clip requires lo, hi, or both"),
    ({"lo": 0.0}, "step 'clip' is not a registered processor and cannot be serialized"),
])
def test_serialize_rejects_a_user_step_named_like_a_processor(kwargs, message):
    from stridekit import Pipeline, ProcessorStep

    def clip(view, lo=None):
        return view.values

    p = Pipeline([ProcessorStep(clip, ["A"], kwargs)])
    assert p.steps[0].label == "clip"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        serialize_pipeline_config(p)


# ---------------------------------------------------------------------------
# JSON file helpers
# ---------------------------------------------------------------------------

def test_json_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": [1, 2, {"b": "c"}]}, path)
    assert read_json(path) == {"a": [1, 2, {"b": "c"}]}
    with pytest.raises(IoError):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    for text in [b"{not json", b"[1" + b"0" * 5000 + b"]", b'["\xff"]']:
        bad.write_bytes(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            read_json(bad)
