"""CSV ingestion/emission and JSON configuration documents.

Formats, bit-exactly:

- Series CSV: header row; index first (RFC 3339 UTC timestamps for time
  indices, shortest round-trip decimals for numeric ones); one column per
  series. Value cells: floats as repr (NaN as the empty cell), integers
  as decimal text, booleans as ``true``/``false``, categorical labels
  verbatim. Timestamps written by this module always end in ``Z`` with the
  fraction trimmed to 0, 3, 6, or 9 digits.
- Feature config JSON: {"features": [{"series", "functions", "windows",
  "strides"}], "options": {...}} where a series entry is a name (single), a
  list of names (fan-out, one group per name), or a nested list (joint
  multi-series group); each function is {"name", "params"?, "robust"?}.
- Pipeline config JSON: {"steps": [{"function", "series", "params"}]} over
  the registered processors.

Column typing on load is inferred per column: all-``true``/``false`` cells
make BOOL, all plain integers make I64, anything fully numeric (empty cells
allowed, read as NaN) makes F64, everything else is dictionary-encoded
CATEGORICAL. Float32 data therefore reloads as F64: values survive exactly,
the narrower tag does not.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
import re

import numpy as np

from .errors import (
    ConfigError,
    DuplicateHeader,
    IoError,
    KindMismatch,
    LengthMismatch,
    NonMonotonicIndex,
    ParseError,
)
from .features import (
    ExtractOptions,
    FeatureCollection,
    FeatureMatrix,
    FuncWrapper,
    expand_multiple,
    make_robust,
)
from .calculators import builtin
from .processing import PROCESSOR_NAMES, Pipeline, ProcessorStep, builtin_processor
from .segment import OutputPosition
from .series import (
    Delta,
    FLOAT_TAGS,
    IndexKind,
    Series,
    SeriesSet,
    ValueTag,
    render_number,
)

# ---------------------------------------------------------------------------
# RFC 3339 timestamps <-> int64 nanoseconds
# ---------------------------------------------------------------------------

_RFC_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,9}))?"
    r"(Z|z|[+-]\d{2}:\d{2})?$"
)

_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()


def parse_rfc3339_ns(text: str) -> int:
    """One timestamp to integer nanoseconds since the epoch (UTC). A missing
    offset is read as UTC; explicit offsets are applied exactly."""
    m = _RFC_RE.match(text)
    if not m:
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
    y, mo, d, h, mi, s = (int(m.group(i)) for i in range(1, 7))
    try:
        days = _dt.date(y, mo, d).toordinal() - _EPOCH_ORDINAL
    except ValueError as exc:
        raise ValueError(f"bad calendar date in {text!r}: {exc}") from None
    if h > 23 or mi > 59 or s > 60:
        raise ValueError(f"bad clock time in {text!r}")
    total_s = days * 86_400 + h * 3_600 + mi * 60 + s
    offset = m.group(8)
    if offset and offset not in ("Z", "z"):
        sign = 1 if offset[0] == "+" else -1
        total_s -= sign * (int(offset[1:3]) * 3_600 + int(offset[4:6]) * 60)
    frac = m.group(7) or ""
    frac_ns = int(frac.ljust(9, "0")) if frac else 0
    return total_s * 1_000_000_000 + frac_ns


def format_rfc3339(ns: int) -> str:
    sec, frac = divmod(int(ns), 1_000_000_000)
    dt = _dt.datetime(1970, 1, 1) + _dt.timedelta(seconds=sec)
    base = (
        f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
        f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
    )
    if frac == 0:
        return base + "Z"
    if frac % 1_000_000 == 0:
        return f"{base}.{frac // 1_000_000:03d}Z"
    if frac % 1_000 == 0:
        return f"{base}.{frac // 1_000:06d}Z"
    return f"{base}.{frac:09d}Z"


# Byte columns that hold a digit in every timestamp: YYYY-MM-DD?hh:mm:ss.
_STAMP_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)


def _is_digit(column: np.ndarray) -> np.ndarray:
    return column - np.uint8(ord("0")) <= 9


def _parse_time_index_fast(cells: list[str]) -> np.ndarray | None:
    """Integer nanoseconds for a column whose every cell matches ``_RFC_RE``
    with a year in 1678-2261, or None so the caller parses cell by cell.

    The layout is checked on the cells' bytes, one byte column at a time.
    numpy then parses only the offset-free stamps: it warns on an offset, and
    for bytes input can crash on one, so offsets are cut off and applied
    here. The year limits keep every value inside int64 nanoseconds, where
    numpy would wrap silently. Calendar and clock checks are numpy's; it
    rejects the leap second 60, which the per-cell parser accepts.
    """
    try:
        raw = np.array(cells, dtype="S")
    except UnicodeEncodeError:
        return None
    n, width = len(cells), raw.dtype.itemsize
    if n == 0 or width < 19:
        return None
    b = raw.view(np.uint8).reshape(n, width)
    lengths = np.fromiter(map(len, cells), dtype=np.intp, count=n)
    ok = lengths >= 19
    for j in _STAMP_DIGITS:
        ok &= _is_digit(b[:, j])
    for j, ch in ((4, "-"), (7, "-"), (13, ":"), (16, ":")):
        ok &= b[:, j] == ord(ch)
    ok &= np.isin(b[:, 10], list(b"Tt "))
    year = (b[:, :4] - np.uint8(ord("0"))).astype(np.int32) @ np.array([1000, 100, 10, 1])
    ok &= (year >= 1678) & (year <= 2261)

    # Suffix: optional "." and 1-9 digits, then optional Z, z or +hh:mm/-hh:mm.
    rows = np.arange(n)
    last = b[rows, lengths - 1]
    zulu = (last == ord("Z")) | (last == ord("z"))
    sign = b[rows, lengths - 6]
    offset = (lengths >= 25) & ((sign == ord("+")) | (sign == ord("-")))
    offset &= b[rows, lengths - 3] == ord(":")
    for d in (5, 4, 2, 1):
        offset &= _is_digit(b[rows, lengths - d])
    stop = lengths - np.where(offset, 6, zulu)
    ok &= (stop == 19) | ((stop >= 21) & (stop <= 29))
    shift_ns = np.zeros(n, dtype=np.int64)
    if offset.any():
        r = np.flatnonzero(offset)
        digit = [b[r, lengths[r] - d].astype(np.int64) - ord("0") for d in (5, 4, 2, 1)]
        minutes = (digit[0] * 10 + digit[1]) * 60 + digit[2] * 10 + digit[3]
        shift_ns[r] = np.where(sign[r] == ord("+"), minutes, -minutes) * 60_000_000_000
    for j in range(19, width):
        inside = j < stop
        ok &= ~inside | (_is_digit(b[:, j]) if j > 19 else b[:, j] == ord("."))
        b[~inside, j] = 0
    if not ok.all():
        return None
    b[:, 10] = ord("T")
    try:
        ns = raw.astype("datetime64[ns]").view(np.int64)
    except ValueError:
        return None
    return ns - shift_ns


def _parse_time_index(cells: list[str], first_data_line: int) -> np.ndarray:
    fast = _parse_time_index_fast(cells)
    if fast is not None:
        return fast
    out = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        try:
            out[i] = parse_rfc3339_ns(cell)
        except ValueError as exc:
            raise ParseError(str(exc), row=first_data_line + i) from None
        except OverflowError:
            raise ParseError(
                f"timestamp {cell!r} is outside the int64 nanosecond range",
                row=first_data_line + i,
            ) from None
    return out


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$|^[+-]?(?:inf|nan)$", re.IGNORECASE)


def _parse_numeric_index(cells: list[str], first_data_line: int) -> np.ndarray:
    out = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if not _FLOAT_RE.match(cell):
            raise ParseError(f"bad numeric index value {cell!r}", row=first_data_line + i)
        v = float(cell)
        if math.isnan(v):
            raise ParseError("index value is NaN", row=first_data_line + i)
        out[i] = v
    return out


def _infer_value_column(name: str, cells: list[str], first_data_line: int):
    non_empty = [c for c in cells if c != ""]
    if non_empty and all(c in ("true", "false") for c in non_empty) and len(non_empty) == len(cells):
        return np.array([c == "true" for c in cells], dtype=np.bool_)
    if non_empty and len(non_empty) == len(cells) and all(_INT_RE.match(c) for c in cells):
        return np.array([int(c) for c in cells], dtype=np.int64)
    if all(c == "" or _FLOAT_RE.match(c) for c in cells):
        return np.array([math.nan if c == "" else float(c) for c in cells], dtype=np.float64)
    for i, c in enumerate(cells):
        if c == "":
            raise ParseError(
                f"empty cell in non-numeric column {name!r}", row=first_data_line + i
            )
    return np.asarray(cells)


def load_csv(path, index_column: str = "index", kind_hint: IndexKind | None = None,
             sort: bool = False) -> list[Series]:
    """Read one CSV into a list of Series sharing a single index array.

    Rows are numbered from 1 counting the header, so the first data row is
    row 2. A decreasing index is NonMonotonicIndex naming the offending row
    unless ``sort`` is set, which stable-sorts rows by index instead.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
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
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", row=i + 2
            )
    idx_pos = header.index(index_column)
    index_cells = [row[idx_pos] for row in data]

    kind = kind_hint
    if kind is None:
        probe = index_cells[0] if index_cells else ""
        kind = IndexKind.TIME_NS if _RFC_RE.match(probe) else IndexKind.NUMERIC
    if kind is IndexKind.TIME_NS:
        index = _parse_time_index(index_cells, first_data_line=2)
    else:
        index = _parse_numeric_index(index_cells, first_data_line=2)

    columns = {}
    for pos, name in enumerate(header):
        if pos == idx_pos:
            continue
        columns[name] = _infer_value_column(name, [row[pos] for row in data], 2)

    if len(index) > 1:
        decreasing = np.nonzero(index[1:] < index[:-1])[0]
        if len(decreasing):
            if not sort:
                raise NonMonotonicIndex(
                    f"{path}: index decreases at row {int(decreasing[0]) + 3} "
                    f"(pass sort=True / --sort to sort)"
                )
            order = np.argsort(index, kind="stable")
            index = index[order]
            columns = {n: np.asarray(v)[order] for n, v in columns.items()}
    return [Series(name, index, values, kind=kind) for name, values in columns.items()]


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _format_index_cells(kind: IndexKind, index: np.ndarray) -> list[str]:
    if kind is IndexKind.TIME_NS:
        return [format_rfc3339(int(v)) for v in index]
    return [render_number(float(v)) for v in index]


def _format_value_cells(tag: ValueTag, data: np.ndarray, categories=None) -> list[str]:
    """CSV cells of one value column: floats as repr, integers in decimal,
    booleans as true/false, labels verbatim, NaN and None as empty cells.
    ``categories`` decodes dictionary codes; columns that already hold labels
    pass none."""
    values = data.tolist()
    if tag in FLOAT_TAGS:
        return ["" if v != v else repr(v) for v in values]
    if tag is ValueTag.BOOL:
        return ["" if v is None else "true" if v else "false" for v in values]
    if categories is not None:
        values = [categories[code] for code in values]
    return ["" if v is None else str(v) for v in values]


def _write_csv(path, header: list[str], index_cells: list[str], columns: list[list[str]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(index_cells, *columns))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_matrix(matrix: FeatureMatrix, path) -> None:
    """Feature matrix to CSV: index first, NaN/None as empty cells; output is
    byte-stable for identical input."""
    names = matrix.column_names
    columns = [_format_value_cells(matrix[n].tag, matrix[n].data) for n in names]
    kind = matrix.kind if matrix.kind is not None else IndexKind.NUMERIC
    _write_csv(path, ["index", *names], _format_index_cells(kind, matrix.index), columns)


def write_series_csv(series_list: list[Series], path, index_column: str = "index") -> None:
    """Series sharing one index to CSV, reloadable by load_csv. All series
    must be index-aligned bitwise."""
    if not series_list:
        raise LengthMismatch("write_series_csv needs at least one series")
    ref = series_list[0]
    for s in series_list[1:]:
        if s.kind is not ref.kind:
            raise KindMismatch(f"{s.name!r} and {ref.name!r} have different index kinds")
        if len(s) != len(ref) or s.index.tobytes() != ref.index.tobytes():
            raise LengthMismatch(f"{s.name!r} is not index-aligned with {ref.name!r}")
    columns = [
        _format_value_cells(s.values.tag, s.values.data, s.values.categories)
        for s in series_list
    ]
    header = [index_column, *(s.name for s in series_list)]
    _write_csv(path, header, _format_index_cells(ref.kind, ref.index), columns)


# ---------------------------------------------------------------------------
# JSON configuration documents
# ---------------------------------------------------------------------------

def _expect_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set[str], what: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{what}: unknown keys {sorted(extra)}")


def _parse_series_field(raw, what: str):
    """name | [entries] where an entry is a name (own group) or a list of
    names (joint multi-series group)."""
    if isinstance(raw, str):
        return [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{what}: series must be a name or a non-empty list")
    entries = []
    for item in raw:
        if isinstance(item, str):
            entries.append(item)
        elif isinstance(item, list) and item and all(isinstance(n, str) for n in item):
            entries.append(tuple(item))
        else:
            raise ConfigError(f"{what}: bad series entry {item!r}")
    return entries


def _parse_function_entry(raw, what: str) -> FuncWrapper:
    entry = _expect_mapping(raw, what)
    _check_keys(entry, {"name", "params", "robust"}, what)
    if not isinstance(entry.get("name"), str):
        raise ConfigError(f"{what}: function name missing")
    params = entry.get("params", {})
    _expect_mapping(params, f"{what}: params")
    wrapper = builtin(entry["name"], params)
    robust = entry.get("robust")
    if robust is not None:
        robust = _expect_mapping(robust, f"{what}: robust")
        _check_keys(robust, {"min_samples", "fill_value"}, f"{what}: robust")
        min_samples = robust.get("min_samples", 1)
        if isinstance(min_samples, bool) or not isinstance(min_samples, int):
            raise ConfigError(f"{what}: robust min_samples must be an integer")
        fill = robust.get("fill_value", math.nan)
        if not isinstance(fill, (int, float)):
            raise ConfigError(f"{what}: robust fill_value must be a number")
        wrapper = make_robust(wrapper, min_samples=min_samples, fill_value=float(fill))
    return wrapper


def parse_feature_config(doc) -> tuple[FeatureCollection, ExtractOptions]:
    doc = _expect_mapping(doc, "feature config")
    _check_keys(doc, {"features", "options"}, "feature config")
    raw_features = doc.get("features")
    if not isinstance(raw_features, list) or not raw_features:
        raise ConfigError("feature config: 'features' must be a non-empty list")
    collection = FeatureCollection()
    for fi, raw in enumerate(raw_features):
        what = f"features[{fi}]"
        entry = _expect_mapping(raw, what)
        _check_keys(entry, {"series", "functions", "windows", "strides"}, what)
        series_entries = _parse_series_field(entry.get("series"), what)
        raw_funcs = entry.get("functions")
        if not isinstance(raw_funcs, list) or not raw_funcs:
            raise ConfigError(f"{what}: 'functions' must be a non-empty list")
        functions = [
            _parse_function_entry(f, f"{what}.functions[{i}]")
            for i, f in enumerate(raw_funcs)
        ]
        for axis in ("windows", "strides"):
            if not isinstance(entry.get(axis), list) or not entry[axis]:
                raise ConfigError(f"{what}: '{axis}' must be a non-empty list")
        windows = [Delta.coerce(w) for w in entry["windows"]]
        strides = [Delta.coerce(s) for s in entry["strides"]]
        collection.add(expand_multiple(functions, series_entries, windows, strides))

    options = ExtractOptions()
    raw_options = doc.get("options")
    if raw_options is not None:
        raw_options = _expect_mapping(raw_options, "options")
        _check_keys(raw_options, {"approve_sparsity", "n_workers", "output_position"}, "options")
        position = raw_options.get("output_position", "end")
        if position not in ("begin", "end"):
            raise ConfigError(f"options: output_position must be 'begin' or 'end', got {position!r}")
        n_workers = raw_options.get("n_workers", 1)
        if isinstance(n_workers, bool) or not isinstance(n_workers, int) or n_workers < 1:
            raise ConfigError(f"options: n_workers must be a positive integer, got {n_workers!r}")
        options = ExtractOptions(
            approve_sparsity=bool(raw_options.get("approve_sparsity", False)),
            n_workers=n_workers,
            output_position=OutputPosition.BEGIN if position == "begin" else OutputPosition.END,
        )
    return collection, options


def _recipe_to_json(wrapper: FuncWrapper) -> dict:
    recipe = wrapper.recipe
    robust = None
    if recipe is not None and recipe[0] == "robust":
        _, recipe, min_samples, fill = recipe
        robust = {"min_samples": min_samples}
        if not math.isnan(fill):
            robust["fill_value"] = fill
    if recipe is None or recipe[0] != "builtin":
        raise ConfigError(
            f"function {wrapper.base_name!r} has no builtin recipe and cannot be serialized"
        )
    _, name, params = recipe
    out: dict = {"name": name}
    if params:
        out["params"] = dict(params)
    if robust is not None:
        out["robust"] = robust
    return out


def serialize_feature_config(collection: FeatureCollection,
                             options: ExtractOptions | None = None) -> dict:
    features = []
    for (series_names, w, s), wrappers in collection.groups():
        series = series_names[0] if len(series_names) == 1 else [list(series_names)]
        features.append({
            "series": series,
            "functions": [_recipe_to_json(wr) for wr in wrappers],
            "windows": [w.render()],
            "strides": [s.render()],
        })
    doc: dict = {"features": features}
    if options is not None:
        doc["options"] = {
            "approve_sparsity": options.approve_sparsity,
            "n_workers": options.n_workers,
            "output_position": "begin" if options.output_position is OutputPosition.BEGIN else "end",
        }
    return doc


def parse_pipeline_config(doc) -> Pipeline:
    doc = _expect_mapping(doc, "pipeline config")
    _check_keys(doc, {"steps"}, "pipeline config")
    steps = doc.get("steps")
    if not isinstance(steps, list):
        raise ConfigError("pipeline config: 'steps' must be a list")
    pipeline = Pipeline()
    for si, raw in enumerate(steps):
        what = f"steps[{si}]"
        entry = _expect_mapping(raw, what)
        _check_keys(entry, {"function", "series", "params"}, what)
        if not isinstance(entry.get("function"), str):
            raise ConfigError(f"{what}: processor name missing")
        selector = _parse_series_field(entry.get("series"), what)
        params = entry.get("params", {})
        _expect_mapping(params, f"{what}: params")
        pipeline.add_step(builtin_processor(entry["function"], selector, params))
    return pipeline


def _param_to_json(value):
    if isinstance(value, Delta):
        return value.render()
    return value


def serialize_pipeline_config(pipeline: Pipeline) -> dict:
    steps = []
    for step in pipeline.steps:
        if step.label not in PROCESSOR_NAMES:
            raise ConfigError(
                f"step {step.label!r} is not a registered processor and cannot be serialized"
            )
        series = [
            entry if isinstance(entry, str) else list(entry)
            for entry in step.series_selector
        ]
        params = {
            k: _param_to_json(v) for k, v in step.bound_kwargs.items() if v is not None
        }
        steps.append({"function": step.label, "series": series, "params": params})
    return {"steps": steps}


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def write_json(obj, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
