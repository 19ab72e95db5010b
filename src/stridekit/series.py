"""Typed, index-sorted series containers and zero-copy views.

A :class:`Series` owns a sorted index (integer nanoseconds for time-indexed
data, float64 for numeric positions) and one value column. All windowing and
chunking machinery slices series through :class:`SeriesView`, which never
copies the underlying storage.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadParam,
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


class IndexKind(enum.Enum):
    """Index datatype: window/stride arithmetic happens in this unit."""

    TIME_NS = "time_ns"
    NUMERIC = "numeric"


class ValueTag(enum.Enum):
    F64 = "f64"
    F32 = "f32"
    I64 = "i64"
    BOOL = "bool"
    CATEGORICAL = "categorical"


FLOAT_TAGS = (ValueTag.F64, ValueTag.F32)
#: The dtype of a column of each tag: a CATEGORICAL column holds int32 codes.
DTYPES = {ValueTag.F64: np.float64, ValueTag.F32: np.float32, ValueTag.I64: np.int64,
          ValueTag.BOOL: np.bool_, ValueTag.CATEGORICAL: np.int32}

# Reserved by the output-name grammar: "__" separates name sections and "|"
# joins multiple series names. Leading/trailing "_" is rejected as well so
# that joining components with "__" stays unambiguously parseable.
_NAME_RE = re.compile(r"^(?!_)(?:(?!__)[^|])*(?<!_)$")


def check_component_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise EmptyName("name must be a non-empty string")
    if not _NAME_RE.match(name):
        raise ReservedCharacterInName(
            f"name {name!r} may not contain '__' or '|' and may not start or end with '_'"
        )
    return name


# ---------------------------------------------------------------------------
# index deltas (windows, strides, chunk durations)
# ---------------------------------------------------------------------------

_NS_PER_UNIT = (
    ("D", 86_400_000_000_000),
    ("h", 3_600_000_000_000),
    ("m", 60_000_000_000),
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
    ("us", 1_000),
    ("ns", 1),
)

_DELTA_RE = re.compile(r"(-?\d+)(D|h|m|s|ms|us|ns)", re.ASCII)

# The one number grammar, shared by load_csv's column typing and Delta.parse:
# a byte automaton that matches ASCII only, and a cell in full.
(_EMPTY, _SIGN, _INT, _INT_DOT, _FRAC, _LEAD_DOT, _EXP_MARK, _EXP_SIGN, _EXP,
 _I, _IN, _INF, _N, _NA, _NAN, _T, _TR, _TRU, _TRUE, _F, _FA, _FAL, _FALS, _FALSE,
 _DEAD) = range(25)


def _numeric_automaton() -> np.ndarray:
    """Transitions of the DFA that types a cell: ``true``/``false`` end in
    _TRUE/_FALSE, integers in _INT, other numbers (``inf`` and ``nan`` in
    any case, either with a sign) in an _IS_FLOAT state, and everything else
    but the empty cell in _DEAD. Entry ``256 * state + byte`` is
    ``256 * next_state``; NUL, the padding after a cell, keeps the state."""
    digit = b"0123456789"
    moves = {
        _EMPTY: {digit: _INT, b"+-": _SIGN, b".": _LEAD_DOT, b"iI": _I, b"nN": _N,
                 b"t": _T, b"f": _F},
        _SIGN: {digit: _INT, b".": _LEAD_DOT, b"iI": _I, b"nN": _N},
        _INT: {digit: _INT, b".": _INT_DOT, b"eE": _EXP_MARK},
        _INT_DOT: {digit: _FRAC, b"eE": _EXP_MARK},
        _FRAC: {digit: _FRAC, b"eE": _EXP_MARK},
        _LEAD_DOT: {digit: _FRAC},
        _EXP_MARK: {digit: _EXP, b"+-": _EXP_SIGN},
        _EXP_SIGN: {digit: _EXP},
        _EXP: {digit: _EXP},
        _I: {b"nN": _IN}, _IN: {b"fF": _INF}, _N: {b"aA": _NA}, _NA: {b"nN": _NAN},
        _T: {b"r": _TR}, _TR: {b"u": _TRU}, _TRU: {b"e": _TRUE},
        _F: {b"a": _FA}, _FA: {b"l": _FAL}, _FAL: {b"s": _FALS}, _FALS: {b"e": _FALSE},
    }
    table = np.full((_DEAD + 1, 256), _DEAD, dtype=np.uint16)
    table[:, 0] = np.arange(_DEAD + 1)
    for state, row in moves.items():
        for chars, target in row.items():
            table[state, list(chars)] = target
    return (table << 8).ravel()


_NUMERIC_NEXT = _numeric_automaton()
_IS_FLOAT = np.isin(np.arange(_DEAD + 1), [_INT, _INT_DOT, _FRAC, _EXP, _INF, _NAN])
_NUMERIC_STEPS = (_NUMERIC_NEXT >> 8).astype(np.uint8).tobytes()  # the table, unshifted


def _number_state(cell: str) -> int:
    """The automaton's final state for one cell; a cell that is not NUL-free
    ASCII is dead, and the walk stops at the dead state."""
    if not cell.isascii() or "\0" in cell:
        return _DEAD
    state = 0
    for byte in cell.encode("ascii"):
        state = _NUMERIC_STEPS[256 * state + byte]
        if state == _DEAD:
            break
    return state


def render_number(x: float) -> str:
    """Shortest decimal that round-trips through float(), sign of zero
    included."""
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            return "-0.0"
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class Delta:
    """An index-range quantity: integer nanoseconds (time) or a float (numeric).

    The textual form used in output names and config files is ``"30s"``,
    ``"2500ms"`` etc. for time deltas (largest unit that divides exactly) and a
    shortest round-trip decimal for numeric deltas.
    """

    kind: IndexKind
    value: int | float

    @staticmethod
    def time_ns(ns: int) -> "Delta":
        return Delta(IndexKind.TIME_NS, int(ns))

    @staticmethod
    def numeric(x: float) -> "Delta":
        """A numeric delta from a number other than a bool, or from text in
        the number grammar."""
        if isinstance(x, bool) or (isinstance(x, str) and not _IS_FLOAT[_number_state(x)]):
            raise MalformedName(f"cannot parse index delta {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise MalformedName("index delta is too large for a float") from None
        except (TypeError, ValueError):
            raise MalformedName(f"cannot interpret {x!r} as an index delta") from None
        if not math.isfinite(x):
            raise MalformedName(f"index delta {x} is not finite")
        return Delta(IndexKind.NUMERIC, x)

    @staticmethod
    def parse(text: str) -> "Delta":
        m = _DELTA_RE.fullmatch(text)
        if m:
            return Delta.time_ns(int(m.group(1)) * dict(_NS_PER_UNIT)[m.group(2)])
        return Delta.numeric(text)

    @staticmethod
    def coerce(value) -> "Delta":
        """Accept a Delta, a grammar string, a bare number other than a bool
        (numeric kind), a datetime.timedelta, or a numpy timedelta64 (time
        kind)."""
        if isinstance(value, Delta):
            return value
        if isinstance(value, str):
            return Delta.parse(value)
        if isinstance(value, _dt.timedelta):
            micros = value // _dt.timedelta(microseconds=1)
            return Delta.time_ns(micros * 1_000)
        if isinstance(value, np.timedelta64):
            return Delta.time_ns(int(value.astype("timedelta64[ns]").astype(np.int64)))
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            return Delta.numeric(value)
        raise MalformedName(f"cannot interpret {value!r} as an index delta")

    def render(self) -> str:
        if self.kind is IndexKind.NUMERIC:
            return render_number(self.value)
        ns = int(self.value)
        if ns == 0:
            return "0s"
        unit, per = next((u, p) for u, p in _NS_PER_UNIT if ns % p == 0)
        return f"{ns // per}{unit}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delta({self.render()!r})"


# ---------------------------------------------------------------------------
# value columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueColumn:
    """One contiguous column of the tag's dtype (DTYPES), checked when built.
    Categorical data is dictionary-encoded: ``data`` holds int32 codes into
    ``categories``."""

    tag: ValueTag
    data: np.ndarray
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        want = np.dtype(DTYPES[self.tag])
        if not isinstance(self.data, np.ndarray) or (self.data.dtype, self.data.ndim) != (want, 1):
            raise LengthMismatch(f"{self.tag.value} column must be a 1-d {want} array")
        if self.tag is ValueTag.CATEGORICAL:
            if self.categories is None:
                raise LengthMismatch("categorical column requires a dictionary")
            if len(set(self.categories)) != len(self.categories):
                raise LengthMismatch("categorical dictionary contains duplicate labels")
        elif self.categories is not None:
            raise LengthMismatch("only categorical columns carry a dictionary")

    def __len__(self) -> int:
        return len(self.data)

    def decode(self, code: int) -> str:
        assert self.categories is not None
        return self.categories[int(code)]


def _column_from_values(values) -> ValueColumn:
    if isinstance(values, ValueColumn):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.int64, copy=False)
    for tag in (ValueTag.F64, ValueTag.F32, ValueTag.BOOL, ValueTag.I64):
        if arr.dtype == DTYPES[tag]:
            return ValueColumn(tag, arr)
    if arr.dtype.kind in "UOS":
        labels = [str(v) for v in arr.tolist()]  # keeps trailing NULs
        cats = sorted(set(labels))
        code = dict(zip(cats, range(len(cats))))
        codes = np.fromiter(map(code.__getitem__, labels), dtype=np.int32, count=len(labels))
        return ValueColumn(ValueTag.CATEGORICAL, codes, categories=tuple(cats))
    raise LengthMismatch(f"unsupported value dtype {arr.dtype}")


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _coerce_index(index, kind: IndexKind | None) -> tuple[np.ndarray, IndexKind]:
    arr = np.asarray(index)
    if arr.dtype.kind == "M":
        arr = arr.astype("datetime64[ns]").view(np.int64)
        kind = kind or IndexKind.TIME_NS
        if kind is not IndexKind.TIME_NS:
            raise KindMismatch("datetime index requires TIME_NS kind")
        return arr, kind
    if kind is IndexKind.TIME_NS:
        if arr.dtype.kind not in "iu":
            raise KindMismatch("TIME_NS index must be integer nanoseconds")
        return arr.astype(np.int64, copy=False), kind
    # Default: numeric positions in float64. Integer input is widened.
    return arr.astype(np.float64, copy=False), IndexKind.NUMERIC


class Series:
    """Immutable named series. Construction validates every invariant; index
    and value arrays are adopted without copying when their dtype already
    matches, then frozen (writeable=False)."""

    __slots__ = ("name", "kind", "index", "values")

    def __init__(self, name: str, index, values, kind: IndexKind | None = None):
        check_component_name(name)
        idx, resolved_kind = _coerce_index(index, kind)
        col = _column_from_values(values)
        if len(idx) != len(col):
            raise LengthMismatch(
                f"series {name!r}: index length {len(idx)} != value length {len(col)}"
            )
        if resolved_kind is IndexKind.NUMERIC and len(idx) and np.isnan(idx).any():
            raise NonMonotonicIndex(f"series {name!r}: index contains NaN")
        if len(idx) > 1 and not np.all(idx[1:] >= idx[:-1]):
            pos = int(np.argmax(idx[1:] < idx[:-1])) + 1
            raise NonMonotonicIndex(
                f"series {name!r}: index decreases at position {pos}"
            )
        idx.flags.writeable = False
        col.data.flags.writeable = False
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", resolved_kind)
        object.__setattr__(self, "index", idx)
        object.__setattr__(self, "values", col)

    def __setattr__(self, key, value):
        raise AttributeError("Series is immutable")

    def __len__(self) -> int:
        return len(self.index)

    def view(self, lo: int, hi: int) -> "SeriesView":
        return SeriesView(self, lo, hi)

    def full_view(self) -> "SeriesView":
        return SeriesView(self, 0, len(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self)}, {self.kind.value}, {self.values.tag.value})"


class SeriesView:
    """Read-only half-open position range [lo, hi) into a series; index and
    value accessors return numpy views of the source storage."""

    __slots__ = ("source", "lo", "hi")

    def __init__(self, source: Series, lo: int, hi: int):
        if not (0 <= lo <= hi <= len(source)):
            raise LengthMismatch(
                f"view [{lo}, {hi}) out of bounds for length {len(source)}"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, key, value):
        raise AttributeError("SeriesView is immutable")

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def kind(self) -> IndexKind:
        return self.source.kind

    @property
    def index(self) -> np.ndarray:
        return self.source.index[self.lo:self.hi]

    @property
    def values(self) -> np.ndarray:
        return self.source.values.data[self.lo:self.hi]

    @property
    def tag(self) -> ValueTag:
        return self.source.values.tag

    def __len__(self) -> int:
        return self.hi - self.lo

    def to_series(self) -> Series:
        """Materialize as an owning Series (copies; used only at io edges)."""
        col = self.source.values
        values = ValueColumn(col.tag, col.data[self.lo:self.hi].copy(), col.categories)
        return Series(self.name, self.index.copy(), values, kind=self.kind)


def _same_index(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two index arrays: their int64 views compare as
    memoryviews, without a copy."""
    return len(a) == len(b) and memoryview(a.view(np.int64)) == memoryview(b.view(np.int64))


def _index_scalar(value, kind: IndexKind):
    """An index bound as integer nanoseconds (time) or a float."""
    if isinstance(value, np.datetime64):
        if kind is not IndexKind.TIME_NS:
            raise KindMismatch("datetime bound on a numeric-kind series")
        return int(value.astype("datetime64[ns]").view(np.int64))
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParam(f"index bound {value!r} is not a number")
    if kind is IndexKind.TIME_NS:
        if isinstance(value, (float, np.floating)):
            raise KindMismatch("TIME_NS bounds must be integer nanoseconds")
        return int(value)
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise BadParam(f"index bound {value!r} is too large for a float")
    return float(value)


def slice_range(series: Series, start, end) -> SeriesView:
    """View of the samples with start <= index < end (left-closed, right-open).

    Bounds are located by binary search; no index or value data is copied.
    """
    start = _index_scalar(start, series.kind)
    end = _index_scalar(end, series.kind)
    if start > end:
        raise ValueError(f"slice start {start} exceeds end {end}")
    lo = int(np.searchsorted(series.index, start, side="left"))
    hi = int(np.searchsorted(series.index, end, side="left"))
    return SeriesView(series, lo, hi)


def infer_period(series: Series) -> float:
    """Median consecutive index difference (ns for time kind)."""
    if len(series) < 2:
        raise TooShort(f"series {series.name!r} has fewer than 2 samples")
    diffs = np.sort(np.diff(series.index)).astype(np.float64)
    h = len(diffs) // 2
    return float(diffs[h] if len(diffs) % 2 else (diffs[h - 1] + diffs[h]) / 2)


class SeriesSet:
    """Name-keyed collection of series; names are unique, insertion order kept.

    Treated as immutable once handed to the engine: extraction and pipelines
    never mutate a set they receive.
    """

    def __init__(self, series: Iterable[Series] = ()):
        self._by_name: dict[str, Series] = {}
        for s in series:
            self.add(s)

    def add(self, series: Series) -> None:
        if series.name in self._by_name:
            raise DuplicateSeriesName(f"series {series.name!r} already present")
        self._by_name[series.name] = series

    def __getitem__(self, name: str) -> Series:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSeries(f"no series named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Series]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> list[str]:
        return list(self._by_name)

    def updated(self, replacements: Sequence[Series]) -> "SeriesSet":
        """New set where each replacement replaces its namesake or is appended;
        untouched series are shared, not copied."""
        out = SeriesSet()
        out._by_name = dict(self._by_name)
        for s in replacements:
            out._by_name[s.name] = s
        return out
