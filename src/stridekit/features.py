"""Feature registry and the (optionally parallel) strided-window extraction
engine.

Descriptors are grouped by (series names, window, stride) so each group's
window grid and sample positions are computed once and shared by every
function registered under it. The unit of parallel work is one (group,
function) pair, or the builtins of one family in a group, which share each
block (see BlockKernel). One hand-out rule serves every worker count (see
_run_units). With several workers the units run on forked processes, at
most one per CPU, which inherit the resolved groups; this process runs no
unit, only hands each worker its next unit position on the worker's own
connection, reads the outcomes sent back on it and reaps the workers (see
_fork_units). Results are kept by unit position, which makes the output
bit-identical for any worker count. A builtin unit runs over blocks of
windows; a builtin that raises there is searched over halves of its windows
down to the first window that raises alone, which the failure names.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
import json
import math
import numbers
import operator
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BadParam,
    DuplicateFeature,
    EmptyAxis,
    FunctionFailure,
    InvalidDescriptor,
    IoError,
    KindMismatch,
    NonFloatOutput,
    UnknownColumn,
)
from .naming import format_output_name, parse_output_name
from .segment import (OutputPosition, SegmentGrid, _output_position, build_grid,
                      intersect_spans, segment_positions, window_stride)
from .series import (
    FLOAT_TAGS,
    Delta,
    IndexKind,
    Series,
    SeriesSet,
    ValueTag,
    check_component_name,
)


class InputMode(enum.Enum):
    VALUES_ONLY = "values"
    VALUES_AND_INDEX = "values_and_index"


#: Output-tag sentinel: resolve to the input series' value tag at extraction.
PRESERVE = "preserve"


class _Chunks(NamedTuple):
    """How a builtin computes a window from chunks of it. ``stats(members,
    values[, index])`` maps a (rows, k) block to a dict of per-row chunk
    statistics. ``merge(members, stats, sizes, offsets, fold, pad)`` turns
    the (m, b) statistics of the chunks of b windows into those of the
    windows: ``sizes`` holds the chunks' sample counts, ``offsets`` (index
    kernels only) each chunk's first index minus the window's, in index
    units, ``fold(x, ufunc=np.add)`` reduces an (m, b) array over each
    window's chunks pairwise, adjacent chunks first, for ufunc np.add,
    np.minimum or np.maximum, and ``pad`` masks the pad rows (below), or is
    None. ``finish(members, stats, n)`` turns the statistics of
    windows of n samples into one value per window and member. Called, the
    rule is its own unchunked family: ``finish`` of ``stats`` over whole
    windows.

    Windows of different chunk counts share one merge (see
    _chunked_outputs): a window with fewer chunks than m has pad rows after
    its own, which repeat its last chunk in ``stats``, ``sizes`` and
    ``offsets``. So ``merge`` must be elementwise across windows and reduce
    rows only through ``fold``, which replaces the pad rows by the ufunc's
    identity (-0.0, +inf, -inf) first; one that combines a row with the row
    before it (zero_cross's seam) skips the pad rows by ``pad``."""

    stats: Callable
    merge: Callable
    finish: Callable

    def __call__(self, members, *blocks):
        return self.finish(members, self.stats(members, *blocks), blocks[0].shape[1])


@dataclass(frozen=True)
class BlockKernel:
    """A builtin's one implementation, plain numpy: the ``member`` of a
    ``family``. ``family(members, values[, index])`` maps a block of b
    windows of c samples each, shape (b, c), to one (b,) array per member
    asked for. Blocks are float64, or as stored when ``raw`` (views, which a
    family copies before it writes); an index-aware kernel also gets the
    matching index block. What a window with too few samples yields is the
    wrapper's rule, not the kernel's (see FuncWrapper).

    extract runs the builtins of one group that share a family and
    ``min_samples`` as one unit, with one block and one ``family`` call per
    block of equal-count windows. A family that is a ``_Chunks`` rule is
    chunk-merged there: a window of c samples is computed as chunks of K
    samples from its start (the last one shorter when K does not divide c)
    when K < c, with K the chunk length of the window's (series, grid), see
    ``_chunk_length``. Calling the kernel on one window runs its family on a
    one-row block for its member alone, unchunked.
    """

    name: str
    family: Callable
    member: object = None
    raw: bool = False

    def __call__(self, x):
        values, index = x if isinstance(x, tuple) else (x, None)
        sources = [np.asarray(values, dtype=None if self.raw else np.float64)]
        if index is not None:
            sources.append(np.asarray(index))
        with _quiet():
            out = self.family((self.member,), *(s[None, :] for s in sources))[0]
        return out.tolist()[0]


def _quiet():
    """np.errstate that ignores every floating-point error numpy would only
    warn about, and keeps those a caller made raise: a builtin returns its
    IEEE result (NaN, +-inf) silently under any warnings filter."""
    return np.errstate(**{kind: "ignore" for kind, mode in np.geterr().items()
                          if mode != "raise"})


def _sequence(value, what: str) -> tuple:
    """A str as one item, a sequence as its items; anything else is
    InvalidDescriptor."""
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, Sequence):
        raise InvalidDescriptor(f"{what} must be a sequence, got {type(value).__name__}")
    return tuple(value)


class FuncWrapper:
    """A feature function plus its output naming, typing, and bound kwargs.

    The callable receives one argument per input series - the window's value
    array, or a ``(values, index)`` pair in VALUES_AND_INDEX mode - followed by
    the bound keyword arguments, and must return one scalar per output name.
    extract runs a :class:`BlockKernel` callable (the builtins) only over
    blocks of windows; ``apply`` calls it on one window, unchunked.

    The short-window rule: a window with fewer than ``min_samples`` samples
    in any input yields ``fills`` (one per output) without a call, or raises
    when that is None. Only ``builtin`` (from 1, with the builtin's
    empty-window value) and ``make_robust`` set it, and ``entry``: the config
    entry that rebuilds the wrapper (None for a user function).
    """

    __slots__ = ("func", "base_name", "output_names", "input_mode", "bound_kwargs",
                 "output_tags", "entry", "min_samples", "fills")

    def __init__(
        self,
        func: Callable,
        base_name: str | None = None,
        output_names: str | Sequence[str] | None = None,
        input_mode: InputMode = InputMode.VALUES_ONLY,
        bound_kwargs: dict | None = None,
        output_tags: Sequence | None = None,
    ):
        self.func = func
        self.base_name = check_component_name(base_name or getattr(func, "__name__", "func"))
        names = _sequence(self.base_name if output_names is None else output_names,
                          "output_names")
        if not names:
            raise InvalidDescriptor("a function needs at least one output name")
        for n in names:
            check_component_name(n)
        self.output_names = names
        self.input_mode = input_mode
        if bound_kwargs is not None and not isinstance(bound_kwargs, Mapping):
            raise InvalidDescriptor(f"bound_kwargs must be a mapping, got "
                                    f"{type(bound_kwargs).__name__}")
        self.bound_kwargs = dict(bound_kwargs or {})
        if output_tags is None:
            output_tags = (ValueTag.F64,) * len(names)
        tags = _sequence(output_tags, "output_tags")
        if len(tags) != len(names):
            raise InvalidDescriptor("one output tag per output name required")
        for t in tags:
            if t is not PRESERVE and not isinstance(t, ValueTag):
                raise InvalidDescriptor(f"bad output tag {t!r}")
        self.output_tags = tags
        self.entry: dict | None = None
        self.min_samples = 0
        self.fills: tuple | None = None

    @property
    def recipe(self) -> tuple | None:  # what perfbench/layers.py counts robust fills by
        robust = self.entry is not None and "robust" in self.entry
        return ("robust", self.entry, self.min_samples) if robust else None

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def apply(self, inputs: Sequence) -> tuple:
        if self.min_samples and any(len(x[0] if isinstance(x, tuple) else x) < self.min_samples
                                    for x in inputs):
            if self.fills is None:  # only a builtin, whose kernel names it
                raise ValueError(f"{self.func.name} of an empty window is undefined")
            return self.fills
        out = self.func(*inputs, **self.bound_kwargs)
        if isinstance(out, (tuple, list)):
            if len(out) != self.n_outputs:
                raise ValueError(
                    f"{self.base_name!r} returned {len(out)} outputs, expected {self.n_outputs}"
                )
            return tuple(out)
        if self.n_outputs != 1:
            raise ValueError(
                f"{self.base_name!r} returned a scalar but declares {self.n_outputs} outputs"
            )
        return (out,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FuncWrapper({self.base_name!r}, outputs={list(self.output_names)})"


def make_robust(
    wrapper: FuncWrapper, min_samples: int = 1, fill_value: float = math.nan
) -> FuncWrapper:
    """A copy of ``wrapper`` whose short-window rule is ``min_samples`` and
    ``fill_value`` for every output; the function stays, so a builtin stays a
    block kernel. ``min_samples=0`` keeps the wrapper's rule; one from 1 to
    below the wrapper's own ``min_samples`` is InvalidDescriptor.

    A NaN fill requires every output to be float-tagged; integer, boolean,
    categorical, or tag-preserving outputs cannot represent it. An integral
    float fill becomes an int for I64 outputs, and an I64 output's fill must
    be an integer that int64 holds (InvalidDescriptor); otherwise the fill
    must fit each output's tag like any function output, which extract
    checks. A builtin's fill is a number that a float holds, not a bool,
    since its entry's ``"robust"`` becomes this rule, unless ``min_samples``
    is 0: the fill as an int when it is an integer, else as a float
    (omitted when NaN).
    """
    if isinstance(min_samples, bool) or not isinstance(min_samples, int) or min_samples < 0:
        raise InvalidDescriptor(f"min_samples must be an integer >= 0, got {min_samples!r}")
    if 0 < min_samples < wrapper.min_samples:
        raise InvalidDescriptor(f"{wrapper.base_name!r}: min_samples {min_samples} is below "
                                f"the wrapped function's own min_samples {wrapper.min_samples}")
    entry = wrapper.entry
    if entry is not None:
        if isinstance(fill_value, bool) or not isinstance(fill_value, numbers.Real):
            raise InvalidDescriptor(f"{wrapper.base_name!r}: fill_value must be a number, "
                                    f"got {fill_value!r}")
        try:
            fill = float(fill_value)
        except OverflowError:
            raise InvalidDescriptor(f"{wrapper.base_name!r}: fill_value is too large "
                                    f"for a float") from None
        if isinstance(fill_value, numbers.Integral):  # exact, and an int for I64 outputs
            fill = int(fill_value)
        if min_samples:
            fill_entry = {} if math.isnan(fill) else {"fill_value": fill}
            entry = {**entry, "robust": {"min_samples": min_samples, **fill_entry}}
    if isinstance(fill_value, float) and math.isnan(fill_value):
        for tag in wrapper.output_tags:
            if tag is PRESERVE or tag not in FLOAT_TAGS:
                raise NonFloatOutput(
                    f"{wrapper.base_name!r}: NaN fill requires float outputs "
                    f"(offending tag: {getattr(tag, 'value', tag)})"
                )
    integral = isinstance(fill_value, float) and fill_value.is_integer()
    fills = tuple(int(fill_value) if integral and tag is ValueTag.I64 else fill_value
                  for tag in wrapper.output_tags)
    for tag, fill in zip(wrapper.output_tags, fills):
        if tag is ValueTag.I64:
            try:
                _cell_converter(tag, None)(fill)
            except (TypeError, ValueError):
                raise InvalidDescriptor(f"{wrapper.base_name!r}: an I64 output cannot hold "
                                        f"the fill_value {fill_value!r}") from None
    robust = copy.copy(wrapper)
    robust.entry = entry
    if min_samples:
        robust.min_samples = min_samples
        robust.fills = fills
    return robust


# ---------------------------------------------------------------------------
# descriptors and the collection registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureDescriptor:
    series_names: tuple[str, ...]
    function: FuncWrapper
    window: Delta
    stride: Delta

    def __init__(self, series_names, function: FuncWrapper, window, stride):
        names = _sequence(series_names, "series_names")
        if not names:
            raise InvalidDescriptor("series_names must not be empty")
        try:
            for n in names:
                check_component_name(n)
            w, s = window_stride(window, stride)
        except Exception as exc:
            raise InvalidDescriptor(str(exc)) from exc
        if not isinstance(function, FuncWrapper):
            raise InvalidDescriptor("function must be a FuncWrapper")
        object.__setattr__(self, "series_names", names)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "window", w)
        object.__setattr__(self, "stride", s)

    def key(self) -> tuple:
        return (self.series_names, self.window, self.stride)


def expand_multiple(
    functions: Sequence[FuncWrapper],
    series_names: Sequence,
    windows: Sequence,
    strides: Sequence,
) -> list[FeatureDescriptor]:
    """Cartesian product of functions x series entries x windows x strides;
    a str axis is one item."""
    axes = []
    for label, axis in (("functions", functions), ("series_names", series_names),
                        ("windows", windows), ("strides", strides)):
        axes.append(_sequence(axis, label))
        if not axes[-1]:
            raise EmptyAxis(f"{label} must not be empty")
    return [FeatureDescriptor(entry, func, w, s)
            for func, entry, w, s in itertools.product(*axes)]


class FeatureCollection:
    """Registry of feature descriptors grouped by (series names, window,
    stride). Group and function registration order is significant: it fixes
    output column order and the parallel merge order. Every output column
    name maps to the (group key, function index) that produces it, so ``add``
    rejects a name registered twice with DuplicateFeature."""

    def __init__(self, descriptors: Iterable[FeatureDescriptor] = ()):
        self._groups: dict[tuple, list[FuncWrapper]] = {}
        self._columns: dict[str, tuple[tuple, int]] = {}
        for d in descriptors:
            self.add(d)

    def add(self, descriptor: FeatureDescriptor | Iterable[FeatureDescriptor]) -> None:
        if isinstance(descriptor, FeatureDescriptor):
            descriptors = [descriptor]
        else:
            descriptors = list(descriptor)
        for d in descriptors:
            if not isinstance(d, FeatureDescriptor):
                raise InvalidDescriptor(f"not a FeatureDescriptor: {d!r}")
            key = d.key()
            source = (key, len(self._groups.get(key, ())))
            names: dict[str, tuple] = {}
            for out_name in d.function.output_names:
                name = format_output_name(key[0], out_name, key[1], key[2])
                if name in self._columns or name in names:
                    raise DuplicateFeature(f"output column {name!r} produced twice")
                names[name] = source
            self._columns.update(names)
            self._groups.setdefault(key, []).append(d.function)

    def groups(self) -> list[tuple[tuple, list[FuncWrapper]]]:
        return list(self._groups.items())

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def n_descriptors(self) -> int:
        return sum(len(v) for v in self._groups.values())

    def column_names(self) -> list[str]:
        names = []
        for (series_names, w, s), wrappers in self._groups.items():
            for wrapper in wrappers:
                for out_name in wrapper.output_names:
                    names.append(format_output_name(series_names, out_name, w, s))
        return names

    def reduce(self, feat_cols_to_keep: Sequence[str]) -> "FeatureCollection":
        """New collection with exactly the descriptors whose outputs include
        the named columns; a multi-output function is retained whole if any of
        its outputs is named."""
        keep = set()
        for col in feat_cols_to_keep:
            source = self._columns.get(format_output_name(*parse_output_name(col)))
            if source is None:
                raise UnknownColumn(f"no registered feature produces {col!r}")
            keep.add(source)
        out = FeatureCollection()
        for key, wrappers in self._groups.items():
            for i, wrapper in enumerate(wrappers):
                if (key, i) in keep:
                    out.add(FeatureDescriptor(key[0], wrapper, key[1], key[2]))
        return out


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureColumn:
    tag: ValueTag
    data: np.ndarray


class FeatureMatrix:
    """Index-preserving output table. Float columns fill missing cells with
    NaN; integer, boolean, and categorical columns are object arrays with a
    None sentinel."""

    def __init__(self, kind: IndexKind | None, index: np.ndarray, columns: dict[str, FeatureColumn]):
        self.kind = kind
        self.index = index
        self._columns = columns

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def n_rows(self) -> int:
        return len(self.index)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    def __getitem__(self, name: str) -> FeatureColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(f"no column named {name!r}") from None

    def project(self, names: Sequence[str]) -> "FeatureMatrix":
        cols = {n: self[n] for n in names}
        return FeatureMatrix(self.kind, self.index, cols)

    def equals(self, other: "FeatureMatrix") -> bool:
        """Bitwise equality: exact index bytes, column order, tags, and cell
        payloads (NaN == NaN by byte identity)."""
        if self.kind is not other.kind:
            return False
        if self.index.dtype != other.index.dtype or self.index.tobytes() != other.index.tobytes():
            return False
        if self.column_names != other.column_names:
            return False
        for name in self.column_names:
            a, b = self[name], other[name]
            if a.tag is not b.tag or a.data.dtype != b.data.dtype:
                return False
            if a.data.dtype == object:
                # Object columns hold ints, bools, labels and None, never NaN.
                if a.data.tolist() != b.data.tolist():
                    return False
            elif a.data.tobytes() != b.data.tobytes():
                return False
        return True


@dataclass(frozen=True)
class LogRecord:
    func: str
    series: str
    window: Delta
    stride: Delta
    n_segments: int
    duration_s: float
    # "block": a builtin's kernel over blocks of windows; "fused": one family
    # call for several builtins, whose wall time is split evenly over them;
    # "window": a user function, called per window
    path: str = "window"

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v.render() if isinstance(v, Delta) else v for k, v in obj.items()}


@dataclass(frozen=True)
class LogSummary:
    func: str
    total_s: float
    mean_s: float
    count: int


def aggregate_log(records: Sequence[LogRecord]) -> list[LogSummary]:
    totals: dict[str, list] = {}
    for r in records:
        entry = totals.setdefault(r.func, [0.0, 0])
        entry[0] += r.duration_s
        entry[1] += 1
    return [
        LogSummary(func, total, total / count, count)
        for func, (total, count) in sorted(totals.items())
    ]


@dataclass(frozen=True)
class SparsityWarning:
    """A (series, grid) whose per-window sample counts are not all equal to
    the modal count - irregular sampling or gaps inside the span."""

    series: str
    group: tuple[str, ...]
    window: Delta
    stride: Delta
    modal_count: int
    n_deviant: int

    def message(self) -> str:
        return (
            f"series {self.series!r} (group {'|'.join(self.group)}, "
            f"w={self.window.render()} s={self.stride.render()}): "
            f"{self.n_deviant} windows deviate from the modal sample count {self.modal_count}; "
            f"pass approve_sparsity=True to silence"
        )


@dataclass(frozen=True)
class ExtractOptions:
    approve_sparsity: bool = False
    n_workers: int = 1
    log_path: str | os.PathLike | None = None
    output_position: OutputPosition = OutputPosition.END

    def __post_init__(self):
        if not isinstance(self.approve_sparsity, bool):
            raise BadParam(f"approve_sparsity must be true or false, "
                           f"got {self.approve_sparsity!r}")
        n = self.n_workers
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise BadParam(f"n_workers must be a positive integer, got {n!r}")
        if self.log_path is not None and not isinstance(self.log_path, (str, os.PathLike)):
            raise BadParam(f"log_path must be a path, got {self.log_path!r}")
        object.__setattr__(self, "output_position", _output_position(self.output_position))


class ExtractResult(NamedTuple):
    matrix: FeatureMatrix
    log_records: list[LogRecord]
    sparsity_warnings: list[SparsityWarning]


# ---------------------------------------------------------------------------
# extraction engine
# ---------------------------------------------------------------------------

@dataclass
class _ResolvedGroup:
    key: tuple
    series: list[Series]
    grid: SegmentGrid
    positions: list[np.ndarray]
    wrappers: list[FuncWrapper]
    wrapper_tags: list[tuple]  # PRESERVE resolved to concrete ValueTags
    chunk: int | None  # the chunk length of a single-series group's windows


#: The most windows one grid may have. Its positions, window starts and one
#: output column take 32 bytes a window, so a grid this large already needs
#: 1 GiB; a larger one is InvalidDescriptor before anything is allocated.
MAX_SEGMENTS = 2**25


def _mode(values: np.ndarray) -> int:
    """The most frequent value, the smallest of a tie."""
    distinct, freq = np.unique(values, return_counts=True)
    return int(distinct[int(np.argmax(freq))])


#: Chunk-merging pays only where a chunk's statistics are reused enough:
#: chunks of at least MIN_CHUNK samples, under windows that overlap at least
#: MIN_OVERLAP-fold. Below either, merging c / K chunk rows per window costs
#: more than reducing its c samples (see CHANGES.md for the timings).
MIN_CHUNK = 64
MIN_OVERLAP = 3


def _chunk_length(pos: np.ndarray) -> int | None:
    """The chunk length K of one series' windows on one grid, from its
    (lo, hi) positions: gcd(modal count, modal step between window starts)
    when the windows overlap at least MIN_OVERLAP-fold (count >= 3 step > 0)
    and that gcd is at least MIN_CHUNK, so that the windows of a regular
    stretch start on a lattice of K-sample chunks and share them. None, each
    window one chunk, otherwise."""
    if len(pos) < 2:
        return None
    count, step = _mode(pos[:, 1] - pos[:, 0]), _mode(np.diff(pos[:, 0]))
    k = math.gcd(count, step) if 0 < step and MIN_OVERLAP * step <= count else 1
    return k if k >= MIN_CHUNK else None


def _resolve_groups(series_set: SeriesSet, collection: FeatureCollection,
                    output_position: OutputPosition) -> list[_ResolvedGroup]:
    groups = []
    for (series_names, w, s), wrappers in collection.groups():
        if len(series_names) > 1:
            for wrapper in wrappers:
                if isinstance(wrapper.func, BlockKernel):
                    raise InvalidDescriptor(
                        f"builtin {wrapper.base_name!r} takes one series, but group "
                        f"{'|'.join(series_names)!r} has {len(series_names)}"
                    )
        members = [series_set[name] for name in series_names]  # raises UnknownSeries
        kinds = {m.kind for m in members}
        if len(kinds) > 1 or next(iter(kinds)) is not w.kind:
            raise KindMismatch(
                f"group {series_names}: series kinds {sorted(k.value for k in kinds)} "
                f"vs window kind {w.kind.value}"
            )
        begin, end = intersect_spans(members)
        grid = build_grid(begin, end, w, s, output_position)
        if grid.n_segments > MAX_SEGMENTS:
            raise InvalidDescriptor(
                f"group {'|'.join(series_names)!r} with window {w.render()} and stride "
                f"{s.render()} has {grid.n_segments} windows, more than the "
                f"{MAX_SEGMENTS} one grid may have"
            )
        positions = [segment_positions(m, grid) for m in members]
        tags = [tuple(members[0].values.tag if t is PRESERVE else t for t in wrapper.output_tags)
                for wrapper in wrappers]
        chunk = _chunk_length(positions[0]) if len(members) == 1 else None
        groups.append(_ResolvedGroup((series_names, w, s), members, grid, positions, wrappers,
                                     tags, chunk))
    if len({g.grid.kind for g in groups}) > 1:
        raise KindMismatch(
            "descriptors mix time and numeric windows; the output index cannot join them"
        )
    return groups


def _missing_column(tag: ValueTag, n: int) -> np.ndarray:
    """A column of n missing cells: NaN for float tags, None otherwise."""
    if tag in FLOAT_TAGS:
        return np.full(n, np.nan, dtype=np.float64 if tag is ValueTag.F64 else np.float32)
    return np.full(n, None, dtype=object)


def _cell_converter(tag: ValueTag, series: Series) -> Callable:
    """The strict conversion of one function output to a ``tag`` cell."""
    if tag in FLOAT_TAGS:
        return float
    if tag is ValueTag.I64:
        def integer(c):
            i = operator.index(c)
            if not -2**63 <= i < 2**63:
                raise ValueError(f"an I64 output must fit int64, got {i}")
            return i
        return integer
    if tag is ValueTag.BOOL:
        def boolean(c):
            if not isinstance(c, (bool, np.bool_)):
                raise TypeError(f"a BOOL output must be a bool, got {c!r}")
            return bool(c)
        return boolean
    categories = series.values.categories

    def label(c):  # a label, or a code into the series' dictionary
        if isinstance(c, str):
            return c
        code = operator.index(c)
        if categories is None:
            raise TypeError(f"a CATEGORICAL code ({code}) needs a label dictionary, "
                            f"but series {series.name!r} has none")
        if not 0 <= code < len(categories):
            raise ValueError(f"CATEGORICAL code {code} is outside the {len(categories)} "
                             f"labels of series {series.name!r}")
        return categories[code]
    return label


def _failure(group: _ResolvedGroup, wrapper: FuncWrapper, k: int,
             exc: Exception) -> FunctionFailure:
    """The FunctionFailure of ``wrapper`` on segment ``k``, caused by ``exc``."""
    failure = FunctionFailure(f"function {wrapper.base_name!r} failed on group "
                              f"{'|'.join(group.key[0])!r} segment {k}: {exc}")
    failure.__cause__ = exc
    return failure


def _run_windows(group: _ResolvedGroup, wrapper: FuncWrapper, tags, columns) -> None:
    """A user function: one Python call per window, in segment order."""
    converters = [_cell_converter(tag, group.series[0]) for tag in tags]
    want_index = wrapper.input_mode is InputMode.VALUES_AND_INDEX
    for k in range(group.grid.n_segments):
        inputs = []
        for series, pos in zip(group.series, group.positions):
            lo, hi = int(pos[k, 0]), int(pos[k, 1])
            values = series.values.data[lo:hi]
            if want_index:
                inputs.append((values, series.index[lo:hi]))
            else:
                inputs.append(values)
        try:
            for column, convert, out in zip(columns, converters, wrapper.apply(inputs)):
                column[k] = convert(out)
        except Exception as exc:
            raise _failure(group, wrapper, k, exc)


#: Bytes of samples per block of windows, float64 or as stored for a raw
#: kernel (a block holds at least one).
BLOCK_BYTES = 256 * 1024


def _blocks(sources: list, starts: np.ndarray, c: int, raw: bool) -> Iterator[tuple]:
    """(slice of ``starts``, blocks) for each block of the windows [s, s + c)
    of ``sources``, s in ``starts``: BLOCK_BYTES of samples, at least one
    window, in the stored itemsize when ``raw`` and in float64 otherwise,
    the values cast to float64 unless ``raw``. A one-window block is a slice
    of each source. Any other is a strided slice of each source's window
    view (one ``as_strided`` per source, on first use) where its starts are
    evenly spaced and ascending, else a gather; only blocks of three or more
    rows need a numpy call to check the spacing."""
    views = None
    per_block = max(1, BLOCK_BYTES // (c * (sources[0].itemsize if raw else 8)))
    lo = starts.tolist()
    for a in range(0, len(lo), per_block):
        b = min(a + per_block, len(lo))
        if b - a == 1:
            blocks = [src[None, lo[a]:lo[a] + c] for src in sources]
        else:
            if views is None:
                views = [as_strided(src, (len(src) - c + 1, c), src.strides * 2, writeable=False)
                         for src in sources]
            step = lo[a + 1] - lo[a]
            if step > 0 and (b - a < 3 or (np.diff(starts[a:b]) == step).all()):
                rows = slice(lo[a], lo[b - 1] + 1, step)
            else:
                rows = starts[a:b]
            blocks = [v[rows] for v in views]
        if not raw:
            blocks[0] = np.ascontiguousarray(blocks[0], dtype=np.float64)
        yield slice(a, b), blocks


def _chunk_stats(kernels: list[BlockKernel], sources: list, starts: np.ndarray,
                 k: int) -> dict:
    """The chunk statistics of the rows [s, s + k) of ``sources`` for each s
    in ``starts``, a block at a time."""
    members = [kernel.member for kernel in kernels]
    parts = [kernels[0].family.stats(members, *blocks)
             for _, blocks in _blocks(sources, starts, k, kernels[0].raw)]
    if len(parts) == 1:
        return parts[0]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _chunked_outputs(kernels: list[BlockKernel], sources: list, starts: np.ndarray,
                     counts: np.ndarray, k: int) -> list:
    """The kernels' values of the windows [s, s + c) of ``sources``, for each
    start s and count c > k, each window as chunks of k samples from its
    start, the last one shorter when k does not divide c.

    A full chunk's statistics are computed once however many windows hold
    it: windows with the same phase (start mod k) whose full chunks meet or
    overlap form a segment, and each segment's chunks one run of a table.
    The windows are then merged a bucket at a time, the windows of m chunks
    with 2**(j-1) < m <= 2**j in bucket j, from (chunk, window) arrays of the
    bucket's largest m rows reduced pairwise down the chunks: about j
    vectorized operations. A window of fewer chunks has pad rows after its
    own, which ``fold`` sets to the ufunc's identity before it reduces, so
    each window gets the operations of its own count, and its adds do not
    depend on the other windows. A bucket's arrays hold fewer than twice
    its windows' chunks."""
    members = [kernel.member for kernel in kernels]
    full, tail = np.divmod(counts, k)

    # segments: sorted by phase, then start; one begins where a start lies
    # past every full chunk before it
    key = starts % k * (len(sources[0]) + 1) + starts
    order = np.argsort(key, kind="stable")
    end = key[order] + full[order] * k
    head = np.ones(len(order), dtype=bool)
    head[1:] = key[order][1:] > np.maximum.accumulate(end)[:-1]
    heads = np.flatnonzero(head)
    first = starts[order][heads]
    n_chunks = (np.maximum.reduceat(end, heads) - key[order][heads]) // k
    offset = np.cumsum(n_chunks) - n_chunks
    n_table = int(n_chunks.sum())
    table_starts = np.repeat(first - k * offset, n_chunks) + k * np.arange(n_table)
    seg = np.cumsum(head) - 1
    base = np.empty_like(starts)
    base[order] = offset[seg] + (starts[order] - first[seg]) // k
    table = _chunk_stats(kernels, sources, table_starts, k)

    # each window's short last chunk, one table per length
    short = {name: np.empty(len(starts)) for name in table}
    for r in np.unique(tail[tail > 0]).tolist():
        at = np.flatnonzero(tail == r)
        for name, x in _chunk_stats(kernels, sources, starts[at] + full[at] * k, r).items():
            short[name][at] = x

    rule = kernels[0].family
    identity = {np.add: -0.0, np.minimum: np.inf, np.maximum: -np.inf}  # x op it is x
    m_of = full + (tail > 0)
    bucket = np.frexp(m_of - 1)[1]  # j with 2**(j-1) < m <= 2**j (m >= 2)
    # a window's chunk j is table row base + j, its short last chunk row
    # n_table + its position
    table = {name: np.concatenate([t, short[name]]) for name, t in table.items()}
    outs = [np.empty(len(starts)) for _ in kernels]
    for j in np.flatnonzero(np.bincount(bucket)).tolist():
        at = np.flatnonzero(bucket == j)
        m = m_of[at]
        cols = np.arange(m.max())[:, None]
        # a window's pad rows copy its last chunk, so the merge repeats that
        # chunk's arithmetic on them; fold then makes them identities
        pad = cols >= m if m.min() < len(cols) else None
        last = cols if pad is None else np.minimum(cols, m - 1)
        rows = base[at] + last
        sizes = np.full(rows.shape, float(k))
        if tail[at].any():
            inner = last < full[at]
            rows = np.where(inner, rows, n_table + at)
            sizes = np.where(inner, sizes, tail[at])
        stats = {name: t[rows] for name, t in table.items()}
        offsets = None
        if len(sources) > 1:
            index = sources[1]
            offsets = index[starts[at] + k * last] - index[starts[at]]

        def fold(x, ufunc=np.add):
            # pairwise down the chunks: adjacent rows, then adjacent results,
            # an odd last row carried up; identity pad rows at the end leave
            # every window the operations of its own count
            if pad is not None:
                x = np.where(pad, identity[ufunc], x)
            while len(x) > 1:
                top = ufunc(x[0:-1:2], x[1::2])
                x = np.concatenate([top, x[-1:]]) if len(x) % 2 else top
            return x[0]

        merged = rule.merge(members, stats, sizes, offsets, fold, pad)
        for out, value in zip(outs, rule.finish(members, merged, counts[at])):
            out[at] = value
    for out in outs:  # where two NaNs meet, numpy's loop for the shape picks the payload
        out[np.isnan(out)] = np.nan
    return outs


def _run_blocks(group: _ResolvedGroup, unit: list[tuple],
                windows: slice = slice(None)) -> None:
    """The ``windows`` of the group's grid (all by default), one family call
    per block of windows with equal sample counts, each block a (strided)
    slice of the series' window view, so extra memory is bounded by
    BLOCK_BYTES. ``unit`` holds (wrapper, tag, column) per member: builtins
    of one family sharing ``min_samples``, which share each block. A chunked
    family takes the windows longer than the group's chunk length in start
    order, in batches of at most BLOCK_BYTES / 32 chunks, so that neighbours
    share one chunk table and tables and merges stay within a few
    BLOCK_BYTES. Short windows take each member's fills; a None fill raises.
    A window's arithmetic does not depend on the other windows run with it
    (rows reduce independently; a chunk table holds only chunks of the
    windows being run; a merge's pad rows repeat the window's own last
    chunk), so a set of windows raises exactly when one of them does alone.
    Exceptions propagate unnamed (see _search)."""
    kernels = [wrapper.func for wrapper, _, _ in unit]
    family, raw, members = kernels[0].family, kernels[0].raw, [k.member for k in kernels]
    series, pos = group.series[0], group.positions[0][windows]
    unit = [(wrapper, tag, column[windows]) for wrapper, tag, column in unit]
    counts = pos[:, 1] - pos[:, 0]
    short = counts < unit[0][0].min_samples
    if short.any():
        for wrapper, tag, column in unit:
            if wrapper.fills is None:
                raise ValueError(f"{wrapper.func.name} of an empty window is undefined")
            column[short] = _cell_converter(tag, series)(wrapper.fills[0])

    # a raw kernel's dictionary codes become labels
    labels = [np.array(series.values.categories, dtype=object)
              if tag is ValueTag.CATEGORICAL else None for _, tag, _ in unit]
    sources = [series.values.data]
    if unit[0][0].input_mode is InputMode.VALUES_AND_INDEX:
        sources.append(series.index)
    todo = np.flatnonzero(~short)
    todo = todo[np.argsort(counts[todo], kind="stable")]
    chunk = group.chunk if isinstance(family, _Chunks) else None
    with _quiet():
        if chunk is not None:
            long = counts[todo] > chunk
            todo, chunked = todo[~long], np.sort(todo[long])  # in start order
            cells = np.cumsum(-(-counts[chunked] // chunk))
            a = 0
            while a < len(chunked):
                # the most windows whose chunks fit the budget, at least one
                budget = (cells[a - 1] if a else 0) + BLOCK_BYTES // 32
                b = max(a + 1, int(np.searchsorted(cells, budget, side="right")))
                outs = _chunked_outputs(kernels, sources, pos[chunked[a:b], 0],
                                        counts[chunked[a:b]], chunk)
                for (_, _, column), out in zip(unit, outs):
                    column[chunked[a:b]] = out
                a = b
        for run in np.split(todo, np.flatnonzero(np.diff(counts[todo])) + 1):
            if not len(run):
                continue
            for rows, blocks in _blocks(sources, pos[run, 0], int(counts[run[0]]), raw):
                for (_, _, column), out, label in zip(unit, family(members, *blocks), labels):
                    column[run[rows]] = out if label is None else label[out]


def _search(group: _ResolvedGroup, wrapper: FuncWrapper, tags, columns, lo: int = 0,
            hi: int | None = None) -> None:
    """A builtin alone over the windows [lo, hi) (all by default) on the
    block path. Where that raises, its halves run, the first half first,
    down to the first window that raises alone, whose exception becomes the
    FunctionFailure."""
    hi = group.grid.n_segments if hi is None else hi
    try:
        return _run_blocks(group, [(wrapper, tags[0], columns[0])], slice(lo, hi))
    except Exception as exc:
        if hi - lo <= 1:
            raise _failure(group, wrapper, lo, exc)
    mid = (lo + hi) // 2
    _search(group, wrapper, tags, columns, lo, mid)
    _search(group, wrapper, tags, columns, mid, hi)


def _compute_unit(group: _ResolvedGroup, fis: tuple[int, ...]) -> tuple:
    """Run one unit: the functions ``fis`` of ``group``. Returns the output
    columns per function, the unit's wall time, its path, and None or
    (fi, FunctionFailure) of its first failing function. A fused unit whose
    block run raises is rerun builtin by builtin in registration order."""
    n = group.grid.n_segments
    columns = [[_missing_column(tag, n) for tag in group.wrapper_tags[fi]] for fi in fis]
    t0 = time.perf_counter()
    path, failure = "window", None
    if isinstance(group.wrappers[fis[0]].func, BlockKernel):
        path = "block"
        if len(fis) > 1:
            try:
                _run_blocks(group, [(group.wrappers[fi], group.wrapper_tags[fi][0], cols[0])
                                    for fi, cols in zip(fis, columns)])
                path = "fused"
            except Exception:
                pass  # each builtin again, alone
    if path != "fused":
        run = _run_windows if path == "window" else _search
        try:
            for fi, cols in zip(fis, columns):
                run(group, group.wrappers[fi], group.wrapper_tags[fi], cols)
        except FunctionFailure as exc:
            failure = fi, exc
    return columns, time.perf_counter() - t0, path, failure


def _units(groups: list[_ResolvedGroup]) -> list[tuple[int, tuple[int, ...]]]:
    """(group, function indices) per unit, in the order of each unit's first
    function. The builtins of a group that share a family, ``min_samples``
    and so a block make one unit; every other function is a unit alone."""
    units = []
    for gi, g in enumerate(groups):
        families: dict[tuple, list[int]] = {}
        for fi, wrapper in enumerate(g.wrappers):
            kernel = wrapper.func
            if isinstance(kernel, BlockKernel):
                key = (kernel.family, kernel.raw, wrapper.input_mode, wrapper.min_samples)
                if key in families:
                    families[key].append(fi)
                    continue
                units.append((gi, families.setdefault(key, [fi])))
            else:
                units.append((gi, [fi]))
    return [(gi, tuple(fis)) for gi, fis in units]


def _flush_std() -> None:
    """Flush Python's standard streams, so that what the parent buffered is
    not written again by a worker and what a worker buffered is not lost."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


def _send(conn, outcome) -> None:
    """One message: the pickled outcome."""
    conn.send_bytes(pickle.dumps(outcome))


def _work(groups: list[_ResolvedGroup], units: list[tuple], conn) -> None:
    """A forked worker: runs the unit at each position it receives on
    ``conn`` and sends its outcome, until it receives -1 or the caller's end
    closes. A BaseException (SystemExit, KeyboardInterrupt) is sent like an
    outcome, raised by the caller at this unit, and ends the worker."""
    try:
        while (p := int.from_bytes(conn.recv_bytes(), "little", signed=True)) >= 0:
            gi, fis = units[p]
            try:
                outcome = _compute_unit(groups[gi], fis)
            except BaseException as exc:  # raised again by the caller
                _send(conn, exc)
                return
            _send(conn, outcome)
    except EOFError:  # the caller is gone
        pass


def _lost(group: _ResolvedGroup, fis: tuple[int, ...], status: int) -> FunctionFailure:
    """The outcome of a unit whose worker ended, with wait ``status``,
    without sending it: a FunctionFailure of the unit's functions."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        how = f"exited with status {code}"
    else:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:  # a signal without a name
            how = f"was killed by signal {-code}"
    names = " + ".join(repr(group.wrappers[fi].base_name) for fi in fis)
    return FunctionFailure(f"function {names} on group {'|'.join(group.key[0])!r}: "
                           f"its worker {how} before reporting it")


def _fork_units(groups: list[_ResolvedGroup], units: list[tuple], n_workers: int,
                next_unit: Callable[[], int], settle: Callable[[int, object], None]) -> None:
    """Run units on min(n_workers, units, CPUs) forked workers: the
    transport for _run_units, whose ``next_unit`` picks each position to
    hand out (-1: none) and whose ``settle`` takes each outcome.

    Each worker has its own duplex connection. This process runs no unit
    and alone hands them out on it: a position when it forks the worker and
    the next as soon as that worker's outcome arrives, or -1, at which the
    worker exits. It polls the connections, settles each outcome at the unit
    that worker holds, and reaps a worker once its connection ends. A worker
    that dies (a signal, ``os._exit``) fails the unit it was last handed,
    with its exit status."""
    from multiprocessing.connection import Pipe  # not imported with stridekit

    workers: dict[int, list] = {}  # connection's fd -> [pid, connection, unit held]
    poller = select.poll()

    def hand(fd: int) -> None:
        workers[fd][2] = held = next_unit()
        try:
            workers[fd][1].send_bytes(held.to_bytes(8, "little", signed=True))
        except ConnectionError:  # the worker is gone; its connection's end follows
            pass

    _flush_std()
    try:
        for _ in range(min(n_workers, len(units), os.cpu_count() or 1)):
            ours, theirs = Pipe()
            try:
                pid = os.fork()
            except BaseException:
                ours.close()
                theirs.close()
                raise
            if pid == 0:  # the worker; never returns
                status = 1
                try:  # close this process's ends, which must end when it dies
                    for conn in (ours, *(v[1] for v in workers.values())):
                        conn.close()
                    _work(groups, units, theirs)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    _flush_std()
                    os._exit(status)
            theirs.close()
            workers[ours.fileno()] = [pid, ours, -1]
            poller.register(ours.fileno(), select.POLLIN)
            hand(ours.fileno())

        while workers:
            for fd, _ in poller.poll():
                pid, conn, held = workers[fd]
                try:  # a worker sends an outcome whole once it starts one
                    payload = conn.recv_bytes()
                except (EOFError, OSError):  # gone (a reset if it left a position unread)
                    del workers[fd]
                    poller.unregister(fd)
                    conn.close()
                    status = os.waitpid(pid, 0)[1]
                    if held >= 0:
                        settle(held, _lost(groups[units[held][0]], units[held][1], status))
                    continue
                try:
                    outcome = pickle.loads(payload)
                except Exception as exc:
                    outcome = exc
                settle(held, outcome)
                hand(fd)
    finally:
        for pid, conn, _ in workers.values():  # only when this process raised
            os.kill(pid, signal.SIGKILL)
            conn.close()
            os.waitpid(pid, 0)


def _run_units(groups: list[_ResolvedGroup], n_workers: int) -> dict[tuple, tuple]:
    """(columns, duration_s, path) per (group, function), a unit's wall time
    split evenly over its functions. The one hand-out rule for every worker
    count: units go out in registration order, none whose first function
    comes after one known to fail (an outcome that is an exception fails its
    unit's first), and the error of the first failing (group, function) is
    raised. The units run in this process, one after another, when there is
    one worker, one unit or no ``os.fork``; else on forked workers (see
    _fork_units)."""
    units = _units(groups)
    outcomes: list = [None] * len(units)
    handed, first = 0, ((math.inf,), None)  # ((group, function), error) of the first failure

    def next_unit() -> int:
        nonlocal handed
        if handed == len(units) or (units[handed][0], units[handed][1][0]) >= first[0]:
            return -1
        handed += 1
        return handed - 1

    def settle(p: int, outcome) -> None:
        nonlocal first
        outcomes[p] = outcome
        gi, fis = units[p]
        failed = (fis[0], outcome) if isinstance(outcome, BaseException) else outcome[3]
        if failed is not None and (gi, failed[0]) < first[0]:
            first = (gi, failed[0]), failed[1]

    if n_workers == 1 or len(units) < 2 or not hasattr(os, "fork"):
        while (p := next_unit()) >= 0:
            settle(p, _compute_unit(groups[units[p][0]], units[p][1]))
    else:
        _fork_units(groups, units, n_workers, next_unit, settle)
    if first[1] is not None:
        raise first[1]
    return {(gi, fi): (cols, duration / len(fis), path)
            for (gi, fis), (columns, duration, path, _) in zip(units, outcomes)
            for fi, cols in zip(fis, columns)}


def _union(stamps: list[np.ndarray], dtype) -> np.ndarray:
    """The sorted, distinct stamps of the grids: one grid's own when they
    strictly increase (float drift can repeat a numeric one), else by
    np.unique's sort path, a sort and a neighbour compare, so that of -0.0
    and 0.0 the same one is kept. (np.unique hashes int64 instead, which is
    slow on many distinct values.)"""
    active = [x for x in stamps if len(x)]
    if len(active) == 1 and (active[0][1:] > active[0][:-1]).all():
        return active[0].astype(dtype, copy=False)
    index = np.sort(np.concatenate(active or [np.array([], dtype=dtype)]))
    keep = np.ones(len(index), dtype=bool)
    keep[1:] = index[1:] != index[:-1]
    return index[keep].astype(dtype, copy=False)


def _merge(groups: list[_ResolvedGroup], results: dict[tuple, tuple]) -> FeatureMatrix:
    """Outer-join the columns on the grids' sorted, distinct stamps."""
    stamps = {grid: grid.output_index() for grid in dict.fromkeys(g.grid for g in groups)}
    kind = groups[0].grid.kind if groups else None
    index = _union(list(stamps.values()), np.int64 if kind is IndexKind.TIME_NS else np.float64)
    rows = {grid: slice(None) if x is index else np.searchsorted(index, x)
            for grid, x in stamps.items()}

    columns: dict[str, FeatureColumn] = {}
    for gi, g in enumerate(groups):
        series_names, w, s = g.key
        for fi, wrapper in enumerate(g.wrappers):
            arrays = results[(gi, fi)][0]
            tags = g.wrapper_tags[fi]
            for j, out_name in enumerate(wrapper.output_names):
                col_name = format_output_name(series_names, out_name, w, s)
                data = _missing_column(tags[j], len(index))
                data[rows[g.grid]] = arrays[j]
                columns[col_name] = FeatureColumn(tags[j], data)
    return FeatureMatrix(kind, index, columns)


def _sparsity_warnings(groups: list[_ResolvedGroup]) -> list[SparsityWarning]:
    warnings = []
    for g in groups:
        series_names, w, s = g.key
        for series, pos in zip(g.series, g.positions):
            if g.grid.n_segments == 0:
                continue
            counts = pos[:, 1] - pos[:, 0]
            modal = _mode(counts)
            deviant = int(np.count_nonzero(counts != modal))
            if deviant:
                warnings.append(
                    SparsityWarning(series.name, series_names, w, s, modal, deviant)
                )
    return warnings


def extract(
    series_set: SeriesSet,
    collection: FeatureCollection,
    options: ExtractOptions | None = None,
) -> ExtractResult:
    """Run every registered feature over its strided windows and outer-join
    the per-group results on the output index.

    Raises UnknownSeries, KindMismatch, DisjointSpans, or InvalidDescriptor
    (a builtin on a multi-series group) before any function runs;
    FunctionFailure (naming the group and segment) aborts the whole
    extraction.
    """
    options = options or ExtractOptions()
    groups = _resolve_groups(series_set, collection, options.output_position)
    warnings = [] if options.approve_sparsity else _sparsity_warnings(groups)
    results = _run_units(groups, options.n_workers)
    matrix = _merge(groups, results)

    records = []
    for gi, g in enumerate(groups):
        series_names, w, s = g.key
        for fi, wrapper in enumerate(g.wrappers):
            _, duration, path = results[(gi, fi)]
            records.append(
                LogRecord(
                    func=wrapper.base_name,
                    series="|".join(series_names),
                    window=w,
                    stride=s,
                    n_segments=g.grid.n_segments,
                    duration_s=duration,
                    path=path,
                )
            )
    if options.log_path:
        try:
            with open(options.log_path, "w", encoding="utf-8") as fh:
                for r in records:
                    fh.write(json.dumps(r.to_json_obj()) + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {options.log_path}: {exc}") from exc
    return ExtractResult(matrix, records, warnings)
