"""Strided-rolling window arithmetic over index spans.

Windows are left-closed right-open intervals ``[begin + k*stride,
begin + k*stride + window)`` expressed in index units, and only complete
windows (fully inside the span) are generated. Sample positions for every
window are located by one vectorized binary search over all window bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadParam,
    DisjointSpans,
    EmptySeries,
    KindMismatch,
    NonPositiveStride,
    NonPositiveWindow,
)
from .series import Delta, IndexKind, Series, _index_scalar


class OutputPosition(enum.Enum):
    """Which end of each window labels its output row."""

    BEGIN = "begin"
    END = "end"


def _output_position(value) -> OutputPosition:
    """``value`` as an OutputPosition: a member or its value, else BadParam."""
    try:
        return OutputPosition(value)
    except ValueError:
        raise BadParam(f"output_position must be 'begin' or 'end', got {value!r}") from None


@dataclass(frozen=True)
class SegmentGrid:
    kind: IndexKind
    span_begin: int | float
    window: int | float
    stride: int | float
    n_segments: int
    output_position: OutputPosition = OutputPosition.END

    def starts(self) -> np.ndarray:
        """Window starts, computed as begin + k*stride in one multiply-add."""
        k = np.arange(self.n_segments)
        if self.kind is IndexKind.TIME_NS:
            return self.span_begin + k * int(self.stride)
        return self.span_begin + k.astype(np.float64) * self.stride

    def ends(self) -> np.ndarray:
        return self.starts() + self.window

    def output_index(self) -> np.ndarray:
        if self.output_position is OutputPosition.END:
            return self.ends()
        return self.starts()

    def segment_bounds(self, k: int) -> tuple:
        start = self.span_begin + k * self.stride
        return start, start + self.window


def window_stride(window, stride) -> tuple[Delta, Delta]:
    """``window`` and ``stride`` as positive Deltas of one kind."""
    w, s = Delta.coerce(window), Delta.coerce(stride)
    if w.kind is not s.kind:
        raise KindMismatch(f"window kind {w.kind.value} != stride kind {s.kind.value}")
    if w.value <= 0:
        raise NonPositiveWindow(f"window must be positive, got {w.render()}")
    if s.value <= 0:
        raise NonPositiveStride(f"stride must be positive, got {s.render()}")
    return w, s


def build_grid(
    span_begin,
    span_end,
    window,
    stride,
    output_position: OutputPosition = OutputPosition.END,
    kind: IndexKind | None = None,
) -> SegmentGrid:
    """Grid of complete strided windows covering [span_begin, span_end].

    The segment count follows floor((span - window) / stride) + 1 and is then
    reconciled against direct enumeration of begin + k*stride + window so that
    float rounding in the division can never disagree with ``starts()``.
    """
    w, s = window_stride(window, stride)
    if kind is not None and kind is not w.kind:
        raise KindMismatch(f"window/stride kind {w.kind.value} but span kind {kind.value}")
    kind = w.kind
    begin = _index_scalar(span_begin, kind)
    end = _index_scalar(span_end, kind)
    if begin > end:
        raise DisjointSpans(f"span begin {begin} exceeds span end {end}")

    span = end - begin
    if kind is IndexKind.TIME_NS:
        n = 0 if span < w.value else (span - w.value) // s.value + 1
    else:
        if not math.isfinite(span):
            raise BadParam(f"span [{begin}, {end}] is not finite")
        n = 0 if span < w.value else math.floor((span - w.value) / s.value) + 1
        # Reconcile float division (and the span subtraction itself) against
        # the multiply-add start formula, which is what starts() evaluates.
        while begin + n * s.value + w.value <= end:
            n += 1
        while n > 0 and begin + (n - 1) * s.value + w.value > end:
            n -= 1
    return SegmentGrid(kind, begin, w.value, s.value, int(n), _output_position(output_position))


def segment_positions(series: Series, grid: SegmentGrid) -> np.ndarray:
    """(n_segments, 2) array of [lo, hi) sample positions per window, found by
    searchsorted over all window starts and ends at once."""
    if series.kind is not grid.kind:
        raise KindMismatch(
            f"series kind {series.kind.value} != grid kind {grid.kind.value}"
        )
    starts = grid.starts()
    lo = np.searchsorted(series.index, starts, side="left")
    hi = np.searchsorted(series.index, starts + grid.window, side="left")
    return np.stack([lo, hi], axis=1).astype(np.int64)


def intersect_spans(series: Sequence[Series]) -> tuple:
    """Largest span observed by every series: (max of first indices, min of
    last indices)."""
    if not series:
        raise EmptySeries("need at least one series")
    kinds = {s.kind for s in series}
    if len(kinds) > 1:
        raise KindMismatch("series mix index kinds")
    for s in series:
        if len(s) == 0:
            raise EmptySeries(f"series {s.name!r} is empty")
    begin = max(s.index[0] for s in series)
    end = min(s.index[-1] for s in series)
    if begin > end:
        raise DisjointSpans(f"series spans do not intersect: begin {begin} > end {end}")
    return _index_scalar(begin, series[0].kind), _index_scalar(end, series[0].kind)
