"""Gap-aware chunking of series and series sets.

A chunk range is a closed interval of index values. chunk_series splits one
series at gaps (consecutive difference > gap_factor x median period), then
optionally drops short chunks and cuts long ones into bounded pieces with a
backward overlap so windowed extraction at the seams loses nothing when the
overlap is at least window - stride.

chunk_set runs per-series chunking, then groups ranges across series into
connected components of the strict-overlap graph; zero-width touching (for
example at exact cut boundaries) does not connect ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, KindMismatch
from .series import (Delta, IndexKind, Series, SeriesSet, SeriesView, _index_scalar,
                     infer_period)


@dataclass(frozen=True)
class ChunkSpec:
    """Chunking parameters. Durations accept anything Delta.coerce does and
    must match the chunked series' index kind."""

    gap_factor: float = 4.0
    min_chunk_dur: object = None
    max_chunk_dur: object = None
    sub_chunk_overlap: object = None

    def __post_init__(self):
        gf = self.gap_factor
        if isinstance(gf, bool) or not isinstance(gf, (int, float)) or not gf > 1.0:
            raise BadSpec(f"gap_factor must be a number > 1, got {gf!r}")

    def resolve(self, kind: IndexKind) -> tuple:
        """Durations as index-kind scalars: (min_dur, max_dur, overlap)."""

        def one(raw, label):
            if raw is None:
                return None
            try:
                d = Delta.coerce(raw)
            except Exception as exc:
                raise BadSpec(f"{label}: {exc}") from exc
            if d.kind is not kind:
                raise BadSpec(
                    f"{label} has kind {d.kind.value}, series index is {kind.value}"
                )
            if d.value <= 0:
                raise BadSpec(f"{label} must be positive")
            return d.value

        min_dur = one(self.min_chunk_dur, "min_chunk_dur")
        max_dur = one(self.max_chunk_dur, "max_chunk_dur")
        overlap = one(self.sub_chunk_overlap, "sub_chunk_overlap")
        if overlap is not None and max_dur is not None and overlap >= max_dur:
            raise BadSpec("sub_chunk_overlap must be smaller than max_chunk_dur")
        return min_dur, max_dur, overlap


def chunk_series(series: Series, spec: ChunkSpec = ChunkSpec()) -> list[tuple]:
    """Closed (begin, end) index-value ranges covering the series.

    Order of operations: gap splitting, then min-duration dropping, then
    max-duration cutting (pieces extended backward by sub_chunk_overlap,
    clipped at the chunk start). An empty series yields no ranges; a single
    sample yields one zero-length range.
    """
    n = len(series)
    if n == 0:
        return []
    kind = series.kind
    idx = series.index
    if n == 1:
        v = _index_scalar(idx[0], kind)
        return [(v, v)]
    min_dur, max_dur, overlap = spec.resolve(kind)
    threshold = spec.gap_factor * infer_period(series)
    diffs = np.diff(idx)
    cuts = np.nonzero(diffs > threshold)[0]
    bounds = [0, *(int(c) + 1 for c in cuts), n]
    ranges = [
        (_index_scalar(idx[a], kind), _index_scalar(idx[b - 1], kind))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    if min_dur is not None:
        ranges = [(b, e) for b, e in ranges if e - b >= min_dur]
    if max_dur is None:
        return ranges
    ov = overlap if overlap is not None else 0
    out = []
    for v0, v1 in ranges:
        if v1 - v0 <= max_dur:
            out.append((v0, v1))
            continue
        k = 0
        while v0 + k * max_dur < v1:
            begin = max(v0, v0 + k * max_dur - ov)
            end = min(v0 + (k + 1) * max_dur, v1)
            out.append((begin, end))
            k += 1
    return out


@dataclass(frozen=True)
class ChunkGroup:
    """A bounding interval and one clipped view per member series."""

    begin: object
    end: object
    slices: tuple[SeriesView, ...]

    def names(self) -> list[str]:
        return [v.name for v in self.slices]


def _clip_closed(series: Series, begin, end) -> SeriesView:
    lo = int(np.searchsorted(series.index, begin, side="left"))
    hi = int(np.searchsorted(series.index, end, side="right"))
    return series.view(lo, hi)


def chunk_set(series_set: SeriesSet, spec: ChunkSpec = ChunkSpec()) -> list[ChunkGroup]:
    """Group per-series chunk ranges into connected components and clip each
    member series to the component's bounding interval.

    All series must share one index kind. Groups come back sorted by begin.
    """
    series_list = list(series_set)
    if not series_list:
        return []
    kinds = {s.kind for s in series_list}
    if len(kinds) > 1:
        raise KindMismatch(
            f"chunk_set needs one index kind, got {sorted(k.value for k in kinds)}"
        )
    order = {s.name: i for i, s in enumerate(series_list)}
    items = []
    for s in series_list:
        for begin, end in chunk_series(s, spec):
            items.append((begin, end, s))
    items.sort(key=lambda t: (t[0], t[1], order[t[2].name]))

    groups: list[ChunkGroup] = []
    comp: list[tuple] = []
    comp_end = None
    for begin, end, s in items:
        if comp and begin < comp_end:  # strict: touching does not connect
            comp.append((begin, end, s))
            comp_end = max(comp_end, end)
        else:
            if comp:
                groups.append(_close_component(comp, comp_end))
            comp = [(begin, end, s)]
            comp_end = end
    if comp:
        groups.append(_close_component(comp, comp_end))
    return groups


def _close_component(comp: list[tuple], comp_end) -> ChunkGroup:
    begin = comp[0][0]
    members: list[Series] = []
    for _, _, s in comp:
        if all(m is not s for m in members):
            members.append(s)
    slices = tuple(_clip_closed(s, begin, comp_end) for s in members)
    return ChunkGroup(begin, comp_end, slices)
