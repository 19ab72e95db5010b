"""Gap-aware chunk ranges and cross-series chunk grouping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridekit import ChunkGroup, ChunkSpec, SeriesSet, chunk_series, chunk_set
from stridekit.errors import BadSpec, KindMismatch

from conftest import NS, numeric_series, time_series


def test_gap_splits_at_large_difference():
    s = numeric_series("S", [0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    assert chunk_series(s, ChunkSpec(gap_factor=4.0)) == [(0.0, 2.0), (10.0, 12.0)]


def test_max_duration_cuts_regular_series():
    s = time_series("S", np.arange(0.0, 101.0))
    spec = ChunkSpec(max_chunk_dur="40s")
    got = chunk_series(s, spec)
    assert got == [(0, 40 * NS), (40 * NS, 80 * NS), (80 * NS, 100 * NS)]


def test_single_sample_and_empty_series():
    one = numeric_series("S", [7.5])
    assert chunk_series(one) == [(7.5, 7.5)]
    empty = numeric_series("S", np.array([], dtype=np.float64))
    assert chunk_series(empty) == []


def test_min_duration_drops_short_chunks():
    idx = np.concatenate([np.arange(0.0, 31.0), np.array([100.0, 101.0, 102.0]),
                          np.arange(200.0, 251.0)])
    s = numeric_series("S", idx)
    got = chunk_series(s, ChunkSpec(min_chunk_dur=10.0))
    assert got == [(0.0, 30.0), (200.0, 250.0)]
    # A chunk exactly min_chunk_dur long is kept.
    kept = chunk_series(s, ChunkSpec(min_chunk_dur=2.0))
    assert (100.0, 102.0) in kept


def test_chunks_within_the_max_duration_come_back_whole():
    s = numeric_series("S", [0.0, 1.0, 2.0, 3.0, 20.0, 40.0, 41.0, 42.0])
    got = chunk_series(s, ChunkSpec(gap_factor=4.0, max_chunk_dur=3.0))
    assert got == [(0.0, 3.0), (20.0, 20.0), (40.0, 42.0)]


def test_overlap_extends_cut_pieces_backward():
    s = numeric_series("S", np.arange(0.0, 101.0))
    got = chunk_series(s, ChunkSpec(max_chunk_dur=40.0, sub_chunk_overlap=5.0))
    assert got == [(0.0, 40.0), (35.0, 80.0), (75.0, 100.0)]


@pytest.mark.parametrize("field", ["min_chunk_dur", "max_chunk_dur", "sub_chunk_overlap"])
@pytest.mark.parametrize("value", ["nan", math.inf])
def test_chunk_durations_must_be_finite(field, value):
    s = numeric_series("S", np.arange(0.0, 10.0))
    with pytest.raises(BadSpec, match="not finite"):
        chunk_series(s, ChunkSpec(**{field: value}))


def test_chunkspec_validation():
    with pytest.raises(BadSpec):
        ChunkSpec(gap_factor=1.0)
    with pytest.raises(BadSpec):
        ChunkSpec(gap_factor=True)
    s = numeric_series("S", np.arange(0.0, 10.0))
    with pytest.raises(BadSpec):
        chunk_series(s, ChunkSpec(max_chunk_dur=10.0, sub_chunk_overlap=10.0))
    with pytest.raises(BadSpec):
        chunk_series(s, ChunkSpec(max_chunk_dur=-1.0))
    with pytest.raises(BadSpec):
        # Time duration against a numeric index.
        chunk_series(s, ChunkSpec(max_chunk_dur="40s"))


def test_ranges_sorted_and_disjoint_without_overlap():
    idx = np.concatenate([np.arange(0.0, 50.0), np.arange(500.0, 620.0)])
    got = chunk_series(numeric_series("S", idx), ChunkSpec(max_chunk_dur=30.0))
    assert got == sorted(got)
    for (b0, e0), (b1, e1) in zip(got, got[1:]):
        assert e0 <= b1 or b1 >= b0  # consecutive pieces touch at most


@settings(max_examples=80)
@given(
    st.lists(st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
             min_size=1, max_size=60),
    st.floats(min_value=1.5, max_value=8.0),
)
def test_reconstruction_and_no_internal_gap(steps, gap_factor):
    idx = np.cumsum(np.array(steps))
    s = numeric_series("S", idx)
    spec = ChunkSpec(gap_factor=gap_factor)
    ranges = chunk_series(s, spec)
    # Reconstruction: the ranges tile the samples exactly, in order.
    pieces = []
    for b, e in ranges:
        lo = int(np.searchsorted(idx, b, side="left"))
        hi = int(np.searchsorted(idx, e, side="right"))
        pieces.append(idx[lo:hi])
    rebuilt = np.concatenate(pieces) if pieces else np.array([])
    assert rebuilt.tobytes() == idx.tobytes()
    # No internal gap: inside a chunk every step is within threshold.
    if len(idx) > 1:
        threshold = gap_factor * float(np.median(np.diff(idx)))
        for piece in pieces:
            if len(piece) > 1:
                assert float(np.max(np.diff(piece))) <= threshold + 1e-12


def test_chunk_set_groups_overlapping_series():
    a = numeric_series("A", np.arange(0.0, 11.0))
    b = numeric_series("B", np.arange(5.0, 31.0))
    groups = chunk_set(SeriesSet([a, b]))
    assert len(groups) == 1
    g = groups[0]
    assert (g.begin, g.end) == (0.0, 30.0)
    assert g.names() == ["A", "B"]
    assert len(g.slices[0]) == 11 and len(g.slices[1]) == 26


def test_chunk_set_separates_disjoint_series():
    a = numeric_series("A", np.arange(0.0, 11.0))
    b = numeric_series("B", np.arange(20.0, 31.0))
    groups = chunk_set(SeriesSet([a, b]))
    assert [(g.begin, g.end) for g in groups] == [(0.0, 10.0), (20.0, 30.0)]
    assert [g.names() for g in groups] == [["A"], ["B"]]


def test_chunk_set_respects_gaps_within_one_series():
    idx = np.concatenate([np.arange(0.0, 11.0), np.arange(100.0, 111.0)])
    a = numeric_series("A", idx)
    b = numeric_series("B", np.arange(3.0, 106.0))
    groups = chunk_set(SeriesSet([a, b]))
    # B bridges A's two chunks, so everything is one component.
    assert len(groups) == 1
    assert (groups[0].begin, groups[0].end) == (0.0, 110.0)


def test_chunk_slices_lie_within_group_range():
    idx = np.concatenate([np.arange(0.0, 20.0), np.arange(200.0, 240.0)])
    a = numeric_series("A", idx)
    b = numeric_series("B", np.arange(190.0, 260.0, 2.0))
    for g in chunk_set(SeriesSet([a, b])):
        assert isinstance(g, ChunkGroup)
        for view in g.slices:
            if len(view):
                assert view.index[0] >= g.begin
                assert view.index[-1] <= g.end


def test_touching_cut_pieces_stay_separate_groups():
    # Max-duration cutting without overlap produces ranges that touch at the
    # boundary value; touching alone must not merge them back together.
    s = numeric_series("S", np.arange(0.0, 101.0))
    groups = chunk_set(SeriesSet([s]), ChunkSpec(max_chunk_dur=40.0))
    assert [(g.begin, g.end) for g in groups] == [(0.0, 40.0), (40.0, 80.0), (80.0, 100.0)]


def test_overlapping_cut_pieces_of_one_series_do_merge():
    # With a positive overlap the pieces genuinely intersect, so the
    # component grouping joins them again; per-piece work needs the ranges
    # from chunk_series, not chunk_set.
    s = numeric_series("S", np.arange(0.0, 101.0))
    groups = chunk_set(SeriesSet([s]), ChunkSpec(max_chunk_dur=40.0, sub_chunk_overlap=5.0))
    assert [(g.begin, g.end) for g in groups] == [(0.0, 100.0)]


def test_chunk_set_sorted_by_begin():
    a = numeric_series("A", np.arange(50.0, 61.0))
    b = numeric_series("B", np.arange(0.0, 11.0))
    groups = chunk_set(SeriesSet([a, b]))
    assert [(g.begin, g.end) for g in groups] == [(0.0, 10.0), (50.0, 60.0)]


def test_chunk_set_kind_mismatch():
    a = numeric_series("A", np.arange(0.0, 11.0))
    b = time_series("B", np.arange(0.0, 11.0))
    with pytest.raises(KindMismatch):
        chunk_set(SeriesSet([a, b]))


def test_chunk_set_empty_set():
    assert chunk_set(SeriesSet()) == []
