"""Tests of the benchmark's own helpers: digests, order statistics, span
self-time arithmetic, the oracle, and the seeded generators.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src"))

import measure  # noqa: E402
import stridekit  # noqa: E402
from measure import (  # noqa: E402
    ORACLE,
    Span,
    cells_agree,
    covered_length,
    digest_file,
    digest_matrix,
    median,
    n_windows,
    normalized,
    percentile,
    self_times,
    supported_percentile,
    window_bounds,
)
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    library_calls,
    oracle_mismatches,
    output_digest,
    synthetic_arrays,
    wearable_arrays,
)


def _matrix(int_cells=(1, 2, None)):
    idx = np.array([10, 20, 30], dtype=np.int64)
    cols = {
        "a__mean__w=1s_s=1s": stridekit.FeatureColumn(
            stridekit.ValueTag.F64, np.array([0.5, np.nan, -1.25])),
        "a__count__w=1s_s=1s": stridekit.FeatureColumn(
            stridekit.ValueTag.I64, np.array(list(int_cells), dtype=object)),
    }
    return stridekit.FeatureMatrix(stridekit.IndexKind.TIME_NS, idx, cols)


# -- digests -----------------------------------------------------------------

def test_digest_is_stable_for_equal_matrices():
    assert digest_matrix(_matrix()) == digest_matrix(_matrix())


def test_digest_changes_when_one_float_cell_flips_a_bit():
    m = _matrix()
    before = digest_matrix(m)
    data = m["a__mean__w=1s_s=1s"].data
    data.view(np.uint64)[2] ^= 1
    assert digest_matrix(m) != before


def test_digest_changes_with_an_object_cell_an_index_value_or_a_name():
    base = digest_matrix(_matrix())
    assert digest_matrix(_matrix((1, 3, None))) != base
    assert digest_matrix(_matrix((1, 2, 0))) != base
    m = _matrix()
    m.index[0] += 1
    assert digest_matrix(m) != base
    renamed = _matrix().project(["a__count__w=1s_s=1s", "a__mean__w=1s_s=1s"])
    assert digest_matrix(renamed) != base


def test_file_digest_sees_one_byte(tmp_path):
    p = tmp_path / "x.csv"
    p.write_bytes(b"index,a\n1,2\n")
    d = digest_file(p)
    assert digest_file(p) == d
    p.write_bytes(b"index,a\n1,3\n")
    assert digest_file(p) != d


# -- order statistics --------------------------------------------------------

def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 99.9) == 100
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile(xs, 0)


def test_supported_percentile_needs_ten_samples_above():
    assert supported_percentile(19) is None
    assert supported_percentile(20) == 50.0
    assert supported_percentile(99) == 50.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(200) == 95.0
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(10000) == 99.9


# -- spans -------------------------------------------------------------------

def _span(i, parent, start, end, name="x.y"):
    s = Span(i, name, parent, 0, start)
    s.end = end
    return s


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),   # job
        _span(1, 0, 1.0, 4.0),       # child
        _span(2, 1, 2.0, 3.0),       # grandchild: counts against 1, not 0
        _span(3, 0, 3.5, 6.0),       # child overlapping the first
        _span(4, 0, 9.0, 12.0),      # child running past its parent: clipped
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(2.5)
    assert got[4] == pytest.approx(3.0)


# -- oracle ------------------------------------------------------------------

def test_oracle_matches_the_builtins_on_a_window(rng):
    v = rng.normal(size=257)
    t = np.cumsum(rng.integers(1, 10**7, size=257)).astype(np.int64)
    for name, fn in ORACLE.items():
        params = {"q": 0.3} if name == "quantile" else {}
        wrapper = stridekit.builtin(name, params)
        args = ((v, t),) if name == "slope" else (v,)
        assert cells_agree(wrapper.apply(args)[0], fn(v, t, params)), name


def test_cells_agree_tolerance_and_types():
    assert cells_agree(1.0 + 1e-12, 1.0)
    assert not cells_agree(1.0 + 1e-6, 1.0)
    assert cells_agree(float("nan"), float("nan"))
    assert not cells_agree(0.0, float("nan"))
    assert cells_agree(3, 3)
    assert not cells_agree(None, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- generators and workloads ------------------------------------------------

def test_synthetic_generator_is_bit_identical_per_seed_and_differs_across_seeds():
    i1, c1 = synthetic_arrays(3, 5)
    i2, c2 = synthetic_arrays(3, 5)
    _, c3 = synthetic_arrays(4, 5)
    assert i1.tobytes() == i2.tobytes()
    assert all(c1[k].tobytes() == c2[k].tobytes() for k in c1)
    assert c1["ch_0"].dtype == np.float32 and len(c1) == 5 and len(i1) == 5000
    assert c1["ch_0"].tobytes() != c3["ch_0"].tobytes()


def test_wearable_generator_is_bit_identical_per_seed_and_differs_across_seeds():
    a, b, c = wearable_arrays(3, 1800), wearable_arrays(3, 1800), wearable_arrays(4, 1800)

    def flat(files):
        return b"".join(ix.tobytes() + b"".join(v.tobytes() for v in cols.values())
                        for ix, cols in files.values())

    assert flat(a) == flat(b)
    assert flat(a) != flat(c)
    acc_index = a["acc"][0]
    gaps = np.diff(acc_index)
    assert (gaps > 60 * 10**9).sum() == 2  # the two dropouts
    ibi = a["ibi"][1]["IBI"]
    assert ibi.min() >= 0.7 and ibi.max() <= 1.1


@pytest.mark.parametrize("name, seconds", [("battery", 60), ("fine_stride", 60),
                                           ("wearable_csv", 1800)])
def test_workload_reference_passes_the_oracle_and_a_broken_cell_fails_it(
        name, seconds, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.RECORDING_S, name, seconds)
    wl = WORKLOADS[name](1, str(tmp_path), 2)
    output, matrix = wl.reference()
    assert output_digest(wl.job(library_calls())) == output_digest(output)
    assert oracle_mismatches(wl, matrix) == []
    col = next(c for c in matrix.column_names if "__mean__" in c)
    data = matrix[col].data
    first = int(np.flatnonzero(~np.isnan(data))[0])
    data[first] += 1e-3
    assert oracle_mismatches(wl, matrix)


def test_normalized_scales_by_the_bracketing_calibrations():
    ref = measure.CALIB_REF_S
    got = normalized([1.0, 2.0], [(ref, ref), (2 * ref, 2 * ref)])
    assert got == pytest.approx([1.0, 1.0])
    assert normalized([1.0], [(ref / 2, 3 * ref / 2)]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        normalized([1.0, 2.0], [(ref, ref)])


def test_window_arithmetic_on_an_irregular_index():
    index = np.array([0, 5, 10, 12, 30, 31], dtype=np.int64)
    assert n_windows(index, 10, 5) == 5
    assert n_windows(index, 40, 5) == 0
    assert window_bounds(index, 10, 5, 0) == (0, 0, 2)
    assert window_bounds(index, 10, 5, 2) == (10, 2, 4)
    assert window_bounds(index, 10, 5, 4) == (20, 4, 4)
