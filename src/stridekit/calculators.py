"""Built-in window functions, one block kernel each.

Every builtin is a :class:`~stridekit.features.BlockKernel`: a member of a
numpy ``family(members, values[, index])`` that maps a block of b windows of
c samples each, shape (b, c), to one (b,) array per member asked for (slope
also gets the matching index block). extract runs one family call per block
of equal-count windows; called on one window, a kernel is its family on a
one-row block. Reductions run along each row, so a window's value does not
depend on the block it was computed in.

Two families share work between builtins. The order family (median and
quantile at any q) takes one selection per needed rank, in the block's
stored dtype (see order_stats); the moment family (sum, mean, var, std, rms,
abs_energy, skewness, kurtosis) takes one row sum, one deviation array and
its square per block. A member alone is its family asked for that member,
so a builtin has one compute path whether extract fuses it with others of
its family or not. min, max, count, first, last, slope and zero_cross are
families of one member.

The moment family, min, max, slope and zero_cross are chunk-merged (a
``_Chunks`` rule, which called on whole windows is the unchunked family):
with the chunk length K of the window's (series, grid) (see
``features._chunk_length``), a window of c > K samples is computed as chunks
of K samples from its start, the last one shorter when K does not divide c.
Each chunk gets the kernel's statistics, computed once however many
overlapping windows hold it, and each window reduces its chunks' statistics
pairwise in chunk order: adjacent chunks first, then adjacent results. A
window of one chunk (K >= c, or no K: windows that overlap less than
threefold, a gcd below features.MIN_CHUNK, a direct call) takes the
unchunked arithmetic.

Exact semantics, fixed here so results are reproducible bit for bit:

- accumulations (sum, mean, std, var, rms, abs_energy, skewness, kurtosis,
  slope, quantile, median) compute in float64 regardless of input tag; median
  and quantile select their order statistics as stored and cast only those;
- a window's value depends only on its samples and its K: not on its block,
  its worker, its fusion or the block budget;
- unchunked, a row's sums are numpy's pairwise row sums; chunked, they are
  those of the chunks, added pairwise (adjacent chunks first, an odd last
  one carried up);
- std and var are population moments (divide by n); a chunked window's
  central sums are the chunks' shifted to the window mean (Chan, Golub &
  LeVeque 1979; Pebay 2008), e.g. M2 = sum(M2_j + n_j (mean_j - mean)^2);
- skewness is Fisher-Pearson g1 = m3 / m2^1.5, kurtosis is excess
  g2 = m4 / m2^2 - 3; zero-variance windows yield 0.0 for both;
- median is the middle value or the mean of the middle pair; quantile
  interpolates linearly between order statistics with numpy.quantile's
  rules; both return +0.0 for a zero result and NaN for a window holding NaN;
- min and max are exact; a zero result keeps the sign its window's zeros
  share, and with both signs present it is numpy's pick over the chunks;
- slope is the least-squares slope of values against the index, with a time
  index shifted to the window start and cast to float seconds (the shift keeps
  nanosecond timestamps inside float64 precision); a chunk's times run from
  its own first sample, and its offset from the window start is taken in
  index units (int64 ns) before the cast; a zero-spread index yields a slope
  of 0.0;
- zero_cross counts strict sign changes, i.e. consecutive products < 0,
  evaluated in float64; a chunked window adds a chunk's last value times
  the next one's first at each seam, so its count is the unchunked one;
- NaN and +-inf propagate as IEEE arithmetic makes them, without a warning:
  the kernels ignore the floating-point errors numpy would only warn about,
  and raise those a caller's np.errstate makes raise; a chunked window's NaN
  is np.nan, since where a NaN from the data meets one made by inf - inf
  the payload kept depends on numpy's loop for the array shape;
- count outputs an I64 column (and therefore rejects a NaN robust fill);
  first and last preserve the input series' value tag.

Kernels are numpy only: what a window with too few samples yields is the
wrapper's rule (``FuncWrapper.min_samples`` and ``fills``), which ``builtin``
sets from 1. Empty windows: count returns 0 and sum, abs_energy, zero_cross
return 0.0, the builtin's fill. Every other function raises, which extract
surfaces as FunctionFailure unless the wrapper is made robust.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import BadParam, UnknownBuiltin
from .features import BlockKernel, FuncWrapper, InputMode, PRESERVE, _Chunks
from .series import ValueTag, render_number


def _moment_ratio(m, m2, power, shift=0.0):
    """m / m2**power - shift per window; 0.0 where m2 is 0."""
    out = np.full_like(m2, shift)
    np.divide(m, m2 ** power, out=out, where=m2 != 0.0)
    return out - shift


_ENERGY = {"rms", "abs_energy"}
_CENTRAL = {"var", "std", "skewness", "kurtosis"}


def _moment_sums(members, v):
    """Per-row sums of a (rows, n) block, each only when a member needs it:
    "S" of v, "E" of v*v, and "M2", "M3", "M4" of d**2, d**3, d**4 for
    d = v - S/n (M3 for kurtosis too, whose merge needs it). d is squared in
    place unless M3 needs it, so var and std hold two block-sized arrays."""
    n = v.shape[1]
    want = set(members)
    out = {}
    if want & _ENERGY:
        out["E"] = np.add.reduce(v * v, axis=1)
    if want - _ENERGY:
        out["S"] = np.add.reduce(v, axis=1)
    if want & _CENTRAL:
        d = v - (out["S"] / n)[:, None]
        higher = want & {"skewness", "kurtosis"}
        d2 = d * d if higher else np.multiply(d, d, out=d)
        out["M2"] = np.add.reduce(d2, axis=1)
        if higher:
            out["M3"] = np.add.reduce(np.multiply(d2, d, out=d), axis=1)
            del d
            if "kurtosis" in want:
                out["M4"] = np.add.reduce(np.multiply(d2, d2, out=d2), axis=1)
    return out


def _merge_moments(members, s, sizes, offsets, fold, pad):
    """Chunk sums to window sums: S and E add up, and the central sums shift
    to the window mean (Chan, Golub & LeVeque 1979; Pebay 2008). With
    d = chunk mean - window mean and n_j the chunk's count:
    M2 = sum(M2_j + n_j d^2), M3 = sum(M3_j + 3 d M2_j + n_j d^3),
    M4 = sum(M4_j + 4 d M3_j + 6 d^2 M2_j + n_j d^4)."""
    out = {name: fold(s[name]) for name in ("S", "E") if name in s}
    if "M2" in s:
        delta = s["S"] / sizes - out["S"] / fold(sizes)
        d2 = delta * delta
        out["M2"] = fold(s["M2"] + sizes * d2)
        if "M3" in s:
            out["M3"] = fold(s["M3"] + 3.0 * delta * s["M2"] + sizes * d2 * delta)
        if "M4" in s:
            out["M4"] = fold(s["M4"] + 4.0 * delta * s["M3"] + 6.0 * d2 * s["M2"]
                             + sizes * d2 * d2)
    return out


def _moment_values(members, s, n):
    out = {}
    if "E" in s:
        out["abs_energy"], out["rms"] = s["E"], np.sqrt(s["E"] / n)
    if "S" in s:
        out["sum"], out["mean"] = s["S"], s["S"] / n
    if "M2" in s:
        m2 = s["M2"] / n
        out["var"], out["std"] = m2, np.sqrt(m2)
        if "skewness" in members:
            out["skewness"] = _moment_ratio(s["M3"] / n, m2, 1.5)
        if "kurtosis" in members:
            out["kurtosis"] = _moment_ratio(s["M4"] / n, m2, 2, shift=3.0)
    return [out[m] for m in members]


#: The moment family: one row sum, one d = v - mean and one d*d per block,
#: plus one v*v for rms and abs_energy, each computed only when a member
#: needs it.
_MOMENTS = _Chunks(_moment_sums, _merge_moments, _moment_values)


def order_stats(members, v):
    """The order family: "median" and quantiles at q. median is the middle
    value or the mean of the middle pair, as np.median; a quantile
    interpolates linearly between its neighbouring order statistics with
    np.quantile's index and rounding rules. A zero result is +0.0 and a row
    holding NaN, found by the row max, yields NaN. One selection per needed
    rank in the stored dtype: a single-kth partition of a copy of the block,
    the middle rank first; the picks alone are cast to float64 (monotone)."""
    if v.dtype.kind not in "biuf":  # a direct call on objects or text
        v = v.astype(np.float64)
    n = v.shape[1]
    spans = []  # (lower rank, upper rank, weight) per member
    for q in members:
        if q == "median":
            spans.append((n // 2 - 1 + n % 2, n // 2, None))
        else:
            at = (n - 1) * q  # np.quantile's virtual index, clamped to the last value
            lo = math.floor(at) if at < n - 1 else -1
            spans.append((lo % n, lo + 1 if lo >= 0 else n - 1, at - lo))
    top = np.maximum.reduce(v, axis=1).astype(np.float64)
    lows = sorted({lo for lo, _, _ in spans} - {n - 1})
    ranks = sorted({r for lo, hi, _ in spans for r in (lo, hi)} - {n - 1})
    value = {n - 1: top}
    if lows:
        s = v.copy()  # partitioned in place: v may be the series' own memory
        todo = [(0, n, lows)]
        while todo:
            a, b, placed = todo.pop()
            i = len(placed) // 2
            r = placed[i]
            s[:, a:b].partition(r - a, axis=1)
            todo += [t for t in ((a, r, placed[:i]), (r + 1, b, placed[i + 1:])) if t[2]]
        # at a placed rank its value; at an upper neighbour, the least value
        # up to the next rank
        value.update(zip(ranks, np.minimum.reduceat(s, ranks, axis=1).astype(np.float64).T))
    nan_rows = np.isnan(top)
    out = []
    for lo, hi, g in spans:
        a, b = value[lo], value[hi]
        if g is None:
            r = a + 0.0 if lo == hi else (a + b) / 2 + 0.0
        else:
            r = (b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g) + 0.0
        r[nan_rows] = np.nan
        out.append(r)
    return out


def _slope_sums(members, y, index):
    """Per row: the sums of t and y, and of tc*tc and tc*(y - mean y) for the
    centred t, with t the index from the row's first sample (float seconds
    for a time index)."""
    t = index - index[:, :1]
    if t.dtype == np.int64:
        t = t.astype(np.float64) / 1e9
    n = y.shape[1]
    st, sy = np.add.reduce(t, axis=1), np.add.reduce(y, axis=1)
    tc = t - (st / n)[:, None]
    return {"St": st, "Sy": sy, "Ctt": np.add.reduce(tc * tc, axis=1),
            "Cty": np.add.reduce(tc * (y - (sy / n)[:, None]), axis=1)}


def _merge_slope(members, s, sizes, offsets, fold, pad):
    """Chunk sums to window sums, as a co-moment: a chunk's times move by its
    offset from the window start, and its centred sums shift to the window
    means by dt = chunk mean t - window mean t and dy likewise."""
    if offsets.dtype == np.int64:
        offsets = offsets.astype(np.float64) / 1e9
    n = fold(sizes)
    st, sy = fold(offsets * sizes + s["St"]), fold(s["Sy"])
    dt = offsets + s["St"] / sizes - st / n
    dy = s["Sy"] / sizes - sy / n
    return {"St": st, "Sy": sy, "Ctt": fold(s["Ctt"] + sizes * dt * dt),
            "Cty": fold(s["Cty"] + sizes * dt * dy)}


def _slope_value(members, s, n):
    slope = np.divide(s["Cty"], s["Ctt"], out=np.zeros_like(s["Ctt"]), where=s["Ctt"] != 0.0)
    return [slope] * len(members)


def _extreme(ufunc) -> _Chunks:
    """min or max: the extremum of each chunk, then of the chunks."""
    return _Chunks(lambda members, v: {"x": ufunc.reduce(v, axis=1)},
                   lambda members, s, sizes, offsets, fold, pad: {"x": fold(s["x"], ufunc)},
                   lambda members, s, n: [s["x"]] * len(members))


def _count(members, v):
    return [np.full(len(v), v.shape[1], dtype=np.int64)] * len(members)


def _crossing_stats(members, v):
    """Per row: the crossings "Z", and the first and last values (copies, so
    that a chunk table does not keep its blocks). Summing the comparison as
    int8 into int32 is about twice as fast as count_nonzero along an axis;
    int32 cannot overflow, as a window of 2**31 samples would need a 16 GiB
    float64 block."""
    crossings = (v[:, :-1] * v[:, 1:] < 0.0).view(np.int8)
    return {"Z": np.add.reduce(crossings, axis=1, dtype=np.int32).astype(np.float64),
            "first": v[:, 0].copy(), "last": v[:, -1].copy()}


def _merge_crossings(members, s, sizes, offsets, fold, pad):
    """The chunks' crossings, plus one at each seam where the last value of
    a chunk times the first of the next is negative, a pad row taking no
    product. Counts are integers, so the sum is exact in any order."""
    last, first, seams = s["last"][:-1], s["first"][1:], np.zeros_like(s["Z"])
    seams[1:] = (last * first if pad is None else
                 np.multiply(last, first, out=np.zeros_like(last), where=~pad[1:])) < 0.0
    return {"Z": fold(s["Z"] + seams)}


def _no_params(params: dict, name: str) -> None:
    if params:
        raise BadParam(f"{name} takes no parameters, got {sorted(params)}")


def _make_quantile(params: dict) -> FuncWrapper:
    if set(params) != {"q"}:
        raise BadParam(f"quantile requires exactly the parameter q, got {sorted(params)}")
    q = params["q"]
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 <= q <= 1:
        raise BadParam(f"quantile q must be a number in [0, 1], got {q!r}")
    q = float(q)
    label = f"quantile_{render_number(q)}"
    return FuncWrapper(BlockKernel("quantile", order_stats, q, raw=True), base_name=label,
                       output_names=label)


def _f64(name: str, family, member=None, raw=False) -> tuple:
    return BlockKernel(name, family, member, raw), InputMode.VALUES_ONLY, ValueTag.F64


def _moment(name: str) -> tuple:
    return _f64(name, _MOMENTS, name)


_SIMPLE: dict[str, tuple] = {
    # name -> (kernel, input_mode, output_tag)
    "count": (BlockKernel("count", _count, raw=True), InputMode.VALUES_ONLY, ValueTag.I64),
    "sum": _moment("sum"),
    "mean": _moment("mean"),
    "std": _moment("std"),
    "var": _moment("var"),
    "min": _f64("min", _extreme(np.minimum)),
    "max": _f64("max", _extreme(np.maximum)),
    "median": _f64("median", order_stats, "median", raw=True),
    "rms": _moment("rms"),
    "abs_energy": _moment("abs_energy"),
    "skewness": _moment("skewness"),
    "kurtosis": _moment("kurtosis"),
    "slope": (BlockKernel("slope", _Chunks(_slope_sums, _merge_slope, _slope_value)),
              InputMode.VALUES_AND_INDEX, ValueTag.F64),
    "first": (BlockKernel("first", lambda members, v: [v[:, 0]] * len(members), raw=True),
              InputMode.VALUES_ONLY, PRESERVE),
    "last": (BlockKernel("last", lambda members, v: [v[:, -1]] * len(members), raw=True),
             InputMode.VALUES_ONLY, PRESERVE),
    "zero_cross": _f64("zero_cross", _Chunks(_crossing_stats, _merge_crossings,
                                             lambda members, s, n: [s["Z"]] * len(members))),
}

BUILTIN_NAMES: tuple[str, ...] = tuple(list(_SIMPLE) + ["quantile"])

#: The empty-window value of the builtins that have one; the others raise.
_EMPTY = {"count": 0, "sum": 0.0, "abs_energy": 0.0, "zero_cross": 0.0}


def builtin(name: str, params: dict | None = None) -> FuncWrapper:
    """Look up a built-in feature function by name.

    ``params`` is only meaningful for quantile (``{"q": float}``); any other
    parameter, or a parameter on a parameterless function, raises BadParam.
    """
    if params is not None and not isinstance(params, Mapping):
        raise BadParam(f"builtin params must be a mapping, got {type(params).__name__}")
    params = dict(params or {})
    if name == "quantile":
        wrapper = _make_quantile(params)
    else:
        try:
            func, mode, tag = _SIMPLE[name]
        except (KeyError, TypeError):  # TypeError: a name that is no key, such as a list
            raise UnknownBuiltin(
                f"unknown built-in {name!r}; available: {', '.join(sorted(BUILTIN_NAMES))}"
            ) from None
        _no_params(params, name)
        wrapper = FuncWrapper(func, base_name=name, output_names=name, input_mode=mode,
                              output_tags=(tag,))
    wrapper.entry = ({"name": name, "params": {"q": wrapper.func.member}} if name == "quantile"
                     else {"name": name})  # the config entry that rebuilds it
    wrapper.min_samples = 1  # every empty window
    wrapper.fills = (_EMPTY[name],) if name in _EMPTY else None
    return wrapper
