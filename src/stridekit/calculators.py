"""Built-in window functions, one block kernel each.

Every builtin is a single :class:`~stridekit.features.BlockKernel`: a numpy
function from a block of b windows of c samples each, shape (b, c), to one
value per window (slope also gets the matching index block). extract runs it
once per block of equal-count windows; called on one window, it is the same
kernel applied to a one-row block. Reductions run along each row, so a
window's value does not depend on the block it was computed in.

Exact semantics, fixed here so results are reproducible bit for bit:

- accumulations (sum, mean, std, var, rms, abs_energy, skewness, kurtosis,
  slope, quantile, median) compute in float64 regardless of input tag;
- std and var are population moments (divide by n);
- skewness is Fisher-Pearson g1 = m3 / m2^1.5, kurtosis is excess
  g2 = m4 / m2^2 - 3; zero-variance windows yield 0.0 for both;
- quantile interpolates linearly between order statistics;
- slope is the least-squares slope of values against the index, with a time
  index shifted to the window start and cast to float seconds (the shift keeps
  nanosecond timestamps inside float64 precision); a zero-spread index yields
  a slope of 0.0;
- zero_cross counts strict sign changes, i.e. consecutive products < 0,
  evaluated in float64;
- count outputs an I64 column (and therefore rejects a NaN robust fill);
  first and last preserve the input series' value tag.

Empty windows: count returns 0 and sum, abs_energy, zero_cross return 0.0;
every other function raises, which extract surfaces as FunctionFailure unless
the wrapper is made robust.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import BadParam, UnknownBuiltin
from .features import BlockKernel, FuncWrapper, InputMode, PRESERVE
from .series import ValueTag, render_number


def _mean(v, keepdims=False):
    """Row means with np.mean's arithmetic (sum, then divide by the count)
    but without its per-call overhead, which single-window blocks pay per
    window."""
    return np.add.reduce(v, axis=1, keepdims=keepdims) / v.shape[1]


def _var(v):
    """Row variances with np.var's arithmetic."""
    d = v - _mean(v, keepdims=True)
    return _mean(np.multiply(d, d, out=d))


def _central_moments(v):
    """Deviations from each window's mean, their squares, and m2 per window."""
    d = v - _mean(v, keepdims=True)
    d2 = d * d
    return d, d2, _mean(d2)


def _moment_ratio(m, m2, power, shift=0.0):
    """m / m2**power - shift per window; 0.0 where m2 is 0."""
    out = np.full_like(m2, shift)
    np.divide(m, m2 ** power, out=out, where=m2 != 0.0)
    return out - shift


def _skewness(v):
    d, d2, m2 = _central_moments(v)
    return _moment_ratio(_mean(d2 * d), m2, 1.5)


def _kurtosis(v):
    d2, m2 = _central_moments(v)[1:]  # d is freed before d2 * d2 is allocated
    return _moment_ratio(_mean(d2 * d2), m2, 2, shift=3.0)


def _slope(y, index):
    t = index - index[:, :1]
    if t.dtype == np.int64:
        t = t.astype(np.float64) / 1e9
    tc = t - _mean(t, keepdims=True)
    denom = np.add.reduce(tc * tc, axis=1)
    num = np.add.reduce(tc * (y - _mean(y, keepdims=True)), axis=1)
    return np.divide(num, denom, out=np.zeros_like(denom), where=denom != 0.0)


def _zero_cross(v):
    # Summing the comparison as int8 into int32 is about twice as fast as
    # count_nonzero along an axis; int32 cannot overflow, as a window of 2**31
    # samples would need a 16 GiB float64 block.
    crossings = (v[:, :-1] * v[:, 1:] < 0.0).view(np.int8)
    return np.add.reduce(crossings, axis=1, dtype=np.int32).astype(np.float64)


def _no_params(params: dict, name: str) -> None:
    if params:
        raise BadParam(f"{name} takes no parameters, got {sorted(params)}")


def _make_quantile(params: dict) -> FuncWrapper:
    if set(params) != {"q"}:
        raise BadParam(f"quantile requires exactly the parameter q, got {sorted(params)}")
    q = params["q"]
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0.0 <= float(q) <= 1.0:
        raise BadParam(f"quantile q must be a number in [0, 1], got {q!r}")
    q = float(q)
    label = f"quantile_{render_number(q)}"
    quantile = BlockKernel("quantile", partial(np.quantile, q=q, axis=1))
    return FuncWrapper(quantile, base_name=label, output_names=label,
                       recipe=("builtin", "quantile", {"q": q}))


def _f64(name: str, func, empty: float | None = None) -> tuple:
    return BlockKernel(name, func, empty=empty), InputMode.VALUES_ONLY, ValueTag.F64


_SIMPLE: dict[str, tuple] = {
    # name -> (kernel, input_mode, output_tag)
    # One shared int per block: I64 cells are Python ints in an object column.
    "count": (BlockKernel("count", lambda v: np.full(len(v), v.shape[1], dtype=object),
                          empty=0, raw=True),
              InputMode.VALUES_ONLY, ValueTag.I64),
    "sum": _f64("sum", partial(np.add.reduce, axis=1), empty=0.0),
    "mean": _f64("mean", _mean),
    "std": _f64("std", lambda v: np.sqrt(_var(v))),
    "var": _f64("var", _var),
    "min": _f64("min", partial(np.minimum.reduce, axis=1)),
    "max": _f64("max", partial(np.maximum.reduce, axis=1)),
    "median": _f64("median", partial(np.median, axis=1)),
    "rms": _f64("rms", lambda v: np.sqrt(_mean(v * v))),
    "abs_energy": _f64("abs_energy", lambda v: np.add.reduce(v * v, axis=1), empty=0.0),
    "skewness": _f64("skewness", _skewness),
    "kurtosis": _f64("kurtosis", _kurtosis),
    "slope": (BlockKernel("slope", _slope), InputMode.VALUES_AND_INDEX, ValueTag.F64),
    "first": (BlockKernel("first", lambda v: v[:, 0], raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "last": (BlockKernel("last", lambda v: v[:, -1], raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "zero_cross": _f64("zero_cross", _zero_cross, empty=0.0),
}

BUILTIN_NAMES: tuple[str, ...] = tuple(list(_SIMPLE) + ["quantile"])


def builtin(name: str, params: dict | None = None) -> FuncWrapper:
    """Look up a built-in feature function by name.

    ``params`` is only meaningful for quantile (``{"q": float}``); any other
    parameter, or a parameter on a parameterless function, raises BadParam.
    """
    params = dict(params or {})
    if name == "quantile":
        return _make_quantile(params)
    try:
        func, mode, tag = _SIMPLE[name]
    except KeyError:
        raise UnknownBuiltin(
            f"unknown built-in {name!r}; available: {', '.join(sorted(BUILTIN_NAMES))}"
        ) from None
    _no_params(params, name)
    return FuncWrapper(func, base_name=name, output_names=name, input_mode=mode,
                       output_tags=(tag,), recipe=("builtin", name, {}))
