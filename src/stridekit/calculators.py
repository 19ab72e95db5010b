"""Built-in window functions, one block kernel each.

Every builtin is a single :class:`~stridekit.features.BlockKernel`: a numpy
function from a block of b windows of c samples each, shape (b, c), to one
value per window (slope also gets the matching index block). extract runs it
once per block of equal-count windows; called on one window, it is the same
kernel applied to a one-row block. Reductions run along each row, so a
window's value does not depend on the block it was computed in.

Two families share work between builtins. The order family (median and
quantile at any q) sorts each block once; the moment family (sum, mean, var,
std, rms, abs_energy, skewness, kurtosis) takes one row sum, one deviation
array and its square per block. A member's kernel is its family run on that
member alone, so a builtin has one compute path whether extract fuses it
with others of its family or not. min, max, count, first, last, slope and
zero_cross stay single kernels.

Exact semantics, fixed here so results are reproducible bit for bit:

- accumulations (sum, mean, std, var, rms, abs_energy, skewness, kurtosis,
  slope, quantile, median) compute in float64 regardless of input tag;
- std and var are population moments (divide by n);
- skewness is Fisher-Pearson g1 = m3 / m2^1.5, kurtosis is excess
  g2 = m4 / m2^2 - 3; zero-variance windows yield 0.0 for both;
- median is the middle value or the mean of the middle pair; quantile
  interpolates linearly between order statistics with numpy.quantile's
  rules; both return +0.0 for a zero result and NaN for a window holding NaN;
- slope is the least-squares slope of values against the index, with a time
  index shifted to the window start and cast to float seconds (the shift keeps
  nanosecond timestamps inside float64 precision); a zero-spread index yields
  a slope of 0.0;
- zero_cross counts strict sign changes, i.e. consecutive products < 0,
  evaluated in float64;
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
from functools import partial
from typing import Mapping

import numpy as np

from .errors import BadParam, UnknownBuiltin
from .features import BlockKernel, FuncWrapper, InputMode, PRESERVE
from .series import ValueTag, render_number


def _mean(v, keepdims=False):
    """Row means with np.mean's arithmetic (sum, then divide by the count)
    but without its per-call overhead, which single-window blocks pay per
    window."""
    return np.add.reduce(v, axis=1, keepdims=keepdims) / v.shape[1]


def _moment_ratio(m, m2, power, shift=0.0):
    """m / m2**power - shift per window; 0.0 where m2 is 0."""
    out = np.full_like(m2, shift)
    np.divide(m, m2 ** power, out=out, where=m2 != 0.0)
    return out - shift


_ENERGY = {"rms", "abs_energy"}
_CENTRAL = {"var", "std", "skewness", "kurtosis"}


def _moments(v, members):
    """The moment family: one row sum, one d = v - mean and one d*d per
    block, plus one v*v for rms and abs_energy, each computed only when a
    member needs it. d is squared in place unless skewness or kurtosis needs
    it too, so var and std hold two block-sized arrays."""
    n = v.shape[1]
    want = set(members)
    out = {}
    if want & _ENERGY:
        energy = np.add.reduce(v * v, axis=1)
        out["abs_energy"], out["rms"] = energy, np.sqrt(energy / n)
    if want - _ENERGY:
        total = np.add.reduce(v, axis=1)
        out["sum"], out["mean"] = total, total / n
    if want & _CENTRAL:
        d = v - out["mean"][:, None]
        d2 = d * d if want & {"skewness", "kurtosis"} else np.multiply(d, d, out=d)
        m2 = _mean(d2)
        out["var"], out["std"] = m2, np.sqrt(m2)
        if "skewness" in want:
            out["skewness"] = _moment_ratio(_mean(np.multiply(d2, d, out=d)), m2, 1.5)
        del d
        if "kurtosis" in want:
            out["kurtosis"] = _moment_ratio(_mean(np.multiply(d2, d2, out=d2)), m2, 2,
                                            shift=3.0)
    return [out[m] for m in members]


def order_stats(v, members):
    """The order family: "median" and quantiles at q from one sort per block.
    median is the middle value or the mean of the middle pair, as np.median;
    a quantile interpolates linearly between its neighbouring sorted values
    with np.quantile's index and rounding rules. A zero result is +0.0 and a
    row holding NaN, which sorts last, yields NaN."""
    s = np.sort(v, axis=1)
    n = v.shape[1]
    nan_rows = np.isnan(s[:, -1])
    out = []
    for q in members:
        if q == "median":
            h = n // 2
            r = s[:, h] + 0.0 if n % 2 else (s[:, h - 1] + s[:, h]) / 2 + 0.0
        else:
            at = (n - 1) * q  # np.quantile's virtual index, clamped to the last value
            lo = hi = -1
            if at < n - 1:
                lo = math.floor(at)
                hi = lo + 1
            g = at - lo
            a, b = s[:, lo], s[:, hi]
            r = (b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g) + 0.0
        r[nan_rows] = np.nan
        out.append(r)
    return out


def _member(name: str, family, member) -> BlockKernel:
    """A family member's kernel: the family run on that member alone."""
    return BlockKernel(name, lambda v: family(v, (member,))[0], family=family, member=member)


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
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 <= q <= 1:
        raise BadParam(f"quantile q must be a number in [0, 1], got {q!r}")
    q = float(q)
    label = f"quantile_{render_number(q)}"
    return FuncWrapper(_member("quantile", order_stats, q), base_name=label, output_names=label,
                       recipe=("builtin", "quantile", {"q": q}))


def _f64(kernel: BlockKernel) -> tuple:
    return kernel, InputMode.VALUES_ONLY, ValueTag.F64


_SIMPLE: dict[str, tuple] = {
    # name -> (kernel, input_mode, output_tag)
    # One shared int per block: I64 cells are Python ints in an object column.
    "count": (BlockKernel("count", lambda v: np.full(len(v), v.shape[1], dtype=object),
                          raw=True),
              InputMode.VALUES_ONLY, ValueTag.I64),
    "sum": _f64(_member("sum", _moments, "sum")),
    "mean": _f64(_member("mean", _moments, "mean")),
    "std": _f64(_member("std", _moments, "std")),
    "var": _f64(_member("var", _moments, "var")),
    "min": _f64(BlockKernel("min", partial(np.minimum.reduce, axis=1))),
    "max": _f64(BlockKernel("max", partial(np.maximum.reduce, axis=1))),
    "median": _f64(_member("median", order_stats, "median")),
    "rms": _f64(_member("rms", _moments, "rms")),
    "abs_energy": _f64(_member("abs_energy", _moments, "abs_energy")),
    "skewness": _f64(_member("skewness", _moments, "skewness")),
    "kurtosis": _f64(_member("kurtosis", _moments, "kurtosis")),
    "slope": (BlockKernel("slope", _slope), InputMode.VALUES_AND_INDEX, ValueTag.F64),
    "first": (BlockKernel("first", lambda v: v[:, 0], raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "last": (BlockKernel("last", lambda v: v[:, -1], raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "zero_cross": _f64(BlockKernel("zero_cross", _zero_cross)),
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
                              output_tags=(tag,), recipe=("builtin", name, {}))
    wrapper.min_samples = 1  # every empty window
    wrapper.fills = (_EMPTY[name],) if name in _EMPTY else None
    return wrapper
