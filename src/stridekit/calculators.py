"""Built-in per-window feature functions.

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

from operator import itemgetter

import numpy as np

from .errors import BadParam, UnknownBuiltin
from .features import FuncWrapper, InputMode, PRESERVE
from .series import ValueTag, render_number


def _per_window(name: str, kernel, empty: float | None = None, raw: bool = False):
    """The builtins' one per-window path. An empty window returns ``empty``,
    or raises when that is None; any other window reaches ``kernel`` as
    float64 values, whose result returns as a Python float. ``raw`` kernels
    get the window as stored and return their result untouched. Further
    arguments (slope's index) pass through to the kernel."""

    def func(x, *rest):
        if len(x) == 0:
            if empty is None:
                raise ValueError(f"{name} of an empty window is undefined")
            return empty
        if raw:
            return kernel(x)
        return float(kernel(np.asarray(x, dtype=np.float64), *rest))

    return func


def _central_moments(v):
    """Deviations from the window mean, their squares, and m2."""
    d = v - np.mean(v)
    d2 = d * d
    return d, d2, float(np.mean(d2))


def _skewness(v):
    d, d2, m2 = _central_moments(v)
    return 0.0 if m2 == 0.0 else float(np.mean(d2 * d)) / m2 ** 1.5


def _kurtosis(v):
    d2, m2 = _central_moments(v)[1:]  # d is freed before d2 * d2 is allocated
    return 0.0 if m2 == 0.0 else float(np.mean(d2 * d2)) / m2 ** 2 - 3.0


def _slope(y, index):
    t = index - index[0]
    if t.dtype == np.int64:
        t = t.astype(np.float64) / 1e9
    tc = t - np.mean(t)
    denom = float(np.sum(tc * tc))
    return 0.0 if denom == 0.0 else np.sum(tc * (y - np.mean(y))) / denom


_slope_window = _per_window("slope", _slope)


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
    quantile = _per_window("quantile", lambda v: np.quantile(v, q))
    return FuncWrapper(quantile, base_name=label, output_names=label,
                       recipe=("builtin", "quantile", {"q": q}))


_SIMPLE: dict[str, tuple] = {
    # name -> (func, input_mode, output_tag)
    "count": (len, InputMode.VALUES_ONLY, ValueTag.I64),
    "sum": (_per_window("sum", np.sum, empty=0.0), InputMode.VALUES_ONLY, ValueTag.F64),
    "mean": (_per_window("mean", np.mean), InputMode.VALUES_ONLY, ValueTag.F64),
    "std": (_per_window("std", lambda v: np.sqrt(np.var(v))),
            InputMode.VALUES_ONLY, ValueTag.F64),
    "var": (_per_window("var", np.var), InputMode.VALUES_ONLY, ValueTag.F64),
    "min": (_per_window("min", np.min), InputMode.VALUES_ONLY, ValueTag.F64),
    "max": (_per_window("max", np.max), InputMode.VALUES_ONLY, ValueTag.F64),
    "median": (_per_window("median", np.median), InputMode.VALUES_ONLY, ValueTag.F64),
    "rms": (_per_window("rms", lambda v: np.sqrt(np.mean(v * v))),
            InputMode.VALUES_ONLY, ValueTag.F64),
    "abs_energy": (_per_window("abs_energy", lambda v: np.sum(v * v), empty=0.0),
                   InputMode.VALUES_ONLY, ValueTag.F64),
    "skewness": (_per_window("skewness", _skewness), InputMode.VALUES_ONLY, ValueTag.F64),
    "kurtosis": (_per_window("kurtosis", _kurtosis), InputMode.VALUES_ONLY, ValueTag.F64),
    "slope": (lambda pair: _slope_window(*pair), InputMode.VALUES_AND_INDEX, ValueTag.F64),
    "first": (_per_window("first", itemgetter(0), raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "last": (_per_window("last", itemgetter(-1), raw=True), InputMode.VALUES_ONLY, PRESERVE),
    "zero_cross": (_per_window("zero_cross", lambda v: np.count_nonzero(v[:-1] * v[1:] < 0.0),
                               empty=0.0),
                   InputMode.VALUES_ONLY, ValueTag.F64),
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
