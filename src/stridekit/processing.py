"""Sequential whole-series processing pipelines.

A pipeline is an ordered list of steps. Each step holds a function, a series
selector, and bound kwargs. Selector entries are either a single name (the
function is applied independently per name, fanning out over the entries) or
a tuple of names (the series are passed jointly, for many-input functions).

Within one step every entry reads the pre-step state; outputs are staged and
applied together when the step finishes, so entries of a step never observe
each other. An output whose name already exists replaces that series, any
other name is inserted. The input set is never mutated.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .calculators import order_stats
from .errors import (
    BadParam,
    DynamicStepUnresolvable,
    StepFailure,
    UnknownBuiltin,
    UnknownSeries,
)
from .series import (
    Delta,
    IndexKind,
    Series,
    SeriesSet,
    SeriesView,
    _same_index,
    check_component_name,
)

#: declared_outputs marker: the step replaces exactly the series it selects.
SELECTOR_OUTPUTS = "selector"


class _Selector(tuple):
    """A normalized selector, one item per entry. It normalizes to itself,
    where a plain tuple is one joint entry."""


def _normalize_selector(selector) -> tuple:
    """The one series-entry grammar, of pipeline steps and feature configs: a
    name, a tuple of names (one joint entry), or a non-empty list of names and
    non-empty lists or tuples of names. Anything else is BadParam."""
    if isinstance(selector, _Selector):
        return selector
    if isinstance(selector, (str, tuple)):
        selector = [selector]
    if not isinstance(selector, list) or not selector:
        raise BadParam(f"series selector must be a name or a non-empty list, got {selector!r}")
    for entry in selector:
        if not (isinstance(entry, str) or isinstance(entry, (list, tuple)) and entry
                and all(isinstance(n, str) for n in entry)):
            raise BadParam(f"selector entry {entry!r} must be a name or a tuple of names")
    return _Selector(e if isinstance(e, str) else tuple(e) for e in selector)


def _selector_names(selector: tuple) -> list[str]:
    names = []
    for entry in selector:
        names.extend((entry,) if isinstance(entry, str) else entry)
    return names


@dataclass(frozen=True)
class ProcessorStep:
    """One pipeline step.

    ``declared_outputs`` drives static input resolution: a tuple of names, the
    SELECTOR_OUTPUTS marker (outputs equal the selected names), or None for a
    dynamic step whose outputs cannot be known without running it.
    """

    function: Callable
    series_selector: tuple
    bound_kwargs: dict = field(default_factory=dict)
    declared_outputs: tuple | str | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "series_selector", _normalize_selector(self.series_selector))
        outs = self.declared_outputs
        if outs is not None and outs != SELECTOR_OUTPUTS:
            outs = (outs,) if isinstance(outs, str) else outs
            if not isinstance(outs, Sequence) or not all(isinstance(n, str) for n in outs):
                raise BadParam(f"declared_outputs must be a name or a sequence of names, "
                               f"got {outs!r}")
            object.__setattr__(self, "declared_outputs", tuple(outs))
        if not self.label:
            object.__setattr__(
                self, "label", getattr(self.function, "__name__", "step")
            )

    def output_names(self) -> tuple[str, ...] | None:
        if self.declared_outputs == SELECTOR_OUTPUTS:
            return tuple(_selector_names(self.series_selector))
        return self.declared_outputs


class Pipeline:
    def __init__(self, steps: Sequence[ProcessorStep] = ()):
        self.steps: list[ProcessorStep] = list(steps)

    def add_step(self, step: ProcessorStep) -> "Pipeline":
        self.steps.append(step)
        return self

    def __len__(self) -> int:
        return len(self.steps)


def _normalize_outputs(raw, entry, views: list[SeriesView], si: int, label: str) -> list[Series]:
    """Turn a step function's return value into named Series.

    Accepted: a list of Series / (name, Series) pairs, a single Series, a
    single (name, Series) pair, or - for a single-name selector - a bare value
    array that inherits the input's name and index.
    """
    if isinstance(raw, np.ndarray):
        if not isinstance(entry, str):
            raise StepFailure(
                f"step {si} ({label}): unnamed array output requires a single-name selector"
            )
        return [Series(entry, views[0].index, raw, kind=views[0].kind)]
    if isinstance(raw, Series):
        return [raw]
    if isinstance(raw, tuple) and len(raw) == 2 and isinstance(raw[0], str):
        raw = [raw]
    if not isinstance(raw, list):
        raise StepFailure(
            f"step {si} ({label}): expected Series, (name, Series), or a list of those, "
            f"got {type(raw).__name__}"
        )
    out = []
    for item in raw:
        if isinstance(item, Series):
            out.append(item)
            continue
        if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
                and isinstance(item[1], Series)):
            raise StepFailure(f"step {si} ({label}): bad output item {item!r}")
        name, series = item
        check_component_name(name)
        if name != series.name:
            series = Series(name, series.index, series.values, kind=series.kind)
        out.append(series)
    return out


def run_pipeline(pipeline: Pipeline, series_set: SeriesSet) -> SeriesSet:
    """Run the steps in order and return a new set; the input set is shared,
    never mutated.

    UnknownSeries (with step ordinal) if a selected name is missing; functions
    that raise become StepFailure; invalid output names surface as
    ReservedCharacterInName. Two entries of one step producing the same output
    name is a StepFailure.
    """
    current = series_set
    for si, step in enumerate(pipeline.steps):
        staged: dict[str, Series] = {}
        for entry in step.series_selector:
            names = (entry,) if isinstance(entry, str) else entry
            views = []
            for n in names:
                try:
                    views.append(current[n].full_view())
                except UnknownSeries:
                    raise UnknownSeries(f"step {si} ({step.label}): no series named {n!r}") from None
            try:
                raw = step.function(*views, **step.bound_kwargs)
            except Exception as exc:
                raise StepFailure(
                    f"step {si} ({step.label}) failed on {list(names)}: {exc}"
                ) from exc
            for series in _normalize_outputs(raw, entry, views, si, step.label):
                if series.name in staged:
                    raise StepFailure(
                        f"step {si} ({step.label}): output {series.name!r} produced "
                        f"by more than one selector entry"
                    )
                staged[series.name] = series
        current = current.updated(list(staged.values()))
    return current


def required_inputs(pipeline: Pipeline) -> set[str]:
    """Names the pipeline needs from outside: selected by some step but not
    declared as an output of any earlier step.

    A dynamic step (declared_outputs=None) anywhere before the last step makes
    the later steps unresolvable and raises DynamicStepUnresolvable; a dynamic
    final step is fine because nothing reads its outputs.
    """
    produced: set[str] = set()
    required: set[str] = set()
    for si, step in enumerate(pipeline.steps):
        for name in _selector_names(step.series_selector):
            if name not in produced:
                required.add(name)
        outs = step.output_names()
        if outs is None:
            if si < len(pipeline.steps) - 1:
                raise DynamicStepUnresolvable(
                    f"step {si} ({step.label}) declares no outputs; inputs of later "
                    f"steps cannot be resolved statically"
                )
        else:
            produced.update(outs)
    return required


# ---------------------------------------------------------------------------
# built-in processors
# ---------------------------------------------------------------------------

def _clip(view: SeriesView, lo=None, hi=None):
    return np.clip(view.values, lo, hi)


def _scale(view: SeriesView, factor=1.0, offset=0.0):
    return view.values * factor + offset


def _median_filter(view: SeriesView, size: int = 3):
    values = view.values
    if len(values) == 0:
        return values[:0].copy()
    pad = size // 2
    padded = np.pad(values, pad, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    median = order_stats(("median",), windows)[0]
    # float32 samples keep their dtype, as median + 0.0 on them did
    return median.astype(np.float32) if values.dtype == np.float32 else median


def _resample_linear(view: SeriesView, period: Delta):
    if period.kind is not view.kind:
        raise ValueError(
            f"resample period kind {period.kind.value} does not match "
            f"series kind {view.kind.value}"
        )
    index = view.index
    if len(index) == 0:
        return Series(view.name, index, view.values.astype(np.float64), kind=view.kind)
    first = index[0]
    # Shift to the start before any float conversion so nanosecond timestamps
    # stay inside float64 precision.
    rel = (index - first).astype(np.float64)
    if view.kind is IndexKind.TIME_NS:
        step = int(period.value)
        n = int((int(index[-1]) - int(first)) // step) + 1
        new_rel = (np.arange(n, dtype=np.int64) * step).astype(np.float64)
        new_index = int(first) + np.arange(n, dtype=np.int64) * step
    else:
        step = float(period.value)
        n = int(np.floor((float(index[-1]) - float(first)) / step)) + 1
        new_rel = np.arange(n, dtype=np.float64) * step
        new_index = float(first) + new_rel
    new_values = np.interp(new_rel, rel, view.values.astype(np.float64))
    return Series(view.name, new_index, new_values, kind=view.kind)


def _smv(*views: SeriesView, output: str):
    if len(views) < 2:
        raise ValueError("smv needs at least two component series")
    ref = views[0]
    for v in views[1:]:
        if v.kind is not ref.kind or not _same_index(v.index, ref.index):
            raise ValueError(
                f"smv inputs {ref.name!r} and {v.name!r} are not index-aligned"
            )
    acc = np.zeros(len(ref), dtype=np.float64)
    for v in views:
        vals = v.values.astype(np.float64)
        acc += vals * vals
    return Series(output, ref.index, np.sqrt(acc), kind=ref.kind)


def _optional_number(params: dict, key: str):
    if key not in params:
        return None
    v = params[key]
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or isinstance(v, int) and abs(v) > sys.float_info.max):
        raise BadParam(f"parameter {key!r} must be a number that a float holds, got {v!r}")
    return v


PROCESSOR_NAMES: tuple[str, ...] = ("clip", "scale", "resample_linear", "median_filter", "smv")


def builtin_processor(name: str, series_selector, params: dict | None = None) -> ProcessorStep:
    """Build a ProcessorStep for a registered processor.

    clip(lo?, hi?): clamp values; at least one bound required.
    scale(factor?, offset?): affine transform of values.
    resample_linear(period): regular grid from the first index, linear
      interpolation; values become float64.
    median_filter(size?): odd-sized running median with edge padding.
    smv(output): per-sample root of the squared sum over index-aligned inputs,
      written to a new series named by ``output``.
    """
    if params is not None and not isinstance(params, Mapping):
        raise BadParam(f"processor params must be a mapping, got {type(params).__name__}")
    params = dict(params or {})

    def reject_unknown(allowed: set[str]) -> None:
        extra = set(params) - allowed
        if extra:
            raise BadParam(f"{name}: unknown parameters {sorted(extra)}")

    if name == "clip":
        reject_unknown({"lo", "hi"})
        lo = _optional_number(params, "lo")
        hi = _optional_number(params, "hi")
        if lo is None and hi is None:
            raise BadParam("clip requires lo, hi, or both")
        return ProcessorStep(_clip, series_selector, {"lo": lo, "hi": hi},
                             declared_outputs=SELECTOR_OUTPUTS, label="clip")
    if name == "scale":
        reject_unknown({"factor", "offset"})
        factor = _optional_number(params, "factor")
        offset = _optional_number(params, "offset")
        kwargs = {"factor": 1.0 if factor is None else float(factor),
                  "offset": 0.0 if offset is None else float(offset)}
        return ProcessorStep(_scale, series_selector, kwargs,
                             declared_outputs=SELECTOR_OUTPUTS, label="scale")
    if name == "resample_linear":
        reject_unknown({"period"})
        if "period" not in params:
            raise BadParam("resample_linear requires a period")
        period = Delta.coerce(params["period"])
        if period.value <= 0:
            raise BadParam(f"resample_linear period must be positive, got {params['period']!r}")
        return ProcessorStep(_resample_linear, series_selector, {"period": period},
                             declared_outputs=SELECTOR_OUTPUTS, label="resample_linear")
    if name == "median_filter":
        reject_unknown({"size"})
        size = params.get("size", 3)
        if isinstance(size, bool) or not isinstance(size, int) or size < 1 or size % 2 == 0:
            raise BadParam(f"median_filter size must be a positive odd integer, got {size!r}")
        return ProcessorStep(_median_filter, series_selector, {"size": size},
                             declared_outputs=SELECTOR_OUTPUTS, label="median_filter")
    if name == "smv":
        reject_unknown({"output"})
        output = params.get("output")
        if not isinstance(output, str):
            raise BadParam("smv requires an output series name")
        check_component_name(output)
        return ProcessorStep(_smv, series_selector, {"output": output},
                             declared_outputs=(output,), label="smv")
    raise UnknownBuiltin(
        f"unknown processor {name!r}; available: {', '.join(PROCESSOR_NAMES)}"
    )
