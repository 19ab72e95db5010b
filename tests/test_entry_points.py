"""Every public entry point that takes configuration values rejects a bad one
with a StridekitError subclass, whatever JSON-like value it is given."""

from hypothesis import given, settings, strategies as st

from stridekit import (
    BUILTIN_NAMES,
    ChunkSpec,
    Delta,
    ExtractOptions,
    FeatureDescriptor,
    FuncWrapper,
    IndexKind,
    ProcessorStep,
    StridekitError,
    build_grid,
    builtin,
    builtin_processor,
    expand_multiple,
    make_robust,
    parse_feature_config,
    parse_pipeline_config,
)
from stridekit.processing import PROCESSOR_NAMES

WORDS = ["A", "B", "a__b", "", "10s", "1s", "0s", "-1s", "2", "0", "1e400", "nan", "inf",
         " 5 ", "٣", "1_0", "end", "begin", "middle", "f64", "mean", "q"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.text(max_size=5),
    st.sampled_from(WORDS),
)
json_like = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(WORDS), inner,
                                                                max_size=3),
    max_leaves=6,
)


def optional_keys(*keys):
    """A JSON object holding some of ``keys``, each with a JSON-like value."""
    return st.fixed_dictionaries({}, optional={k: json_like for k in keys})


function_entry = st.fixed_dictionaries(
    {"name": st.sampled_from(BUILTIN_NAMES) | json_like},
    optional={"params": optional_keys("q") | json_like,
              "robust": optional_keys("min_samples", "fill_value") | json_like},
)
feature_doc = st.fixed_dictionaries(
    {"features": st.lists(
        st.fixed_dictionaries({"series": json_like,
                               "functions": st.lists(function_entry | json_like, max_size=2),
                               "windows": st.lists(json_like, max_size=2),
                               "strides": st.lists(json_like, max_size=2)}) | json_like,
        max_size=2)},
    optional={"options": optional_keys("approve_sparsity", "n_workers", "output_position")
              | json_like},
) | json_like
pipeline_doc = st.fixed_dictionaries({"steps": st.lists(
    st.fixed_dictionaries({"function": st.sampled_from(PROCESSOR_NAMES) | json_like,
                           "series": json_like},
                          optional={"params": optional_keys("lo", "hi", "factor", "offset",
                                                            "period", "size", "output")
                                    | json_like}) | json_like,
    max_size=2)}) | json_like


def _identity(view):
    return view.values


#: entry point -> (call, strategies of its arguments)
CALLS = {
    "FeatureDescriptor": (lambda names, w, s: FeatureDescriptor(names, builtin("mean"), w, s),
                          (json_like,) * 3),
    "FeatureDescriptor.function": (lambda f: FeatureDescriptor("A", f, "1s", "1s"),
                                   (json_like,)),
    "expand_multiple": (lambda names, ws, ss: expand_multiple([builtin("mean")], names, ws, ss),
                        (json_like,) * 3),
    "expand_multiple.functions": (lambda fs: expand_multiple(fs, ["A"], ["1s"], ["1s"]),
                                  (json_like,)),
    "FuncWrapper": (lambda base, names, tags, kwargs: FuncWrapper(
        len, base_name=base, output_names=names, output_tags=tags, bound_kwargs=kwargs),
        (json_like,) * 4),
    "make_robust.builtin": (lambda m, f: make_robust(builtin("mean"), m, f), (json_like,) * 2),
    "make_robust.count": (lambda m, f: make_robust(builtin("count"), m, f), (json_like,) * 2),
    "make_robust.user": (lambda m, f: make_robust(FuncWrapper(len), m, f), (json_like,) * 2),
    "ExtractOptions": (lambda a, n, p: ExtractOptions(approve_sparsity=a, n_workers=n,
                                                      output_position=p), (json_like,) * 3),
    "ProcessorStep": (lambda sel, outs: ProcessorStep(_identity, sel, declared_outputs=outs),
                      (json_like,) * 2),
    "builtin_processor": (builtin_processor,
                          (st.sampled_from(PROCESSOR_NAMES) | json_like, json_like,
                           optional_keys("lo", "hi", "factor", "offset", "period", "size",
                                         "output") | json_like)),
    "builtin": (builtin, (st.sampled_from(BUILTIN_NAMES) | json_like,
                          optional_keys("q") | json_like)),
    "ChunkSpec.resolve": (lambda g, lo, hi, o, numeric: ChunkSpec(g, lo, hi, o).resolve(
        IndexKind.NUMERIC if numeric else IndexKind.TIME_NS),
        (json_like,) * 4 + (st.booleans(),)),
    "Delta.coerce": (Delta.coerce, (json_like,)),
    "Delta.numeric": (Delta.numeric, (json_like,)),
    "build_grid": (build_grid, (json_like,) * 5),
    "parse_feature_config": (parse_feature_config, (feature_doc,)),
    "parse_pipeline_config": (parse_pipeline_config, (pipeline_doc,)),
}


@settings(max_examples=1500)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_json_like_values_raise_only_stridekit_errors(name, data):
    call, strategies = CALLS[name]
    args = [data.draw(s, label=f"{name} argument {i}") for i, s in enumerate(strategies)]
    try:
        call(*args)
    except StridekitError:
        pass
