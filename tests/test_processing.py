"""Sequential series pipelines and the built-in processors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridekit import (
    IndexKind,
    Pipeline,
    ProcessorStep,
    Series,
    SeriesSet,
    builtin_processor,
    required_inputs,
    run_pipeline,
    serialize_pipeline_config,
)
from stridekit.errors import (
    BadParam,
    DynamicStepUnresolvable,
    ReservedCharacterInName,
    StepFailure,
    UnknownBuiltin,
    UnknownSeries,
)
from stridekit.processing import SELECTOR_OUTPUTS

from conftest import numeric_series


def acc_triplet():
    t = np.arange(0.0, 4.0)
    return SeriesSet([
        numeric_series("ACC_x", t, values=np.array([3.0, 1.0, 0.0, 2.0])),
        numeric_series("ACC_y", t, values=np.array([4.0, 2.0, 2.0, 2.0])),
        numeric_series("ACC_z", t, values=np.array([0.0, 2.0, 1.0, 1.0])),
    ])


def snapshot(series_set):
    return {
        name: (
            series_set[name].index.tobytes(),
            series_set[name].values.data.tobytes(),
            series_set[name].kind,
            series_set[name].values.tag,
        )
        for name in series_set.names()
    }


# ---------------------------------------------------------------------------
# pipeline construction
# ---------------------------------------------------------------------------

def test_add_step_appends_in_order():
    p = Pipeline()
    clip = builtin_processor("clip", ["TMP"], {"hi": 1.0})
    smv = builtin_processor("smv", [("ACC_x", "ACC_y")], {"output": "ACC_SMV"})
    assert len(p.add_step(clip)) == 1
    p.add_step(smv)
    assert len(p) == 2
    assert [s.label for s in p.steps] == ["clip", "smv"]
    p.add_step(smv)
    assert len(p) == 3


def test_selector_must_not_be_empty():
    with pytest.raises(BadParam):
        ProcessorStep(lambda v: v.values, [])


@pytest.mark.parametrize("selector", [5, None, [5], [[]], [("A", 5)], {"A": 1}, [{"A": 1}]])
def test_a_bad_selector_entry_is_bad_param(selector):
    with pytest.raises(BadParam):
        ProcessorStep(lambda v: v.values, selector)


def test_selector_entries_are_names_and_lists_or_tuples_of_names():
    step = ProcessorStep(lambda *v: v[0].values, ["A", ["B", "C"], ("D",)])
    assert step.series_selector == ("A", ("B", "C"), ("D",))
    assert ProcessorStep(lambda *v: v[0].values, ("A", "B")).series_selector == (("A", "B"),)


@pytest.mark.parametrize("name, selector, params, normalized", [
    pytest.param("scale", ["ACC_x", "ACC_y"], {"factor": 2.0}, ("ACC_x", "ACC_y"),
                 id="fan-out"),
    pytest.param("smv", ("ACC_x", "ACC_y"), {"output": "N"}, (("ACC_x", "ACC_y"),),
                 id="joint"),
    pytest.param("smv", [["ACC_x", "ACC_y"]], {"output": "N"}, (("ACC_x", "ACC_y"),),
                 id="joint-in-a-list"),
])
def test_a_selector_survives_dataclasses_replace(name, selector, params, normalized):
    step = builtin_processor(name, selector, params)
    copy = dataclasses.replace(step, label=step.label)
    assert step.series_selector == copy.series_selector == normalized
    assert serialize_pipeline_config(Pipeline([copy])) == serialize_pipeline_config(
        Pipeline([step]))
    data = acc_triplet()
    assert snapshot(run_pipeline(Pipeline([copy]), data)) == snapshot(
        run_pipeline(Pipeline([step]), data))


@pytest.mark.parametrize("outputs", [5, [5], {"A": 1}])
def test_declared_outputs_must_be_names(outputs):
    with pytest.raises(BadParam):
        ProcessorStep(lambda v: v.values, ["A"], declared_outputs=outputs)


@pytest.mark.parametrize("name, params", [("scale", {"factor": 10**400}), ("clip", 5),
                                          ("clip", [("lo", 0.0)])])
def test_processor_params_are_a_mapping_of_float_sized_numbers(name, params):
    with pytest.raises(BadParam):
        builtin_processor(name, ["A"], params)


# ---------------------------------------------------------------------------
# run_pipeline semantics
# ---------------------------------------------------------------------------

def test_smv_creates_new_series_and_keeps_inputs():
    data = acc_triplet()
    p = Pipeline([builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")],
                                    {"output": "ACC_SMV"})])
    out = run_pipeline(p, data)
    assert sorted(out.names()) == ["ACC_SMV", "ACC_x", "ACC_y", "ACC_z"]
    assert out["ACC_SMV"].values.data[0] == 5.0  # sqrt(3^2 + 4^2 + 0^2)
    for name in ("ACC_x", "ACC_y", "ACC_z"):
        assert out[name] is data[name]


def test_replacement_keeps_set_size():
    data = SeriesSet([numeric_series("TMP", np.arange(4.0),
                                     values=np.array([1.0, 9.0, -3.0, 2.0]))])
    p = Pipeline([builtin_processor("clip", ["TMP"], {"lo": 0.0, "hi": 5.0})])
    out = run_pipeline(p, data)
    assert out.names() == ["TMP"]
    assert list(out["TMP"].values.data) == [1.0, 5.0, 0.0, 2.0]


def test_later_step_reads_earlier_output_and_reverse_fails():
    data = acc_triplet()
    make = builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")], {"output": "ACC_SMV"})
    use = builtin_processor("scale", ["ACC_SMV"], {"factor": 2.0})
    out = run_pipeline(Pipeline([make, use]), data)
    assert out["ACC_SMV"].values.data[0] == 10.0
    with pytest.raises(UnknownSeries) as err:
        run_pipeline(Pipeline([use, make]), data)
    assert "step 0" in str(err.value) and "ACC_SMV" in str(err.value)


def test_input_set_is_never_mutated():
    data = acc_triplet()
    before = snapshot(data)
    p = Pipeline([
        builtin_processor("scale", ["ACC_x", "ACC_y"], {"factor": -1.0}),
        builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")], {"output": "ACC_SMV"}),
    ])
    run_pipeline(p, data)
    assert snapshot(data) == before


def test_entries_of_one_step_read_pre_step_state():
    data = SeriesSet([
        numeric_series("A", np.arange(3.0), values=np.array([1.0, 2.0, 3.0])),
        numeric_series("B", np.arange(3.0), values=np.array([10.0, 10.0, 10.0])),
    ])

    def a_plus_b(av, bv):
        return Series("A", av.index, av.values + bv.values, kind=av.kind)

    def b_plus_a(bv, av):
        return Series("B", bv.index, bv.values + av.values, kind=bv.kind)

    p = Pipeline([
        ProcessorStep(a_plus_b, [("A", "B")], declared_outputs=("A",)),
        ProcessorStep(b_plus_a, [("B", "A")], declared_outputs=("B",)),
    ])
    out = run_pipeline(p, data)
    # Step 1 rewrote A to A+B; step 2 then reads the rewritten A.
    assert list(out["A"].values.data) == [11.0, 12.0, 13.0]
    assert list(out["B"].values.data) == [21.0, 22.0, 23.0]

    two_entry = ProcessorStep(
        lambda av, bv: Series(av.name, av.index, av.values + bv.values, kind=av.kind),
        [("A", "B"), ("B", "A")],
    )
    out2 = run_pipeline(Pipeline([two_entry]), data)
    # Both entries saw the original values: no sequential coupling inside a step.
    assert list(out2["A"].values.data) == [11.0, 12.0, 13.0]
    assert list(out2["B"].values.data) == [11.0, 12.0, 13.0]


def test_single_name_selector_fans_out():
    data = acc_triplet()
    p = Pipeline([builtin_processor("scale", ["ACC_x", "ACC_y", "ACC_z"], {"offset": 1.0})])
    out = run_pipeline(p, data)
    assert list(out["ACC_x"].values.data) == [4.0, 2.0, 1.0, 3.0]
    assert list(out["ACC_y"].values.data) == [5.0, 3.0, 3.0, 3.0]
    assert list(out["ACC_z"].values.data) == [1.0, 3.0, 2.0, 2.0]


def test_all_four_arities():
    t = np.arange(3.0)
    data = SeriesSet([
        numeric_series("A", t, values=np.array([1.0, 2.0, 3.0])),
        numeric_series("B", t, values=np.array([4.0, 5.0, 6.0])),
    ])

    def one_to_one(v):
        return v.values * 2.0

    def one_to_many(v):
        return [
            Series(f"{v.name}_pos", v.index, np.maximum(v.values, 0.0), kind=v.kind),
            Series(f"{v.name}_neg", v.index, np.minimum(v.values, 0.0), kind=v.kind),
        ]

    def many_to_one(a, b):
        return Series("AB_sum", a.index, a.values + b.values, kind=a.kind)

    def many_to_many(a, b):
        return [
            Series("lo", a.index, np.minimum(a.values, b.values), kind=a.kind),
            Series("hi", a.index, np.maximum(a.values, b.values), kind=a.kind),
        ]

    p = Pipeline([
        ProcessorStep(one_to_one, ["A"], declared_outputs=SELECTOR_OUTPUTS),
        ProcessorStep(one_to_many, ["A"], declared_outputs=("A_pos", "A_neg")),
        ProcessorStep(many_to_one, [("A", "B")], declared_outputs=("AB_sum",)),
        ProcessorStep(many_to_many, [("A", "B")], declared_outputs=("lo", "hi")),
    ])
    out = run_pipeline(p, data)
    assert list(out["A"].values.data) == [2.0, 4.0, 6.0]
    assert list(out["A_pos"].values.data) == [2.0, 4.0, 6.0]
    assert list(out["AB_sum"].values.data) == [6.0, 9.0, 12.0]
    assert list(out["lo"].values.data) == [2.0, 4.0, 6.0]
    assert list(out["hi"].values.data) == [4.0, 5.0, 6.0]
    assert sorted(out.names()) == ["A", "AB_sum", "A_neg", "A_pos", "B", "hi", "lo"]


def test_bare_array_output_requires_single_name_selector():
    data = acc_triplet()
    step = ProcessorStep(lambda a, b: a.values + b.values, [("ACC_x", "ACC_y")])
    with pytest.raises(StepFailure):
        run_pipeline(Pipeline([step]), data)


def test_renaming_pair_output():
    data = SeriesSet([numeric_series("A", np.arange(3.0))])

    def rename(v):
        return ("A_copy", Series("whatever", v.index, v.values, kind=v.kind))

    out = run_pipeline(Pipeline([ProcessorStep(rename, ["A"])]), data)
    assert sorted(out.names()) == ["A", "A_copy"]
    assert out["A_copy"].name == "A_copy"


def test_duplicate_outputs_within_step_rejected():
    data = acc_triplet()
    dup = ProcessorStep(
        lambda v: Series("same", v.index, v.values, kind=v.kind),
        ["ACC_x", "ACC_y"],
    )
    with pytest.raises(StepFailure) as err:
        run_pipeline(Pipeline([dup]), data)
    assert "same" in str(err.value)


def test_invalid_output_name_surfaces_reserved_character():
    data = SeriesSet([numeric_series("A", np.arange(3.0))])

    def bad(v):
        return ("bad__name", Series("x", v.index, v.values, kind=v.kind))

    with pytest.raises(ReservedCharacterInName):
        run_pipeline(Pipeline([ProcessorStep(bad, ["A"])]), data)


def test_step_exception_becomes_step_failure():
    data = SeriesSet([numeric_series("A", np.arange(3.0))])

    def boom(v):
        raise RuntimeError("broken filter")

    with pytest.raises(StepFailure) as err:
        run_pipeline(Pipeline([ProcessorStep(boom, ["A"], label="boom")]), data)
    assert "step 0" in str(err.value) and "broken filter" in str(err.value)


def test_engine_reruns_are_identical():
    data = acc_triplet()
    p = Pipeline([
        builtin_processor("median_filter", ["ACC_x"], {"size": 3}),
        builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")], {"output": "ACC_SMV"}),
    ])
    first = run_pipeline(p, data)
    second = run_pipeline(p, data)
    assert snapshot(first) == snapshot(second)


@settings(max_examples=40)
@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40),
       st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
def test_sequential_composition_property(values, factor, offset):
    data = SeriesSet([numeric_series("S", np.arange(float(len(values))),
                                     values=np.array(values))])
    s1 = builtin_processor("scale", ["S"], {"factor": factor})
    s2 = builtin_processor("scale", ["S"], {"offset": offset})
    combined = run_pipeline(Pipeline([s1, s2]), data)
    nested = run_pipeline(Pipeline([s2]), run_pipeline(Pipeline([s1]), data))
    assert snapshot(combined) == snapshot(nested)


# ---------------------------------------------------------------------------
# required_inputs
# ---------------------------------------------------------------------------

def test_required_inputs_examples():
    assert required_inputs(Pipeline()) == set()
    single = Pipeline([builtin_processor("clip", ["TMP"], {"hi": 1.0})])
    assert required_inputs(single) == {"TMP"}
    chained = Pipeline([
        builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")], {"output": "ACC_SMV"}),
        builtin_processor("median_filter", ["ACC_SMV"], {"size": 3}),
    ])
    assert required_inputs(chained) == {"ACC_x", "ACC_y", "ACC_z"}


def test_required_inputs_runs_with_exactly_those_series():
    chained = Pipeline([
        builtin_processor("smv", [("ACC_x", "ACC_y", "ACC_z")], {"output": "ACC_SMV"}),
        builtin_processor("median_filter", ["ACC_SMV"], {"size": 3}),
    ])
    run_pipeline(chained, acc_triplet())  # exactly the required inputs


def test_dynamic_step_before_another_is_unresolvable():
    dyn = ProcessorStep(lambda v: v.values, ["A"], declared_outputs=None)
    tail = builtin_processor("clip", ["A"], {"hi": 1.0})
    with pytest.raises(DynamicStepUnresolvable):
        required_inputs(Pipeline([dyn, tail]))
    # A dynamic final step leaves earlier resolution intact.
    assert required_inputs(Pipeline([tail, dyn])) == {"A"}


# ---------------------------------------------------------------------------
# built-in processors
# ---------------------------------------------------------------------------

def test_clip_matches_naive_loop():
    vals = np.array([-5.0, 0.0, 2.5, 7.0, 3.0])
    data = SeriesSet([numeric_series("S", np.arange(5.0), values=vals)])
    out = run_pipeline(Pipeline([builtin_processor("clip", ["S"], {"lo": 0.0, "hi": 3.0})]), data)
    want = [min(max(v, 0.0), 3.0) for v in vals]
    assert list(out["S"].values.data) == want


def test_clip_single_bound():
    vals = np.array([-5.0, 7.0])
    data = SeriesSet([numeric_series("S", np.arange(2.0), values=vals)])
    lo_only = run_pipeline(Pipeline([builtin_processor("clip", ["S"], {"lo": 0.0})]), data)
    assert list(lo_only["S"].values.data) == [0.0, 7.0]
    hi_only = run_pipeline(Pipeline([builtin_processor("clip", ["S"], {"hi": 0.0})]), data)
    assert list(hi_only["S"].values.data) == [-5.0, 0.0]


def test_median_filter_matches_naive_window_median():
    vals = np.array([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0])
    data = SeriesSet([numeric_series("S", np.arange(7.0), values=vals)])
    out = run_pipeline(Pipeline([builtin_processor("median_filter", ["S"], {"size": 3})]), data)
    padded = [vals[0], *vals, vals[-1]]
    want = [sorted(padded[i:i + 3])[1] for i in range(len(vals))]
    assert list(out["S"].values.data) == want


def test_resample_linear_regular_grid_exact():
    idx = np.array([0.0, 1.0, 3.0, 4.0])
    vals = np.array([0.0, 10.0, 30.0, 40.0])
    data = SeriesSet([numeric_series("S", idx, values=vals)])
    out = run_pipeline(
        Pipeline([builtin_processor("resample_linear", ["S"], {"period": 1.0})]), data
    )
    s = out["S"]
    assert list(s.index) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(s.values.data) == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_resample_linear_time_index_far_epoch():
    base = 1_700_000_000_000_000_000
    idx = base + np.array([0, 2, 3], dtype=np.int64) * 1_000_000_000
    s = Series("S", idx, np.array([0.0, 20.0, 30.0]), kind=IndexKind.TIME_NS)
    out = run_pipeline(
        Pipeline([builtin_processor("resample_linear", ["S"], {"period": "1s"})]),
        SeriesSet([s]),
    )
    got = out["S"]
    assert list(got.index) == [base, base + 10**9, base + 2 * 10**9, base + 3 * 10**9]
    assert list(got.values.data) == [0.0, 10.0, 20.0, 30.0]


def test_resample_kind_mismatch_is_step_failure():
    data = SeriesSet([numeric_series("S", np.arange(4.0))])
    p = Pipeline([builtin_processor("resample_linear", ["S"], {"period": "1s"})])
    with pytest.raises(StepFailure):
        run_pipeline(p, data)


def test_smv_requires_aligned_indexes():
    a = numeric_series("A", np.arange(3.0))
    b = numeric_series("B", np.arange(3.0) + 0.5)
    p = Pipeline([builtin_processor("smv", [("A", "B")], {"output": "SMV"})])
    with pytest.raises(StepFailure):
        run_pipeline(p, SeriesSet([a, b]))


@pytest.mark.parametrize(
    "name,params",
    [
        ("clip", {}),
        ("clip", {"lo": "x"}),
        ("clip", {"lo": 0.0, "bogus": 1}),
        ("scale", {"factor": "big"}),
        ("median_filter", {"size": 4}),
        ("median_filter", {"size": 0}),
        ("median_filter", {"size": True}),
        ("resample_linear", {}),
        ("smv", {}),
        ("smv", {"output": "bad__name"}),
    ],
)
def test_processor_param_validation(name, params):
    err = ReservedCharacterInName if params.get("output") == "bad__name" else BadParam
    with pytest.raises(err):
        builtin_processor(name, ["S"], params)


@pytest.mark.parametrize("period", ["-1s", "0s", 0.0, -2.5])
def test_resample_period_must_be_positive(period):
    with pytest.raises(BadParam, match="resample_linear period must be positive"):
        builtin_processor("resample_linear", ["S"], {"period": period})


def test_unknown_processor():
    with pytest.raises(UnknownBuiltin):
        builtin_processor("fft", ["S"])
