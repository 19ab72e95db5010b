"""Command-line interface tests.

Every invocation calls main() in process so exit codes and stderr can be
asserted directly; one test spawns `python -m stridekit` to cover the module
entry point.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import NS, numeric_series, time_series

from stridekit import (
    SeriesSet,
    extract,
    load_csv,
    parse_feature_config,
    parse_rfc3339_ns,
    write_json,
    write_matrix,
    write_series_csv,
)
from stridekit import cli
from stridekit.cli import main


def wearable_doc():
    return {
        "features": [
            {
                "series": ["TMP", "ACC"],
                "functions": [
                    {"name": "mean"},
                    {"name": "quantile", "params": {"q": 0.25}},
                ],
                "windows": ["10s"],
                "strides": ["5s"],
            }
        ]
    }


def write_wearable_csv(path):
    seconds = np.arange(100.0)
    tmp = time_series("TMP", seconds, 20.0 + 0.1 * np.arange(100.0))
    acc = time_series("ACC", seconds, np.sin(np.arange(100.0)))
    write_series_csv([tmp, acc], str(path))
    return tmp, acc


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "extract" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    assert main(["extract", "--help"]) == 0
    capsys.readouterr()


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["warp"]) == 1
    capsys.readouterr()


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["bench"]) == 1
    capsys.readouterr()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "stridekit", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "extract" in proc.stdout


def test_importing_stridekit_loads_no_multiprocessing():
    # multiprocessing costs about 10 ms of start-up; only the fork pool needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stridekit; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_matches_the_library_result(tmp_path):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    config_path = tmp_path / "config.json"
    write_json(wearable_doc(), str(config_path))
    before = data_path.read_bytes()

    out_cli = tmp_path / "cli.csv"
    rc = main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(out_cli),
    ])
    assert rc == 0
    assert data_path.read_bytes() == before

    data = SeriesSet()
    for series in load_csv(str(data_path)):
        data.add(series)
    collection, options = parse_feature_config(json.loads(config_path.read_text()))
    result = extract(data, collection, options)
    out_lib = tmp_path / "lib.csv"
    write_matrix(result.matrix, str(out_lib))
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_extract_workers_flag_gives_identical_bytes(tmp_path):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    config_path = tmp_path / "config.json"
    write_json(wearable_doc(), str(config_path))
    out_one = tmp_path / "one.csv"
    out_two = tmp_path / "two.csv"
    args = ["extract", "--data", str(data_path), "--config", str(config_path)]
    assert main(args + ["--out", str(out_one)]) == 0
    assert main(args + ["--out", str(out_two), "--workers", "2"]) == 0
    assert out_one.read_bytes() == out_two.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2", "1.5", "\u0661"])
@pytest.mark.parametrize("command", ["extract", "bench"])
def test_workers_flag_takes_positive_integers_only(tmp_path, capsys, command, workers):
    report = tmp_path / "report.json"
    args = {"extract": ["--data", "d.csv", "--config", "c.json", "--out", "o.csv"],
            "bench": ["--report", str(report)]}[command]
    assert main([command, *args, "--workers", workers]) == 1
    assert "--workers: must be a positive integer" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--channels", "\u0661", "must be a positive integer"),
    ("--channels", "0", "must be a positive integer"),
    ("--fs", "\u0665", "must be a positive integer"),
    ("--seed", "-1", "must be a non-negative integer"),
    ("--seed", "\u0663", "must be a non-negative integer"),
])
def test_bench_integer_flags_take_ascii_integers_only(tmp_path, capsys, flag, value, message):
    report = tmp_path / "report.json"
    assert main(["bench", "--report", str(report), flag, value]) == 1
    assert f"{flag}: {message}" in capsys.readouterr().err
    assert not report.exists()


def test_extract_merges_multiple_data_files(tmp_path):
    seconds = np.arange(20.0)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_series_csv([time_series("A", seconds)], str(p1))
    write_series_csv([time_series("B", seconds)], str(p2))
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": ["A", "B"],
                    "functions": [{"name": "mean"}],
                    "windows": ["5s"],
                    "strides": ["5s"],
                }
            ]
        },
        str(config_path),
    )
    out = tmp_path / "out.csv"
    rc = main([
        "extract",
        "--data", str(p1), str(p2),
        "--config", str(config_path),
        "--out", str(out),
    ])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert "A__mean__w=5s_s=5s" in header
    assert "B__mean__w=5s_s=5s" in header


def test_extract_unknown_builtin_exits_2_and_names_it(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    doc = wearable_doc()
    doc["features"][0]["functions"] = [{"name": "warble"}]
    config_path = tmp_path / "config.json"
    write_json(doc, str(config_path))
    rc = main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "warble" in err


def test_extract_unsorted_data_exits_2_and_sort_flag_recovers(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    data_path.write_text(
        "index,X\r\n"
        "2020-01-01T00:00:00Z,1.0\r\n"
        "2020-01-01T00:00:01Z,2.0\r\n"
        "2020-01-01T00:00:00.500Z,3.0\r\n"
    )
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "X",
                    "functions": [{"name": "count"}],
                    "windows": ["1s"],
                    "strides": ["1s"],
                }
            ]
        },
        str(config_path),
    )
    args = [
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 4" in err
    assert main(args + ["--sort"]) == 0


@pytest.mark.parametrize("cell", ["2020-01-01T00:01", "2020-01-02"])
def test_extract_truncated_timestamp_exits_2_and_names_row(tmp_path, capsys, cell):
    data_path = tmp_path / "data.csv"
    data_path.write_text(f"index,X\n2020-01-01T00:00:00Z,1.0\n{cell},2.0\n")
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "X",
                    "functions": [{"name": "count"}],
                    "windows": ["1s"],
                    "strides": ["1s"],
                }
            ]
        },
        str(config_path),
    )
    rc = main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 3" in err


def run_extract(tmp_path, data: bytes, series):
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(data)
    config_path = tmp_path / "config.json"
    write_json(
        {"features": [{"series": series, "functions": [{"name": "count"}],
                       "windows": ["1s"], "strides": ["1s"]}]},
        str(config_path),
    )
    return main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
    ]), data_path


@pytest.mark.parametrize("data, series, message", [
    pytest.param(b"index,X\n0,1\n1,caf\xe9\n", "X", "row 3: {path}: not valid UTF-8 (byte 0xe9)",
                 id="not-utf8"),
    pytest.param(b"index,X\n0,1\n1,99999999999999999999\n", "X",
                 "row 3: integer '99999999999999999999' in column 'X' is outside the I64 range",
                 id="int-overflow"),
    pytest.param(b'index,X\n0,1\n1,"' + b"x" * 200_000 + b'"\n', "X",
                 "row 3: {path}: field larger than field limit (131072)",
                 id="quoted-field-over-csv-limit"),
    pytest.param(b"index,X,Y\n0,1,2\n1,3,4\n", [["X", "Y"]],
                 "builtin 'count' takes one series, but group 'X|Y' has 2",
                 id="builtin-on-two-series"),
])
def test_extract_input_errors_exit_2_with_one_line(tmp_path, capsys, data, series, message):
    rc, data_path = run_extract(tmp_path, data, series)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(path=data_path)}\n"


@pytest.mark.parametrize("function, window, options, message", [
    pytest.param({"name": "mean"}, "10s", {"approve_sparsity": "no"},
                 "options: approve_sparsity must be true or false, got 'no'",
                 id="approve-sparsity-string"),
    pytest.param({"name": "mean"}, True, {},
                 "features[0]: cannot interpret True as an index delta", id="bool-window"),
    pytest.param({"name": "mean", "robust": {"fill_value": True}}, "10s", {},
                 "features[0].functions[0]: 'mean': fill_value must be a number, got True",
                 id="bool-fill-value"),
    pytest.param({"name": "mean", "robust": {"fill_value": 10**400}}, "10s", {},
                 "features[0].functions[0]: 'mean': fill_value is too large for a float",
                 id="401-digit-fill-value"),
    pytest.param({"name": "mean"}, 10**400, {},
                 "features[0]: index delta is too large for a float", id="401-digit-window"),
    pytest.param({"name": "mean"}, "\u0663", {},
                 "features[0]: cannot parse index delta '\u0663'", id="non-ascii-window"),
    pytest.param({"name": "mean"}, "0s", {},
                 "features[0]: window must be positive, got 0s", id="zero-window"),
])
def test_extract_config_errors_exit_2_naming_the_entry(tmp_path, capsys, function, window,
                                                       options, message):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    config_path = tmp_path / "config.json"
    write_json({"features": [{"series": "TMP", "functions": [function],
                              "windows": [window], "strides": [window]}],
                "options": options}, str(config_path))
    rc = main(["extract", "--data", str(data_path), "--config", str(config_path),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("window, stride", [("nan", 1.0), (2.0, "inf"), ("-inf", 1.0)])
def test_extract_non_finite_delta_exits_2_with_one_line(tmp_path, capsys, window, stride):
    data_path = tmp_path / "data.csv"
    write_series_csv([numeric_series("X", np.arange(10.0))], str(data_path))
    config_path = tmp_path / "config.json"
    write_json({"features": [{"series": "X", "functions": [{"name": "mean"}],
                              "windows": [window], "strides": [stride]}]}, str(config_path))
    rc = main(["extract", "--data", str(data_path), "--config", str(config_path),
               "--out", str(tmp_path / "out.csv")])
    bad = window if isinstance(window, str) else stride
    assert rc == 2
    assert capsys.readouterr().err == f"error: features[0]: index delta {float(bad)} is not finite\n"


@pytest.mark.parametrize("function, window, stride, message", [
    pytest.param({"name": "count", "robust": {"min_samples": 1, "fill_value": 1e300}}, 1.0, 1.0,
                 "features[0].functions[0]: 'count': an I64 output cannot hold the fill_value "
                 "1e+300", id="count-fill-1e300"),
    pytest.param({"name": "count", "robust": {"min_samples": 2, "fill_value": 0.5}}, 1.0, 1.0,
                 "features[0].functions[0]: 'count': an I64 output cannot hold the fill_value "
                 "0.5", id="count-fill-half"),
    pytest.param({"name": "mean"}, 1.0, 1e-9,
                 "group 'X' with window 1 and stride 1e-09 has 8000000001 windows, more than "
                 "the 33554432 one grid may have", id="grid-too-large"),
])
def test_extract_unholdable_request_exits_2_with_one_line(tmp_path, capsys, function, window,
                                                          stride, message):
    data_path = tmp_path / "data.csv"
    write_series_csv([numeric_series("X", np.arange(10.0))], str(data_path))
    config_path = tmp_path / "config.json"
    write_json({"features": [{"series": "X", "functions": [function],
                              "windows": [window], "strides": [stride]}]}, str(config_path))
    rc = main(["extract", "--data", str(data_path), "--config", str(config_path),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_extract_duplicate_series_across_files_exits_2(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_series_csv([numeric_series("X", np.arange(5.0))], str(p1))
    write_series_csv([numeric_series("X", np.arange(5.0))], str(p2))
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "X",
                    "functions": [{"name": "mean"}],
                    "windows": [2],
                    "strides": [1],
                }
            ]
        },
        str(config_path),
    )
    rc = main([
        "extract",
        "--data", str(p1), str(p2),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "X" in err


def test_extract_sparsity_warning_goes_to_stderr(tmp_path, capsys):
    seconds = np.concatenate([np.arange(30.0), np.arange(60.0, 100.0)])
    data_path = tmp_path / "gappy.csv"
    write_series_csv([time_series("X", seconds)], str(data_path))
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "X",
                    "functions": [{"name": "count"}],
                    "windows": ["10s"],
                    "strides": ["10s"],
                }
            ]
        },
        str(config_path),
    )
    base = [
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
    ]
    assert main(base + ["--out", str(tmp_path / "out.csv")]) == 0
    err = capsys.readouterr().err
    assert "sparsity:" in err
    assert "approve_sparsity" in err

    rc = main(base + ["--out", str(tmp_path / "out2.csv"), "--approve-sparsity"])
    assert rc == 0
    assert "sparsity" not in capsys.readouterr().err


def test_extract_writes_a_duration_log(tmp_path):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    config_path = tmp_path / "config.json"
    write_json(wearable_doc(), str(config_path))
    log_path = tmp_path / "log.jsonl"
    rc = main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
        "--log", str(log_path),
    ])
    assert rc == 0
    lines = log_path.read_text().splitlines()
    assert len(lines) == 4  # 2 series x 2 functions
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "func", "series", "window", "stride", "n_segments", "duration_s", "path",
        }
        assert record["path"] == "block"
        assert record["n_segments"] > 0
        assert record["duration_s"] >= 0.0


def test_extract_with_an_unwritable_log_exits_2_with_one_line(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    config_path = tmp_path / "config.json"
    write_json(wearable_doc(), str(config_path))
    log_path = tmp_path / "missing" / "log.jsonl"
    rc = main([
        "extract",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(tmp_path / "out.csv"),
        "--log", str(log_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {log_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--log"])
@pytest.mark.parametrize("parent", ["missing", "file"])
def test_extract_refuses_a_missing_output_directory_before_reading_input(tmp_path, capsys,
                                                                         monkeypatch, flag,
                                                                         parent):
    def never(*args, **kwargs):
        raise AssertionError("input read before the output directories were checked")
    monkeypatch.setattr(cli, "extract", never)
    monkeypatch.setattr(cli, "load_csv", never)
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / parent / "x")
    paths = {"--out": str(tmp_path / "out.csv"), "--log": str(tmp_path / "log.jsonl"), flag: bad}
    rc = main(["extract", "--data", str(tmp_path / "data.csv"), "--config",
               str(tmp_path / "config.json"), "--out", paths["--out"], "--log", paths["--log"]])
    assert rc == 2
    try:
        open(bad, "w")
    except OSError as exc:
        expected = f"error: cannot write {bad}: {exc}\n"
    assert capsys.readouterr().err == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------

def test_process_writes_one_csv_per_series(tmp_path):
    data_path = tmp_path / "data.csv"
    tmp_orig, acc_orig = write_wearable_csv(data_path)
    pipeline_path = tmp_path / "pipeline.json"
    write_json(
        {"steps": [{"function": "clip", "series": "TMP", "params": {"hi": 22.0}}]},
        str(pipeline_path),
    )
    out_dir = tmp_path / "out"
    rc = main([
        "process",
        "--data", str(data_path),
        "--pipeline", str(pipeline_path),
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["ACC.csv", "TMP.csv"]

    clipped = load_csv(str(out_dir / "TMP.csv"))[0]
    np.testing.assert_array_equal(
        clipped.values.data, np.minimum(tmp_orig.values.data, 22.0)
    )
    untouched = load_csv(str(out_dir / "ACC.csv"))[0]
    np.testing.assert_array_equal(untouched.values.data, acc_orig.values.data)


def test_process_respects_index_column(tmp_path):
    data_path = tmp_path / "data.csv"
    write_series_csv(
        [numeric_series("X", np.arange(10.0))], str(data_path), index_column="t"
    )
    pipeline_path = tmp_path / "pipeline.json"
    write_json(
        {"steps": [{"function": "scale", "series": "X", "params": {"factor": 2.0}}]},
        str(pipeline_path),
    )
    out_dir = tmp_path / "out"
    rc = main([
        "process",
        "--data", str(data_path),
        "--index-column", "t",
        "--pipeline", str(pipeline_path),
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    out_path = out_dir / "X.csv"
    assert out_path.read_text().splitlines()[0] == "t,X"
    doubled = load_csv(str(out_path), index_column="t")[0]
    np.testing.assert_array_equal(doubled.values.data, 2.0 * np.arange(10.0))


def test_process_bad_processor_params_exit_2(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    pipeline_path = tmp_path / "pipeline.json"
    write_json(
        {"steps": [{"function": "clip", "series": "TMP", "params": {}}]},
        str(pipeline_path),
    )
    rc = main([
        "process",
        "--data", str(data_path),
        "--pipeline", str(pipeline_path),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "clip" in capsys.readouterr().err


@pytest.mark.parametrize("period", ["-1s", "0s"])
def test_process_non_positive_resample_period_exits_2_with_one_line(tmp_path, capsys, period):
    data_path = tmp_path / "data.csv"
    write_wearable_csv(data_path)
    pipeline_path = tmp_path / "pipeline.json"
    write_json({"steps": [{"function": "resample_linear", "series": "TMP",
                           "params": {"period": period}}]}, str(pipeline_path))
    rc = main(["process", "--data", str(data_path), "--pipeline", str(pipeline_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: resample_linear period must be positive, got {period!r}\n")


# ---------------------------------------------------------------------------
# chunk
# ---------------------------------------------------------------------------

def test_chunk_splits_numeric_data_and_writes_manifest(tmp_path):
    index = np.concatenate([np.arange(0.0, 11.0), np.arange(100.0, 111.0)])
    data_path = tmp_path / "data.csv"
    write_series_csv([numeric_series("A", index)], str(data_path))
    out_dir = tmp_path / "chunks"
    rc = main([
        "chunk",
        "--data", str(data_path),
        "--gap-factor", "3.0",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "chunk_0000_A.csv", "chunk_0001_A.csv", "chunks.json",
    ]
    manifest = json.loads((out_dir / "chunks.json").read_text())
    assert [entry["begin"] for entry in manifest] == [0.0, 100.0]
    assert [entry["end"] for entry in manifest] == [10.0, 110.0]
    assert all(entry["series"] == ["A"] for entry in manifest)

    piece = load_csv(str(out_dir / "chunk_0001_A.csv"))[0]
    np.testing.assert_array_equal(piece.index, np.arange(100.0, 111.0))


def test_chunk_time_manifest_uses_rfc3339(tmp_path):
    seconds = np.concatenate([np.arange(0.0, 11.0), np.arange(100.0, 111.0)])
    data_path = tmp_path / "data.csv"
    write_series_csv(
        [time_series("A", seconds), time_series("B", seconds)], str(data_path)
    )
    out_dir = tmp_path / "chunks"
    rc = main([
        "chunk",
        "--data", str(data_path),
        "--gap-factor", "3.0",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    manifest = json.loads((out_dir / "chunks.json").read_text())
    assert len(manifest) == 2
    assert manifest[0]["series"] == ["A", "B"]
    assert [parse_rfc3339_ns(entry["begin"]) for entry in manifest] == [0, 100 * NS]
    assert [parse_rfc3339_ns(entry["end"]) for entry in manifest] == [10 * NS, 110 * NS]
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "chunk_0000_A.csv", "chunk_0000_B.csv",
        "chunk_0001_A.csv", "chunk_0001_B.csv",
        "chunks.json",
    ]


def test_chunk_duration_options_pass_through(tmp_path):
    index = np.arange(0.0, 101.0)
    data_path = tmp_path / "data.csv"
    write_series_csv([numeric_series("A", index)], str(data_path))
    out_dir = tmp_path / "chunks"
    rc = main([
        "chunk",
        "--data", str(data_path),
        "--gap-factor", "3.0",
        "--max-dur", "40",
        "--overlap", "5",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    manifest = json.loads((out_dir / "chunks.json").read_text())
    # Cut pieces of a single series overlap, so the sweep rejoins them into
    # one covering group; the per-piece files still exist on disk.
    assert [entry["begin"] for entry in manifest] == [0.0]
    assert [entry["end"] for entry in manifest] == [100.0]


def test_chunk_bad_spec_exits_2(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    write_series_csv([numeric_series("A", np.arange(10.0))], str(data_path))
    rc = main([
        "chunk",
        "--data", str(data_path),
        "--gap-factor", "1.0",
        "--out-dir", str(tmp_path / "chunks"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["chunk", "process"])
def test_a_series_name_that_is_no_file_name_exits_2_with_one_line(tmp_path, capsys, command):
    data_path = tmp_path / "data.csv"
    data_path.write_text("index,a/b\n0,1\n1,2\n")
    pipeline_path = tmp_path / "pipeline.json"
    write_json({"steps": []}, str(pipeline_path))
    extra = (["--gap-factor", "3.0"] if command == "chunk"
             else ["--pipeline", str(pipeline_path)])
    rc = main([command, "--data", str(data_path), *extra, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: series name 'a/b' is not usable as a file name\n"


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_keeps_only_the_named_feature(tmp_path):
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "TMP",
                    "functions": [{"name": "mean"}, {"name": "std"}],
                    "windows": ["30s"],
                    "strides": ["10s"],
                }
            ]
        },
        str(config_path),
    )
    out_path = tmp_path / "reduced.json"
    rc = main([
        "reduce",
        "--config", str(config_path),
        "--keep", "TMP__std__w=30s_s=10s",
        "--out", str(out_path),
    ])
    assert rc == 0
    reduced = json.loads(out_path.read_text())
    assert reduced == {
        "features": [
            {
                "series": "TMP",
                "functions": [{"name": "std"}],
                "windows": ["30s"],
                "strides": ["10s"],
            }
        ]
    }


def test_reduce_preserves_options_when_present(tmp_path):
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "TMP",
                    "functions": [{"name": "mean"}],
                    "windows": ["30s"],
                    "strides": ["10s"],
                }
            ],
            "options": {"approve_sparsity": True, "n_workers": 2},
        },
        str(config_path),
    )
    out_path = tmp_path / "reduced.json"
    rc = main([
        "reduce",
        "--config", str(config_path),
        "--keep", "TMP__mean__w=30s_s=10s",
        "--out", str(out_path),
    ])
    assert rc == 0
    reduced = json.loads(out_path.read_text())
    assert reduced["options"] == {
        "approve_sparsity": True,
        "n_workers": 2,
        "output_position": "end",
    }


def test_reduce_unknown_column_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_json(
        {
            "features": [
                {
                    "series": "TMP",
                    "functions": [{"name": "mean"}],
                    "windows": ["30s"],
                    "strides": ["10s"],
                }
            ]
        },
        str(config_path),
    )
    rc = main([
        "reduce",
        "--config", str(config_path),
        "--keep", "TMP__max__w=30s_s=10s",
        "--out", str(tmp_path / "reduced.json"),
    ])
    assert rc == 2
    assert "TMP__max__w=30s_s=10s" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_report_and_prints_the_same_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "bench",
        "--channels", "1",
        "--fs", "20",
        "--duration", "10",
        "--window", "2s",
        "--stride", "1s",
        "--seed", "7",
        "--report", str(report_path),
    ])
    assert rc == 0
    on_disk = json.loads(report_path.read_text())
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == on_disk
    assert set(on_disk) == {
        "runtime_s", "peak_extra_bytes", "data_bytes",
        "n_windows", "n_feature_columns", "n_workers", "seed",
    }
    assert on_disk["n_windows"] == 8
    assert on_disk["n_feature_columns"] == 16
    assert on_disk["n_workers"] == 1
    assert on_disk["seed"] == 7


def test_bench_rss_flag_adds_the_watermark(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "bench",
        "--channels", "1",
        "--fs", "20",
        "--duration", "5",
        "--report", str(report_path),
        "--rss",
    ])
    assert rc == 0
    capsys.readouterr()
    on_disk = json.loads(report_path.read_text())
    assert "rss_peak_bytes" in on_disk
    assert on_disk["rss_peak_bytes"] > 0
