"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or configuration error (the
message names the offending series, column, row, or parameter).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from .bench import run_bench
from .chunking import ChunkSpec, chunk_set
from .errors import IoError, StridekitError
from .features import _check_parent, extract
from .io import (
    format_rfc3339,
    load_csv,
    parse_feature_config,
    parse_pipeline_config,
    read_json,
    serialize_feature_config,
    write_json,
    write_matrix,
    write_series_csv,
)
from .processing import run_pipeline
from .series import IndexKind, SeriesSet

_KIND_BY_FLAG = {"time": IndexKind.TIME_NS, "numeric": IndexKind.NUMERIC}


def _add_data_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", nargs="+", required=True, metavar="CSV",
                     help="input CSV file(s); columns become series")
    sub.add_argument("--index-column", default="index",
                     help="name of the index column (default: index)")
    sub.add_argument("--kind", choices=sorted(_KIND_BY_FLAG), default=None,
                     help="index kind; default: sniff from the first row")
    sub.add_argument("--sort", action="store_true",
                     help="stable-sort rows by index instead of rejecting unsorted input")


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _load_data(args) -> SeriesSet:
    kind = _KIND_BY_FLAG[args.kind] if args.kind else None
    out = SeriesSet()
    for path in args.data:
        for series in load_csv(path, index_column=args.index_column,
                               kind_hint=kind, sort=args.sort):
            out.add(series)
    return out


def _safe_filename(name: str) -> str:
    if re.search(r"[/\\\0]", name) or name in (".", ".."):
        raise IoError(f"series name {name!r} is not usable as a file name")
    return name


def _cmd_extract(args) -> int:
    for path in filter(None, (args.out, args.log)):  # before any input is read
        _check_parent(path)
    data = _load_data(args)
    collection, options = parse_feature_config(read_json(args.config))
    if args.workers is not None:
        options = dataclasses.replace(options, n_workers=args.workers)
    if args.approve_sparsity:
        options = dataclasses.replace(options, approve_sparsity=True)
    if args.log:
        options = dataclasses.replace(options, log_path=args.log)
    result = extract(data, collection, options)
    for warning in result.sparsity_warnings:
        print(f"sparsity: {warning.message()}", file=sys.stderr)
    write_matrix(result.matrix, args.out)
    return 0


def _cmd_process(args) -> int:
    data = _load_data(args)
    pipeline = parse_pipeline_config(read_json(args.pipeline))
    result = run_pipeline(pipeline, data)
    os.makedirs(args.out_dir, exist_ok=True)
    for series in result:
        path = os.path.join(args.out_dir, f"{_safe_filename(series.name)}.csv")
        write_series_csv([series], path, index_column=args.index_column)
    return 0


def _cmd_chunk(args) -> int:
    data = _load_data(args)
    spec = ChunkSpec(
        gap_factor=args.gap_factor,
        min_chunk_dur=args.min_dur,
        max_chunk_dur=args.max_dur,
        sub_chunk_overlap=args.overlap,
    )
    groups = chunk_set(data, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = []
    for gi, group in enumerate(groups):
        time_kind = group.slices and group.slices[0].kind is IndexKind.TIME_NS
        manifest.append({
            "begin": format_rfc3339(group.begin) if time_kind else group.begin,
            "end": format_rfc3339(group.end) if time_kind else group.end,
            "series": group.names(),
        })
        for view in group.slices:
            name = _safe_filename(view.name)
            path = os.path.join(args.out_dir, f"chunk_{gi:04d}_{name}.csv")
            write_series_csv([view.to_series()], path, index_column=args.index_column)
    write_json(manifest, os.path.join(args.out_dir, "chunks.json"))
    return 0


def _cmd_reduce(args) -> int:
    doc = read_json(args.config)
    collection, options = parse_feature_config(doc)
    reduced = collection.reduce(args.keep)
    out_doc = serialize_feature_config(
        reduced, options if isinstance(doc, dict) and "options" in doc else None
    )
    write_json(out_doc, args.out)
    return 0


def _cmd_bench(args) -> int:
    report = run_bench(
        window=args.window,
        stride=args.stride,
        n_channels=args.channels,
        fs=args.fs,
        duration=args.duration,
        n_workers=args.workers,
        seed=args.seed,
        measure_rss=args.rss,
    )
    write_json(report.to_json_obj(), args.report)
    print(json.dumps(report.to_json_obj()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stridekit",
        description="Strided-window feature extraction over irregular time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("extract", help="extract features from CSV data")
    _add_data_arguments(p)
    p.add_argument("--config", required=True, help="feature config JSON")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--log", default=None, help="JSON-lines duration log")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="override worker count")
    p.add_argument("--approve-sparsity", action="store_true",
                   help="suppress sparsity warnings")
    p.set_defaults(handler=_cmd_extract)

    p = subs.add_parser("process", help="run a processing pipeline over CSV data")
    _add_data_arguments(p)
    p.add_argument("--pipeline", required=True, help="pipeline config JSON")
    p.add_argument("--out-dir", required=True, help="directory for per-series CSVs")
    p.set_defaults(handler=_cmd_process)

    p = subs.add_parser("chunk", help="split CSV data at gaps into chunk groups")
    _add_data_arguments(p)
    p.add_argument("--gap-factor", type=float, required=True,
                   help="gap threshold as a multiple of the median period")
    p.add_argument("--min-dur", default=None, help="drop chunks shorter than this")
    p.add_argument("--max-dur", default=None, help="cut chunks longer than this")
    p.add_argument("--overlap", default=None,
                   help="backward overlap for cut pieces (sub-chunk overlap)")
    p.add_argument("--out-dir", required=True, help="directory for chunk CSVs + manifest")
    p.set_defaults(handler=_cmd_chunk)

    p = subs.add_parser("reduce", help="keep only the features producing named columns")
    p.add_argument("--config", required=True, help="feature config JSON")
    p.add_argument("--keep", nargs="+", required=True, metavar="COLUMN",
                   help="output column names to keep")
    p.add_argument("--out", required=True, help="reduced feature config JSON")
    p.set_defaults(handler=_cmd_reduce)

    p = subs.add_parser("bench", help="run the synthetic extraction benchmark")
    p.add_argument("--channels", type=_positive_int, default=5)
    p.add_argument("--fs", type=_positive_int, default=1000)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--window", default="30s")
    p.add_argument("--stride", default="10s")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", required=True, help="write the report JSON here")
    p.add_argument("--rss", action="store_true",
                   help="also record the OS resident-set high watermark")
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help; we reserve 2
        # for data errors.
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except StridekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
