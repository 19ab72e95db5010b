"""Run one stridekit benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh interpreter (``child.py``) with ``src`` on
the import path. Set-up is timed from the moment an interpreter is started
until its inputs are built, in several interpreters that do nothing else,
and reported as the median. Job times are normalized to the reference host
speed (``measure.calibrate``); set-up times are not.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones. Every line before
it is the human-readable report. The exit code is 0 only when every counted
job's output matched the reference and the reference agreed with the
oracle.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import median, percentile, supported_percentile  # noqa: E402

#: Interpreters started per run only to time their set-up.
SETUPS = 7
#: Whole-run limit; the child is stopped if it would overrun.
RUN_LIMIT_S = 175.0


def _child(workload, seed, extra, deadline) -> tuple[dict, float]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = _load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stridekit", "__init__.py")):
        print(f"error: no stridekit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # Byte-compile first so no measured set-up pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    load_start = os.getloadavg()
    setups, gens = [], []
    for _ in range(SETUPS):
        probe, setup = _child(args.workload, args.seed, ["--setup-only"], deadline)
        setups.append(setup)
        gens.append(probe["gen_s"])
    res, _ = _child(args.workload, args.seed,
                    ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    load_end = os.getloadavg()

    walls = res["walls_normalized"]
    values = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_alloc_mb": res["peak_alloc_mb"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        values = {**res["layers"], "bench.gen_s": median(gens)}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["oracle_problems"] and len(metrics) == len(wanted)
    p_top = supported_percentile(len(walls))
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "recording_s": res["recording_s"],
        "input_samples": res["samples"], "n_workers": res["n_workers"],
        "jobs_timed": len(walls), "jobs_traced": len(res.get("traced_walls", [])),
        "wall_s_p_top": [p_top, percentile(walls, p_top) if p_top else None],
        "wall_s_unnormalized": median(res["walls"]),
        "fail_frac": failed / attempted,
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": res["python"], "numpy": res["numpy"], "stridekit": res["stridekit"],
        "loadavg_start": load_start, "loadavg_end": load_end,
        "setup_s_all": setups, "first_job_s": res["first_job_s"],
        "trace_file": res.get("trace_file"),
    }
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for problem in res["errors"] + res["oracle_problems"]:
        print(f"# FAIL {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    report = {"meta": meta, "metrics": metrics, "walls": res["walls"],
              "walls_normalized": walls,
              "traced_walls": res.get("traced_walls", []),
              "errors": res["errors"], "oracle_problems": res["oracle_problems"]}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
