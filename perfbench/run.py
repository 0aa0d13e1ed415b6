"""genregraph benchmark: run one workload and print its metrics.

usage: python3 perfbench/run.py --workload {desk,queries,all}
                                --seed N --seconds S --trace {0,1} [--scale {full,smoke}]

Run from any directory; the program is taken from src/ next to perfbench/.
Before the result it prints the provenance and every metric the workload
measures, by name with its unit. The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, taken from a traced pass that follows an untraced one. Each
workload runs a fixed amount of work, about 30 s on a 2-vCPU machine, so
that counts repeat; --seconds is recorded with the result and changes
nothing else. Work directories, traces and results go under .bench_build/.
--workload all runs each workload in turn in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("desk", "queries")


def _provenance(args: argparse.Namespace) -> dict:
    import ctypes

    import numpy as np
    import scipy

    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip() if (ROOT / ".git").exists() else None
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(args: argparse.Namespace) -> int:
    from harness import BenchError, Run
    from workloads import SCALES, WORKLOADS

    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    run = Run(
        seed=args.seed,
        trace=bool(args.trace),
        work=work,
        trace_file=BUILD / "traces" / f"{stamp}.jsonl",
    )
    provenance = _provenance(args)
    print("provenance " + json.dumps(provenance), flush=True)
    work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run, SCALES[args.scale])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end, per_layer = _declared_units()
    for name, (value, unit) in run.report.items():
        print(f"metric {name:<24} {value:>14.6f} {unit}")
    for name, value in run.per_layer.items():
        print(f"layer  {name:<44} {value:>14.6f} {per_layer[name]}")
    for error in run.ops.errors:
        print(f"check failed: {error}", file=sys.stderr)

    if run.trace:
        metrics = {name: {"value": run.per_layer[name], "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": run.report[name][0], "unit": unit} for name, unit in end_to_end.items()}
    result = {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stamp}.json").write_text(
        json.dumps({"provenance": provenance, "report": run.report, "per_layer": run.per_layer,
                    "errors": run.ops.errors, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "genregraph" / "cli.py").is_file():
        print(f"error: no genregraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[1:1] = [str(ROOT / "src")]
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(code)
