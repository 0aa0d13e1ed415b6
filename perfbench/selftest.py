"""Self-test of the benchmark at its smallest size; it checks no timing.

usage: python3 perfbench/selftest.py

For each workload run.py offers it makes one untraced and two traced runs at
`--scale smoke` and checks:
- the last line is the result object with exactly its four keys, and the
  run is correct;
- the untraced metrics are exactly BENCHMARK.json's end-to-end metrics,
  and the traced ones its per-layer metrics, each with its unit;
- every metric the workload measures is printed by name with its unit;
- every count repeats exactly across the two traced runs.
It also checks BENCHMARK.json's limits, and that the benchmark exits
non-zero without a result in a directory without the program's sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNIVERSAL = ["setup_s", "wall_s", "peak_rss_mb", "cpu_s"]
REPORTED = {
    "desk": UNIVERSAL + [
        "synth_songs_per_s", "extract_songs_per_s", "train_s", "evaluate_queries_per_s",
        "gamma_mfcc", "gamma_oracle_sage", "gamma_oracle_gcn", "gamma_knn_sage", "gamma_knn_gcn",
    ],
    "queries": UNIVERSAL + ["query_p50_ms", "query_p90_ms"],
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly its six keys")
    expect(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]
    ), "workloads: 2 to 8, each a name and a one-line why of at most 200 characters")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    expect(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)), "names valid and unique")
    expect(1 <= len(spec["end_to_end"]) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and UNIT.fullmatch(m["unit"])
        and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"]
    ), "end_to_end: 1 to 16 metrics with unit, better and a bound of at most 0.25")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}],
           "setup_s is in seconds, lower is better, with the largest bound")
    expect(1 <= len(spec["per_layer"]) <= 128 and all(
        set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"]) for m in spec["per_layer"]
    ), "per_layer: 1 to 128 metrics with unit and better")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json within 64 KiB")


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stderr[-3000:], file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], expected: dict[str, str], what: str) -> dict:
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{what}: correct, nothing failed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted >= 1")
    metrics = result["metrics"]
    expect(list(metrics) == list(expected), f"{what}: metrics are exactly those of BENCHMARK.json")
    expect(all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
               for n, u in expected.items() if n in metrics), f"{what}: every metric has its unit")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REPORT_UNITS

    expect(all(REPORT_UNITS[n] == u for n, u in end_to_end.items()), "end-to-end units match the printed ones")

    expect({w["name"] for w in spec["workloads"]} == set(REPORTED), "BENCHMARK.json names every workload")
    for workload in REPORTED:
        code, lines = run(workload, 0)
        expect(code == 0, f"{workload}: untraced run exits 0")
        if code != 0:
            continue
        metrics = check_result(lines, end_to_end, f"{workload} untraced")
        expect(all(metrics[n]["value"] > 0 for n in metrics), f"{workload}: end-to-end metrics are not 0")
        printed = dict(re.findall(r"^metric (\S+)\s+\S+ (\S+)$", "\n".join(lines), re.M))
        expect(printed == {n: REPORT_UNITS[n] for n in REPORTED[workload]},
               f"{workload}: prints {len(REPORTED[workload])} metrics by name with unit")

        traced = []
        for _ in range(2):
            code, lines = run(workload, 1, seed=1)
            expect(code == 0, f"{workload}: traced run exits 0")
            if code == 0:
                traced.append(check_result(lines, per_layer, f"{workload} traced"))
        if len(traced) == 2:
            counts = [n for n, u in per_layer.items() if u == "count"]
            expect(all(traced[0][n]["value"] == traced[1][n]["value"] for n in counts),
                   f"{workload}: {len(counts)} counts repeat exactly across two traced runs")

    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "without src/ the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
