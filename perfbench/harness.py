"""Process running, operation counting and set-up timing shared by the workloads."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable

# one verb process or one whole run must finish well inside a run's time limit
PROCESS_TIMEOUT_S = 170.0

# an untraced run sets up at least SETUP_REPEATS times, and again while the
# set-ups so far took under SETUP_MIN_S (a cheap set-up is noisy); setup_s is
# the median
SETUP_REPEATS = 4
SETUP_MIN_S = 12.0
SETUP_MAX_REPEATS = 50


class BenchError(RuntimeError):
    """The run cannot produce its metrics, for example because a verb failed."""


def child_env() -> dict[str, str]:
    """Environment of every program process: the checkout's src/ on the path."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass(frozen=True)
class Proc:
    """One finished process: wall, CPU (user + sys) and peak RSS from wait4."""

    pid: int
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: list[str], cwd: Path) -> Proc:
    """Run argv to completion in cwd; kill it after PROCESS_TIMEOUT_S."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(
            pid=proc.pid,
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def warm_start(cwd: Path) -> None:
    """Start one interpreter that imports genregraph.cli, so bytecode and page cache are warm."""
    proc = run_process([PYTHON, "-c", "import genregraph.cli"], cwd)
    if proc.code != 0:
        raise BenchError(f"importing genregraph.cli failed:\n{proc.stderr}")


def import_seconds(cwd: Path, repeats: int = 3) -> float:
    """Median seconds a fresh interpreter spends importing genregraph.cli."""
    code = "import time; t = time.perf_counter(); import genregraph.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = run_process([PYTHON, "-c", code], cwd)
        if proc.code != 0:
            raise BenchError(f"importing genregraph.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


@dataclass
class Ops:
    """Operations attempted and failed: verb processes, queries and checks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check(self, what: str, fn) -> bool:
        """Run one correctness check; an exception counts as a failure."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a check that raises has failed; the run goes on
            return self.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return self.record(ok, what)


@dataclass
class Run:
    """One run of one workload."""

    seed: int
    trace: bool
    work: Path
    trace_file: Path
    ops: Ops = field(default_factory=Ops)
    # metrics shown by name with unit: name -> (value, unit)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)

    def set_up(self, build) -> tuple[Path, float]:
        """Call build(dir) several times (once when traced); return the last dir and the median time."""
        times, path = [], None
        while not times or not self.trace and len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S
        ):
            if path is not None:
                shutil.rmtree(path)
            path = self.work / f"setup{len(times)}"
            path.mkdir(parents=True)
            start = time.perf_counter()
            build(path)
            times.append(time.perf_counter() - start)
        return path, statistics.median(times)

    def verb(self, args: list[str], cwd: Path, spans: Path | None = None) -> Proc:
        """Run one genregraph verb as its own process; a failure ends the run."""
        argv = [PYTHON, str(BENCH / "verb.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        proc = run_process(argv + args, cwd)
        if not self.ops.record(proc.code == 0, f"genregraph {' '.join(args)}"):
            raise BenchError(f"genregraph {' '.join(args)} exited {proc.code}:\n{proc.stderr[-2000:]}")
        return proc
