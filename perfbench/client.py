"""One closed-loop client calling `genregraph.cli.main(["recommend", ...])` in this process.

usage: python3 perfbench/client.py PLAN_JSON RESULT_JSON

The plan holds the argument lists of the calls, made once each in order;
each call starts when the previous one returns. The result holds each
call's latency, exit code and printed table, plus the loop's wall and CPU
seconds. With `spans` set in the plan, the calls are traced and the spans
written there.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from genregraph.cli import main as cli_main

    latencies, codes, outputs = [], [], []
    cpu_start = _cpu_seconds()
    loop_start = time.perf_counter()
    for args in plan["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(args)
        latencies.append(time.perf_counter() - start)
        codes.append(code)
        outputs.append(out.getvalue() if code == 0 else err.getvalue())
    wall = time.perf_counter() - loop_start
    cpu = _cpu_seconds() - cpu_start
    if tracer is not None:
        tracer.dump(plan["spans"])
    with open(result_path, "w") as fh:
        json.dump(
            {"latencies": latencies, "codes": codes, "outputs": outputs, "wall": wall, "cpu": cpu},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
