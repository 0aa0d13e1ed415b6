"""Run one genregraph CLI verb in this process, as the `genregraph` command does.

usage: python3 perfbench/verb.py [--spans FILE] VERB [ARGS...]

With --spans, the package's public functions are traced and the spans are
written to FILE when the verb returns.
"""

import sys


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path is None:
        from genregraph.cli import main as cli_main

        return cli_main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from genregraph.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
