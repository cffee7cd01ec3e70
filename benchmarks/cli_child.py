"""Run one gencheb CLI invocation with the span tracer installed.

Usage: python3 cli_child.py SPANS.npz <gencheb cli arguments...>

The traced counterpart of `python3 -m gencheb.cli ...`: the same `main`,
with every public gencheb callable wrapped.  Spans are written to
SPANS.npz when `main` returns, and the exit code is passed through.
"""

import sys

from tracing import Tracer


def run(spans_path: str, argv: list[str]) -> int:
    import gencheb.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = gencheb.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.spans().dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
