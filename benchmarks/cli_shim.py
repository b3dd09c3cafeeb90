"""Traced stand-in for ``python -m bosecount.cli``.

Usage: cli_shim.py STATS_PATH OP_ID CLI_ARGS...

Times ``import bosecount.cli``, wraps every layer with the tracer, runs
``bosecount.cli.main(CLI_ARGS)`` and writes the import time, per-function
totals and spans to STATS_PATH as JSON.  Exits with main's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def run(stats_path: str, op_id: int, argv: list[str]) -> int:
    start = time.perf_counter()
    import bosecount.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        code = bosecount.cli.main(argv)
    except SystemExit as exc:   # argparse exits for --version
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(dict(tracer.dump(), import_s=import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))
