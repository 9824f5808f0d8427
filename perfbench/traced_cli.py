"""Run one percolate command under the tracer and write the trace to a file.

Usage: python3 traced_cli.py TRACE_JSON <percolate arguments...>

The benchmark's traced ``cli`` pass starts each command through this script,
in its own interpreter, as the untraced pass starts the console script.
"""

import json
import sys
import time

started = time.perf_counter()
import percolate.cli  # noqa: E402

import_s = time.perf_counter() - started

from tracer import Tracer, install  # noqa: E402

if __name__ == "__main__":
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = percolate.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "totals": tracer.totals(), "spans": tracer.spans}, fh)
    sys.exit(code)
