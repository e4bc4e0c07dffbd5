"""Run one `sympol` CLI command, optionally under the benchmark's tracer.

    python3 perfbench/launch.py enumerate --n 3 --p 3 --cache DIR

The arguments are passed unchanged to sympol.cli.main and its return
code becomes the exit code.  When PERFBENCH_TRACE_OUT names a file the
tracer is installed first and its counts are written there as JSON,
together with the process start time: from PERFBENCH_T0 (the parent's
perf_counter() at spawn) to the moment sympol.cli is imported.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()


def main(argv):
    import sympol.cli

    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        return sympol.cli.main(argv)
    started = time.perf_counter() - float(os.environ.get("PERFBENCH_T0", T_START))
    import tracer

    rec = tracer.install()
    rec.count("cli.process_start_s", started)
    rec.op = "main"
    try:
        return sympol.cli.main(argv)
    finally:
        with open(trace_out, "w") as fh:
            json.dump({"final": rec.snapshot(), "dropped_spans": rec.dropped_spans}, fh)
        rec.write_spans(os.path.splitext(trace_out)[0] + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
