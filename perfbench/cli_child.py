"""One CLI request, with drift-kernel slices interleaved.

    python perfbench/cli_child.py --slices-out FILE [--trace-out PREFIX
        --run-id ID] -- CLI-ARGS...

Runs metric_affine.cli's main() on CLI-ARGS, as `python -m metric_affine.cli`
does; its output goes to stdout and its exit code is this process's exit
code.  A wall-clock timer interrupts the request every SLICE_PERIOD_S to run
one slice of the reference kernel on the same core, so the request can be
corrected for the host's speed while it ran; the slices go to FILE as JSON.
With --trace-out, the import of metric_affine.cli is timed, the tracer is
installed, and the span summary and spans go to PREFIX.json and
PREFIX.tsv.gz.
"""

import importlib
import json
import sys
from time import perf_counter

import drift


def main(argv):
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    if sys.flags.optimize:
        sys.exit("the library's checks are asserts; refusing to run with -O")
    tracer = None
    try:
        with drift.timer_slices() as slices:
            t0, before = perf_counter(), len(slices)
            cli = importlib.import_module("metric_affine.cli")
            import_s = (perf_counter() - t0
                        - sum(p[0] for p in slices[before:]))
            if "--trace-out" in opts:
                import spans
                tracer = spans.Tracer(opts["--run-id"])
                tracer.install()
            return cli.main(argv[sep + 1:])
    finally:
        sys.stdout.flush()
        with open(opts["--slices-out"], "w", encoding="utf-8") as fh:
            json.dump(slices, fh)
        if tracer is not None:
            summary = tracer.aggregate()
            summary["import_s"] = import_s
            tracer.write(opts["--trace-out"] + ".tsv.gz")
            with open(opts["--trace-out"] + ".json", "w",
                      encoding="utf-8") as fh:
                json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
