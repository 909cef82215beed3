"""One fresh import of metric_affine.cli, for setup_s.

    python perfbench/import_child.py

Prints one JSON object: the import's wall time less the kernel slices run
inside it (`import_s`), the slices' wall times, and the numpy version.
"""

import json
import sys
from time import perf_counter

import drift


def main():
    if sys.flags.optimize:
        sys.exit("the library's checks are asserts; refusing to run with -O")
    with drift.timer_slices() as slices:
        t0 = perf_counter()
        import metric_affine.cli  # noqa: F401  (the import is what is timed)
        import_s = perf_counter() - t0 - sum(p[0] for p in slices)
        taken = [p[0] for p in slices]
    import numpy
    print(json.dumps({"import_s": import_s, "slices": taken,
                      "numpy": numpy.__version__}))


if __name__ == "__main__":
    main()
