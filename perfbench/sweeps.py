"""The three verification sweeps, their frozen expectations, and the child
process that runs one sweep with cold library caches.

Run as a script, this module is the child: for each (field, dim) group in
turn it builds the group's units, permutes them by seed and runs them,
timing the build and every unit with drift-kernel slices interleaved; then
it checks the tallies and prints one JSON object.
"""

import argparse
import json
import random
import sys
from collections import Counter
from time import process_time

import drift
import settings
import spans
from metric_affine import classify, fields, quadform, transvect

# --- frozen expectations (copied from tests/test_acceptance.py) -------------

QUADRIC_TALLIES = {
    ("GF(3)", 2): {"degenerate-polar": 9, "empty-quadric": 6, "ok": 12},
    ("GF(3)", 3): {"degenerate-polar": 261, "ok": 468},
    ("GF(5)", 2): {"degenerate-polar": 25, "empty-quadric": 40, "ok": 60},
    ("GF(5)", 3): {"degenerate-polar": 3225, "ok": 12400},
}

LETTER_TALLIES = {
    ("GF(2)", 1): {"c": 1, "d": 1},
    ("GF(2)", 2): {"a": 6, "b": 6, "c": 6, "d": 6},
    ("GF(2)", 3): {"a": 168, "b": 168, "c": 56, "d": 56},
    ("GF(3)", 1): {"a": 4, "d": 2},
    ("GF(3)", 2): {"a": 144, "b": 48, "d": 24},
    ("GF(3)", 3): {"a": 12636, "b": 5616, "d": 702},
}

WEAK_MEMBERSHIP_TALLIES = {
    ("GF(2)", 1): {(True, "dim-1"): 1, (True, "isotropic-f-spans-radical"): 1},
    ("GF(2)", 2): {(False, None): 18,
                   (True, "gf2-anisotropic-nondegenerate-plane"): 6},
    ("GF(2)", 3): {(False, None): 420,
                   (True, "isotropic-f-spans-radical"): 28},
    ("GF(3)", 1): {(True, "dim-1"): 4, (True, "isotropic-f-spans-radical"): 2},
    ("GF(3)", 2): {(False, None): 200,
                   (True, "isotropic-f-spans-radical"): 16},
    ("GF(3)", 3): {(False, None): 18486,
                   (True, "isotropic-f-spans-radical"): 468},
}

# (motion, weak) solution totals of solve_for_qtilde over all Q (c3)
SOLUTION_TOTALS = {
    ("GF(4)", 1): (0, 0),
    ("GF(5)", 1): (16, 16),
    ("GF(3)", 2): (36, 36),
    # The polar form over GF(2) is alternating, so in odd dimension it is
    # always degenerate; solve_for_qtilde then asserts there are no solutions.
    ("GF(2)", 3): (0, 0),
}

# scaled_transvection_never_weak holds on every (Q, f != 0) pair: q^m (q^n - 1)
SCALED_PAIRS = {("GF(3)", 1): 6, ("GF(3)", 2): 216,
                ("GF(5)", 1): 20, ("GF(5)", 2): 3000}


def expected_tallies(workload):
    """(tally, field, dim) -> {outcome: count} for one sweep."""
    if workload == "quadric-sweep":
        return {("quadric",) + k: dict(v) for k, v in QUADRIC_TALLIES.items()}
    if workload == "solution-sweep":
        return {("solutions",) + k: {"motion": m, "weak": w}
                for k, (m, w) in SOLUTION_TOTALS.items()}
    if workload == "lemma-sweep":
        out = {("letters",) + k: dict(v) for k, v in LETTER_TALLIES.items()}
        out.update({("weak-membership",) + k: dict(v)
                    for k, v in WEAK_MEMBERSHIP_TALLIES.items()})
        out.update({("scaled-never-weak",) + k: {True: v}
                    for k, v in SCALED_PAIRS.items()})
        return out
    raise ValueError("unknown sweep %r" % workload)


# --- units ------------------------------------------------------------------
#
# A sweep is a list of (kind, field name, dim) groups.  A unit is one call of
# the library inside a group; running it yields the (tally, outcome, amount)
# triples it contributes to the sweep's tallies.

GROUPS = {
    "quadric-sweep": [("quadric",) + k for k in QUADRIC_TALLIES],
    "solution-sweep": [("solve",) + k for k in SOLUTION_TOTALS],
    "lemma-sweep": ([("pair",) + k for k in LETTER_TALLIES]
                    + [("scaled",) + k for k in SCALED_PAIRS]),
}

# the tallies each kind of unit contributes to
KIND_TALLIES = {"quadric": ("quadric",), "solve": ("solutions",),
                "pair": ("letters", "weak-membership"),
                "scaled": ("scaled-never-weak",)}


def build_group(kind, fname, n):
    """The arguments of every unit of one group, in enumeration order.

    Library functions are looked up as module attributes at call time, so
    that traced wrappers are used, here and in `run_unit`.
    """
    fld = fields.field_make(fname)
    forms = quadform.enumerate_forms(fld, n)
    if kind == "quadric":
        return [(Q,) for Q in forms]
    if kind == "solve":
        return [(Q, mode) for Q in forms for mode in ("motion", "weak")]
    vecs = [x for x in quadform.all_vectors(fld, n)
            if any(c != fld.zero for c in x)]
    return [(Q, x) for Q in forms for x in vecs]


def run_unit(kind, args):
    """Call the library for one unit."""
    if kind == "quadric":
        return [("quadric", classify.quadric_duality_check(*args).status, 1)]
    if kind == "solve":
        Q, mode = args
        return [("solutions", mode, len(classify.solve_for_qtilde(Q, mode)))]
    if kind == "pair":
        return [("letters", transvect.classify_direction(*args).letter, 1),
                ("weak-membership",
                 transvect.annihilator_transvections_in_weak(*args), 1)]
    if kind == "scaled":
        return [("scaled-never-weak",
                 bool(transvect.scaled_transvection_never_weak(*args)), 1)]
    raise ValueError("unknown unit kind %r" % kind)


def check_tallies(sizes, raised, tallies, expected):
    """Failed units per group, and the mismatching tally keys.

    `sizes` and `raised` count each group's units and those that raised.
    A unit fails when it raised, or when a tally its group contributes to
    does not match its frozen expectation (the tally cannot say which unit
    was wrong, so every unit of that group counts as failed).
    """
    keys = {(t, fname, n) for kind, fname, n in sizes
            for t in KIND_TALLIES[kind]}
    bad = sorted((k for k in keys
                  if dict(tallies.get(k, {})) != expected.get(k)), key=repr)
    failed = {}
    for (kind, fname, n), size in sizes.items():
        wrong = any((t, fname, n) in bad for t in KIND_TALLIES[kind])
        failed[(kind, fname, n)] = size if wrong else raised[(kind, fname, n)]
    return failed, bad


def sweep(groups, expected, seed, clock):
    """Build and run the groups in order, timed by `clock`.

    Each group's units are built as a segment of their own, then permuted
    by seed and run one by one.  Groups keep their order, so the library's
    caches fill in the same sequence of fields and dimensions for every
    seed.  Returns (attempted, failed, errors, bad tally keys).
    """
    rng = random.Random(seed)
    tallies, sizes, raised, errors = {}, {}, Counter(), []
    for group in groups:
        kind, fname, n = group
        units = clock.call(build_group, kind, fname, n)
        rng.shuffle(units)
        sizes[group] = len(units)
        clock.begin()
        for args in units:
            c0 = process_time()     # unit times are CPU time, see DriftClock
            try:
                out = run_unit(kind, args)
            except Exception as exc:   # a failed unit is counted, not fatal
                out = []
                raised[group] += 1
                if len(errors) < 5:
                    errors.append("%s %s dim %d: %r" % (kind, fname, n, exc))
            clock.unit(process_time() - c0)
            for tally, outcome, amount in out:
                cnt = tallies.setdefault((tally, fname, n), Counter())
                cnt[outcome] += amount
            clock.tick()
            if clock.elapsed() >= drift.SEGMENT_S:
                clock.end()
                clock.begin()
        clock.end()
    failed, bad = check_tallies(sizes, raised, tallies, expected)
    return sum(sizes.values()), sum(failed.values()), errors, bad


def run_sweep(workload, seed, trace, spans_out=None):
    """One cold sweep in this process; returns the child's JSON result."""
    if sys.flags.optimize:
        raise SystemExit("the library's checks are asserts; refusing to run "
                         "with -O or PYTHONOPTIMIZE")
    tracer = None
    if trace:
        tracer = spans.Tracer("%s-seed%d" % (workload, seed))
        tracer.install()
    clock = drift.DriftClock(settings.KERNEL_NOMINAL_S)
    attempted, failed, errors, bad = sweep(
        GROUPS[workload], expected_tallies(workload), seed, clock)
    result = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "attempted": attempted, "failed": failed,
        "errors": errors, "bad_tallies": [repr(k) for k in bad],
    }
    result.update(clock.summary())
    if tracer is not None:
        result["trace_summary"] = tracer.aggregate()
        if spans_out:
            tracer.write(spans_out)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans-out")
    a = p.parse_args(argv)
    res = run_sweep(a.workload, a.seed, a.trace, a.spans_out)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
