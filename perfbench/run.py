"""Benchmark of the verification sweeps and the one-shot CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
./src).  Workloads: quadric-sweep, solution-sweep, lemma-sweep, cli-oneshot.
Every workload runs in fresh child processes, one at a time, so the
library's caches start cold as they do for a CLI user.  Every timing is
corrected for host drift against an interleaved reference kernel (see
drift.py).  Outputs are checked against frozen expectations; the run
exits 1 if any unit failed.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones of a traced run (spans.py).  A
human-readable table goes to stderr, and an audit record with raw times,
every kernel sample and the environment goes to .bench_out/.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median

import cliload
import settings
import spans
from drift import correct, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEPS = ("quadric-sweep", "solution-sweep", "lemma-sweep")
WORKLOADS = SWEEPS + ("cli-oneshot",)

class ChildFailed(Exception):
    """A child process exited badly or printed no result."""


def child_env(root):
    """The environment every child runs in: library from ./src, pinned hash
    seed, one BLAS/OMP thread, and nothing that switches checks off or
    changes the enumeration budget."""
    env = dict(os.environ)
    for var in ("METRIC_AFFINE_BUDGET", "PYTHONOPTIMIZE", "PYTHONPATH",
                "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(var, None)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(cmd, env, cwd):
    """Run one child to completion; its last stdout line is JSON."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=settings.CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s: timed out" % cmd[1]) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s exited %d: %s" % (cmd[1], proc.returncode,
                                                proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def measure_setup(env, cwd, children):
    """Import time of metric_affine.cli in fresh interpreters, corrected by
    the kernel slices run during each import; the median is setup_s."""
    probe = [sys.executable, os.path.join(HERE, "import_child.py")]
    first = run_child(probe, env, cwd)        # compiles the bytecode, untimed
    raw, corrected = [], []
    for _ in range(children):
        got = run_child(probe, env, cwd)
        raw.append(got["import_s"])
        corrected.append(correct(got["import_s"], got["slices"],
                                 settings.KERNEL_NOMINAL_S)
                         if got["slices"] else got["import_s"])
    return {"setup_s": median(corrected) if corrected else None,
            "samples_s": corrected, "raw_samples_s": raw,
            "numpy": first["numpy"]}


def sweep_child(workload, seed, trace, env, cwd, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "sweeps.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans-out", os.path.join(out_dir, "spans.tsv.gz")]
    return run_child(cmd, env, cwd)


def run_sweeps(a, env, cwd, out_dir):
    if a.trace:
        plain = sweep_child(a.workload, a.seed, False, env, cwd, out_dir)
        traced = sweep_child(a.workload, a.seed, True, env, cwd, out_dir)
        return {"reps": [plain], "traced": traced,
                "summary": traced["trace_summary"], "import_s": 0.0,
                "overhead": traced["corrected_s"] / plain["corrected_s"]}
    reps = [sweep_child(a.workload, a.seed, False, env, cwd, out_dir)
            for _ in range(repetitions(a))]
    return {"reps": reps}


def cli_rep(requests, env, cwd, work_dir, traced=False):
    os.makedirs(work_dir, exist_ok=True)
    summ, failures, traces = cliload.run_round(requests, env, cwd, work_dir,
                                               traced)
    summ.update(attempted=len(requests), failed=len(failures),
                errors=failures[:5])
    return summ, traces


def run_cli(a, env, cwd, out_dir):
    form_dir = os.path.join(out_dir, "forms")
    os.makedirs(form_dir, exist_ok=True)
    requests = cliload.build_round(a.seed, form_dir)
    if a.trace:
        plain, _ = cli_rep(requests, env, cwd, os.path.join(out_dir, "plain"))
        traced, traces = cli_rep(requests, env, cwd,
                                 os.path.join(out_dir, "traced"), True)
        return {"reps": [plain], "traced": traced,
                "summary": spans.merge(traces),
                "import_s": sum(t["import_s"] for t in traces),
                "overhead": traced["corrected_s"] / plain["corrected_s"]}
    reps = [cli_rep(requests, env, cwd, os.path.join(out_dir, "rep%d" % k))[0]
            for k in range(repetitions(a))]
    return {"reps": reps}


def repetitions(a):
    """Cold repetitions that fit in --seconds (one per RUN_S, at least one)."""
    return max(1, int(a.seconds // settings.RUN_S[a.workload]))


def environment(root, seed, numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root), "seed": seed}


def git_commit(root):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(workload, setup, reps):
    """The end-to-end metrics over the cold repetitions.

    `sweep_s` is their median.  The repetitions run the same units in the
    same order, so a unit's latency is its lowest over them: a hiccup of
    the host seldom hits one unit in every repetition, and would otherwise
    set the tail.
    """
    unit_ms = [min(times) * 1000.0 for times
               in zip(*(r["unit_corrected_s"] for r in reps))]
    return {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "sweep_s": {"value": median(r["corrected_s"] for r in reps),
                    "unit": "s"},
        "unit_p50_ms": {"value": median(unit_ms), "unit": "ms"},
        "unit_tail_ms": {"value": percentile(
            unit_ms, settings.TAIL_PERCENTILE[workload]), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            / 1024.0, "unit": "MB"},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    a = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metric_affine", "cli.py")):
        print("error: run from the root of a checkout; src/metric_affine "
              "is missing", file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = os.path.join(root, ".bench_out", "%s-seed%d-trace%d"
                           % (a.workload, a.seed, a.trace))
    os.makedirs(out_dir, exist_ok=True)

    errors = []
    try:
        # a traced run reports no setup_s, so it only compiles the bytecode
        setup = measure_setup(env, root,
                              0 if a.trace else settings.SETUP_CHILDREN)
        if a.workload in SWEEPS:
            res = run_sweeps(a, env, root, out_dir)
        else:
            res = run_cli(a, env, root, out_dir)
    except ChildFailed as exc:
        setup, res = None, None
        errors.append(str(exc))

    if res is None:
        attempted, failed, metrics = 1, 1, {}
    else:
        runs = res["reps"] + ([res["traced"]] if "traced" in res else [])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        errors += [e for r in runs for e in r["errors"] + r.get(
            "bad_tallies", [])]
        if a.trace:
            metrics = spans.layer_metrics(res["summary"], res["import_s"],
                                          res["overhead"])
        else:
            metrics = end_to_end(a.workload, setup, res["reps"])
    correct = failed == 0 and not errors

    audit = {
        "workload": a.workload, "seconds": a.seconds, "trace": a.trace,
        "environment": environment(root, a.seed,
                                   setup["numpy"] if setup else None),
        "kernel_nominal_s": settings.KERNEL_NOMINAL_S,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "errors": errors[:20],
        "setup": setup, "metrics": metrics,
        "runs": [] if res is None else [
            {k: v for k, v in r.items() if k != "trace_summary"}
            for r in res["reps"] + ([res["traced"]] if "traced" in res
                                    else [])],
        "absent": [] if res is None or not a.trace
        else res["summary"]["absent"],
    }
    with open(out_dir + ".json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=1)

    report(a, audit, res)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(a, audit, res):
    """Human-readable summary on stderr."""
    err = sys.stderr
    print("%s seed %d%s: attempted %d, failed %d, fail_ratio %.4f"
          % (a.workload, a.seed, " (traced)" if a.trace else "",
             audit["attempted"], audit["failed"], audit["fail_ratio"]),
          file=err)
    for msg in audit["errors"]:
        print("  error: %s" % msg, file=err)
    if res is not None and not a.trace:
        print("  %-14s %12.4f s" % ("sweep_raw_s", median(
            r["raw_s"] for r in res["reps"])), file=err)
    for name, m in audit["metrics"].items():
        if not a.trace or m["value"]:
            print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]),
                  file=err)
    for name in audit["absent"]:
        print("  absent: %s" % name, file=err)


if __name__ == "__main__":
    sys.exit(main())
