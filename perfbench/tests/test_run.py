"""The command end to end, including its failure paths: a raising unit, a
wrong tally, a failing exit code or wrong CLI output must count as failed
and make the command exit non-zero.  The failure paths run against a small
fake metric_affine placed in a copy of the checkout."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from conftest import BENCH, ROOT
import sweeps


def run(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "1",
         "--seed", "5", *extra], cwd=cwd, capture_output=True, text=True,
        timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stderr


def checkout_with(tmp_path, library):
    """A checkout holding the benchmark and a fake library made of
    `library` (module name -> source)."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    pkg = tmp_path / "src" / "metric_affine"
    pkg.mkdir(parents=True)
    for name in ("__init__", "fields", "quadform", "classify", "transvect",
                 "cli"):
        (pkg / (name + ".py")).write_text(
            textwrap.dedent(library.get(name, "")), encoding="utf-8")
    return tmp_path


FAKE_SWEEP_BASE = {
    "fields": """
        class Field:
            zero = 0

        def field_make(name):
            return Field()
    """,
    "quadform": """
        def enumerate_forms(fld, n):
            return [0, 1, 2]
    """,
    "cli": """
        def main(argv):
            return 0
    """,
}

RAISING_CHECK = """
    def quadric_duality_check(Q):
        raise RuntimeError("fake failure")
"""

WRONG_STATUS_CHECK = """
    class Report:
        status = "ok"

    def quadric_duality_check(Q):
        return Report()
"""


@pytest.mark.parametrize("classify,reason", [
    (RAISING_CHECK, "RuntimeError('fake failure')"),
    (WRONG_STATUS_CHECK, "('quadric', 'GF(3)', 2)")])
def test_failing_sweep_units_count_and_exit_nonzero(tmp_path, classify,
                                                    reason):
    root = checkout_with(tmp_path, dict(FAKE_SWEEP_BASE, classify=classify))
    rc, res, err = run("--workload", "quadric-sweep", "--trace", "0",
                       cwd=root)
    assert rc == 1 and not res["correct"]
    # four (field, dim) groups of three fake forms, all failed
    assert res["attempted"] == res["failed"] == 12
    assert reason in err


@pytest.mark.parametrize("cli,reason", [
    ("def main(argv):\n    return 1\n", "exit code 1"),
    ("def main(argv):\n    print('{}')\n    return 0\n",
     "records differ from frozen output"),
    ("def main(argv):\n    print('{}')\n    return 0\n",
     "record lacks the expected fields")])
def test_failing_cli_requests_count_and_exit_nonzero(tmp_path, cli, reason):
    root = checkout_with(tmp_path, {"cli": cli})
    rc, res, err = run("--workload", "cli-oneshot", "--trace", "0", cwd=root)
    assert rc == 1 and not res["correct"]
    assert res["attempted"] == res["failed"] > 0
    assert reason in err


def test_check_tallies_fails_raised_units_and_whole_wrong_groups():
    sizes = {("quadric", "GF(3)", 2): 27, ("quadric", "GF(5)", 2): 125}
    raised = Counter({("quadric", "GF(3)", 2): 2})
    expected = sweeps.expected_tallies("quadric-sweep")
    tallies = {("quadric", "GF(3)", 2): Counter(
                   {"degenerate-polar": 9, "empty-quadric": 6, "ok": 12}),
               ("quadric", "GF(5)", 2): Counter(
                   {"degenerate-polar": 25, "empty-quadric": 40, "ok": 59})}
    failed, bad = sweeps.check_tallies(sizes, raised, tallies, expected)
    assert failed == {("quadric", "GF(3)", 2): 2,
                      ("quadric", "GF(5)", 2): 125}
    assert bad == [("quadric", "GF(5)", 2)]


@pytest.mark.parametrize("workload", ["quadric-sweep", "cli-oneshot"])
def test_clean_run_passes(workload):
    rc, res, _ = run("--workload", workload, "--trace", "0")
    assert rc == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(name, m["unit"]) for name, m in res["metrics"].items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]]


TRACED_SWEEP = r"""
import json, sys
sys.path[:0] = [BENCH, SRC]
import drift, settings, spans, sweeps
t = spans.Tracer("probe")
t.install()
expected = {**sweeps.expected_tallies("quadric-sweep"),
            **sweeps.expected_tallies("lemma-sweep")}
got = sweeps.sweep([("quadric", "GF(3)", 2), ("pair", "GF(2)", 2)], expected,
                   5, drift.DriftClock(settings.KERNEL_NOMINAL_S))
m = spans.layer_metrics(t.aggregate(), 0.0, 1.0)
print(json.dumps({"failed": got[1], "metrics": m}))
"""


def test_traced_counts_repeat_for_a_seed():
    code = TRACED_SWEEP.replace("BENCH", repr(BENCH)).replace(
        "SRC", repr(os.path.join(ROOT, "src")))

    def traced():
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        return json.loads(out.strip().splitlines()[-1])

    first, second = traced(), traced()
    assert first["failed"] == second["failed"] == 0
    for name, m in first["metrics"].items():
        if not name.endswith("_s"):
            assert m["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["homog.lift.calls"]["value"] > 0
    # building the units is traced too
    assert first["metrics"]["quadform.enumerate_forms.calls"]["value"] >= 2


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, res, _ = run("--workload", "quadric-sweep", "--trace", "0",
                     cwd=tmp_path)
    assert rc != 0 and res is None
