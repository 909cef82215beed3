import json
import os
import subprocess
import sys
from array import array

import pytest

import spans
from conftest import BENCH, ROOT


def tracer_with(tree):
    """A tracer holding synthetic spans: (name, start, end, parent)."""
    t = spans.Tracer("synthetic")
    for name, s, e, p in tree:
        if name not in t.names:
            t.names.append(name)
        t.span_name.append(t.names.index(name))
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
    return t


def test_self_time_subtracts_direct_children_only():
    t = tracer_with([
        ("a", 0.0, 10.0, -1),     # 0: root
        ("b", 1.0, 4.0, 0),       # 1: child of a
        ("c", 2.0, 3.0, 1),       # 2: grandchild, counted against b only
        ("b", 5.0, 9.0, 0),       # 3: second call of b
        ("a", 11.0, 12.0, -1),    # 4: second root
    ])
    assert t.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    agg = t.aggregate()["spans"]
    assert agg["a"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert agg["b"] == {"calls": 2, "self_s": pytest.approx(6.0)}
    assert agg["c"] == {"calls": 1, "self_s": pytest.approx(1.0)}


def test_merge_and_metrics_report_absent_names_as_zero():
    one = {"spans": {"homog.lift": {"calls": 2, "self_s": 0.5}},
           "counts": {"linalg.Mat.new": 10}, "absent": []}
    two = {"spans": {"homog.lift": {"calls": 1, "self_s": 0.25},
                     "groups._gl_arrays": {"calls": 4, "self_s": 1.0,
                                           "hits": 3}},
           "counts": {"linalg.Mat.new": 5}, "absent": ["cli.main"]}
    merged = spans.merge([one, two])
    assert merged["spans"]["homog.lift"] == {"calls": 3, "self_s": 0.75}
    assert merged["counts"]["linalg.Mat.new"] == 15
    assert merged["absent"] == ["cli.main"]
    m = spans.layer_metrics(merged, import_s=0.2, overhead=1.5)
    assert list(m) == spans.metric_names()
    assert m["groups._gl_arrays.hit_ratio"]["value"] == 0.75
    assert m["cli.main.calls"]["value"] == 0
    assert m["trace.overhead"] == {"value": 1.5, "unit": "ratio"}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = spans.layer_metrics(spans.merge([]), 0.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, m["unit"]) for name, m in reported.items()]


REBIND_PROBE = r"""
import json, sys
sys.path[:0] = [BENCH, SRC]
import spans
from metric_affine import classify, homog
from metric_affine.fields import GF3
from metric_affine.quadform import QForm
kept = [homog.lift]    # a module-level name would be rebound too
t = spans.Tracer("probe")
t.install()
classify.quadric_duality_check(QForm.from_upper(GF3, 2, (1, 0, 2)))
agg = t.aggregate()
print(json.dumps({
    "classify_rebound": classify.lift is not kept[0],
    "same_wrapper": classify.lift is homog.lift,
    "wraps_original": classify.lift.__wrapped__ is kept[0],
    "lift_calls": agg["spans"]["homog.lift"]["calls"],
    "mats": agg["counts"]["linalg.Mat.new"],
    "absent": agg["absent"]}))
"""


def test_rebinding_reaches_names_imported_from_other_modules():
    code = REBIND_PROBE.replace("BENCH", repr(BENCH)).replace(
        "SRC", repr(os.path.join(ROOT, "src")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    got = json.loads(out.strip().splitlines()[-1])
    assert got["classify_rebound"] and got["same_wrapper"]
    assert got["wraps_original"]
    # quadric_duality_check calls lift through classify's own binding
    assert got["lift_calls"] == 1
    assert got["mats"] > 0
    assert got["absent"] == []
