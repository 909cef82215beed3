"""Outside-in layer tracing of the library.

The tracer wraps library functions from outside: each wrapped function is
rebound at every module attribute that holds it, so a name imported with
`from .homog import lift` is caught as well as `homog.lift`.  Spans are kept
in flat arrays in memory and written out when the run ends.  Field scalar
operations are deliberately not spanned: there are millions of them, and
their cost lands in the self time of whichever layer called them.
"""

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# module -> functions that get a span (calls and self time)
LAYERS = {
    "linalg": ("rref", "mat_invert", "kernel_basis", "span_contains",
               "annihilator"),
    "quadform": ("enumerate_forms", "radical_basis", "is_nondegenerate",
                 "qf_eval", "reflection", "is_isometry"),
    "groups": ("_gl_arrays", "_perm_table", "form_values_np",
               "isometry_mask", "weak_isometry_mask", "orthogonal_group",
               "weak_orthogonal_group", "closure", "congruence_orbit",
               "reflection_generation_status", "group_equal", "is_subgroup"),
    "transvect": ("classify_direction", "annihilator_transvections_in_weak",
                  "scaled_transvection_never_weak", "delta_group",
                  "delta_orth"),
    "homog": ("lift", "motion_group_dual", "dual_matrix"),
    "classify": ("quadric_duality_check", "quadric_points", "_tangent_pencil",
                 "solve_for_qtilde", "motion_dual_cached"),
    "cli": ("main",),
}

# memoised functions: they also get a hit ratio, judged by identity
MEMOISED = ("groups._gl_arrays", "groups._perm_table",
            "groups.orthogonal_group", "groups.weak_orthogonal_group",
            "groups.congruence_orbit", "transvect.delta_group",
            "classify.motion_dual_cached", "classify._tangent_pencil")

# counts kept at construction sites and inside the isometry filter
COUNTS = ("linalg.Mat.new", "quadform.QForm.new", "groups.gl_rows_filtered",
          "groups.elements_enumerated")


def span_names():
    return [mod + "." + fn for mod, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name in span_names():
        names += [name + ".calls", name + ".self_s"]
        if name in MEMOISED:
            names.append(name + ".hit_ratio")
    return names + list(COUNTS) + ["cli.import_s", "trace.overhead"]


class Tracer:
    """Spans (name, start, end, parent) in flat arrays, plus counters."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []                 # span name by id
        self.span_name = array("l")     # name id of each span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")        # index of the enclosing span, or -1
        self._stack = [-1]
        self.counts = {name: 0 for name in COUNTS}
        self.hits = {}                  # memoised name -> calls returning a
        self._returned = {}             # previously returned object
        self.absent = []                # names a refactor has removed

    # --- spans -------------------------------------------------------------

    def span(self, name, fn, memoised=False):
        """A wrapper around fn that records one span per call."""
        fid = len(self.names)
        self.names.append(name)
        ids, starts, ends, parents = (self.span_name, self.start, self.end,
                                      self.parent)
        stack = self._stack
        seen = None
        if memoised:
            self.hits[name] = 0
            seen = self._returned[name] = {}

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if seen is not None:
                if id(result) in seen:
                    self.hits[name] += 1
                else:
                    seen[id(result)] = result   # keep it alive: ids stay unique
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- installation ------------------------------------------------------

    def install(self, package="metric_affine"):
        """Wrap every traced function and constructor of the package."""
        modules = {}
        for mod in LAYERS:
            try:
                modules[mod] = importlib.import_module(package + "." + mod)
            except ImportError:
                modules[mod] = None
        wrappers = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                name = mod + "." + fn
                orig = getattr(modules[mod], fn, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapper = self.span(name, orig, name in MEMOISED)
                if name == "groups.isometry_mask":
                    wrapper = self._count_rows(wrapper)
                wrappers[id(orig)] = (orig, wrapper)
        if "groups.isometry_mask" in self.absent:
            self.absent.append("groups.gl_rows_filtered")
        rebind_everywhere(wrappers)
        for mod, cls_name, name, size in (
                ("linalg", "Mat", "linalg.Mat.new", None),
                ("quadform", "QForm", "quadform.QForm.new", None),
                ("groups", "GroupSet", "groups.elements_enumerated",
                 lambda g: len(g.elems))):
            cls = getattr(modules[mod], cls_name, None)
            if cls is None:
                self.absent.append(name)
            else:
                self._count_init(cls, name, size)

    def _count_rows(self, mask_fn):
        """isometry_mask filters every row of the GL stack: count them."""
        counts = self.counts

        def counted(*args, **kwargs):
            out = mask_fn(*args, **kwargs)
            counts["groups.gl_rows_filtered"] += len(out)
            return out
        counted.__wrapped__ = mask_fn
        return counted

    def _count_init(self, cls, name, size=None):
        """Count constructions of cls (or sum size(obj) over them)."""
        counts = self.counts
        init = cls.__init__

        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts[name] += 1 if size is None else size(obj)
        counted.__wrapped__ = init
        cls.__init__ = counted

    # --- results -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time covered by its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def aggregate(self):
        """name -> {"calls", "self_s"[, "hits"]} over all spans, plus counts."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        own = self.self_times()
        for fid, s in zip(self.span_name, own):
            rec = out[self.names[fid]]
            rec["calls"] += 1
            rec["self_s"] += s
        for name, hits in self.hits.items():
            out[name]["hits"] = hits
        return {"spans": out, "counts": dict(self.counts),
                "absent": list(self.absent)}

    def write(self, path):
        """All spans as gzip TSV: name, start, end, parent, run id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for fid, s, e, p in zip(self.span_name, self.start, self.end,
                                    self.parent):
                fh.write("%s\t%.9f\t%.9f\t%d\t%s\n"
                         % (self.names[fid], s, e, p, self.run_id))


def rebind_everywhere(wrappers):
    """Replace each original by its wrapper in every loaded module.

    `wrappers` maps id(original) -> (original, wrapper).
    """
    for module in list(sys.modules.values()):
        attrs = getattr(module, "__dict__", None)
        if not isinstance(attrs, dict):
            continue
        for key, value in list(attrs.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def merge(summaries):
    """Sum several `Tracer.aggregate()` results (one per child process)."""
    spans, counts, absent = {}, {name: 0 for name in COUNTS}, set()
    for summ in summaries:
        for name, rec in summ["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
            if "hits" in rec:
                acc["hits"] = acc.get("hits", 0) + rec["hits"]
        for name, value in summ["counts"].items():
            counts[name] += value
        absent.update(summ["absent"])
    return {"spans": spans, "counts": counts, "absent": sorted(absent)}


def layer_metrics(summary, import_s, overhead):
    """The per-layer metric dict, in `metric_names()` order.

    A name the library no longer has reads as zero calls; it is listed in
    the summary's "absent" entry rather than treated as an error.
    """
    spans = summary["spans"]
    out = {}
    for name in span_names():
        rec = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = {"value": rec["calls"], "unit": "count"}
        out[name + ".self_s"] = {"value": rec["self_s"], "unit": "s"}
        if name in MEMOISED:
            calls = rec["calls"]
            ratio = rec.get("hits", 0) / calls if calls else 0.0
            out[name + ".hit_ratio"] = {"value": ratio, "unit": "ratio"}
    for name in COUNTS:
        out[name] = {"value": summary["counts"].get(name, 0), "unit": "count"}
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out
