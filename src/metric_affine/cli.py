"""Command-line front end: form I/O, lift/drop, group inspection, and the
verification suites.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 enumeration budget exceeded.  Output is byte-deterministic for fixed
inputs and budget; `--format records` switches to line-delimited JSON with
stable field names.
"""

import argparse
import json
import sys

from .budget import (BadBudgetVariable, BudgetExceeded, HARD_BUDGET_CEILING,
                     clamp_budget, forget, order_gl, require)
from .fields import field_make
from .linalg import vec
from .quadform import (all_vectors, enumerate_forms, form_from_text,
                       form_to_text, is_nondegenerate, poly_str, qf_eval,
                       radical_basis)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_TABLE_CASES = {
    "t1": ((0, "GF(2)"), (0, "GF(4)")),
    "t2": ((1, "GF(2)"),),
    "t3": ((1, "GF(3)"),),
    "t4": ((2, "GF(2)"),),
}


class InputError(Exception):
    """Bad file, bad flag value, or a form outside a command's domain."""


class Emitter:
    """text mode prints the human lines; records mode prints JSON lines."""

    def __init__(self, fmt):
        self.fmt = fmt

    def text(self, *lines):
        if self.fmt == "text":
            for ln in lines:
                print(ln)

    def record(self, rec):
        if self.fmt == "records":
            print(json.dumps(rec, sort_keys=True))


def _form_rec(Q, var="x", start=1):
    return {"field": Q.field.name, "dim": Q.n,
            "upper": [Q.field.to_json(c) for c in Q.upper_coeffs()],
            "poly": poly_str(Q, var, start)}


def _load_form(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror)) from None
    try:
        return form_from_text(text)
    except ValueError as e:
        raise InputError("%s: %s" % (path, e)) from None


def _finite_field(name):
    try:
        fld = field_make(name)
    except ValueError as e:
        raise InputError(str(e)) from None
    if not fld.enumerable:
        raise InputError("verification sweeps need a finite field, not %s"
                         % fld.name)
    return fld


def _require_dim(args, low=0):
    if args.dim < low:
        raise InputError("--dim must be at least %d" % low)
    return args.dim


def _mat_lines(A, prefix=""):
    F = A.field
    out = []
    for i in range(A.nrows):
        out.append(prefix + "[" + " ".join(
            str(F.to_json(A[i, j])) for j in range(A.ncols)) + "]")
    return out or [prefix + "[]"]


def _vec_str(v):
    F = v.field
    return "(" + ", ".join(str(F.to_json(x)) for x in v.entries()) + ")"


# --- plain commands --------------------------------------------------------

def _lift_or_drop(args, em, transform, refused, why, caption, here, there):
    """The body of lift and drop: the form file through transform, whose
    refused exception becomes the input error why(Q, e).  here and there are
    the (variable, first index) of the input's and of the result's
    coordinates."""
    Q = _load_form(args.form_file)
    try:
        out = transform(Q)
    except refused as e:
        raise InputError(why(Q, e)) from None
    em.text("# input: %s [%s, dim %d]" % (poly_str(Q, *here), Q.field.name,
                                          Q.n),
            "# canonical matrix of the %s:" % caption)
    em.text(*_mat_lines(out.gram, "# "))
    if em.fmt == "text":
        sys.stdout.write(form_to_text(out, *there))
    em.record({"record": args.command, "input": _form_rec(Q, *here),
               "result": _form_rec(out, *there),
               "matrix": [[out.field.to_json(out.gram[i, j])
                           for j in range(out.n)] for i in range(out.n)]})
    return EXIT_PASS


def cmd_lift(args, em):
    from .homog import DegeneratePolarForm, lift
    return _lift_or_drop(
        args, em, lift, DegeneratePolarForm,
        lambda Q, _e: "polar form of %s is degenerate; radical basis: %s"
        % (poly_str(Q), "; ".join(_vec_str(r) for r in radical_basis(Q))),
        "lift", ("x", 1), ("a", 0))


def cmd_drop(args, em):
    from .homog import NotDroppable, drop
    return _lift_or_drop(
        args, em, drop, NotDroppable,
        lambda Qt, e: "%s cannot be dropped (%s)"
        % (poly_str(Qt, "a", 0), e.reason),
        "dropped form", ("a", 0), ("x", 1))


def cmd_eval(args, em):
    Q = _load_form(args.form_file)
    F = Q.field
    raw = args.vector.strip()
    if raw[:1] + raw[-1:] in ("()", "[]"):  # any other bracket fails F.parse
        raw = raw[1:-1]
    toks = [t.strip() for t in raw.split(",")] if raw.strip() else []
    if "" in toks:
        raise InputError("empty coordinate in vector %r" % args.vector)
    if len(toks) != Q.n:
        raise InputError("expected %d coordinates, got %d" % (Q.n, len(toks)))
    try:
        entries = tuple(F.parse(t) for t in toks)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError("bad coordinate for %s: %s" % (F.name, e)) from None
    x = vec(F, entries)
    val = qf_eval(Q, x)
    em.text("# form: %s [%s, dim %d]" % (poly_str(Q), F.name, Q.n),
            "Q%s = %s" % (_vec_str(x), F.to_json(val)))
    em.record({"record": "eval", "form": _form_rec(Q),
               "vector": [F.to_json(e) for e in entries],
               "value": F.to_json(val)})
    return EXIT_PASS


def cmd_groups(args, em):
    Q = _load_form(args.form_file)
    F = Q.field
    if not F.enumerable:
        raise InputError("group enumeration needs a finite field, not %s"
                         % F.name)
    from . import groups
    o = groups.orthogonal_group(Q, args.budget)
    w = groups.weak_orthogonal_group(Q, args.budget)
    st = groups.reflection_generation_status(Q, args.budget)
    em.text("# form: %s [%s, dim %d]" % (poly_str(Q), F.name, Q.n),
            "|GL|: %d" % order_gl(Q.n, F.order),
            "|O|: %d" % o.order,
            "|O'|: %d" % w.order,
            "radical dim: %d" % len(radical_basis(Q)),
            "reflections: %d" % st.reflection_count,
            "reflection closure order: %d" % st.closure_order,
            "reflections generate weak group: %s"
            % ("yes" if st.generates else "no"),
            "exceptional case: %s" % (st.exceptional or "none"))
    em.record({"record": "groups", "form": _form_rec(Q),
               "gl_order": order_gl(Q.n, F.order), "o_order": o.order,
               "ow_order": w.order, "radical_dim": len(radical_basis(Q)),
               "reflections": st.reflection_count,
               "closure_order": st.closure_order,
               "generates": st.generates,
               "exceptional": st.exceptional})
    return EXIT_PASS


# --- verification commands -------------------------------------------------

def cmd_verify_lemmas(args, em):
    from .transvect import _map_rows, lemma_record
    fld = _finite_field(args.field_name)
    n = _require_dim(args, low=1)
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    inside = pairs = 0
    budget = require(_map_rows(fld, n), args.budget)  # before listing forms
    # the (Q, f) pairs meet the hard ceiling: the budget bounds the map rows
    q = fld.order
    require(q ** (n * (n + 1) // 2) * (q ** n - 1), HARD_BUDGET_CEILING)
    directions = all_vectors(fld, n)[1:]   # every x but o, in index order
    for Q in enumerate_forms(fld, n):
        # classify_direction, annihilator_transvections_in_weak and
        # scaled_transvection_never_weak for every x, from Q's record
        for x, (case, (ok, _tag), scaled_ok) in zip(
                directions, lemma_record(Q, budget)[1:]):
            counts[case.letter] += 1
            inside += ok
            if not scaled_ok:
                em.text("FAIL: scaled transvection inside weak group: Q=%s f=%s"
                        % (poly_str(Q), _vec_str(vec(fld, x))))
                em.record({"record": "lemma-sweep", "ok": False})
                return EXIT_FAIL
            pairs += 1
        forget(("_lemma_record", fld.name, n, Q.gram.rows))  # Q is done
    em.text("lemma sweep over %s, dim %d" % (fld.name, n),
            "pairs (Q, f): %d" % pairs,
            "direction cases: a=%d b=%d c=%d d=%d"
            % (counts["a"], counts["b"], counts["c"], counts["d"]),
            "pairs with all annihilator transvections weak: %d" % inside,
            "scaled transvections outside weak group: verified",
            "PASS")
    em.record({"record": "lemma-sweep", "field": fld.name, "dim": n,
               "pairs": pairs, "cases": counts,
               "annihilator_weak_pairs": inside,
               "scaled_checked": True, "ok": True})
    return EXIT_PASS


def cmd_verify_proposition(args, em):
    from .classify import verify_main_prop
    fld = _finite_field(args.field_name)
    n = _require_dim(args, low=1)
    rep = verify_main_prop(fld, n, args.budget)
    em.record({"record": "main-prop", "field": fld.name, "dim": n,
               "forms_checked": rep.forms_checked,
               "scalars_each": rep.scalars_each,
               "failures": len(rep.failures), "ok": rep.ok})
    em.text("motion-group identity over %s, dim %d" % (fld.name, n),
            "non-degenerate-polar forms: %d" % rep.forms_checked,
            "scalars each: %d" % rep.scalars_each)
    if not rep.ok:
        for Q, c in rep.failures:
            em.text("FAIL: Q=%s, c=%s" % (poly_str(Q), fld.to_json(c)))
        return EXIT_FAIL
    em.text("PASS")
    return EXIT_PASS


def cmd_verify_tables(args, em):
    from .classify import render_table_lines, reproduce_table
    code = EXIT_PASS
    for dim, fname in _TABLE_CASES[args.case]:
        fld = field_make(fname)
        rep = reproduce_table(dim, fld, args.budget)
        em.text(*render_table_lines(rep))
        em.text("row pairs (lift/drop): %d" % len(rep.row_pairs),
                "matches embedded fixture: %s"
                % ("yes" if rep.expected_match else "NO"))
        em.record({"record": "table", "case": args.case, "dim": dim,
                   "field": fname, "ok": rep.ok,
                   "blocks": [[[list(Q.upper_coeffs()) for Q in lefts],
                               [list(Qt.upper_coeffs()) for Qt in rights]]
                              for lefts, rights in rep.blocks],
                   "mismatch": list(rep.mismatch)})
        if rep.ok:
            em.text("PASS")
        else:
            for line in rep.mismatch:
                em.text("FAIL: " + line)
            code = EXIT_FAIL
    return code


def cmd_verify_theorem(args, em):
    from .classify import (MODE_MOTION, MODE_WEAK, SUPPORTED_TABLES,
                           solve_for_qtilde, sweep_budget)
    fld = _finite_field(args.field_name)
    n = _require_dim(args)
    m = (n + 1) * (n + 2) // 2
    budget = sweep_budget(fld, n, args.budget)
    lefts = enumerate_forms(fld, n)
    stats = {MODE_MOTION: 0, MODE_WEAK: 0}
    with_solutions = 0
    for Q in lefts:
        sols_m = solve_for_qtilde(Q, MODE_MOTION, budget)
        sols_w = solve_for_qtilde(Q, MODE_WEAK, budget)
        stats[MODE_MOTION] += len(sols_m)
        stats[MODE_WEAK] += len(sols_w)
        if sols_m or sols_w:
            with_solutions += 1
        if args.verbose:
            em.text("# %s: motion %d, weak %d"
                    % (poly_str(Q), len(sols_m), len(sols_w)))
    nondeg = sum(1 for Q in lefts if is_nondegenerate(Q))
    exceptional = (n, fld.name) in SUPPORTED_TABLES
    em.text("solution sweep over %s, dim %d" % (fld.name, n),
            "left forms: %d, candidates each: %d" % (len(lefts), fld.order ** m),
            "non-degenerate-polar left forms: %d" % nondeg,
            "forms with solutions: %d" % with_solutions,
            "solution pairs: motion %d, weak %d"
            % (stats[MODE_MOTION], stats[MODE_WEAK]))
    if exceptional:
        em.text("note: sporadic size (see the tables); "
                "no uniqueness asserted here")
    else:
        em.text("every solution is a unit scaling of the lift: verified")
    em.text("PASS")
    em.record({"record": "theorem", "field": fld.name, "dim": n,
               "left_forms": len(lefts), "candidates_each": fld.order ** m,
               "nondegenerate_lefts": nondeg,
               "forms_with_solutions": with_solutions,
               "pairs_motion": stats[MODE_MOTION],
               "pairs_weak": stats[MODE_WEAK],
               "sporadic_size": exceptional, "ok": True})
    return EXIT_PASS


def cmd_verify_projective(args, em):
    from .classify import verify_projective_theorem
    fld = _finite_field(args.field_name)
    n = _require_dim(args)
    rep = verify_projective_theorem(fld, n, args.budget)
    em.text("projective-to-linear rigidity over %s, dim %d" % (fld.name, n),
            "pairs checked: %d" % rep.pairs_checked,
            "excluded pairs hit: %d" % rep.exclusion_hits)
    if rep.exclusion_hits:
        em.text("exclusion is genuine (linear groups differ): %s"
                % ("yes" if rep.witness_confirmed else "NO"))
    em.record({"record": "projective", "field": fld.name, "dim": n,
               "pairs_checked": rep.pairs_checked,
               "exclusion_hits": rep.exclusion_hits,
               "witness_confirmed": rep.witness_confirmed,
               "violations": len(rep.violations), "ok": rep.ok})
    if not rep.ok:
        for Q, Qt in rep.violations:
            em.text("FAIL: projective match without linear match: Q=%s Qt=%s"
                    % (poly_str(Q), poly_str(Qt, "a", 0)))
        return EXIT_FAIL
    em.text("PASS")
    return EXIT_PASS


def cmd_verify_quadric(args, em):
    Q = _load_form(args.form_file)
    if not Q.field.enumerable:
        raise InputError("the quadric check enumerates points; %s is not "
                         "a finite field" % Q.field.name)
    if Q.field.char != 2 and Q.n >= 2:      # the check tabulates F^(n+1)
        require(Q.field.order ** (Q.n + 1), args.budget)
    from .classify import quadric_duality_check
    rep = quadric_duality_check(Q)
    if not rep.ok and rep.status != "mismatch":
        raise InputError("quadric duality needs char != 2, dim >= 2 and a "
                         "non-degenerate polar form (got status: %s)"
                         % rep.status)
    em.text("quadric duality for %s over %s, dim %d"
            % (poly_str(Q), rep.field_name, rep.n),
            "status: %s" % rep.status,
            "quadric points: %d" % rep.base_points,
            "lifted quadric points: %d" % rep.lifted_points,
            "tangent-hyperplane annihilators: %d" % rep.hyperplane_points)
    em.record({"record": "quadric", "form": _form_rec(Q),
               "status": rep.status, "base_points": rep.base_points,
               "lifted_points": rep.lifted_points,
               "hyperplane_points": rep.hyperplane_points,
               "details": [[tag, list(map(str, pt))]
                           for tag, pt in rep.details]})
    if rep.ok:
        em.text("PASS")
        return EXIT_PASS
    for tag, pt in rep.details:
        em.text("FAIL: %s at %s" % (tag, tuple(map(str, pt))))
    return EXIT_FAIL


def _build_parser():
    p = argparse.ArgumentParser(
        prog="metric-affine",
        description="Exact quadratic-form machinery for affine metric "
                    "geometry: lift/drop between a space and its "
                    "homogeneous dual model, group inspection, and "
                    "exhaustive verification sweeps.")
    p.add_argument("--format", choices=("text", "records"), default="text",
                   help="output style: human text or line-delimited JSON")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget override (clamped to %d)"
                        % HARD_BUDGET_CEILING)
    p.add_argument("-v", "--verbose", action="count", default=0)
    sub = p.add_subparsers(dest="command", required=True)

    for name, run, hint in (
            ("lift", cmd_lift, "lift a form to the homogeneous dual"),
            ("drop", cmd_drop, "drop a lifted form back down"),
            ("eval", cmd_eval, "evaluate a form at a vector"),
            ("groups", cmd_groups, "orthogonal-group data for a form")):
        sp = sub.add_parser(name, help=hint)
        sp.add_argument("form_file")
        sp.set_defaults(run=run)
    sub.choices["eval"].add_argument("vector", help="coordinates, e.g. 1,0,2")

    pv = sub.add_parser("verify", help="run a verification sweep")
    vsub = pv.add_subparsers(dest="vcmd", required=True)
    for name, run, hint in (
            ("lemmas", cmd_verify_lemmas,
             "rank-one intersection cardinalities"),
            ("proposition", cmd_verify_proposition,
             "motion group = weak group of lifts"),
            ("theorem", cmd_verify_theorem,
             "all solutions of the group equation"),
            ("projective", cmd_verify_projective,
             "projective equality forces linear")):
        sp = vsub.add_parser(name, help=hint)
        sp.add_argument("--field", required=True, dest="field_name",
                        metavar="F", help="GF(2), GF(3), GF(4), GF(5), GF(7)")
        sp.add_argument("--dim", required=True, type=int, metavar="N")
        sp.set_defaults(run=run)
    sp = vsub.add_parser("tables", help="reproduce a sporadic-solution table")
    sp.add_argument("--case", required=True, choices=sorted(_TABLE_CASES))
    sp.set_defaults(run=cmd_verify_tables)
    sp = vsub.add_parser("quadric", help="dual description of a quadric")
    sp.add_argument("form_file")
    sp.set_defaults(run=cmd_verify_quadric)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.budget is not None:
        args.budget = clamp_budget(args.budget)
    try:
        return args.run(args, Emitter(args.format))
    except (InputError, BadBudgetVariable) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as e:
        print("budget exceeded: need %d > budget %d; raise --budget or "
              "METRIC_AFFINE_BUDGET" % (e.required, e.budget), file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as e:
        print("FAIL: verified invariant violated: %r" % (e.args,))
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
