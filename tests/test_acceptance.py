"""Acceptance gate: one test per verification battery, all bit-exact.

Each test prints a single "ACCEPTANCE c<k> ...: PASS/FAIL" line (visible
under `pytest -s` or when a criterion fails) and enforces the battery's
runtime ceiling where one is defined.  Everything asserted here is exact
integer/rational arithmetic; there are no tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from metric_affine.classify import (MODE_MOTION, MODE_WEAK,
                                    quadric_duality_check, reproduce_table,
                                    solve_for_qtilde, verify_main_prop,
                                    verify_projective_theorem)
from metric_affine.cli import main as cli_main
from metric_affine.fields import GF2, GF3, GF4, GF5, QQ, field_make
from metric_affine.groups import order_gl, reflection_generation_status
from metric_affine.homog import (drop, lift, reflection_correspondence,
                                 roundtrip_checks)
from metric_affine.linalg import Mat, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    is_nondegenerate, qf_eval, qf_scale)
from metric_affine.transvect import (annihilator_transvections_in_weak,
                                     classify_direction,
                                     scaled_transvection_never_weak)


@contextmanager
def criterion(tag, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %s: FAIL" % tag)
        raise
    elapsed = time.perf_counter() - t0
    if limit is None:
        print("ACCEPTANCE %s: PASS (%.1f s)" % (tag, elapsed))
        return
    ok = elapsed < limit
    budget = "%.1f s %s %d s" % (elapsed, "<" if ok else ">=", limit)
    print("ACCEPTANCE %s: %s (%s)" % (tag, "PASS" if ok else "FAIL", budget))
    assert ok, "runtime ceiling exceeded: %s" % budget


def nonzero_vectors(fld, n):
    return [x for x in all_vectors(fld, n) if any(c != fld.zero for c in x)]


def test_c1_sporadic_tables():
    with criterion("c1 (sporadic tables, four cases, two fields for t1)",
                   limit=10):
        for dim, fname in ((0, "GF(2)"), (0, "GF(4)"), (1, "GF(2)"),
                           (1, "GF(3)"), (2, "GF(2)")):
            rep = reproduce_table(dim, field_make(fname))
            assert rep.ok, (dim, fname, rep.mismatch)
        # the largest search behind these tables: 8 x 64 forms, |GL| = 168
        assert len(enumerate_forms(GF2, 2)) == 8
        assert len(enumerate_forms(GF2, 3)) == 64
        assert order_gl(3, 2) == 168
        # and the command-line surface agrees
        for case in ("t1", "t2", "t3", "t4"):
            assert cli_main(["verify", "tables", "--case", case]) == 0


def test_c2_motion_groups_of_scaled_lifts():
    with criterion("c2 (motion group = weak group of every scaled lift)",
                   limit=60):
        expected_checked = {(GF2, 1): 0, (GF2, 2): 4, (GF2, 3): 0,
                            (GF3, 1): 2, (GF3, 2): 18, (GF5, 1): 4}
        for (fld, n), want in sorted(expected_checked.items(),
                                     key=lambda kv: (kv[0][0].name, kv[0][1])):
            rep = verify_main_prop(fld, n)
            assert rep.ok, rep.failures
            assert rep.forms_checked == want
            assert rep.scalars_each == fld.order - 1


def test_c3_group_equation_solutions_forced():
    with criterion("c3 (exhaustive solution of the group equation)",
                   limit=120):
        # solve_for_qtilde asserts, per non-exceptional Q, that the solution
        # set is exactly {c . lift(Q)} (non-degenerate polar) or empty
        totals = {}
        for fld, n in ((GF4, 1), (GF5, 1), (GF3, 2)):
            tm = tw = 0
            for Q in enumerate_forms(fld, n):
                tm += len(solve_for_qtilde(Q, MODE_MOTION))
                tw += len(solve_for_qtilde(Q, MODE_WEAK))
            totals[(fld.name, n)] = (tm, tw)
        assert totals == {("GF(4)", 1): (0, 0),
                          ("GF(5)", 1): (16, 16),
                          ("GF(3)", 2): (36, 36)}
        # scale of the largest case: 729 candidates against |GL| = 11232
        assert len(enumerate_forms(GF3, 3)) == 729
        assert order_gl(3, 3) == 11232


LETTER_TALLIES = {
    ("GF(2)", 1): {"c": 1, "d": 1},
    ("GF(2)", 2): {"a": 6, "b": 6, "c": 6, "d": 6},
    ("GF(2)", 3): {"a": 168, "b": 168, "c": 56, "d": 56},
    ("GF(3)", 1): {"a": 4, "d": 2},
    ("GF(3)", 2): {"a": 144, "b": 48, "d": 24},
    ("GF(3)", 3): {"a": 12636, "b": 5616, "d": 702},
}


def test_c4_intersection_cardinalities():
    with criterion("c4 (rank-one intersection cardinalities, dims 1-3)",
                   limit=30):
        # classify_direction asserts the predicted sizes against the sizes
        # counted over every rank-one map of the direction, on every call
        for fld in (GF2, GF3):
            for n in (1, 2, 3):
                tally = {}
                for Q in enumerate_forms(fld, n):
                    for x in nonzero_vectors(fld, n):
                        lt = classify_direction(Q, x).letter
                        tally[lt] = tally.get(lt, 0) + 1
                assert tally == LETTER_TALLIES[(fld.name, n)], (fld.name, n)


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


def test_c5_weak_membership_rules():
    with criterion("c5 (weak-membership biconditional + scaled exclusion)"):
        # the biconditional (all annihilator transvections weak <-> one of
        # the three sufficient conditions) is asserted inside on every call
        for fld in (GF2, GF3):
            for n in (1, 2, 3):
                tally = {}
                for Q in enumerate_forms(fld, n):
                    for x in nonzero_vectors(fld, n):
                        key = annihilator_transvections_in_weak(Q, x)
                        tally[key] = tally.get(key, 0) + 1
                assert tally == WEAK_MEMBERSHIP_TALLIES[(fld.name, n)]
        # no scaling of a nontrivial annihilator transvection is ever weak
        for fld in (GF3, GF5):
            for n in (1, 2):
                for Q in enumerate_forms(fld, n):
                    for x in nonzero_vectors(fld, n):
                        assert scaled_transvection_never_weak(Q, x)


ROUNDTRIP_COUNTS = {
    ("GF(2)", 1): (0, 1), ("GF(2)", 2): (4, 0), ("GF(2)", 3): (0, 4),
    ("GF(3)", 1): (2, 1), ("GF(3)", 2): (18, 2), ("GF(3)", 3): (468, 18),
    ("GF(5)", 1): (4, 1),
}


def test_c6_lift_drop_round_trips():
    with criterion("c6 (lift/drop inversion + rational spot-cases)"):
        for fld in (GF2, GF3):
            for n in (1, 2, 3):
                rep = roundtrip_checks(fld, n)
                assert rep.ok, rep.violations
                assert (rep.lifted, rep.dropped) == \
                    ROUNDTRIP_COUNTS[(fld.name, n)]
        # rational spot-cases; for diagonal W the canonical Gram is
        # symmetric, so 4 . lift(Q) literally has Gram diag(0, W^-1)
        W = Mat(QQ, [[Fraction(1, 2), Fraction(0)],
                     [Fraction(0), Fraction(3)]])
        Q = QForm(QQ, W)
        lifted = qf_scale(lift(Q), Fraction(4))
        z = Fraction(0)
        assert lifted == QForm(QQ, Mat(QQ, [
            [z, z, z], [z, Fraction(2), z], [z, z, Fraction(1, 3)]], (3, 3)))
        assert drop(lift(Q)) == Q
        skew = QForm(QQ, Mat(QQ, [[Fraction(1), Fraction(1)],
                                  [Fraction(0), Fraction(1)]]))
        assert drop(lift(skew)) == skew
        assert lift(qf_scale(skew, Fraction(3))) == \
            qf_scale(lift(skew), Fraction(1, 3))


def test_c7_reflection_machinery():
    with criterion("c7 (reflection correspondence + generation taxonomy)",
                   limit=120):
        triples = 0
        for n in (1, 2):
            for Q in enumerate_forms(GF3, n):
                if not is_nondegenerate(Q):
                    continue
                vex = all_vectors(GF3, n)
                for r in vex:
                    if qf_eval(Q, r) == GF3.zero:
                        continue
                    for p in vex:
                        assert reflection_correspondence(Q, vec(GF3, p),
                                                         vec(GF3, r))
                        triples += 1
        assert triples == 876

        # generation: the brute-force closure answer must agree with the
        # two-shape taxonomy on every binary form up to dimension 4
        tallies = {}
        for n in (1, 2, 3, 4):
            tally = {}
            for Q in enumerate_forms(GF2, n):
                st = reflection_generation_status(Q)
                assert st.generates == (st.exceptional is None), (Q, st)
                key = (st.generates, st.exceptional)
                tally[key] = tally.get(key, 0) + 1
            tallies[n] = tally
        assert tallies == {
            1: {(True, None): 2},
            2: {(True, None): 8},
            3: {(True, None): 43,
                (False, "hyperbolic-plane-plus-radical"): 21},
            4: {(True, None): 639,
                (False, "hyperbolic-plane-plus-radical"): 105,
                (False, "hyperbolic-pair"): 280},
        }
        # the named exceptional case concretely: reflections of x1x2 in
        # three variables close into a proper subgroup of the weak group
        st = reflection_generation_status(
            QForm.from_upper(GF2, 3, (0, 1, 0, 0, 0, 0)))
        assert not st.generates
        assert st.exceptional == "hyperbolic-plane-plus-radical"
        assert st.closure_order == 4 < st.weak_order == 8


PROJECTIVE_PAIRS = {
    ("GF(2)", 0): 2, ("GF(2)", 1): 16, ("GF(2)", 2): 512,
    ("GF(3)", 0): 3, ("GF(3)", 1): 81, ("GF(3)", 2): 19683,
}
# the pairs whose collineation sets agree; the smaller sizes are frozen in
# tests/test_classify.py's PROJECTIVE_EXPECT
PROJECTIVE_MATCHES = {("GF(2)", 2): 8, ("GF(3)", 2): 36}


def test_c8_projective_equality_forces_linear():
    with criterion("c8 (projective equality forces linear equality)"):
        for fld in (GF2, GF3):
            for n in (0, 1, 2):
                rep = verify_projective_theorem(fld, n)
                assert rep.ok, rep.violations
                assert rep.pairs_checked == PROJECTIVE_PAIRS[(fld.name, n)]
                if n == 2:
                    assert (rep.projective_matches
                            == PROJECTIVE_MATCHES[(fld.name, n)])
                if (fld, n) == (GF3, 0):
                    # the lone exception, exhibited concretely
                    assert rep.exclusion_hits == 2
                    assert rep.witness_confirmed
                else:
                    assert rep.exclusion_hits == 0


QUADRIC_TALLIES = {
    ("GF(3)", 2): {"degenerate-polar": 9, "empty-quadric": 6, "ok": 12},
    ("GF(3)", 3): {"degenerate-polar": 261, "ok": 468},
    ("GF(5)", 2): {"degenerate-polar": 25, "empty-quadric": 40, "ok": 60},
    ("GF(5)", 3): {"degenerate-polar": 3225, "ok": 12400},
    ("GF(7)", 2): {"degenerate-polar": 49, "empty-quadric": 126, "ok": 168},
    # read from the table alone in tests/test_classify.py
    ("GF(7)", 3): {"degenerate-polar": 17101, "ok": 100548},
    # GF(9) = GF(3)[t] / (t^2 + 1), built in tests/test_classify.py
    ("GF(9)", 2): {"degenerate-polar": 81, "empty-quadric": 288, "ok": 360},
}


def test_c9_quadric_duality():
    with criterion("c9 (tangent-hyperplane description of lifted quadrics)",
                   limit=10):
        for fld in (GF3, GF5):
            for n in (2, 3):
                tally = {}
                for Q in enumerate_forms(fld, n):
                    s = quadric_duality_check(Q).status
                    tally[s] = tally.get(s, 0) + 1
                assert "mismatch" not in tally, (fld.name, n)
                assert tally == QUADRIC_TALLIES[(fld.name, n)]
