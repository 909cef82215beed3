"""Classification sweeps: dyads, tables, projective view, quadric duality."""

import textwrap

import pytest

from metric_affine import groups
from metric_affine.classify import (MODE_MOTION, MODE_WEAK, MODES,
                                    SUPPORTED_TABLES,
                                    dyad_report, dyad_satisfies,
                                    quadric_duality_check, quadric_points,
                                    projective_reduce, projective_rep,
                                    render_table_lines,
                                    reproduce_table, solve_for_qtilde,
                                    verify_main_prop,
                                    verify_projective_theorem,
                                    weak_group_index)
from metric_affine.fields import GF2, GF3, GF4, GF5, GF7
from metric_affine.groups import (GroupSet, enumerate_gl, group_equal,
                                  groups_by_orbit, orthogonal_group,
                                  weak_orthogonal_group)
from metric_affine.homog import motion_group_dual
from metric_affine.linalg import Mat
from metric_affine.quadform import QForm, enumerate_forms


def test_dyad_report_on_matched_pair():
    # x1^2 and its companion a1^2 over GF(3)
    rep = dyad_report(QForm.from_upper(GF3, 1, (1,)),
                      QForm.from_upper(GF3, 2, (0, 0, 1)))
    assert rep.satisfies_motion and rep.satisfies_weak
    assert rep.is_lift_of == GF3.one
    # the scaled companion is a lift of the scaled base, c = 2
    rep2 = dyad_report(QForm.from_upper(GF3, 1, (1,)),
                       QForm.from_upper(GF3, 2, (0, 0, 2)))
    assert rep2.satisfies_motion
    assert rep2.is_lift_of == GF3.coerce(2)


def test_dyad_report_on_sporadic_pair():
    # the zero form on the GF(3) line shares its block with a1^2 even though
    # no lift relation exists (the polar form of 0 is degenerate)
    rep = dyad_report(QForm.zero(GF3, 1), QForm.from_upper(GF3, 2, (0, 0, 1)))
    assert rep.satisfies_motion
    assert not rep.satisfies_weak  # O'(0) drops the dilatations
    assert rep.is_lift_of is None


def test_dyad_report_on_unrelated_pair():
    rep = dyad_report(QForm.from_upper(GF3, 1, (1,)), QForm.zero(GF3, 2))
    assert not rep.satisfies_motion and not rep.satisfies_weak


def test_dyad_satisfies_mode_split():
    Q, Qt = QForm.zero(GF3, 1), QForm.from_upper(GF3, 2, (0, 0, 1))
    assert dyad_satisfies(Q, Qt, MODE_MOTION)
    assert not dyad_satisfies(Q, Qt, MODE_WEAK)


@pytest.mark.parametrize("F,n", [(GF3, 1), (GF2, 1), (GF5, 1), (GF2, 2)])
def test_main_proposition_small(F, n):
    rep = verify_main_prop(F, n)
    assert rep.ok
    assert rep.scalars_each == F.order - 1


def test_main_prop_counts_nondegenerate_forms():
    assert verify_main_prop(GF3, 1).forms_checked == 2
    assert verify_main_prop(GF2, 2).forms_checked == 4


# --- uniqueness of the companion form --------------------------------------

def test_solutions_forced_outside_exceptional_sizes():
    # GF(5) line: exactly the four scalings of the companion
    sols = solve_for_qtilde(QForm.from_upper(GF5, 1, (1,)), MODE_MOTION)
    assert sorted(Qt.upper_coeffs() for Qt in sols) == [
        (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4)]
    # GF(4) line: characteristic 2 kills every polar form, so no solutions
    assert solve_for_qtilde(QForm.from_upper(GF4, 1, (1,)), MODE_MOTION) == []


def test_sporadic_solutions_at_exceptional_size():
    # (dim 1, GF(3)) is an exceptional size: the zero form picks up the
    # companions of x1^2 under the full motion equation...
    sols = solve_for_qtilde(QForm.zero(GF3, 1), MODE_MOTION)
    assert sorted(Qt.upper_coeffs() for Qt in sols) == [(0, 0, 1), (0, 0, 2)]
    # ...but not under the weak one
    assert solve_for_qtilde(QForm.zero(GF3, 1), MODE_WEAK) == []


def _scan_for_qtilde(Q, mode):
    """Every form upstairs whose weak group equals the target, by a direct
    scan over enumerate_forms: the route solve_for_qtilde first took."""
    target = motion_group_dual(Q, mode == MODE_WEAK)
    return [Qt for Qt in enumerate_forms(Q.field, Q.n + 1)
            if group_equal(weak_orthogonal_group(Qt), target)]


@pytest.mark.parametrize("F,n", [(GF2, 0), (GF2, 1), (GF2, 2), (GF3, 0),
                                 (GF3, 1), (GF3, 2), (GF4, 1), (GF5, 1)],
                         ids=lambda v: getattr(v, "name", v))
def test_solve_by_index_matches_direct_scan(F, n):
    lefts = enumerate_forms(F, n)
    warm = [solve_for_qtilde(Q, mode) for Q in lefts for mode in MODES]
    assert warm == [_scan_for_qtilde(Q, mode)
                    for Q in lefts for mode in MODES]
    # and the answer does not depend on what was memoised before
    saved = dict(groups._MEMO)
    groups._MEMO.clear()
    try:
        assert warm == [solve_for_qtilde(Q, mode)
                        for Q in lefts for mode in MODES]
    finally:
        groups._MEMO.clear()
        groups._MEMO.update(saved)


def _scan_index(F, m):
    """The weak-group index by one GL filter per form: the route
    weak_group_index first took."""
    index = {}
    for Qt in enumerate_forms(F, m):
        key = weak_orthogonal_group(Qt).key
        index[key] = index.get(key, ()) + (Qt,)
    return index


@pytest.mark.parametrize("F,m", [(GF2, m) for m in range(5)]
                         + [(GF3, m) for m in range(4)]
                         + [(F, m) for F in (GF4, GF5, GF7) for m in range(3)],
                         ids=lambda v: getattr(v, "name", v))
def test_orbit_index_matches_per_form_scan(F, m):
    # built cold, so no group memoised by an earlier test is reused
    saved = dict(groups._MEMO)
    groups._MEMO.clear()
    try:
        index = weak_group_index(F, m)
        o_table = groups_by_orbit(F, m, orthogonal_group)
        groups._MEMO.clear()
        assert index == _scan_index(F, m)
        # the scan memoised O(Q) form by form, by the per-form GL filter
        assert o_table == [orthogonal_group(Q)
                           for Q in enumerate_forms(F, m)]
    finally:
        groups._MEMO.clear()
        groups._MEMO.update(saved)


# --- tables ----------------------------------------------------------------

def test_supported_tables_inventory():
    assert SUPPORTED_TABLES == ((0, "GF(2)"), (0, "GF(4)"),
                                (1, "GF(2)"), (1, "GF(3)"), (2, "GF(2)"))


FIELD_BY_NAME = {f.name: f for f in (GF2, GF3, GF4)}


@pytest.mark.parametrize("dim,fname", SUPPORTED_TABLES)
def test_reproduce_every_table(dim, fname):
    rep = reproduce_table(dim, FIELD_BY_NAME[fname])
    assert rep.ok, rep.mismatch
    assert rep.expected_match and rep.rows_ok and rep.motion_eq_ok
    assert rep.shared_groups_ok and rep.weak_proper_ok and rep.stabilizers_ok


def test_reproduce_table_unknown_combination():
    with pytest.raises(ValueError):
        reproduce_table(3, GF2)
    with pytest.raises(ValueError):
        reproduce_table(1, GF5)


def test_two_dim_binary_table_shape():
    rep = reproduce_table(2, GF2)
    assert len(rep.blocks) == 4
    # every block pairs two base forms with a single companion
    for lefts, rights in rep.blocks:
        assert len(lefts) == 2 and len(rights) == 1
    assert len(rep.row_pairs) == 4


def test_render_table_frozen_text():
    lines = render_table_lines(reproduce_table(1, GF3))
    assert lines == [
        "table of sporadic solution pairs over GF(3), dim 1",
        " Q on V | Qt on F x V*",
        "--------+--------------",
        " x1^2   | a1^2",
        " 2*x1^2 | 2*a1^2",
        " 0      |",
    ]
    lines0 = render_table_lines(reproduce_table(0, GF2))
    assert lines0[-2:] == [" 0      | 0", "        | a0^2"]


def test_render_table_has_block_rules():
    lines = render_table_lines(reproduce_table(2, GF2))
    rule = lines[2]
    assert rule.startswith("-") and "+" in rule
    # four blocks: the rule appears once under the header and thrice between
    assert sum(1 for ln in lines if ln == rule) == 4


# --- projective collineations ----------------------------------------------

def test_projective_reduce_order():
    gl = enumerate_gl(GF3, 2)
    assert gl.order == 48
    assert projective_reduce(gl).order == 24  # centre {I, 2I} folds away


def test_projective_reduce_binary_is_identity_on_groups():
    # the only scalar over GF(2) is 1, so nothing merges
    gl = enumerate_gl(GF2, 2)
    assert projective_reduce(gl).order == gl.order


def _per_matrix_projective_reduce(gs):
    """projective_reduce one Mat at a time: each matrix's row-major entries
    rescaled by projective_rep, the route it first took."""
    fld, n = gs.field, gs.n
    out = []
    for A in gs.as_np():
        scaled = projective_rep(fld, A.ravel().tolist())
        out.append(Mat(fld, [scaled[i * n:(i + 1) * n] for i in range(n)],
                       (n, n)))
    return GroupSet.from_mats(fld, n, out)


def test_projective_reduce_matches_per_matrix_route():
    cases = [enumerate_gl(F, n)
             for F, n in ((GF3, 2), (GF4, 2), (GF5, 2), (GF2, 3), (GF3, 0))]
    cases += [motion_group_dual(Q, weak) for Q in enumerate_forms(GF3, 1)
              for weak in (False, True)]
    for gs in cases:
        assert projective_reduce(gs) == _per_matrix_projective_reduce(gs), gs


PROJECTIVE_EXPECT = {
    # (field, n) -> (pairs, exclusions, witness)
    (GF3.name, 0): (3, 2, True),
    (GF2.name, 0): (2, 0, False),
    (GF2.name, 1): (16, 0, False),
    (GF3.name, 1): (81, 0, False),
}


@pytest.mark.parametrize("F,n", [(GF3, 0), (GF2, 0), (GF2, 1), (GF3, 1)])
def test_projective_rigidity(F, n):
    rep = verify_projective_theorem(F, n)
    assert rep.ok
    assert (rep.pairs_checked, rep.exclusion_hits,
            rep.witness_confirmed) == PROJECTIVE_EXPECT[(F.name, n)]


def test_projective_witness_is_genuine():
    # the GF(3) point: projectively the groups agree, linearly they cannot —
    # O'(c a0^2) = {+-1} but the motion group of the empty form is trivial
    rep = verify_projective_theorem(GF3, 0)
    assert rep.witness_confirmed and rep.exclusion_hits == 2


# --- quadric duality -------------------------------------------------------

def test_quadric_points_projective_reps():
    # x1^2 + 4 x2^2 = x1^2 - x2^2 over GF(5): two projective points
    pts = quadric_points(QForm.from_upper(GF5, 2, (1, 0, 4)))
    assert pts == {(1, 1), (1, 4)}
    assert quadric_points(QForm.from_upper(GF3, 2, (1, 0, 1))) == set()


def test_quadric_duality_worked_example():
    rep = quadric_duality_check(QForm.from_upper(GF5, 2, (1, 0, 4)))
    assert rep.status == "ok" and rep.ok
    assert (rep.base_points, rep.lifted_points, rep.hyperplane_points) == (2, 11, 11)
    # the two point sets can only match because the vertex is adjoined
    assert rep.lifted_points == rep.hyperplane_points


def test_quadric_duality_statuses():
    assert quadric_duality_check(QForm.from_upper(GF2, 2, (0, 1, 0))).status \
        == "char-2-excluded"
    assert quadric_duality_check(QForm.from_upper(GF3, 1, (1,))).status \
        == "dim-too-small"
    assert quadric_duality_check(QForm.from_upper(GF3, 2, (1, 0, 0))).status \
        == "degenerate-polar"
    empty = quadric_duality_check(QForm.from_upper(GF3, 2, (1, 0, 1)))
    assert empty.status == "empty-quadric" and empty.ok


# exhaustive status tallies, frozen
QUADRIC_TALLIES = {
    (GF3.name, 2): {"degenerate-polar": 9, "empty-quadric": 6, "ok": 12},
    (GF5.name, 2): {"degenerate-polar": 25, "empty-quadric": 40, "ok": 60},
}


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF5, 2)])
def test_quadric_duality_exhaustive(F, n):
    tally = {}
    for Q in enumerate_forms(F, n):
        s = quadric_duality_check(Q).status
        tally[s] = tally.get(s, 0) + 1
    assert tally == QUADRIC_TALLIES[(F.name, n)]


def test_quadric_duality_three_vars():
    rep = quadric_duality_check(QForm.from_upper(GF3, 3, (1, 0, 0, 1, 0, 1)))
    assert rep.status == "ok"
    assert (rep.base_points, rep.lifted_points, rep.hyperplane_points) == (4, 13, 13)


_WRONG_SOLUTIONS_CHILD = textwrap.dedent("""
    import sys
    from metric_affine import classify
    from metric_affine.fields import GF5
    from metric_affine.groups import InvariantViolation
    from metric_affine.quadform import QForm

    def index_giving(sols):
        class Index(dict):
            def get(self, key, default=None):
                return sols
        return lambda fld, m, budget=None: Index()

    # GF(5)^1 is not an exceptional size: x1^2 must have its four unit
    # scalings of the lift as solutions, and the zero form none at all
    for coeffs, sols in (((1,), ()),
                         ((0,), (QForm.from_upper(GF5, 2, (0, 0, 1)),))):
        classify.weak_group_index = index_giving(sols)
        try:
            classify.solve_for_qtilde(QForm.from_upper(GF5, 1, coeffs),
                                      classify.MODE_MOTION)
        except InvariantViolation:
            print("optimize=%d raised" % sys.flags.optimize)
        else:
            print("optimize=%d passed" % sys.flags.optimize)
""")


def test_forced_solution_check_survives_optimized_interpreter(run_optimized):
    assert (run_optimized(_WRONG_SOLUTIONS_CHILD)
            == "optimize=1 raised\noptimize=1 raised\n")
