"""Classification sweeps: dyads, tables, projective view, quadric duality."""

from collections import Counter

import numpy as np
import pytest

from metric_affine import classify, fields, groups
from metric_affine.budget import InvariantViolation
from metric_affine.classify import (MODE_MOTION, MODE_WEAK, MODES,
                                    SUPPORTED_TABLES, ProjectiveReport,
                                    QuadricReport, _projective_canon_np,
                                    dyad_report, dyad_satisfies,
                                    quadric_duality_check, quadric_points,
                                    projective_reduce,
                                    render_table_lines,
                                    reproduce_table, solve_for_qtilde,
                                    verify_main_prop,
                                    verify_projective_theorem,
                                    weak_group_index)
from metric_affine.fields import GF2, GF3, GF4, GF5, GF7, QQ, PrimePowerField
from metric_affine.groups import (GroupSet, enumerate_gl, form_values_np,
                                  group_equal, groups_by_orbit, matmul_np,
                                  orthogonal_group, vectors_np,
                                  weak_orthogonal_group)
from metric_affine.homog import (DegeneratePolarForm, lift,
                                 motion_group_dual)
from metric_affine.linalg import (Mat, annihilator, kernel_basis,
                                  unit_vector, vec)
from metric_affine.quadform import QForm, enumerate_forms, polar
from test_acceptance import QUADRIC_TALLIES


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
def test_solve_by_index_matches_direct_scan(F, n, cold_memo):
    lefts = enumerate_forms(F, n)
    # the scan memoises motion_group_dual and every weak group upstairs, so
    # the first pass below runs on a table that is already filled
    scanned = [_scan_for_qtilde(Q, mode) for Q in lefts for mode in MODES]
    warm = [solve_for_qtilde(Q, mode) for Q in lefts for mode in MODES]
    assert warm == scanned
    # and the answer does not depend on what was memoised before
    cold_memo.clear()
    assert warm == [solve_for_qtilde(Q, mode)
                    for Q in lefts for mode in MODES]


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
@pytest.mark.parametrize("o_first", [False, True],
                         ids=["weak-first", "orthogonal-first"])
def test_orbit_index_matches_per_form_scan(F, m, o_first, cold_memo):
    # built cold, so no group memoised by an earlier test is reused; each
    # table walks the orbits itself, whichever is built first
    if o_first:
        o_table = groups_by_orbit(F, m, orthogonal_group)
        index = weak_group_index(F, m)
    else:
        index = weak_group_index(F, m)
        o_table = groups_by_orbit(F, m, orthogonal_group)
    cold_memo.clear()
    assert index == _scan_index(F, m)
    # the scan memoised O(Q) form by form, by the per-form frontier
    assert list(o_table) == [orthogonal_group(Q)
                             for Q in enumerate_forms(F, m)]


# --- tables ----------------------------------------------------------------

def test_supported_tables_inventory():
    assert SUPPORTED_TABLES == ((0, "GF(2)"), (0, "GF(4)"),
                                (1, "GF(2)"), (1, "GF(3)"), (2, "GF(2)"))


def _papers_exceptional_size(fld, n):
    """The (dim, |F|) sizes where the paper finds sporadic solutions: the
    rule solve_for_qtilde first read, kept as an oracle for the tables."""
    return ((n == 0 and fld.char == 2)
            or (n == 1 and fld.order is not None and fld.order <= 3)
            or (n == 2 and fld.order == 2))


@pytest.mark.parametrize("fld", sorted(set(fields._BY_NAME.values()),
                                       key=lambda f: f.name),
                         ids=lambda f: f.name)
def test_tables_cover_the_papers_exceptional_sizes(fld):
    # every sporadic size has a table, which verify tables re-derives, and
    # every table is at a sporadic size
    assert ([n for n in range(8) if (n, fld.name) in SUPPORTED_TABLES]
            == [n for n in range(8) if _papers_exceptional_size(fld, n)])


FIELD_BY_NAME = {f.name: f for f in (GF2, GF3, GF4)}


@pytest.mark.parametrize("dim,fname", SUPPORTED_TABLES)
def test_reproduce_every_table(dim, fname):
    rep = reproduce_table(dim, FIELD_BY_NAME[fname])
    assert rep.ok and rep.expected_match, rep.mismatch


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


WEAK_ONLY = "a sporadic pair satisfies only the weak equation"


# The route reproduce_table first took is kept as its oracle: dyad_report on
# every (Q, Qt) pair, the pairs grouped by the weak group of Qt, and each
# named stabiliser filtered out of all of GL.

def _pairwise_blocks(F, dim):
    """(blocks, motion_eq_ok) of one table by dyad_report on every pair."""
    by_group = {}
    motion_eq_ok = True
    for Q in enumerate_forms(F, dim):
        for Qt in enumerate_forms(F, dim + 1):
            rep = dyad_report(Q, Qt)
            if rep.satisfies_motion or rep.satisfies_weak:
                motion_eq_ok &= rep.satisfies_motion
                lefts, rights = by_group.setdefault(
                    weak_orthogonal_group(Qt).key, (set(), set()))
                lefts.add(Q)
                rights.add(Qt)
    return ({(frozenset(l), frozenset(r)) for l, r in by_group.values()},
            motion_eq_ok)


def _gl_stabilizer(F, n, v):
    """The matrices of GL_n fixing the vector with entries v, all of GL_n
    for v None: a filter of all of GL_n."""
    G = enumerate_gl(F, n).as_np()
    if v is not None:
        x = np.array(v, dtype=np.uint8).reshape(n, 1)
        G = G[(matmul_np(F, G, x) == x).all(axis=(1, 2))]
    return GroupSet.from_np(F, n, G)


@pytest.mark.parametrize("dim,fname", SUPPORTED_TABLES)
def test_table_matches_pairwise_route(dim, fname, cold_memo):
    F = FIELD_BY_NAME[fname]
    rep = reproduce_table(dim, F)
    cold_memo.clear()       # the oracle builds every weak group form by form
    blocks, motion_eq_ok = _pairwise_blocks(F, dim)
    assert {(frozenset(l), frozenset(r)) for l, r in rep.blocks} == blocks
    assert (WEAK_ONLY in rep.mismatch) == (not motion_eq_ok)
    fx = classify._FIXTURES[(dim, fname)]
    lefts = [next(lu for lu, _ in rows if lu is not None) for rows in fx.blocks]
    verdicts = [orthogonal_group(QForm.from_upper(F, dim, lu))
                == _gl_stabilizer(F, dim, stab)
                for lu, stab in zip(lefts, fx.stabilizers)]
    assert (not any(ln.startswith("stabilizer claim off")
                    for ln in rep.mismatch)) == all(verdicts)


def test_weak_only_pair_is_reported(monkeypatch):
    # list a right form under the weak motion group of the zero form on the
    # GF(3) line, a proper subgroup of its motion group
    real_index = classify.weak_group_index
    key = motion_group_dual(QForm.zero(GF3, 1), True).key
    monkeypatch.setattr(classify, "weak_group_index", lambda fld, m, b=None:
                        {**real_index(fld, m, b), key: (QForm.zero(GF3, 2),)})
    rep = reproduce_table(1, GF3)
    assert not rep.ok and not rep.expected_match
    assert rep.mismatch[:2] == (
        WEAK_ONLY,
        "computed blocks: [0 | 0]  [0, 2*x1^2, x1^2 | 2*a1^2, a1^2]")


def test_unshared_left_group_is_reported(monkeypatch):
    # O(x1^2) made trivial: the lefts x1^2, 2*x1^2 and 0 of the GF(3)^1
    # block no longer share O
    real_o = classify.orthogonal_group
    trivial = GroupSet.from_np(GF3, 1, np.ones((1, 1, 1), dtype=np.uint8))
    x1sq = QForm.from_upper(GF3, 1, (1,))
    monkeypatch.setattr(classify, "orthogonal_group", lambda Q, b=None:
                        trivial if Q == x1sq else real_o(Q, b))
    rep = reproduce_table(1, GF3)
    assert not rep.ok and rep.expected_match
    # x1^2 leads the block, so it is the left its stabilizer claim tests
    assert rep.mismatch == ("block does not share its groups",
                            "stabilizer claim off for block of x1^2")


# The GF(3) line's fixture, each claim broken in turn: every failed claim is
# one line of mismatch, and nothing else fails.
_LINE_ROWS = (((1,), (0, 0, 1)), ((2,), (0, 0, 2)), ((0,), None))


@pytest.mark.parametrize("change,want", [
    ({"blocks": ((((1,), (0, 0, 2)), ((2,), (0, 0, 1)), ((0,), None)),)},
     ("row pair broken: x1^2 | 2*a1^2", "row pair broken: 2*x1^2 | a1^2")),
    ({"blocks": ((((1,), None), ((2,), (0, 0, 2)), ((0,), None),
                  (None, (0, 0, 1))),)},
     ("blank-right row is liftable: x1^2",
      "blank-left row is droppable: a1^2")),
    ({"weak_proper": ()}, ("proper-subgroup claim off for 0",)),
    ({"weak_proper": ((0,), (1,))},
     ("proper-subgroup claim off for x1^2",)),
    ({"stabilizers": ((1,),)}, ("stabilizer claim off for block of x1^2",))],
    ids=["swapped-rights", "blank-cells", "proper-missing", "proper-extra",
         "stabilizer"])
def test_each_broken_table_claim_is_one_mismatch_line(change, want,
                                                      monkeypatch):
    key = (1, "GF(3)")
    fx = classify._FIXTURES[key]
    assert fx.blocks == (_LINE_ROWS,)
    monkeypatch.setitem(classify._FIXTURES, key, fx._replace(**change))
    rep = reproduce_table(1, GF3)
    assert rep.expected_match and rep.mismatch == want


@pytest.mark.parametrize("F,n", [(GF2, n) for n in range(4)]
                         + [(GF3, n) for n in range(3)]
                         + [(F, n) for F in (GF4, GF5, GF7) for n in range(2)],
                         ids=lambda v: getattr(v, "name", v))
def test_stabilizer_check_matches_gl_filter(F, n):
    # every O(Q) against every vector, the zero vector and None included
    vs = [None] + [tuple(v) for v in vectors_np(F, n).tolist()]
    wants = [_gl_stabilizer(F, n, v) for v in vs]
    for Q in enumerate_forms(F, n):
        O = orthogonal_group(Q)
        assert ([classify._is_stabilizer(O, v) for v in vs]
                == [O == want for want in wants]), Q


# --- projective collineations ----------------------------------------------

def test_projective_reduce_order():
    gl = enumerate_gl(GF3, 2)
    assert gl.order == 48
    assert projective_reduce(gl).order == 24  # centre {I, 2I} folds away


def test_projective_reduce_binary_is_identity_on_groups():
    # the only scalar over GF(2) is 1, so nothing merges
    gl = enumerate_gl(GF2, 2)
    assert projective_reduce(gl).order == gl.order


def projective_rep(fld, entries):
    """Scale so the first non-zero entry (in order) becomes 1."""
    entries = tuple(entries)
    for x in entries:
        if x != fld.zero:
            inv = fld.inv(x)
            return tuple(fld.mul(inv, e) for e in entries)
    return entries


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
    # (field, n) -> (pairs, exclusions, witness, projective matches)
    (GF3.name, 0): (3, 2, True, 3),
    (GF2.name, 0): (2, 0, False, 2),
    (GF2.name, 1): (16, 0, False, 2),
    (GF3.name, 1): (81, 0, False, 6),
    (GF4.name, 0): (4, 0, False, 4),
    (GF4.name, 1): (256, 0, False, 0),
    (GF5.name, 0): (5, 4, True, 5),
    (GF5.name, 1): (625, 0, False, 16),
    (GF7.name, 0): (7, 6, True, 7),
    (GF7.name, 1): (2401, 0, False, 36),
}


@pytest.mark.parametrize("F,n", [(GF3, 0), (GF2, 0), (GF2, 1), (GF3, 1),
                                 (GF4, 0), (GF4, 1), (GF5, 0), (GF5, 1),
                                 (GF7, 0), (GF7, 1)])
def test_projective_rigidity(F, n):
    rep = verify_projective_theorem(F, n)
    assert rep.ok
    assert (rep.pairs_checked, rep.exclusion_hits, rep.witness_confirmed,
            rep.projective_matches) == PROJECTIVE_EXPECT[(F.name, n)]


def test_projective_witness_is_genuine():
    # the GF(3) point: projectively the groups agree, linearly they cannot —
    # O'(c a0^2) = {+-1} but the motion group of the empty form is trivial
    rep = verify_projective_theorem(GF3, 0)
    assert rep.witness_confirmed and rep.exclusion_hits == 2


def _per_form_projective(F, n):
    """verify_projective_theorem with O'(Qt) built form by form: the route
    it first took."""
    violations, matches, hits, witness = [], 0, 0, False
    lefts, rights = enumerate_forms(F, n), enumerate_forms(F, n + 1)
    for Q in lefts:
        ao, aow = motion_group_dual(Q, False), motion_group_dual(Q, True)
        for Qt in rights:
            ow = weak_orthogonal_group(Qt)
            if projective_reduce(ow) not in (projective_reduce(ao),
                                             projective_reduce(aow)):
                continue
            matches += 1
            if n == 0 and F.char != 2 and not Qt.is_zero():
                hits += 1
                witness |= ow != ao
            elif ow != ao:
                violations.append((Q, Qt))
    return ProjectiveReport(F.name, n, len(lefts) * len(rights), matches,
                            hits, witness, tuple(violations))


@pytest.mark.parametrize("F,n", [(F, n) for F in (GF2, GF3) for n in range(3)]
                         + [(F, n) for F in (GF4, GF5, GF7) for n in range(2)],
                         ids=lambda v: getattr(v, "name", v))
def test_projective_matches_per_form_route(F, n, cold_memo):
    rep = verify_projective_theorem(F, n)
    cold_memo.clear()       # the oracle builds every weak group form by form
    assert rep == _per_form_projective(F, n)


# --- quadric duality -------------------------------------------------------
#
# The per-form route quadric_duality_check first took is kept here as the
# oracle of the block table: lift Q, list both quadrics point by point, and
# take the union of the tangent pencils of the base points.

_ORACLE_MEMO = {}


def _projective_reps(fld, n):
    """The vector table as tuples, and a mask of the vectors that are their
    own projective representative (the zero vector is not)."""
    key = ("reps", fld.name, n)
    if key not in _ORACLE_MEMO:
        vecs = [tuple(v) for v in vectors_np(fld, n).tolist()]
        mask = np.array([any(v) and projective_rep(fld, v) == v
                         for v in vecs], dtype=bool)
        _ORACLE_MEMO[key] = vecs, mask
    return _ORACLE_MEMO[key]


def _per_form_quadric_points(Q):
    vecs, is_rep = _projective_reps(Q.field, Q.n)
    vals = form_values_np(Q)
    return {vecs[i] for i in np.flatnonzero((vals == 0) & is_rep).tolist()}


def _tangent_pencil(fld, n, bx):
    """Annihilators of the hyperplanes of F x V containing {0} x ker(bx),
    memoised on the functional bx = B x."""
    key = ("pencil", fld.name, n, bx)
    if key not in _ORACLE_MEMO:
        tangent = kernel_basis(vec(fld, bx).T)   # n-1 directions in V
        assert len(tangent) == n - 1
        at_infinity = [vec(fld, (fld.zero,) + tuple(y.entries()))
                       for y in tangent]         # inside F x V
        pencil = annihilator(fld, n + 1, at_infinity)
        assert len(pencil) == 2
        span = np.array([p.entries() for p in pencil], dtype=np.uint8)
        q = fld.order
        combos = np.array([(c0, c1) for c0 in range(q) for c1 in range(q)],
                          dtype=np.uint8)
        canon = _projective_canon_np(fld, matmul_np(fld, combos, span))
        _ORACLE_MEMO[key] = frozenset(map(tuple, canon.tolist()))
    return _ORACLE_MEMO[key]


def _per_form_quadric_check(Q, lift=lift):
    """quadric_duality_check one form at a time."""
    fld, n = Q.field, Q.n
    if fld.char == 2:
        return QuadricReport(fld.name, n, "char-2-excluded", 0, 0, 0, ())
    if n < 2:
        return QuadricReport(fld.name, n, "dim-too-small", 0, 0, 0, ())
    try:
        up = lift(Q)
    except DegeneratePolarForm:
        return QuadricReport(fld.name, n, "degenerate-polar", 0, 0, 0, ())
    base = _per_form_quadric_points(Q)
    lifted = _per_form_quadric_points(up)
    vertex = projective_rep(fld, unit_vector(fld, n + 1, 0).entries())
    if not base and lifted == {vertex}:
        return QuadricReport(fld.name, n, "empty-quadric", 0, 0, 0, ())

    B = polar(Q).rows       # symmetric, so row i of B pairs with x to (Bx)_i
    rhs = set()
    for x in base:
        rhs |= _tangent_pencil(fld, n, tuple(fld.dot(b, x) for b in B))

    details = []
    for a in sorted(rhs):
        if a not in lifted:
            details.append(("hyperplane-annihilator-off-quadric", a))
    for a in sorted(lifted - {vertex}):
        if a not in rhs:
            details.append(("quadric-point-not-an-annihilator", a))
    if vertex not in rhs:
        details.append(("vertex-missing-from-annihilators", vertex))
    status = "ok" if not details else "mismatch"
    return QuadricReport(fld.name, n, status, len(base), len(lifted),
                         len(rhs), tuple(details))


def test_quadric_points_projective_reps():
    # x1^2 + 4 x2^2 = x1^2 - x2^2 over GF(5): two projective points
    pts = quadric_points(QForm.from_upper(GF5, 2, (1, 0, 4)))
    assert pts == {(1, 1), (1, 4)}
    assert quadric_points(QForm.from_upper(GF3, 2, (1, 0, 1))) == set()


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF3, 3), (GF4, 2), (GF5, 2),
                                 (GF7, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_quadric_points_match_per_form_route(F, n):
    for Q in enumerate_forms(F, n):
        assert quadric_points(Q) == _per_form_quadric_points(Q), Q


# GF(9) = GF(3)[t] / (t^2 + 1), a non-prime odd field built outside field_make
GF9 = PrimePowerField(3, (1, 0, 1))


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF3, 3), (GF5, 2), (GF5, 3),
                                 (GF7, 2), (GF9, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_quadric_table_matches_per_form_route(F, n, cold_memo):
    tally = Counter()
    for Q in enumerate_forms(F, n):
        rep = quadric_duality_check(Q)
        assert rep == _per_form_quadric_check(Q), Q
        tally[rep.status] += 1
    if (F.name, n) in QUADRIC_TALLIES:
        assert dict(tally) == QUADRIC_TALLIES[(F.name, n)]


def test_warm_quadric_queries_build_no_block(cold_memo, monkeypatch):
    # a cold sweep of the 15,625 forms of GF(5)^3 builds each of its 8
    # blocks of 2,048 forms once; a second sweep builds none
    real, builds = classify._quadric_block, []

    def recording(fld, n, block):
        builds.append((fld.name, n, block))
        return real(fld, n, block)
    monkeypatch.setattr(classify, "_quadric_block", recording)
    forms = enumerate_forms(GF5, 3)
    first = [quadric_duality_check(Q) for Q in forms]
    assert builds == [("GF(5)", 3, block) for block in range(8)]
    assert [quadric_duality_check(Q) for Q in forms] == first
    assert len(builds) == 8


def _lift_with_a1_squared_bumped(Q):
    """lift(Q) with the coefficient of a1^2 raised by one."""
    coeffs = list(lift(Q).upper_coeffs())
    coeffs[Q.n + 1] = Q.field.add(coeffs[Q.n + 1], Q.field.one)
    return QForm.from_upper(Q.field, Q.n + 1, coeffs)


def _bumped_lift_np(lift_np):
    """lift_np with the coefficient of a1^2 raised by one in every lift."""
    def bumped(field, dim, W):
        ok, up = lift_np(field, dim, W)
        up = up.copy()
        up[:, dim + 1] = (up[:, dim + 1] + 1) % field.order
        return ok, up
    return bumped


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF5, 2), (GF3, 3)],
                         ids=lambda v: getattr(v, "name", v))
def test_quadric_table_reports_a_perturbed_lift(F, n, cold_memo,
                                                monkeypatch):
    monkeypatch.setattr(classify, "lift_np", _bumped_lift_np(classify.lift_np))
    tags = ("hyperplane-annihilator-off-quadric",
            "quadric-point-not-an-annihilator",
            "vertex-missing-from-annihilators")
    mismatches = 0
    for Q in enumerate_forms(F, n):
        rep = quadric_duality_check(Q)
        assert rep == _per_form_quadric_check(
            Q, lift=_lift_with_a1_squared_bumped), Q
        if rep.status == "mismatch":
            mismatches += 1
            assert rep.details and not rep.ok
            # tags in their fixed order, points sorted within each tag
            assert list(rep.details) == sorted(
                rep.details, key=lambda d: (tags.index(d[0]), d[1]))
    assert mismatches > 0


def test_quadric_block_shares_a_report_per_code(cold_memo, monkeypatch):
    # rows with equal status and counts share one report object
    reports = classify._quadric_block(GF5, 3, 0)
    shared = {}
    for rep in reports:
        assert shared.setdefault(rep, rep) is rep, rep
    assert len(shared) < len(reports)
    # with a1^2 bumped in every lift, each mismatching row has a report of
    # its own, with its details
    monkeypatch.setattr(classify, "lift_np", _bumped_lift_np(classify.lift_np))
    reports = classify._quadric_block(GF3, 2, 0)
    mismatches = [(Q, rep) for Q, rep in zip(enumerate_forms(GF3, 2), reports)
                  if rep.status == "mismatch"]
    assert len({id(rep) for _Q, rep in mismatches}) == len(mismatches) > 1
    for Q, rep in mismatches:
        assert rep == _per_form_quadric_check(
            Q, lift=_lift_with_a1_squared_bumped) and rep.details, Q


def _zero_lift(Q):
    """The zero form on F x V* in place of lift(Q), which still refuses a
    degenerate polar form."""
    lift(Q)
    return QForm.zero(Q.field, Q.n + 1)


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF5, 2), (GF7, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_quadric_table_reports_a_zero_lift(F, n, cold_memo, monkeypatch):
    # the zero form vanishes on all of P(F x V*), so no row may pass: an
    # empty base quadric passes only with the vertex alone upstairs
    lift_np = classify.lift_np

    def zero_lift_np(field, dim, W):
        ok, up = lift_np(field, dim, W)
        return ok, np.zeros_like(up)
    monkeypatch.setattr(classify, "lift_np", zero_lift_np)
    tally = Counter()
    for Q in enumerate_forms(F, n):
        rep = quadric_duality_check(Q)
        assert rep == _per_form_quadric_check(Q, lift=_zero_lift), Q
        assert rep.details or rep.status == "degenerate-polar", Q
        tally[rep.status] += 1
    want = QUADRIC_TALLIES[(F.name, n)]
    assert dict(tally) == {
        "degenerate-polar": want["degenerate-polar"],
        "mismatch": want["empty-quadric"] + want["ok"]}


@pytest.mark.parametrize("F,n", [(GF3, 3), (GF4, 2), (GF5, 3), (GF7, 2),
                                 (GF9, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_rep_of_matches_projective_rep(F, n, cold_memo):
    # every vector, zero included, against the scaling one entry at a time;
    # _rep_mask marks the representatives, the zero vector not among them
    vecs = [tuple(v) for v in vectors_np(F, n).tolist()]
    table = classify.rep_of(F, n)
    assert table.dtype == np.min_scalar_type(len(vecs) - 1)
    assert [vecs[i] for i in table.tolist()] == [projective_rep(F, v)
                                                 for v in vecs]
    mask = classify._rep_mask(F, n)
    assert mask.tolist() == _projective_reps(F, n)[1].tolist()


def test_quadric_table_needs_the_representative_table(cold_memo,
                                                      monkeypatch):
    # with rep_of the identity on the hyperplane side (the masks of the
    # projective points kept), a scaled B x no longer finds its point: rows
    # that pass on the real table miss lifted points, and no other row moves
    honest = Counter(rep.status for rep in classify._quadric_block(GF5, 2, 0))
    assert "mismatch" not in honest
    masks = {m: classify._rep_mask(GF5, m) for m in (2, 3)}
    monkeypatch.setattr(classify, "_rep_mask", lambda fld, m: masks[m])
    monkeypatch.setattr(classify, "rep_of",
                        lambda fld, m: np.arange(fld.order ** m))
    reports = classify._quadric_block(GF5, 2, 0)
    broken = Counter(rep.status for rep in reports)
    assert 0 < broken["mismatch"] <= honest["ok"]
    for status in ("degenerate-polar", "empty-quadric"):
        assert broken[status] == honest[status]
    assert {tag for rep in reports for tag, _a in rep.details} == {
        "quadric-point-not-an-annihilator"}


def test_gf7_cube_quadric_tally_from_the_table():
    # the 117,649 forms of GF(7)^3, block by block from the table alone:
    # the per-form route, too slow to run here, gave the same tally once
    size = classify._block_size(GF7, 3)
    tally = Counter(rep.status for block in range(-(-7 ** 6 // size))
                    for rep in classify._quadric_block(GF7, 3, block))
    assert dict(tally) == QUADRIC_TALLIES[("GF(7)", 3)]


def test_quadric_table_reads_positions_past_int64():
    # 2 x1^2 + 2 x1x2 + ... + 2 x9^2 over GF(3) sits at position 3^45 - 1,
    # past the range of an int64
    Q = QForm.from_upper(GF3, 9, (2,) * 45)
    rep = quadric_duality_check(Q)
    assert rep == _per_form_quadric_check(Q)
    assert (rep.status, rep.base_points) == ("ok", 3280)


def test_quadric_block_does_not_depend_on_the_first_form(cold_memo):
    forms = enumerate_forms(GF5, 3)
    size = classify._block_size(GF5, 3)
    block = forms[size:2 * size]        # the second block of the table
    first = [quadric_duality_check(Q) for Q in block]
    cold_memo.clear()
    last = [quadric_duality_check(Q) for Q in reversed(block)][::-1]
    assert first == last
    assert {rep.status for rep in first} == {"degenerate-polar", "ok"}


def test_quadric_duality_worked_example():
    rep = quadric_duality_check(QForm.from_upper(GF5, 2, (1, 0, 4)))
    assert rep.status == "ok" and rep.ok
    assert (rep.base_points, rep.lifted_points, rep.hyperplane_points) == (2, 11, 11)
    # the two point sets can only match because the vertex is adjoined
    assert rep.lifted_points == rep.hyperplane_points


_Q_PLANE = QForm.from_upper(QQ, 2, (1, 0, 1))


# every engine call that enumerates, on a form or a space over Q
@pytest.mark.parametrize("call", [
    lambda: orthogonal_group(_Q_PLANE),
    lambda: weak_orthogonal_group(_Q_PLANE),
    lambda: enumerate_gl(QQ, 2),
    lambda: groups.reflection_generation_status(_Q_PLANE),
    lambda: motion_group_dual(_Q_PLANE, False),
    lambda: solve_for_qtilde(_Q_PLANE, MODE_MOTION),
    lambda: verify_main_prop(QQ, 2),
    lambda: verify_projective_theorem(QQ, 2),
    lambda: groups.closure(QQ, 1, [])],
    ids=["orthogonal_group", "weak_orthogonal_group", "enumerate_gl",
         "reflection_generation_status", "motion_group_dual",
         "solve_for_qtilde", "verify_main_prop", "verify_projective_theorem",
         "closure"])
def test_the_engine_refuses_the_rationals_by_name(call):
    # the lemma functions' refusal, not a TypeError from q = None
    with pytest.raises(NotImplementedError, match="is not enumerable"):
        call()


def test_quadric_duality_statuses():
    assert quadric_duality_check(QForm.from_upper(GF2, 2, (0, 1, 0))).status \
        == "char-2-excluded"
    assert quadric_duality_check(QForm.from_upper(GF3, 1, (1,))).status \
        == "dim-too-small"
    assert quadric_duality_check(QForm.from_upper(GF3, 2, (1, 0, 0))).status \
        == "degenerate-polar"
    empty = quadric_duality_check(QForm.from_upper(GF3, 2, (1, 0, 1)))
    assert empty.status == "empty-quadric" and empty.ok
    # over Q the check refuses at every dimension, before any status
    for n, upper in ((0, ()), (1, (1,)), (2, (1, 0, 1))):
        with pytest.raises(ValueError, match="Q is not a finite field"):
            quadric_duality_check(QForm.from_upper(QQ, n, upper))


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF5, 2), (GF7, 2)])
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


def _zero_inverse(real):
    """Every stacked B "inverts" to the zero matrix."""
    return lambda field, stack: (np.ones(len(stack), dtype=bool),
                                 np.zeros_like(stack))


def _lift_nonzero_at_e0(real):
    def wrong(field, n, W):
        ok, up = real(field, n, W)
        up = up.copy()
        up[:, 0] = 1        # the coefficient of a0^2
        return ok, up
    return wrong


@pytest.mark.invariant
@pytest.mark.parametrize("module,name,wrong,match", [
    (groups, "invert_np", _zero_inverse, "fails polar block"),
    (classify, "lift_np", _lift_nonzero_at_e0, "is nonzero at e0")],
    ids=["zero-inverse", "lift-nonzero-at-e0"])
def test_quadric_block_checks_raise(module, name, wrong, match, cold_memo,
                                    monkeypatch):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    with pytest.raises(InvariantViolation, match=match):
        quadric_duality_check(QForm.from_upper(GF5, 3, (1, 0, 0, 1, 0, 1)))


# GF(5)^1 is not a sporadic size: x1^2 must have its four unit scalings of
# the lift as solutions, and the zero form none at all
@pytest.mark.invariant
@pytest.mark.parametrize("coeffs,sols", [
    ((1,), ()), ((1,), ((0, 0, 4), (0, 0, 3), (0, 0, 2))),
    ((0,), ((0, 0, 1),))],
    ids=["lifts-missing", "one-lift-missing", "zero-form-solved"])
def test_forced_solution_check_raises(coeffs, sols, monkeypatch):
    Q = QForm.from_upper(GF5, 1, coeffs)
    forms = tuple(QForm.from_upper(GF5, 2, u) for u in sols)
    key = motion_group_dual(Q, False).key
    monkeypatch.setattr(classify, "weak_group_index",
                        lambda fld, m, budget=None: {key: forms})
    with pytest.raises(InvariantViolation) as raised:
        solve_for_qtilde(Q, MODE_MOTION)
    assert raised.value.args == ((Q, MODE_MOTION, list(forms)),)


@pytest.mark.invariant
def test_table_missing_a_right_is_reported(monkeypatch):
    # a1^2 goes missing from the entry it shares with 2*a1^2, the rights of
    # the 3 x 2 block of the GF(3)^1 table
    real_index = classify.weak_group_index
    monkeypatch.setattr(classify, "weak_group_index", lambda fld, m, b=None: {
        key: tuple(Qt for Qt in forms if Qt.upper_coeffs() != (0, 0, 1))
        for key, forms in real_index(fld, m, b).items()})
    rep = reproduce_table(1, GF3)
    assert not rep.ok
    assert [ln.split(":")[0] for ln in rep.mismatch] == ["computed blocks",
                                                         "fixture blocks"]


@pytest.mark.invariant
def test_table_refuses_a_weak_group_outside_the_motion_group(monkeypatch):
    monkeypatch.setattr(classify, "is_subgroup", lambda g1, g2: False)
    with pytest.raises(InvariantViolation, match="^weak motion group of "):
        reproduce_table(1, GF3)


_LINE = QForm.from_upper(GF3, 1, (1,))
_BAD_MODE = "unknown mode 'bogus', not one of ('motion', 'weak')"


@pytest.mark.invariant
@pytest.mark.parametrize("call,message", [
    (lambda: solve_for_qtilde(_LINE, "bogus"), _BAD_MODE),
    (lambda: dyad_satisfies(_LINE, lift(_LINE), "bogus"), _BAD_MODE),
    (lambda: dyad_report(_LINE, _LINE),
     "the right form a0^2 lives on GF(3)^1, not on F x V* = GF(3)^2"),
    (lambda: dyad_satisfies(_LINE, QForm.from_upper(GF5, 2, (0, 0, 1)),
                            MODE_WEAK),
     "the right form a1^2 lives on GF(5)^2, not on F x V* = GF(3)^2")],
    ids=["solve-mode", "dyad-mode", "dyad-right-dim", "dyad-right-field"])
def test_bad_mode_and_right_form_are_refused(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
