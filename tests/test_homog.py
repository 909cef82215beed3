"""Homogeneous model: point/dual matrices, form lifting, reflections."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_affine import groups, homog
from metric_affine.budget import InvariantViolation
from metric_affine.fields import GF2, GF3, GF4, GF5, GF7, QQ
from metric_affine.groups import (GroupSet, enumerate_gl, orthogonal_group,
                                  weak_orthogonal_group)
from metric_affine.homog import (AffineMap, DegeneratePolarForm, NotDroppable,
                                 affine_reflection, drop, dual_matrix,
                                 dual_matrix_preimage, lift, lift_np,
                                 motion_group_dual, point_matrix,
                                 reflection_correspondence, roundtrip_checks)
from metric_affine.linalg import Mat, mat_invert, unit_vector, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    is_nondegenerate, polar, qf_eval,
                                    qf_scale)
from test_acceptance import ROUNDTRIP_COUNTS

GL52 = [Mat(GF5, A.tolist()) for A in enumerate_gl(GF5, 2).as_np()]


def affine_maps(field, n, mats):
    return st.builds(
        AffineMap,
        st.sampled_from([vec(field, t) for t in all_vectors(field, n)]),
        st.sampled_from(mats))


def test_point_matrix_blocks():
    gamma = AffineMap(vec(GF3, (1, 2)), Mat(GF3, [[0, 1], [2, 0]]))
    P = point_matrix(gamma)
    assert P == Mat(GF3, [[1, 0, 0], [1, 0, 1], [2, 2, 0]])


def test_dual_is_inverse_transpose_of_point():
    gamma = AffineMap(vec(GF3, (1, 2)), Mat(GF3, [[0, 1], [2, 0]]))
    assert dual_matrix(gamma) == mat_invert(point_matrix(gamma)).T
    # the dual image fixes e0 = (1, o*)
    assert dual_matrix(gamma).col(0).entries() == (1, 0, 0)


@pytest.mark.parametrize("F,n", [(F, n) for F in (GF3, QQ) for n in range(3)],
                         ids=lambda v: getattr(v, "name", v))
def test_matrices_take_the_dimension_from_their_argument(F, n):
    # t = (1, .., 1) and A with 2 on the diagonal and 1 above it: F and n
    # come from gamma (and from kappa for the preimage), nothing else
    c = F.coerce
    A = Mat(F, [[c(2 if i == j else int(j > i)) for j in range(n)]
                for i in range(n)], (n, n))
    gamma = AffineMap(vec(F, [c(1)] * n), A)
    P, kappa = point_matrix(gamma), dual_matrix(gamma)
    assert P.field is kappa.field is F
    assert (P.nrows, P.ncols) == (kappa.nrows, kappa.ncols) == (n + 1, n + 1)
    assert P.col(0).entries() == (F.one,) + gamma.t.entries()
    assert kappa == mat_invert(P).T
    assert kappa.col(0) == unit_vector(F, n + 1, 0)
    assert dual_matrix_preimage(kappa) == gamma
    assert dual_matrix_preimage(Mat.identity(F, n + 1)) \
        == AffineMap.identity(F, n)


@given(affine_maps(GF5, 2, GL52), affine_maps(GF5, 2, GL52))
@settings(max_examples=50, deadline=None)
def test_both_representations_are_homomorphisms(g1, g2):
    both = g1.compose(g2)
    assert point_matrix(both) == point_matrix(g1) * point_matrix(g2)
    assert dual_matrix(both) == dual_matrix(g1) * dual_matrix(g2)


@given(affine_maps(GF5, 2, GL52))
@settings(max_examples=50, deadline=None)
def test_inverse_and_preimage_roundtrip(gamma):
    inv = gamma.inverse()
    assert gamma.compose(inv).apply(vec(GF5, (3, 4))) == vec(GF5, (3, 4))
    assert dual_matrix(inv) == mat_invert(dual_matrix(gamma))
    assert dual_matrix_preimage(dual_matrix(gamma)) == gamma


def test_preimage_rejects_maps_moving_the_marked_vector():
    # this matrix is invertible but its first column is not e0
    k = Mat(GF3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert dual_matrix_preimage(k) is None


def test_affine_map_basics():
    gamma = AffineMap(vec(GF3, (1, 0)), Mat(GF3, [[2, 0], [0, 1]]))
    assert gamma.apply(vec(GF3, (1, 1))).entries() == (0, 1)
    assert AffineMap.translation(vec(GF3, (2, 1))).is_translation
    assert AffineMap.identity(GF3, 2).apply(vec(GF3, (1, 2))).entries() == (1, 2)


@pytest.mark.parametrize("t,A", [
    (vec(GF3, (1, 0, 2)), Mat.identity(GF3, 2)),           # t too long
    (Mat(GF3, [[1, 0]]), Mat.identity(GF3, 1)),            # t not a column
    (vec(GF3, (1, 0)), Mat(GF3, [[1, 0, 0], [0, 1, 0]]))],  # A not square
    ids=["length", "row", "non-square"])
def test_affine_map_refuses_mismatched_shapes(t, A):
    with pytest.raises(AssertionError):
        AffineMap(t, A)


# --- lifting ---------------------------------------------------------------

def test_lift_known_values():
    # x1^2 over GF(3): B = (2), B^-1 = (2), core = 2*1*2 = 1 -> a1^2
    up = lift(QForm.from_upper(GF3, 1, (1,)))
    assert up.upper_coeffs() == (0, 0, 1)
    # x1x2 over GF(2): conjugating by the polar matrix swaps the two slots
    up2 = lift(QForm.from_upper(GF2, 2, (0, 1, 0)))
    assert up2.upper_coeffs() == (0, 0, 0, 0, 1, 0)
    # the lifted form always vanishes on e0
    assert qf_eval(up2, unit_vector(GF2, 3, 0)) == GF2.zero


def test_lift_rational_quarter_rule():
    # in characteristic zero, 4 * lift(Q) has Gram diag(0, S^-1) where S is
    # the *symmetric* Gram of Q (the stored one is upper-triangular, and
    # plugging that in instead would be off by the antisymmetric part)
    W = Mat(QQ, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
    Q = QForm(QQ, W)
    four = qf_scale(lift(Q), Fraction(4))
    S = polar(Q).scale(Fraction(1, 2))
    Sinv = mat_invert(S)
    expect = QForm(QQ, Mat(QQ, [
        [Fraction(0)] * 3,
        [Fraction(0)] + list(Sinv.rows[0]),
        [Fraction(0)] + list(Sinv.rows[1])], (3, 3)))
    assert four == expect
    assert expect.upper_coeffs() == (0,) * 3 + (Fraction(4, 3),
                                                Fraction(-4, 3),
                                                Fraction(4, 3))


def test_lift_zero_dim():
    # the empty form lifts to the zero form on the single coordinate a0
    up = lift(QForm.zero(GF3, 0))
    assert up.n == 1 and up.is_zero()
    assert drop(up).n == 0


def test_lift_requires_nondegenerate_polar():
    with pytest.raises(DegeneratePolarForm):
        lift(QForm.from_upper(GF2, 1, (1,)))  # char 2: B = 0
    with pytest.raises(DegeneratePolarForm):
        lift(QForm.from_upper(GF3, 2, (1, 0, 0)))  # radical line


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF3, 3), (GF5, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_lift_matches_stacked_lift(F, n):
    forms = enumerate_forms(F, n)
    ok, up = lift_np(F, n, np.array([Q.upper_coeffs() for Q in forms],
                                    dtype=np.uint8))
    for Q, nondegenerate, coeffs in zip(forms, ok, up.tolist()):
        try:
            want = lift(Q).upper_coeffs()
        except DegeneratePolarForm:
            assert not nondegenerate, Q
        else:
            assert nondegenerate and tuple(coeffs) == want, Q


def test_drop_precondition_reasons():
    with pytest.raises(NotDroppable) as e1:
        drop(QForm.from_upper(GF3, 2, (1, 0, 1)))  # nonzero at e0
    assert e1.value.reason == NotDroppable.REASON_VALUE
    with pytest.raises(NotDroppable) as e2:
        drop(QForm.from_upper(GF3, 2, (0, 1, 0)))  # polar radical is trivial
    assert e2.value.reason == NotDroppable.REASON_RADICAL
    with pytest.raises(NotDroppable) as e3:
        drop(QForm.zero(GF3, 2))  # polar radical is everything
    assert e3.value.reason == NotDroppable.REASON_RADICAL
    for F in (GF2, GF3, QQ):
        with pytest.raises(NotDroppable) as e4:
            drop(QForm.zero(F, 0))  # F x V* has dimension >= 1: no line F e0
        assert e4.value.reason == NotDroppable.REASON_RADICAL


def test_drop_known_value():
    down = drop(QForm.from_upper(GF3, 2, (0, 0, 1)))  # a1^2
    assert down.n == 1 and down.upper_coeffs() == (1,)


@pytest.mark.parametrize("F,n", [(GF3, 1), (GF3, 2), (GF2, 2), (GF5, 1)])
def test_roundtrips_exhaustive(F, n):
    rep = roundtrip_checks(F, n)
    assert rep.ok
    assert (rep.lifted, rep.dropped) == ROUNDTRIP_COUNTS[(F.name, n)]


_PLANE = QForm.from_upper(GF3, 2, (1, 0, 1))


@pytest.mark.invariant
@pytest.mark.parametrize("name,wrong,tag", [
    ("drop", lambda real: lambda Qt: qf_scale(real(Qt), 2), "drop-lift"),
    ("lift", lambda real: lambda Q: qf_scale(real(Q), 2), "lift-drop"),
    ("lift", lambda real: lambda Q: real(_PLANE), "scaling")],
    ids=["drop-doubled", "lift-doubled", "lift-constant"])
def test_roundtrip_checks_report_each_violation(name, wrong, tag,
                                                monkeypatch):
    # a doubled drop or lift breaks both round trips over GF(3); a lift
    # that ignores its argument breaks the scaling law lift(cQ) = c^-1 lift(Q)
    monkeypatch.setattr(homog, name, wrong(getattr(homog, name)))
    rep = roundtrip_checks(GF3, 2)
    assert tag in {v[0] for v in rep.violations}
    assert not rep.ok


def test_scaling_law_spot():
    Q = QForm.from_upper(GF5, 2, (1, 1, 1))
    up = lift(Q)
    for c in GF5.units():
        assert lift(qf_scale(Q, c)) == qf_scale(up, GF5.inv(c))


# --- motions and reflections ----------------------------------------------

def test_motion_group_orders():
    Q = QForm.from_upper(GF3, 1, (1,))
    g = motion_group_dual(Q, weak=False)
    assert g.order == 3 * 2  # three translations, O = {+-1}
    assert group_order_matches_weak(Q)


def group_order_matches_weak(Q):
    gw = motion_group_dual(Q, weak=True)
    return gw.order == Q.field.order ** Q.n * 2


@pytest.mark.parametrize("F,n", [(GF2, 0), (GF2, 1), (GF2, 2), (GF3, 0),
                                 (GF3, 1), (GF3, 2), (GF4, 1), (GF5, 1)],
                         ids=lambda v: getattr(v, "name", v))
def test_motion_group_matches_per_motion_dual_matrices(F, n):
    # the one-stack construction against dual_matrix of every motion (t, A)
    translations = [vec(F, t) for t in all_vectors(F, n)]
    for Q in enumerate_forms(F, n):
        for weak in (False, True):
            linear = (weak_orthogonal_group if weak else orthogonal_group)(Q)
            want = GroupSet.from_mats(F, n + 1, [
                dual_matrix(AffineMap(t, A))
                for A in (Mat(F, a.tolist(), (n, n)) for a in linear.as_np())
                for t in translations])
            assert motion_group_dual(Q, weak) == want, (Q, weak)


def _direct_motion_group(Q, weak):
    """{[[1, s^T], [0, B^T]] : s in F^n, B in O(Q) or O'(Q)}, with the
    linear group built for Q itself, not carried along its orbit."""
    F, n = Q.field, Q.n
    linear = (weak_orthogonal_group if weak else orthogonal_group)(Q).as_np()
    S = [np.array(t, dtype=np.uint8) for t in all_vectors(F, n)]
    return GroupSet.from_np(F, n + 1, [
        np.block([[np.ones((1, 1), np.uint8), s[np.newaxis]],
                  [np.zeros((n, 1), np.uint8), B.T]])
        for B in linear for s in S])


@pytest.mark.parametrize("F,n", [(GF2, n) for n in range(4)]
                         + [(GF3, n) for n in range(3)]
                         + [(F, n) for F in (GF4, GF5, GF7) for n in range(2)],
                         ids=lambda v: getattr(v, "name", v))
def test_motion_group_matches_direct_stack(F, n, cold_memo):
    # motion_group_dual reads Q's linear group from the orbit transport;
    # built cold, then compared with the groups built form by form
    forms = enumerate_forms(F, n)
    got = {(Q, weak): motion_group_dual(Q, weak)
           for Q in forms for weak in (False, True)}
    cold_memo.clear()
    for (Q, weak), g in got.items():
        assert g == _direct_motion_group(Q, weak), (Q, weak)


def test_motion_group_elements_fix_marked_vector():
    Q = QForm.from_upper(GF3, 1, (1,))
    for A in motion_group_dual(Q, weak=False).as_np():
        assert Mat(GF3, A.tolist()).col(0) == unit_vector(GF3, 2, 0)


def test_affine_reflection_fixes_axis_point():
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    p, r = vec(GF3, (1, 2)), vec(GF3, (1, 1))
    gamma = affine_reflection(Q, p, r)
    assert gamma.apply(p) == p
    # involution: composing with itself is the identity map
    sq = gamma.compose(gamma)
    assert sq.A.is_identity() and sq.t.is_zero()


def test_affine_reflection_rational_example():
    # Q = x^2 on the rational line, axis point 1, direction 1: x |-> 2 - x
    Q = QForm.from_upper(QQ, 1, (Fraction(1),))
    gamma = affine_reflection(Q, vec(QQ, (Fraction(1),)),
                              vec(QQ, (Fraction(1),)))
    assert gamma.t.entries() == (Fraction(2),)
    assert gamma.A.entries() == (Fraction(-1),)
    beta = dual_matrix(gamma)
    assert beta == Mat(QQ, [[Fraction(1), Fraction(2)],
                            [Fraction(0), Fraction(-1)]])


def test_reflection_correspondence_spot_cases():
    assert reflection_correspondence(
        QForm.from_upper(QQ, 1, (Fraction(1),)),
        vec(QQ, (Fraction(1),)), vec(QQ, (Fraction(1),)))
    assert reflection_correspondence(
        QForm.from_upper(GF3, 2, (1, 0, 1)), (1, 2), (1, 1))


def test_reflection_correspondence_exhaustive_small():
    # every (anisotropic direction, base point) pair over GF(3) on the line
    Q = QForm.from_upper(GF3, 1, (2,))
    count = 0
    for p in all_vectors(GF3, 1):
        for r in all_vectors(GF3, 1):
            if qf_eval(Q, vec(GF3, r)) == GF3.zero:
                continue
            assert reflection_correspondence(Q, p, r)
            count += 1
    assert count == 6


def test_nondegenerate_forms_round_trip_via_scaling():
    # {lift(cQ)} and {c lift(Q)} agree as sets, even where c <-> c^-1 twists
    for Q in enumerate_forms(GF5, 1):
        if not is_nondegenerate(Q):
            continue
        up = lift(Q)
        lhs = {lift(qf_scale(Q, c)) for c in GF5.units()}
        rhs = {qf_scale(up, c) for c in GF5.units()}
        assert lhs == rhs


@pytest.mark.invariant
def test_lift_check_raises(monkeypatch):
    # a zero "inverse" of B lifts x1^2 to the zero form, whose radical is
    # all of F x V*, not the line F e0
    monkeypatch.setattr(homog, "mat_invert",
                        lambda M: Mat.zeros(M.field, M.nrows, M.ncols))
    with pytest.raises(InvariantViolation, match="must vanish at e0"):
        lift(QForm.from_upper(GF3, 1, (1,)))


@pytest.mark.invariant
def test_dual_matrix_checks_raise(monkeypatch):
    gamma = AffineMap(vec(GF3, (1,)), Mat(GF3, [[2]]))
    kappa = dual_matrix(gamma)
    # every matrix "inverts" to the identity, which is wrong for A = 2
    monkeypatch.setattr(homog, "mat_invert",
                        lambda M: Mat.identity(M.field, M.nrows))
    with pytest.raises(InvariantViolation, match="is not the inverse"):
        dual_matrix(gamma)
    with pytest.raises(InvariantViolation, match="is not the preimage of"):
        dual_matrix_preimage(kappa)


@pytest.mark.invariant
def test_drop_check_raises(monkeypatch):
    monkeypatch.setattr(homog, "is_nondegenerate", lambda Q: False)
    with pytest.raises(InvariantViolation, match="^drop of a1\\^2 is "):
        drop(QForm.from_upper(GF3, 2, (0, 0, 1)))


@pytest.mark.invariant
def test_motion_group_check_raises(monkeypatch):
    # the translations read two equal vectors, so the stack repeats rows.
    # The orbit table is built first, from the true vectors
    Q = QForm.from_upper(GF3, 1, (1,))
    motion_group_dual(Q, False)
    real = groups.vectors_np
    monkeypatch.setattr(groups, "vectors_np",
                        lambda field, n: real(field, n)[[0, 0, 2]])
    with pytest.raises(InvariantViolation, match="has repeated elements"):
        motion_group_dual(Q, False)


@pytest.mark.invariant
@pytest.mark.parametrize("name,wrong,match", [
    ("is_isometry", lambda Q, A: False, "is no isometry"),
    ("radical_basis", lambda Q: [vec(Q.field, (1, 0))], "moves the radical"),
    ("polar_apply", lambda Q, r, p: Q.field.one, "must stay fixed")],
    ids=["isometry", "radical", "axis-point"])
def test_affine_reflection_checks_raise(name, wrong, match, monkeypatch):
    # x1^2 + x2^2 over GF(3), the axis point o and the direction e1
    monkeypatch.setattr(homog, name, wrong)
    with pytest.raises(InvariantViolation, match=match):
        affine_reflection(QForm.from_upper(GF3, 2, (1, 0, 1)), (0, 0), (1, 0))
