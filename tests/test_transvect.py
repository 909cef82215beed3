"""Rank-one maps x |-> x + <a*,x> f and their orthogonal intersections."""

import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_affine.fields import GF2, GF3, GF5
from metric_affine.linalg import Mat, pairing, vec
from metric_affine.quadform import QForm, all_vectors, enumerate_forms
from metric_affine.transvect import (COND_BINARY_PLANE, COND_DIM_ONE,
                                     COND_RADICAL_LINE, KIND_DILATATION,
                                     KIND_IDENTITY, KIND_TRANSVECTION,
                                     NotInvertible,
                                     annihilator_transvections_in_weak,
                                     classify_direction, delta_group,
                                     delta_make, delta_orth,
                                     scaled_transvection_never_weak)


def nonzero_vectors(field, n):
    return [v for v in all_vectors(field, n)
            if any(c != field.zero for c in v)]


def test_delta_make_kinds():
    f = vec(GF3, (1, 0))
    assert delta_make(vec(GF3, (0, 0)), f).kind == KIND_IDENTITY
    t = delta_make(vec(GF3, (0, 1)), f)          # <a*,f> = 0
    assert t.kind == KIND_TRANSVECTION
    assert t.matrix == Mat(GF3, [[1, 1], [0, 1]])
    d = delta_make(vec(GF3, (1, 0)), f)          # <a*,f> = 1
    assert d.kind == KIND_DILATATION
    assert d.matrix == Mat(GF3, [[2, 0], [0, 1]])


def test_delta_make_rejects_pairing_minus_one():
    with pytest.raises(NotInvertible):
        delta_make(vec(GF3, (2, 0)), vec(GF3, (1, 0)))
    # over GF(2), -1 = 1, so <a*,f> = 1 is already the bad case
    with pytest.raises(NotInvertible):
        delta_make(vec(GF2, (1, 0)), vec(GF2, (1, 0)))


@given(st.sampled_from(nonzero_vectors(GF5, 2)),
       st.sampled_from(list(all_vectors(GF5, 2))))
def test_delta_matrix_acts_as_formula(fv, av):
    f, a = vec(GF5, fv), vec(GF5, av)
    if pairing(a, f) == GF5.neg(GF5.one):
        with pytest.raises(NotInvertible):
            delta_make(a, f)
        return
    m = delta_make(a, f).matrix
    for xv in all_vectors(GF5, 2):
        x = vec(GF5, xv)
        t = pairing(a, x)
        want = vec(GF5, tuple(GF5.add(xi, GF5.mul(t, fi))
                              for xi, fi in zip(xv, fv)))
        assert m * x == want


@pytest.mark.parametrize("F,n", [(GF2, 2), (GF3, 2), (GF3, 1), (GF5, 2)])
def test_delta_group_order_and_axioms(F, n):
    f = vec(F, (1,) + (0,) * (n - 1))
    g = delta_group(F, n, f)
    q = F.order
    assert g.order == q ** n - q ** (n - 1)
    assert g.verify_axioms()


def test_delta_group_rejects_zero_direction():
    with pytest.raises(ValueError):
        delta_group(GF3, 2, (0, 0))


# per (field, dim): how many of the form x direction pairs land in each of
# the four position cases, exhaustively (the size predictions themselves are
# asserted inside classify_direction on every call)
LETTER_TALLIES = {
    (GF2.name, 1): {"c": 1, "d": 1},
    (GF2.name, 2): {"a": 6, "b": 6, "c": 6, "d": 6},
    (GF3.name, 1): {"a": 4, "d": 2},
    (GF3.name, 2): {"a": 144, "b": 48, "d": 24},  # no case c in odd char
}


@pytest.mark.parametrize("F,n", [(GF2, 1), (GF2, 2), (GF3, 1), (GF3, 2)])
def test_direction_case_tallies(F, n):
    tally = Counter()
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            tally[classify_direction(Q, fv).letter] += 1
    assert dict(tally) == LETTER_TALLIES[(F.name, n)]


def test_case_c_impossible_in_odd_characteristic():
    # f in rad(B) forces 2 Q(f) = B(f, f) = 0, so Q(f) = 0 when char != 2
    for Q in enumerate_forms(GF3, 2):
        for fv in nonzero_vectors(GF3, 2):
            assert classify_direction(Q, fv).letter != "c"


def test_case_a_intersection_is_identity_and_reflection():
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    go, gw = delta_orth(Q, (1, 0))
    assert go.order == 2 and gw.order == 2
    refl = Mat(GF3, [[2, 0], [0, 1]])  # negate e1, fix its perp
    assert refl in go


# exhaustive sufficient-condition tallies for the annihilator transvections:
# (answer, tag) -> count over all nonzero (Q, f) pairs
ANNIH_TALLIES = {
    (GF2.name, 1): {(True, COND_DIM_ONE): 1, (True, COND_RADICAL_LINE): 1},
    (GF2.name, 2): {(False, None): 18, (True, COND_BINARY_PLANE): 6},
    (GF3.name, 1): {(True, COND_DIM_ONE): 4, (True, COND_RADICAL_LINE): 2},
    (GF3.name, 2): {(False, None): 200, (True, COND_RADICAL_LINE): 16},
}


@pytest.mark.parametrize("F,n", [(GF2, 1), (GF2, 2), (GF3, 1), (GF3, 2)])
def test_annihilator_condition_tallies(F, n):
    tally = Counter()
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            tally[annihilator_transvections_in_weak(Q, fv)] += 1
    assert dict(tally) == ANNIH_TALLIES[(F.name, n)]


def test_annihilator_spot_cases():
    # radical line: Q = x1^2 over GF(3) in two variables, f spanning rad(B)
    assert annihilator_transvections_in_weak(
        QForm.from_upper(GF3, 2, (1, 0, 0)), (0, 1)) == (True,
                                                         COND_RADICAL_LINE)
    # the anisotropic binary plane admits every annihilator transvection
    assert annihilator_transvections_in_weak(
        QForm.from_upper(GF2, 2, (1, 1, 1)), (1, 0)) == (True,
                                                         COND_BINARY_PLANE)
    # generic failure: the shear x1 -> x1 + c x2 moves x1^2 + x2^2
    assert annihilator_transvections_in_weak(
        QForm.from_upper(GF3, 2, (1, 0, 1)), (1, 0)) == (False, None)


@given(st.sampled_from(enumerate_forms(GF3, 2)),
       st.sampled_from(nonzero_vectors(GF3, 2)))
@settings(max_examples=60, deadline=None)
def test_scaled_transvections_stay_outside_property(Q, fv):
    assert scaled_transvection_never_weak(Q, fv)


@pytest.mark.parametrize("F,n", [(GF2, 2), (GF3, 1), (GF5, 1), (GF5, 2)])
def test_scaled_transvections_stay_outside_exhaustive(F, n):
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            assert scaled_transvection_never_weak(Q, fv)


@pytest.mark.parametrize("F,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1),
                                 (GF3, 2)])
def test_table_route_matches_brute_force(F, n):
    # budget 1 puts GL past the budget, so every map is tested on its own;
    # the default budget reads the per-(field, dim) orbit table
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            assert delta_orth(Q, fv, budget=1) == delta_orth(Q, fv)
            assert (classify_direction(Q, fv, budget=1)
                    == classify_direction(Q, fv))
            assert (annihilator_transvections_in_weak(Q, fv, budget=1)
                    == annihilator_transvections_in_weak(Q, fv))
            assert (scaled_transvection_never_weak(Q, fv, budget=1)
                    == scaled_transvection_never_weak(Q, fv))


_WRONG_SIZE_CHILD = textwrap.dedent("""
    import sys
    from metric_affine import transvect
    from metric_affine.fields import GF3
    from metric_affine.groups import GroupSet, InvariantViolation
    from metric_affine.quadform import QForm

    def no_maps(Q, f, budget=None):
        empty = GroupSet(Q.field, Q.n, [])
        return empty, empty

    transvect.delta_orth = no_maps
    try:
        # x1 x2 and the isotropic f = e1: case "b", predicted sizes (1, 1)
        transvect.classify_direction(QForm.from_upper(GF3, 2, (0, 1, 0)),
                                     (1, 0))
    except InvariantViolation:
        print("optimize=%d raised" % sys.flags.optimize)
    else:
        print("optimize=%d passed" % sys.flags.optimize)
""")


def test_size_check_survives_optimized_interpreter():
    # python -O strips assert statements; the lemma checks raise explicitly
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", _WRONG_SIZE_CHILD],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "optimize=1 raised\n"
