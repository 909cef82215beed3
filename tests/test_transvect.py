"""Rank-one maps x |-> x + <a*,x> f and their orthogonal intersections."""

import functools
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_affine.fields import GF2, GF3, GF4, GF5
from metric_affine.groups import (_reflections_np, form_values_np, mat_to_np,
                                  matrix_codes)
from metric_affine.linalg import Mat, pairing, span_contains, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    qf_eval, reflection)
from metric_affine.transvect import (COND_BINARY_PLANE, COND_DIM_ONE,
                                     COND_RADICAL_LINE, KIND_DILATATION,
                                     KIND_IDENTITY, KIND_TRANSVECTION,
                                     DirectionCase, NotInvertible,
                                     _member_table,
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


@pytest.mark.parametrize("budget", [None, 1])
def test_lemma_functions_reject_a_zero_or_misshapen_direction(budget):
    # the direction is checked before the route is chosen, so the lookup
    # within the budget and the per-map route past it refuse alike
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    for bad, read in [((0, 0), (0, 0)), ((3, 0), (0, 0)),
                      ((1, 0, 0), (1, 0, 0)), ((1,), (1,))]:
        for check in (classify_direction, annihilator_transvections_in_weak,
                      scaled_transvection_never_weak):
            with pytest.raises(ValueError) as refused:
                check(Q, bad, budget)
            assert str(refused.value) == ("the direction must be a non-zero "
                                          "vector of F^2, got %r" % (read,))


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
                                 (GF3, 2), (GF4, 1), (GF5, 1)])
def test_table_route_matches_brute_force(F, n):
    # budget 1 puts GL past the budget, so every map is tested on its own;
    # the default budget reads the per-(field, dim) orbit table.  delta_orth
    # always tests each map, so its orders are held against the record's.
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            go, gw = delta_orth(Q, fv)
            assert (go.order, gw.order) == classify_direction(Q, fv).actual
            assert (classify_direction(Q, fv, budget=1)
                    == classify_direction(Q, fv))
            assert (annihilator_transvections_in_weak(Q, fv, budget=1)
                    == annihilator_transvections_in_weak(Q, fv))
            assert (scaled_transvection_never_weak(Q, fv, budget=1)
                    == scaled_transvection_never_weak(Q, fv))


# The lemma functions as they were before the per-form record: every pair
# made its own span_contains, qf_eval and reflection calls, tested each
# element of Delta_f against O(Q) and O'(Q) one code at a time (the
# in-budget route delta_orth took), and tested its annihilator transvections
# against O'(Q) the same way.

def _per_pair_classify_direction(Q, fv):
    f = vec(Q.field, fv)
    field, n = Q.field, Q.n
    q = field.order
    o_keys, w_keys, rad = _member_table(field, n)[Q.gram.rows]
    k = len(rad)
    in_rad = span_contains(rad, f)
    isotropic = qf_eval(Q, f) == field.zero
    if not in_rad:
        letter = "b" if isotropic else "a"
        predicted = (1, 1) if isotropic else (2, 2)
    elif isotropic:
        letter, predicted = "d", ((q - 1) * q ** (n - 1), q ** (n - k))
    else:
        letter, predicted = "c", (1, 1)
    in_o = [c for c in delta_group(field, n, f).elems.tolist()
            if c in o_keys]
    actual = (len(in_o), sum(c in w_keys for c in in_o))
    assert actual == predicted
    assert letter != "a" or _code(reflection(Q, f)) in in_o
    return DirectionCase(letter=letter, in_radical=in_rad,
                         isotropic=isotropic, predicted=predicted,
                         actual=actual)


def _code(A):
    return int(matrix_codes(A.field, mat_to_np(A)))


@functools.lru_cache(maxsize=None)
def _annihilator_keys(field, n, fv):
    """Codes of I + f a*^T over every a* with <a*, f> = 0, and of their
    scalings s not in {0, 1} for a* != o, by brute force over the duals."""
    f = vec(field, fv)
    duals = [vec(field, a) for a in all_vectors(field, n)]
    maps = [(a, delta_make(a, f).matrix) for a in duals
            if pairing(a, f) == field.zero]
    return ([_code(A) for _a, A in maps],
            [_code(A.scale(s)) for s in field.units()
             if s != field.one for a, A in maps if not a.is_zero()])


def _per_pair_annihilator_transvections_in_weak(Q, fv):
    f = vec(Q.field, fv)
    field, n = Q.field, Q.n
    _o_keys, w_keys, rad = _member_table(field, n)[Q.gram.rows]
    inside = all(k in w_keys for k in _annihilator_keys(field, n, fv)[0])
    tag = None
    if qf_eval(Q, f) == field.zero and len(rad) == 1 and span_contains(rad, f):
        tag = COND_RADICAL_LINE
    elif n == 1:
        tag = COND_DIM_ONE
    elif (n == 2 and qf_eval(Q, f) != field.zero and not rad
          and field.order == 2):
        tag = COND_BINARY_PLANE
    assert inside == (tag is not None)
    return inside, tag


def _per_pair_scaled_transvection_never_weak(Q, fv):
    w_keys = _member_table(Q.field, Q.n)[Q.gram.rows][1]
    return not any(k in w_keys
                   for k in _annihilator_keys(Q.field, Q.n, fv)[1])


RECORD_SIZES = ([(F, n) for F in (GF2, GF3) for n in (1, 2, 3)]
                + [(F, n) for F in (GF4, GF5) for n in (1, 2)])


@pytest.mark.parametrize("F,n", RECORD_SIZES,
                         ids=lambda v: getattr(v, "name", v))
def test_form_record_matches_per_pair_route(F, n):
    for Q in enumerate_forms(F, n):
        for fv in nonzero_vectors(F, n):
            assert (classify_direction(Q, fv)
                    == _per_pair_classify_direction(Q, fv))
            assert (annihilator_transvections_in_weak(Q, fv)
                    == _per_pair_annihilator_transvections_in_weak(Q, fv))
            assert (scaled_transvection_never_weak(Q, fv)
                    == _per_pair_scaled_transvection_never_weak(Q, fv))


@pytest.mark.parametrize("F,n", RECORD_SIZES,
                         ids=lambda v: getattr(v, "name", v))
def test_reflection_stack_matches_quadform(F, n):
    for Q in enumerate_forms(F, n):
        vals = form_values_np(Q)
        stack = _reflections_np(Q, vals)
        for idx, fv in enumerate(all_vectors(F, n)):
            if vals[idx]:
                assert (stack[idx] == mat_to_np(reflection(Q, fv))).all()


_OPTIMIZED_CHILD = textwrap.dedent("""
    import sys
    from metric_affine import transvect
    from metric_affine.fields import GF3
    from metric_affine.groups import InvariantViolation
    from metric_affine.quadform import QForm

    real_table = transvect._member_table
    real_reflections = transvect._reflections_np

    def no_isometries(field, n, budget=None):
        # every form's O and O' read as empty, radicals kept
        return {rows: (frozenset(), frozenset(), rad)
                for rows, (_o, _w, rad) in real_table(field, n, budget).items()}

    def wrong_sign(Q, vals):
        # I + Q(f)^-1 f (Bf)^T in place of I - Q(f)^-1 f (Bf)^T
        return real_reflections(Q, (Q.field.order - vals) % Q.field.order)

    transvect.NAME = PATCH
    try:
        transvect.classify_direction(QForm.from_upper(GF3, 2, COEFFS), (1, 0))
    except InvariantViolation as e:
        print("optimize=%d raised %s" % (sys.flags.optimize, e.args[0][0]))
    else:
        print("optimize=%d passed" % sys.flags.optimize)
""")


def _optimized_child(name, patch, coeffs):
    """The child above with transvect.name replaced by patch, run on the
    GF(3) plane form with these upper coefficients and f = e1."""
    return (_OPTIMIZED_CHILD.replace("NAME", name).replace("PATCH", patch)
            .replace("COEFFS", repr(coeffs)))


def test_size_check_survives_optimized_interpreter(run_optimized):
    # python -O strips assert statements; the lemma checks raise explicitly.
    # x1 x2 and the isotropic f = e1: case "b", predicted sizes (1, 1)
    child = _optimized_child("_member_table", "no_isometries", (0, 1, 0))
    assert run_optimized(child) == "optimize=1 raised b\n"


def test_reflection_check_survives_optimized_interpreter(run_optimized):
    # x1^2 + x2^2 and the anisotropic f = e1: case "a", whose two maps are
    # the identity and the reflection along f
    child = _optimized_child("_reflections_np", "wrong_sign", (1, 0, 1))
    assert (run_optimized(child) == "optimize=1 raised reflection along f "
            "not in Delta ∩ O(Q)\n")
