"""Rank-one maps x |-> x + <a*,x> f and their orthogonal intersections."""

import functools
import os
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import verify_axioms
from metric_affine import groups, transvect
from metric_affine.budget import (DEFAULT_BUDGET, BadBudgetVariable,
                                  BudgetExceeded, InvariantViolation)
from metric_affine.fields import GF2, GF3, GF4, GF5, GF7, QQ
from metric_affine.groups import (GroupSet, _reflections_np, form_block_np,
                                  form_values_np, mat_to_np, matrix_codes,
                                  orthogonal_group, polar_images_np, values_np,
                                  weak_orthogonal_group)
from metric_affine.linalg import Mat, pairing, span_contains, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    is_isometry, qf_eval, radical_basis,
                                    reflection)
from metric_affine.transvect import (COND_BINARY_PLANE, COND_DIM_ONE,
                                     COND_RADICAL_LINE, KIND_DILATATION,
                                     KIND_IDENTITY, KIND_TRANSVECTION,
                                     DirectionCase, NotInvertible,
                                     annihilator_transvections_in_weak,
                                     classify_direction, delta_group,
                                     delta_make,
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
    assert verify_axioms(g)


BAD_DIRECTIONS = [((0, 0), (0, 0)), ((3, 0), (0, 0)),
                  ((1, 0, 0), (1, 0, 0)), ((1,), (1,))]


@pytest.mark.invariant
def test_delta_group_rejects_zero_direction():
    # the same check, and message, as the lemma functions below
    for bad, read in BAD_DIRECTIONS:
        with pytest.raises(ValueError) as refused:
            delta_group(GF3, 2, bad)
        assert str(refused.value) == ("the direction must be a non-zero "
                                      "vector of F^2, got %r" % (read,))


@pytest.mark.invariant
@pytest.mark.parametrize("budget", [None, 1])
def test_lemma_functions_reject_a_zero_or_misshapen_direction(budget):
    # the direction is checked before the budget, so a budget the map
    # table does not fit refuses it alike
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    for bad, read in BAD_DIRECTIONS:
        for check in (classify_direction, annihilator_transvections_in_weak,
                      scaled_transvection_never_weak):
            with pytest.raises(ValueError) as refused:
                check(Q, bad, budget)
            assert str(refused.value) == ("the direction must be a non-zero "
                                          "vector of F^2, got %r" % (read,))


LEMMA_FUNCTIONS = (classify_direction, annihilator_transvections_in_weak,
                   scaled_transvection_never_weak)


def _lemma_answers(Q, f, budget):
    """What each lemma function gives for (Q, f): its answer, or the message
    of the BudgetExceeded it raises."""
    got = []
    for check in LEMMA_FUNCTIONS:
        try:
            got.append(check(Q, f, budget))
        except BudgetExceeded as exc:
            got.append(str(exc))
    return got


@pytest.mark.parametrize("budget", [None, 1])
def test_every_spelling_of_a_direction_gets_the_same_answers(budget):
    # a tuple, a list, a vec column, an alias read modulo 3, such as (4, -1)
    # for (1, 2), numpy ints and, for 0/1 entries, bools name the same f;
    # budget 1 refuses every spelling
    for Q in enumerate_forms(GF3, 2):
        for x in nonzero_vectors(GF3, 2):
            spellings = [x, list(x), vec(GF3, x), (x[0] + 3, x[1] - 3),
                         tuple(map(np.int64, x)), tuple(map(np.uint8, x))]
            if max(x) == 1:
                spellings.append(tuple(map(bool, x)))
            got = [_lemma_answers(Q, f, budget) for f in spellings]
            assert got == got[:1] * len(spellings), (Q, x)
            refused = [a for a in got[0] if isinstance(a, str)]
            assert len(refused) == (0 if budget is None else 3), (Q, x)


# (1.0, 0) and (Fraction(1), 0) compare and hash like (1, 0), the index
# key of a vector of F^2, and ([1], 0) cannot be hashed
REFUSED_DIRECTIONS = [(GF3, (1.0, 0)), (GF3, (Fraction(1), 0)),
                      (GF3, ("1", 0)), (GF3, ([1], 0)), (GF3, (0, 0)),
                      (GF3, (1, 0, 0)), (GF4, (5, 4))]


@pytest.mark.invariant
@pytest.mark.parametrize("budget", [None, 1])
def test_refused_directions_raise_alike_on_a_cold_and_a_warm_memo(budget,
                                                                  cold_memo):
    for F, bad in REFUSED_DIRECTIONS:
        Q = QForm.from_upper(F, 2, (1, 0, 1))
        with pytest.raises(ValueError) as want:   # the coerce route
            transvect._direction(F, 2, bad)
        for warm in (False, True):
            cold_memo.clear()
            if warm:
                classify_direction(Q, (1, 0))
            for check in LEMMA_FUNCTIONS:
                with pytest.raises(Exception) as got:
                    check(Q, bad, budget)
                assert type(got.value) is ValueError, (bad, warm)
                assert str(got.value) == str(want.value), (bad, warm)


@pytest.mark.invariant
@pytest.mark.parametrize("bad", [Fraction(7, 2), Fraction(1), 2.9, 1.0, "1"],
                         ids=repr)
def test_finite_fields_refuse_entries_that_are_not_integers(bad):
    # int() used to read these as 3, 1, 2, 1 and 1
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    classify_direction(Q, (1, 0))       # the direction index is built
    reads = [functools.partial(vec, GF3, (bad, 0)),
             functools.partial(QForm.from_upper, GF3, 2, (bad, 0, 1))]
    for call in reads + [functools.partial(check, Q, (bad, 0))
                         for check in LEMMA_FUNCTIONS]:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == ("GF(3) elements are integers, got %r"
                                      % (bad,))
    # numpy ints and bools are integers
    assert vec(GF5, (np.uint8(7), True)) == vec(GF5, (2, 1))
    assert QForm.from_upper(GF5, 1, [np.int64(-1)]).upper_coeffs() == (4,)


@pytest.mark.invariant
def test_the_budget_gate_holds_on_warm_reads(cold_memo, monkeypatch):
    # a cold read at the default budget memoises Q's record; a budget the
    # 88 map rows of GF(3)^2 do not fit still refuses every warm read, and
    # the variable is read on each, so a malformed one is refused too
    Q, f = QForm.from_upper(GF3, 2, (1, 0, 1)), (1, 2)
    monkeypatch.delenv("METRIC_AFFINE_BUDGET", raising=False)
    assert classify_direction(Q, f).letter == "a"
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "5")
    for check in LEMMA_FUNCTIONS:
        with pytest.raises(BudgetExceeded) as refused:
            check(Q, f)
        assert (refused.value.required, refused.value.budget) == (88, 5)
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "ten")
    for check in LEMMA_FUNCTIONS:
        with pytest.raises(BadBudgetVariable, match="got 'ten'"):
            check(Q, f)


@pytest.mark.invariant
def test_warm_lemma_reads_see_every_change_to_the_variable(cold_memo,
                                                           monkeypatch):
    # the variable is read on every warm read, however it was changed
    # since the last: monkeypatch.setenv, os.environ[...] = or del
    Q, f = QForm.from_upper(GF3, 2, (1, 0, 1)), (1, 2)

    def reads(budget):
        """Each lemma query on (Q, f) answers if its 88 map rows fit the
        budget, and is refused at that budget if not."""
        for check in LEMMA_FUNCTIONS:
            if budget >= 88:
                check(Q, f)
                continue
            with pytest.raises(BudgetExceeded) as refused:
                check(Q, f)
            assert (refused.value.required, refused.value.budget) == (
                88, budget)
    monkeypatch.delenv("METRIC_AFFINE_BUDGET", raising=False)
    reads(DEFAULT_BUDGET)                   # cold, then warm
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "87")
    reads(87)
    os.environ["METRIC_AFFINE_BUDGET"] = "5"
    reads(5)
    del os.environ["METRIC_AFFINE_BUDGET"]
    reads(DEFAULT_BUDGET)
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "88")
    reads(88)
    monkeypatch.delenv("METRIC_AFFINE_BUDGET")
    reads(DEFAULT_BUDGET)


def test_lemma_queries_memoise_one_table_per_field_and_dim(cold_memo):
    # the records of every form of GF(3)^2 and the index of its vectors
    # share one memo entry, next to the map table and the groups helpers
    for Q in enumerate_forms(GF3, 2):
        for x in nonzero_vectors(GF3, 2):
            classify_direction(Q, x)
    lemma_keys = [key for key in cold_memo if key[1:3] == ("GF(3)", 2)
                  and key[0] != "_rank_one_maps"
                  and not hasattr(groups, key[0])]
    assert lemma_keys == [("_lemma_table", "GF(3)", 2)]
    assert len(cold_memo[lemma_keys[0]][2]) == 27     # the records


@pytest.mark.parametrize("budget", [None, 1])
def test_lemma_functions_name_the_first_bad_coordinate(budget):
    # over GF(4) both 5 and 4 are outside the codes 0..3; 5 comes first
    Q = QForm.from_upper(GF4, 2, (1, 0, 1))
    for check in LEMMA_FUNCTIONS:
        with pytest.raises(ValueError) as refused:
            check(Q, (5, 4), budget)
        assert str(refused.value) == "GF(4) elements are coded 0..3, got 5"


@pytest.mark.parametrize("budget", [None, 1])
def test_lemma_functions_refuse_a_form_over_the_rationals(budget):
    Q = QForm.from_upper(QQ, 2, (1, 0, 1))
    for check in LEMMA_FUNCTIONS:
        with pytest.raises(NotImplementedError):
            check(Q, (1, 0), budget)


def test_lemmas_enumerate_no_gl(cold_memo):
    # the lemmas need no group larger than the rank-one maps they are about:
    # no orthogonal group at all, so not GL, the zero form's
    classify_direction(QForm.from_upper(GF3, 3, (1, 0, 0, 1, 0, 1)), (1, 0, 0))
    assert "orthogonal_group" not in {key[0] for key in cold_memo}


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


# The per-map route: each rank-one map of a pair (Q, f) built as a Mat and
# tested on its own against the definitions, an isometry through
# quadform.is_isometry and a weak one by fixing a radical basis.  It was
# the library's route past the GL budget; it is the oracle for the table.

def _fixes_radical(rad, A):
    return all(A * r == r for r in rad)


def _delta_maps(field, n, f):
    """(a*, I + f a*^T) for every a* with <a*, f> != -1."""
    minus_one = field.neg(field.one)
    duals = [vec(field, a) for a in all_vectors(field, n)]
    return [(a, delta_make(a, f).matrix) for a in duals
            if pairing(a, f) != minus_one]


def delta_orth(Q, f):
    """(Delta ∩ O(Q), Delta ∩ O'(Q)), each map of Delta tested alone."""
    field, n = Q.field, Q.n
    if not isinstance(f, Mat):
        f = vec(field, f)
    rad = radical_basis(Q)
    isos = [A for _a, A in _delta_maps(field, n, f) if is_isometry(Q, A)]
    return (GroupSet.from_mats(field, n, isos),
            GroupSet.from_mats(field, n, [A for A in isos
                                          if _fixes_radical(rad, A)]))


def _per_map_inputs(Q, fv):
    """_judge's inputs after (Q, f): radical membership, isotropy, the
    radical's dimension, the two sizes, the reflection test, and whether
    the annihilator transvections are all weak and their scalings none."""
    field, n = Q.field, Q.n
    f = vec(field, fv)
    rad = radical_basis(Q)
    in_rad = span_contains(rad, f)
    isotropic = qf_eval(Q, f) == field.zero
    go, gw = delta_orth(Q, f)
    trans = [(a, A) for a, A in _delta_maps(field, n, f)
             if pairing(a, f) == field.zero]
    scaled = [A.scale(s) for s in field.units() if s != field.one
              for a, A in trans if not a.is_zero()]

    def weak(A):
        return is_isometry(Q, A) and _fixes_radical(rad, A)
    return (in_rad, isotropic, len(rad), go.order, gw.order,
            isotropic or in_rad or reflection(Q, f) in go,
            all(weak(A) for _a, A in trans), not any(map(weak, scaled)))


@pytest.mark.parametrize("F,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1),
                                 (GF3, 2), (GF4, 1), (GF5, 1)])
def test_table_route_matches_brute_force(F, n, cold_memo):
    # every pair's facts, as the table route packs them for _judge, against
    # the same facts from each map tested alone, and every pair's answers,
    # built cold, against _judge's on the per-map facts
    maps = transvect._rank_one_maps(F, n)
    forms = F.order ** (n * (n + 1) // 2)
    pairs = 0
    for start in range(0, forms, transvect._block_forms(maps)):
        W, facts = transvect._block_facts(F, n, maps, start)
        for coeffs, *per_form in zip(W.tolist(),
                                     *(fact.tolist() for fact in facts)):
            Q = QForm.from_upper(F, n, coeffs)
            for fv, *got in zip(nonzero_vectors(F, n), *per_form):
                want = _per_map_inputs(Q, fv)
                assert tuple(got) == want, (Q, fv)
                assert (classify_direction(Q, fv),
                        annihilator_transvections_in_weak(Q, fv),
                        scaled_transvection_never_weak(Q, fv)) \
                    == transvect._judge(Q, fv, *want)
                pairs += 1
    assert pairs == forms * (F.order ** n - 1)


# The lemma functions as they were before the per-form record: every pair
# made its own span_contains, qf_eval and reflection calls, tested each
# element of Delta_f against O(Q) and O'(Q), both filtered out of GL, one
# code at a time, and tested its annihilator transvections against O'(Q)
# the same way.

@functools.lru_cache(maxsize=None)
def _group_keys(Q):
    """The codes of O(Q) and O'(Q), and a radical basis of Q."""
    return (frozenset(orthogonal_group(Q).elems.tolist()),
            frozenset(weak_orthogonal_group(Q).elems.tolist()),
            radical_basis(Q))


def _per_pair_classify_direction(Q, fv):
    f = vec(Q.field, fv)
    field, n = Q.field, Q.n
    q = field.order
    o_keys, w_keys, rad = _group_keys(Q)
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
    return DirectionCase(letter=letter, predicted=predicted)


def _code(A):
    return int(matrix_codes(A.field, mat_to_np(A)))


@functools.lru_cache(maxsize=None)
def _annihilator_keys(field, n, fv):
    """Codes of I + f a*^T over every a* with <a*, f> = 0, and of their
    scalings s not in {0, 1} for a* != o, by brute force over the duals."""
    f = vec(field, fv)
    maps = [(a, A) for a, A in _delta_maps(field, n, f)
            if pairing(a, f) == field.zero]
    return ([_code(A) for _a, A in maps],
            [_code(A.scale(s)) for s in field.units()
             if s != field.one for a, A in maps if not a.is_zero()])


def _per_pair_annihilator_transvections_in_weak(Q, fv):
    f = vec(Q.field, fv)
    field, n = Q.field, Q.n
    _o_keys, w_keys, rad = _group_keys(Q)
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
    w_keys = _group_keys(Q)[1]
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


def _map_rows(field, n):
    """_rank_one_maps's table built one map at a time from the field's
    scalar operations, as int64: for each f != o, the maps of a with
    <a, f> != -1, then those with <a, f> = 0, then s times those with a != o
    for each unit s != 1, each as the index of s (x + <a, x> f) for every x."""
    V = all_vectors(field, n)
    index = {x: i for i, x in enumerate(V)}
    minus_one = field.neg(field.one)

    def row(a, f, s=field.one):
        return [index[tuple(field.mul(s, field.add(xi, field.mul(
            field.dot(a, x), fi))) for xi, fi in zip(x, f))] for x in V]
    table = []
    for f in V[1:]:
        annihilators = [a for a in V if field.dot(a, f) == field.zero]
        table.append([row(a, f) for a in V if field.dot(a, f) != minus_one]
                     + [row(a, f) for a in annihilators]
                     + [row(a, f, s) for s in field.units()
                        if s != field.one for a in annihilators[1:]])
    return np.array(table, dtype=np.int64)


def _map_views(field, n, table):
    """The two views of table that _rank_one_maps keeps: its columns at
    e_i and e_i + e_j (i <= j), and per map the vectors it moves."""
    V = all_vectors(field, n)
    index = {x: i for i, x in enumerate(V)}
    S = [index[tuple(field.one if k in (i, j) else field.zero
                     for k in range(n))]
         for i in range(n) for j in range(i, n)]
    return table[..., S], (table != np.arange(len(V))).reshape(-1, len(V))


@pytest.mark.parametrize("F,n", RECORD_SIZES,
                         ids=lambda v: getattr(v, "name", v))
def test_map_table_is_int16_and_matches_an_int64_build(F, n):
    narrow, moved, _slot = transvect._rank_one_maps(F, n)
    assert narrow.dtype == np.int16 and moved.dtype == bool
    for got, want in zip((narrow, moved), _map_views(F, n, _map_rows(F, n))):
        assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("F", [GF2, GF3, GF4], ids=lambda F: F.name)
def test_lemma_record_refuses_dimension_zero(F, cold_memo):
    # F^0 has no direction f != o: a refusal naming the dimension and the
    # field, where the table build used to fail inside numpy
    with pytest.raises(ValueError,
                       match=re.escape("dimension 0 over %s" % F.name)):
        transvect.lemma_record(QForm.from_upper(F, 0, ()))
    with pytest.raises(ValueError, match="dimension 0"):
        transvect._rank_one_maps(F, 0)


@pytest.mark.parametrize("F,n", RECORD_SIZES,
                         ids=lambda v: getattr(v, "name", v))
def test_block_forms_match_from_upper(F, n):
    # the block builds its forms from the coefficient stack, uncoerced: each
    # equals the from_upper form, hashes alike and holds plain ints
    maps = transvect._rank_one_maps(F, n)
    forms, step = F.order ** (n * (n + 1) // 2), transvect._block_forms(maps)
    for start in range(0, forms, step):
        got = [R for R, _ in transvect._lemma_block(F, n, maps, start)]
        W = form_block_np(F, n, start, min(step, forms - start)).tolist()
        assert got == [QForm.from_upper(F, n, coeffs) for coeffs in W]
        for R, coeffs in zip(got, W):
            assert hash(R) == hash(QForm.from_upper(F, n, coeffs))
            assert {type(c) for row in R.gram.rows for c in row} == {int}


def _full_gather(field, n, table, vals, rad):
    """(iso, weak) from the full-vector gather, the oracle for _isometries:
    a map preserves a form when it preserves the form's value at every
    vector."""
    N = field.order ** n
    iso = (vals[:, table] == vals[:, np.newaxis, np.newaxis]).all(axis=3)
    moved = (table != np.arange(N)).reshape(-1, N)
    return iso, iso & ~(rad @ moved.T).reshape(iso.shape)


@pytest.mark.parametrize("F,n", RECORD_SIZES + [(GF7, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_narrow_gather_matches_full_gather(F, n):
    # the maps are tested on the n(n+1)/2 vectors e_i, e_i + e_j only; on
    # every form and every map, that gives the masks of all q^n vectors
    table = _map_rows(F, n)
    narrow, moved = _map_views(F, n, table)
    forms = F.order ** (n * (n + 1) // 2)
    step = max(1, 2 ** 21 // table.size)
    not_iso = iso_not_weak = 0
    for start in range(0, forms, step):
        W = form_block_np(F, n, start, min(step, forms - start))
        vals = values_np(F, n, W)
        rad = ~polar_images_np(F, n, W).any(axis=2)
        iso, weak = transvect._isometries(F, n, narrow, moved, vals, rad)
        want_iso, want_weak = _full_gather(F, n, table, vals, rad)
        assert (iso == want_iso).all() and (weak == want_weak).all()
        not_iso += (~want_iso).sum()
        iso_not_weak += (want_iso & ~want_weak).sum()
    # neither mask is vacuous past the line
    assert n == 1 or (not_iso and iso_not_weak)


@pytest.mark.parametrize("F,n", [(GF2, 3), (GF3, 2), (GF3, 3)],
                         ids=lambda v: getattr(v, "name", v))
def test_weak_mask_matches_the_boolean_product(F, n, monkeypatch):
    # _isometries counts the radical vectors each map moves by one float32
    # GEMM; on every block of a sweep, its weak mask equals the mask from
    # numpy's boolean product of the same tables
    real, forms = transvect._isometries, []

    def checked(field, n, narrow, moved, vals, rad):
        iso, weak = real(field, n, narrow, moved, vals, rad)
        want, deg = iso.copy(), rad[:, 1:].any(axis=1)
        want[deg] &= ~(rad[deg] @ moved.T).reshape(-1, *iso.shape[1:])
        assert weak.dtype == bool and (weak == want).all()
        forms.append(len(vals))
        return iso, weak
    monkeypatch.setattr(transvect, "_isometries", checked)
    for _ in transvect.lemma_records(F, n):
        pass
    assert sum(forms) == F.order ** (n * (n + 1) // 2)


# the (field, dim) sizes of perfbench's lemma-sweep
LEMMA_SWEEP_SIZES = [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1), (GF3, 2),
                     (GF3, 3), (GF5, 1), (GF5, 2)]


def test_lemma_blocks_are_sized_by_the_narrow_gather(cold_memo, monkeypatch):
    # forms x maps x n(n+1)/2 vectors per block stays within 2^21, and a
    # cold sweep of the lemma-sweep sizes builds 9 blocks, 2 of them for the
    # 729 forms of GF(3)^3
    real, builds = transvect.form_block_np, []

    def recording(field, n, start, k):
        narrow, _moved, _slot = transvect._rank_one_maps(field, n)
        builds.append((field.name, n, k, k * narrow.size))
        return real(field, n, start, k)
    monkeypatch.setattr(transvect, "form_block_np", recording)
    for F, n in LEMMA_SWEEP_SIZES:
        for Q in enumerate_forms(F, n):
            classify_direction(Q, (1,) + (0,) * (n - 1))
    assert Counter(build[:2] for build in builds) == Counter(
        {(F.name, n): 2 if (F, n) == (GF3, 3) else 1
         for F, n in LEMMA_SWEEP_SIZES})
    assert sum(build[2] for build in builds) == sum(
        F.order ** (n * (n + 1) // 2) for F, n in LEMMA_SWEEP_SIZES)
    assert max(build[3] for build in builds) <= 2 ** 21


def _no_isometries(real):
    def wrong(field, n, budget=None):
        # every map sends every vector to o, so none preserves a nonzero form
        narrow, moved, slot = real(field, n, budget)
        return (np.zeros_like(narrow),
                np.broadcast_to(np.arange(moved.shape[1]) > 0, moved.shape),
                slot)
    return wrong


def _wrong_sign(real):
    # the table c |-> c^-1 in place of c |-> -c^-1 over GF(p), so a = Q(f)^-1
    # Bf and the reflection is looked up as I + Q(f)^-1 f (Bf)^T
    return lambda field: (field.order - real(field)) % field.order


def _annihilators_outside_weak(real):
    def wrong(field, n, narrow, moved, vals, rad):
        iso, weak = real(field, n, narrow, moved, vals, rad)
        N = field.order ** n
        weak = weak.copy()
        weak[..., N - N // field.order:N] = False   # the annihilator maps
        return iso, weak
    return wrong


_ZERO_PLANE = QForm.zero(GF3, 2)
_X2_SQUARED = QForm.from_upper(GF3, 2, (0, 0, 1))
_ZERO_LINE = QForm.zero(GF3, 1)


@pytest.mark.invariant
@pytest.mark.parametrize("name,wrong,Q,f,raised", [
    # a query builds the records of its block of forms in enumerate_forms
    # order, so each case queries the first pair that fails.  The zero form
    # with f = e1 is case "d", predicted sizes (6, 1), where no map fixes
    # the radical any more
    ("_rank_one_maps", _no_isometries, _ZERO_PLANE, (1, 0),
     ("d", (6, 1), (6, 0), _ZERO_PLANE, (1, 0))),
    # x2^2 and the anisotropic f = e2: case "a", whose two maps are the
    # identity and the reflection along f
    ("neg_inverses_np", _wrong_sign, _X2_SQUARED, (0, 1),
     ("reflection along f not in Delta ∩ O(Q)", _X2_SQUARED, (0, 1))),
    # f spans the radical line of the zero form on a line, so every
    # annihilator transvection must be in O'
    ("_isometries", _annihilators_outside_weak, _ZERO_LINE, (1,),
     (_ZERO_LINE, (1,), False, COND_RADICAL_LINE))],
    ids=["sizes", "reflection", "condition-tag"])
def test_lemma_checks_raise(name, wrong, Q, f, raised, cold_memo,
                            monkeypatch):
    monkeypatch.setattr(transvect, name, wrong(getattr(transvect, name)))
    with pytest.raises(InvariantViolation) as exc:
        classify_direction(Q, f)
    assert exc.value.args == (raised,)
