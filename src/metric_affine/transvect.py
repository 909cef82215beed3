"""Rank-one modifications of the identity: x |-> x + <c*, x> f.

For a dual vector c* and a vector f, the map above is a bijection exactly
when <c*, f> != -1; it is called a transvection when <c*, f> = 0 and a
dilatation otherwise.  For fixed f != o, all these maps (over all admissible
c*) form a subgroup Delta of GL(V).  This module builds those maps and
groups, intersects them with the orthogonal and weak orthogonal group of a
form, and verifies the exhaustive classification of the possible
intersection sizes in terms of where the direction vector f sits relative
to the radical and the null set of Q.

Within the budget, the lemmas are verified once per form for every
direction f at once (_lemma_record), and each (Q, f) query is then a
lookup by the vector index of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (GroupSet, InvariantViolation, _reflections_np,
                     check_budget, congruence_decomposition, form_values_np,
                     group_budget, groups_by_orbit, matmul_np, matrix_codes,
                     memo, order_gl, orthogonal_group, vector_index_np,
                     vectors_np, weak_orthogonal_group)
from .linalg import Mat, outer, pairing, span_contains, vec
from .quadform import (all_vectors, is_isometry, qf_eval, radical_basis,
                       reflection)


class NotInvertible(Exception):
    """Raised when <c*, f> = -1, where x |-> x + <c*,x> f kills f."""


KIND_IDENTITY = "identity"
KIND_TRANSVECTION = "transvection"
KIND_DILATATION = "dilatation"


@dataclass(frozen=True)
class DeltaMap:
    """A map x |-> x + <cstar, x> f, stored with its matrix I + f cstar^T."""

    cstar: Mat
    f: Mat
    matrix: Mat
    kind: str


def delta_make(cstar, f):
    """Build the rank-one map for the pair (cstar, f); NotInvertible if
    <cstar, f> = -1."""
    field = cstar.field
    t = pairing(cstar, f)
    if t == field.neg(field.one):
        raise NotInvertible("<c*, f> = -1 for c*=%r, f=%r"
                            % (cstar.entries(), f.entries()))
    matrix = Mat.identity(field, f.nrows) + outer(f, cstar)
    if matrix.is_identity():
        kind = KIND_IDENTITY
    elif t == field.zero:
        kind = KIND_TRANSVECTION
    else:
        kind = KIND_DILATATION
    return DeltaMap(cstar=cstar, f=f, matrix=matrix, kind=kind)


def _all_duals(field, n):
    return [vec(field, a) for a in all_vectors(field, n)]


def _delta_matrices(field, n, f):
    """The matrices of x |-> x + <a*,x> f over every a* with <a*,f> != -1,
    for a direction f != o given as a column."""
    if f.is_zero():
        raise ValueError("the direction vector must be non-zero")
    minus_one = field.neg(field.one)
    return [delta_make(a, f).matrix for a in _all_duals(field, n)
            if pairing(a, f) != minus_one]


def delta_group(field, n, f):
    """The subgroup {x |-> x + <a*,x> f : <a*,f> != -1} of GL(V), f != o.

    Its order is the number of admissible duals a*, which is q^n - q^(n-1).
    """
    if not isinstance(f, Mat):
        f = vec(field, f)
    return memo(("delta_group", field.name, n, f.entries()),
                lambda: GroupSet.from_mats(field, n,
                                           _delta_matrices(field, n, f)))


def _fixes_radical(rad, A):
    return all(A * r == r for r in rad)


def _member_table(field, n, budget=None):
    """Q.gram.rows -> (O(Q) codes, O'(Q) codes, radical basis of Q) for every
    form Q on F^n, built one congruence orbit at a time.  Memoised.

    The sweeps below revisit the same Q for many directions f; testing
    membership against these code sets is far cheaper than re-deriving the
    isometry property matrix by matrix.
    """
    check_budget(field, n, budget)

    def build():
        forms, _orbits = congruence_decomposition(field, n, budget)
        o_groups = groups_by_orbit(field, n, orthogonal_group, budget)
        w_groups = groups_by_orbit(field, n, weak_orthogonal_group, budget)
        return {Q.gram.rows: (frozenset(o.elems.tolist()),
                              frozenset(w.elems.tolist()),
                              tuple(radical_basis(Q)))
                for Q, o, w in zip(forms, o_groups, w_groups)}
    return memo(("_member_table", field.name, n), build)


def _in_budget(field, n, budget):
    """Does all of GL_n fit the budget?  If not, each map is tested alone."""
    budget = group_budget() if budget is None else budget
    return field.enumerable and order_gl(n, field.order) <= budget


def delta_orth(Q, f):
    """(Delta ∩ O(Q), Delta ∩ O'(Q)), by testing each map of the small
    group Delta (at most q^n maps) rather than filtering GL."""
    field, n = Q.field, Q.n
    if not isinstance(f, Mat):
        f = vec(field, f)
    rad = radical_basis(Q)
    isos = [A for A in _delta_matrices(field, n, f) if is_isometry(Q, A)]
    return (GroupSet.from_mats(field, n, isos),
            GroupSet.from_mats(field, n, [A for A in isos
                                          if _fixes_radical(rad, A)]))


@dataclass(frozen=True)
class DirectionCase:
    """Where f sits (radical membership x isotropy) and the resulting sizes.

    letter: "a" f outside the radical, Q(f) != 0   -> sizes (2, 2)
            "b" f outside the radical, Q(f) == 0   -> sizes (1, 1)
            "c" f inside the radical,  Q(f) != 0   -> sizes (1, 1)
            "d" f inside the radical,  Q(f) == 0   -> sizes
                ((q-1) q^(n-1), q^(n-k)) with k = dim radical
    """

    letter: str
    in_radical: bool
    isotropic: bool
    predicted: tuple
    actual: tuple


COND_RADICAL_LINE = "isotropic-f-spans-radical"
COND_DIM_ONE = "dim-1"
COND_BINARY_PLANE = "gf2-anisotropic-nondegenerate-plane"


def _annihilator_duals(field, n, f):
    """All duals vanishing on f, in all_vectors order."""
    return memo(("_annihilator_duals", field.name, n, f.entries()),
                lambda: [a for a in _all_duals(field, n)
                         if pairing(a, f) == field.zero])


def _transvections(field, n, f):
    """(a*, I + f a*^T) for every dual a* vanishing on f."""
    return [(a, delta_make(a, f).matrix)
            for a in _annihilator_duals(field, n, f)]


def _scalings(field, trans):
    """s . (I + f a*^T) for s outside {0, 1} and a* != o."""
    return [A.scale(s) for s in field.units() if s != field.one
            for a, A in trans if not a.is_zero()]


def _direction_keys(field, n):
    """For every vector index of a nonzero f, in all_vectors order: (f, codes
    of Delta_f, of the transvections with duals vanishing on f, and of
    their scalings).  Independent of any form; slot 0 (f = o) is None."""
    def codes(mats):
        return tuple(GroupSet.from_mats(field, n, mats).elems.tolist())

    def build():
        out = [None]
        for x in all_vectors(field, n)[1:]:
            f = vec(field, x)
            trans = _transvections(field, n, f)
            out.append((x, tuple(delta_group(field, n, f).elems.tolist()),
                        codes([A for _a, A in trans]),
                        codes(_scalings(field, trans))))
        return tuple(out)
    return memo(("_direction_keys", field.name, n), build)


def _judge(Q, x, in_rad, isotropic, k, sizes, reflected, inside, scaled_ok):
    """Verify the lemmas on the pair (Q, f = x) from its facts: the sizes of
    Delta_f ∩ O(Q) and ∩ O'(Q), whether the reflection along f is one of
    them, and whether every annihilator transvection of f lies in O'(Q).
    Returns the shared (DirectionCase, (inside, tag), scaled_ok)."""
    q, n = Q.field.order, Q.n
    if not in_rad:
        letter, predicted = ("b", (1, 1)) if isotropic else ("a", (2, 2))
    elif isotropic:
        letter, predicted = "d", ((q - 1) * q ** (n - 1), q ** (n - k))
    else:
        letter, predicted = "c", (1, 1)
    if sizes != predicted:
        raise InvariantViolation((letter, predicted, sizes, Q, x))
    # for "a" the two elements are the identity and the reflection along f
    if letter == "a" and not reflected:
        raise InvariantViolation(("reflection along f not in Delta ∩ O(Q)",
                                  Q, x))
    tag = None
    if isotropic and k == 1 and in_rad:
        tag = COND_RADICAL_LINE
    elif n == 1:
        tag = COND_DIM_ONE
    elif n == 2 and not isotropic and k == 0 and q == 2:
        tag = COND_BINARY_PLANE
    if inside != (tag is not None):
        raise InvariantViolation((Q, x, inside, tag))
    return memo(("_judge", letter, predicted, inside, tag or "", scaled_ok),
                lambda: (DirectionCase(letter=letter, in_radical=in_rad,
                                       isotropic=isotropic,
                                       predicted=predicted, actual=sizes),
                         (inside, tag), scaled_ok))


def _lemma_record(Q, budget):
    """_judge's answer for every direction f, by vector index (slot 0 is
    None): one pass per form, with O(Q), O'(Q) and rad(Q) from the orbit
    table, isotropy from the value table and radical membership from a
    mask of span(rad).  Memoised per form."""
    field, n = Q.field, Q.n

    def build():
        o_keys, w_keys, rad = _member_table(field, n, budget)[Q.gram.rows]
        vals = form_values_np(Q)
        basis = np.array([r.entries() for r in rad],
                         dtype=np.uint8).reshape(len(rad), n)
        span = matmul_np(field, vectors_np(field, len(rad)), basis)
        mask = np.zeros(len(vals), dtype=bool)
        mask[vector_index_np(field, span)] = True
        in_rad, isotropic = mask.tolist(), (vals == 0).tolist()
        refl = matrix_codes(field, _reflections_np(Q, vals)).tolist()
        out = [None]
        for idx, (x, d_keys, a_keys, s_keys) in enumerate(
                _direction_keys(field, n)[1:], 1):
            in_o = o_keys.intersection(d_keys)
            out.append(_judge(
                Q, x, in_rad[idx], isotropic[idx], len(rad),
                (len(in_o), len(w_keys.intersection(in_o))),
                refl[idx] in in_o,
                w_keys.issuperset(a_keys), w_keys.isdisjoint(s_keys)))
        return tuple(out)
    return memo(("_lemma_record", field.name, n, Q.gram.rows), build)


def _answers(Q, f, budget):
    """(DirectionCase, (inside, tag), scaled_ok) for the pair (Q, f): a
    lookup in the form's record, or, when GL is past the budget, from each
    rank-one map tested on its own."""
    field, n = Q.field, Q.n
    x = f.entries() if isinstance(f, Mat) else tuple(map(field.coerce, f))
    if len(x) != n or not any(x):
        raise ValueError("the direction must be a non-zero vector of F^%d, "
                         "got %r" % (n, x))
    if _in_budget(field, n, budget):
        idx = 0
        for c in reversed(x):       # the index of x is sum_i x_i q^i
            idx = idx * field.order + c
        return _lemma_record(Q, budget)[idx]
    f = vec(field, x)
    rad = radical_basis(Q)
    in_rad = span_contains(rad, f)
    isotropic = qf_eval(Q, f) == field.zero
    go, gw = delta_orth(Q, f)
    trans = _transvections(field, n, f)

    def weak(A):
        return is_isometry(Q, A) and _fixes_radical(rad, A)
    return _judge(Q, f.entries(), in_rad, isotropic, len(rad),
                  (go.order, gw.order),
                  isotropic or in_rad or reflection(Q, f) in go,
                  all(weak(A) for _a, A in trans),
                  not any(weak(A) for A in _scalings(field, trans)))


def classify_direction(Q, f, budget=None):
    """Classify f and verify the predicted intersection sizes exactly."""
    return _answers(Q, f, budget)[0]


def annihilator_transvections_in_weak(Q, f, budget=None):
    """Are all transvections with duals vanishing on f inside O'(Q)?

    Returns (answer, tag) where the tag names which of the three sufficient
    conditions holds (None if none does); the brute-force answer and the
    condition-based answer are checked to agree, which is exactly the
    biconditional being verified.
    """
    return _answers(Q, f, budget)[1]


def scaled_transvection_never_weak(Q, f, budget=None):
    """No scaling s not in {0, 1} of a nontrivial annihilator transvection
    lies in O'(Q); returns True when that holds for every (s, a*) pair.

    Vacuously true over GF(2), where no such s exists.
    """
    return _answers(Q, f, budget)[2]
