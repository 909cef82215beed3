"""Rank-one modifications of the identity: x |-> x + <c*, x> f.

For a dual vector c* and a vector f, the map above is a bijection exactly
when <c*, f> != -1; it is called a transvection when <c*, f> = 0 and a
dilatation otherwise.  For fixed f != o, all these maps (over all admissible
c*) form a subgroup Delta of GL(V).  This module builds those maps and
groups, intersects them with the orthogonal and weak orthogonal group of a
form, and verifies the exhaustive classification of the possible
intersection sizes in terms of where the direction vector f sits relative
to the radical and the null set of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (GroupSet, InvariantViolation, check_budget,
                     congruence_decomposition, encode_np, group_budget,
                     groups_by_orbit, mat_to_np, memo, order_gl,
                     orthogonal_group, weak_orthogonal_group)
from .linalg import Mat, annihilator, outer, pairing, span_contains, vec
from .quadform import (QForm, is_isometry, qf_eval, radical_basis, reflection)


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
    from .quadform import all_vectors
    return [vec(field, a) for a in all_vectors(field, n)]


def delta_group(field, n, f):
    """The subgroup {x |-> x + <a*,x> f : <a*,f> != -1} of GL(V), f != o.

    Its order is the number of admissible duals a*, which is q^n - q^(n-1).
    """
    if not isinstance(f, Mat):
        f = vec(field, f)
    if f.is_zero():
        raise ValueError("the direction vector must be non-zero")

    def build():
        minus_one = field.neg(field.one)
        return GroupSet.from_mats(field, n, [
            delta_make(a, f).matrix for a in _all_duals(field, n)
            if pairing(a, f) != minus_one])
    return memo(("delta_group", field.name, n, f.entries()), build)


def _fixes_radical(rad, A):
    return all(A * r == r for r in rad)


def _member_table(field, n, budget=None):
    """Q.gram.rows -> (O(Q) keys, O'(Q) keys, radical basis of Q) for every
    form Q on F^n, built one congruence orbit at a time.  Memoised.

    The sweeps below revisit the same Q for many directions f; testing
    membership against these key sets is far cheaper than re-deriving the
    isometry property matrix by matrix.
    """
    check_budget(field, n, budget)

    def build():
        forms, _orbits = congruence_decomposition(field, n, budget)
        o_keys = groups_by_orbit(field, n, orthogonal_group, budget)
        w_keys = groups_by_orbit(field, n, weak_orthogonal_group, budget)
        return {Q.gram.rows: (frozenset(o), frozenset(w),
                              tuple(radical_basis(Q)))
                for Q, o, w in zip(forms, o_keys, w_keys)}
    return memo(("_member_table", field.name, n), build)


def _form_facts(Q, budget=None):
    """(O keys, O' keys, radical basis) of Q.  The key sets are None when
    the ambient GL is past the budget; the callers then test each map."""
    field = Q.field
    budget = group_budget() if budget is None else budget
    if field.enumerable and order_gl(Q.n, field.order) <= budget:
        return _member_table(field, Q.n, budget)[Q.gram.rows]
    return None, None, tuple(radical_basis(Q))


def delta_orth(Q, f, budget=None):
    """(Delta ∩ O(Q), Delta ∩ O'(Q)), by filtering the small group Delta.

    Filtering Delta (at most q^n maps) rather than GL keeps this cheap
    enough for exhaustive sweeps.
    """
    if not isinstance(f, Mat):
        f = vec(Q.field, f)
    big = delta_group(Q.field, Q.n, f)
    o_keys, w_keys, rad = _form_facts(Q, budget)
    in_o, in_weak = [], []
    if o_keys is not None:
        in_o = [k for k in big.elems if k in o_keys]
        in_weak = [k for k in big.elems if k in w_keys]
    else:
        for A in big.mats():
            if is_isometry(Q, A):
                in_o.append(encode_np(mat_to_np(A)))
                if _fixes_radical(rad, A):
                    in_weak.append(encode_np(mat_to_np(A)))
    return (GroupSet(Q.field, Q.n, in_o), GroupSet(Q.field, Q.n, in_weak))


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


def classify_direction(Q, f, budget=None):
    """Classify f and verify the predicted intersection sizes exactly."""
    if not isinstance(f, Mat):
        f = vec(Q.field, f)
    assert not f.is_zero()
    field, n = Q.field, Q.n
    q = field.order
    rad = _form_facts(Q, budget)[2]
    k = len(rad)
    in_rad = span_contains(rad, f)
    isotropic = qf_eval(Q, f) == field.zero
    if not in_rad:
        letter = "b" if isotropic else "a"
        predicted = (1, 1) if isotropic else (2, 2)
    else:
        if isotropic:
            letter = "d"
            predicted = ((q - 1) * q ** (n - 1), q ** (n - k))
        else:
            letter = "c"
            predicted = (1, 1)
    go, gw = delta_orth(Q, f, budget)
    actual = (go.order, gw.order)
    if actual != predicted:
        raise InvariantViolation((letter, predicted, actual, Q, f.entries()))
    # for "a" the two elements are the identity and the reflection along f
    if letter == "a" and reflection(Q, f) not in go:
        raise InvariantViolation(("reflection along f not in Delta ∩ O(Q)",
                                  Q, f.entries()))
    return DirectionCase(letter=letter, in_radical=in_rad,
                         isotropic=isotropic, predicted=predicted,
                         actual=actual)


COND_RADICAL_LINE = "isotropic-f-spans-radical"
COND_DIM_ONE = "dim-1"
COND_BINARY_PLANE = "gf2-anisotropic-nondegenerate-plane"


def _annihilator_duals(field, n, f):
    """All duals vanishing on f, spanned from an annihilator basis."""
    def build():
        basis = annihilator(field, n, [f])
        duals = [vec(field, (field.zero,) * n)]
        for b in basis:
            be = b.entries()
            duals = [vec(field,
                         tuple(field.add(x, field.mul(c, bi))
                               for x, bi in zip(d.entries(), be)))
                     for d in duals for c in field.elements()]
        # distinct by construction (basis combinations), but keep it honest:
        if len(set(duals)) != field.order ** len(basis):
            raise InvariantViolation(("annihilator duals repeat",
                                      field.name, n, f.entries()))
        return duals
    return memo(("_annihilator_duals", field.name, n, f.entries()), build)


def _annihilator_pairs(field, n, f):
    """(dual, byte key of its transvection matrix) for duals vanishing on f;
    all of it is independent of any form, so computed once per direction."""
    return memo(("_annihilator_pairs", field.name, n, f.entries()), lambda: [
        (a, encode_np(mat_to_np(delta_make(a, f).matrix)))
        for a in _annihilator_duals(field, n, f)])


def _scaled_keys(field, n, f):
    """Byte keys of s . (I + f a*^T) for s outside {0, 1}, a* != o in the
    annihilator of f; again independent of the form."""
    return memo(("_scaled_keys", field.name, n, f.entries()), lambda: [
        encode_np(mat_to_np(delta_make(a, f).matrix.scale(s)))
        for s in field.elements() if s not in (field.zero, field.one)
        for a in _annihilator_duals(field, n, f) if not a.is_zero()])


def annihilator_transvections_in_weak(Q, f, budget=None):
    """Are all transvections with duals vanishing on f inside O'(Q)?

    Returns (answer, tag) where the tag names which of the three sufficient
    conditions holds (None if none does); the brute-force answer and the
    condition-based answer are asserted to agree, which is exactly the
    biconditional being verified.
    """
    if not isinstance(f, Mat):
        f = vec(Q.field, f)
    assert not f.is_zero()
    field, n = Q.field, Q.n
    _o_keys, w_keys, rad = _form_facts(Q, budget)
    inside = True
    for a, akey in _annihilator_pairs(field, n, f):
        if w_keys is not None:
            ok = akey in w_keys
        else:
            A = delta_make(a, f).matrix
            ok = is_isometry(Q, A) and _fixes_radical(rad, A)
        if not ok:
            inside = False
            break
    tag = None
    if qf_eval(Q, f) == field.zero and len(rad) == 1 and span_contains(rad, f):
        tag = COND_RADICAL_LINE
    elif n == 1:
        tag = COND_DIM_ONE
    elif (n == 2 and qf_eval(Q, f) != field.zero and not rad
          and field.order == 2):
        tag = COND_BINARY_PLANE
    if inside != (tag is not None):
        raise InvariantViolation((Q, f.entries(), inside, tag))
    return inside, tag


def scaled_transvection_never_weak(Q, f, budget=None):
    """No scaling s not in {0, 1} of a nontrivial annihilator transvection
    lies in O'(Q); returns True when that holds for every (s, a*) pair.

    Vacuously true over GF(2), where no such s exists.
    """
    if not isinstance(f, Mat):
        f = vec(Q.field, f)
    assert not f.is_zero()
    field, n = Q.field, Q.n
    _o_keys, w_keys, rad = _form_facts(Q, budget)
    if w_keys is not None:
        return not any(k in w_keys for k in _scaled_keys(field, n, f))
    for s in field.elements():
        if s in (field.zero, field.one):
            continue
        for a in _annihilator_duals(field, n, f):
            if a.is_zero():
                continue
            A = delta_make(a, f).matrix.scale(s)
            if is_isometry(Q, A) and _fixes_radical(rad, A):
                return False
    return True
