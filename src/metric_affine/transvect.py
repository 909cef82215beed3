"""Rank-one modifications of the identity: x |-> x + <c*, x> f.

For a dual vector c* and a vector f, the map above is a bijection exactly
when <c*, f> != -1; it is called a transvection when <c*, f> = 0 and a
dilatation otherwise.  For fixed f != o, all these maps (over all admissible
c*) form a subgroup Delta of GL(V).  This module builds those maps and
groups, intersects them with the orthogonal and weak orthogonal group of a
form, and verifies the exhaustive classification of the possible
intersection sizes in terms of where the direction vector f sits relative
to the radical and the null set of Q.

The lemmas need no group larger than the maps they are about.  One build
per (field, n) holds every rank-one map they test (_rank_one_maps).  The
records of a block of consecutive forms are built at once from the block's
coefficient stack (_lemma_block), testing each map on the n(n+1)/2 vectors
whose values fix a form, and judged once per distinct set of facts.
lemma_record keeps them in one memo table per (field, n), with the index
of F^n: a warm (Q, f) query finds f's index there (one dict read for a
tuple of ints), checks the budget, then reads Q's record.  lemma_records
hands them out in form order and keeps none.  The budget bounds the map rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .budget import (_MEMO, HARD_BUDGET_CEILING, InvariantViolation, memo,
                     require)
from .groups import (GroupSet, _gemm_f32, add_np, form_block_np,
                     gram_polar_np, matmul_np, mul_np, neg_inverses_np,
                     polar_images_np, values_np, vector_index_np, vectors_np)
from .linalg import Mat, outer, pairing, vec
from .quadform import QForm, all_vectors, form_position


class NotInvertible(Exception):
    """Raised when <c*, f> = -1, where x |-> x + <c*,x> f kills f."""


KIND_IDENTITY = "identity"
KIND_TRANSVECTION = "transvection"
KIND_DILATATION = "dilatation"


class DeltaMap(NamedTuple):
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


def _direction(field, n, f):
    """f (a column or a sequence) as a tuple of field values; ValueError
    unless it is a non-zero vector of F^n."""
    x = f.entries() if isinstance(f, Mat) else tuple(map(field.coerce, f))
    if len(x) != n or not any(x):
        raise ValueError("the direction must be a non-zero vector of F^%d, "
                         "got %r" % (n, x))
    return x


def delta_group(field, n, f):
    """The subgroup {x |-> x + <a*,x> f : <a*,f> != -1} of GL(V), f != o.

    Its order is the number of admissible duals a*, which is q^n - q^(n-1).
    """
    x = _direction(field, n, f)

    def build():
        f = vec(field, x)
        minus_one = field.neg(field.one)
        duals = [vec(field, a) for a in all_vectors(field, n)]
        return GroupSet.from_mats(field, n, [delta_make(a, f).matrix
                                             for a in duals
                                             if pairing(a, f) != minus_one])
    return memo(("delta_group", field.name, n, x), build)


def _map_rows(field, n):
    """The (q^n - 1)(q^n + (q - 2)(q^(n-1) - 1)) rows of
    _rank_one_maps(field, n): what the budget bounds.  F^0 has no direction
    f != o, so dimension 0 raises ValueError."""
    if not field.enumerable:
        raise NotImplementedError("%s is not enumerable" % field.name)
    if n < 1:
        raise ValueError("the lemmas need a direction f != o: dimension %d "
                         "over %s has none" % (n, field.name))
    q, N = field.order, field.order ** n
    return (N - 1) * (N + (q - 2) * (N // q - 1))


def _rank_one_maps(field, n, budget=None):
    """(narrow, moved, slot): the two views of every map the lemmas test
    that a block reads, and where each Delta map sits.  Memoised, behind
    the gate of its rows (_map_rows).

    For the direction f != o of vector index f, the maps are I + f a^T with
    <a, f> != -1 (Delta_f, in vector-index order of a), then the annihilator
    transvections (<a, f> = 0), then their scalings by s not in {0, 1} with
    a != o: q^n + (q - 2)(q^(n-1) - 1) maps.  narrow[f - 1, map] is the
    int16 vector index of the map's image of each e_i, e_i + e_j (q^n (q^n -
    1) maps or more fit the budget ceiling only if q^n < 2^15), and moved
    flags, one row per map, the vectors it moves.  slot[f - 1, a] is the
    place of the map of a in Delta_f, for every a with <a, f> != -1.
    """
    def build():
        q, V = field.order, vectors_np(field, n)
        N = len(V)
        pair = matmul_np(field, V, V.T)                 # pair[a, x] = <a, x>
        # image[f - 1, a, x]: the index of x + <a, x> f
        image = vector_index_np(field, add_np(field, V, mul_np(
            field, pair[..., np.newaxis], V[1:, np.newaxis, np.newaxis])))
        on_f = pair[:, 1:].T                            # on_f[f - 1, a]
        admissible = on_f != field.neg(field.one)
        annihilators = image[on_f == 0].reshape(N - 1, N // q, N)
        # s (x + <a, x> f) for s = 2 .. q - 1, the units other than 1; the
        # first annihilator is a = o
        scale = vector_index_np(field, mul_np(
            field, np.arange(2, q, dtype=np.uint8)[:, np.newaxis, np.newaxis],
            V)).astype(np.int16)
        scaled = scale[:, annihilators[:, 1:]].transpose(1, 0, 2, 3)
        table = np.concatenate([image[admissible].reshape(N - 1, -1, N),
                                annihilators, scaled.reshape(N - 1, -1, N)],
                               axis=1, dtype=np.int16)
        S = [q ** i + q ** j * (j > i) for i in range(n) for j in range(i, n)]
        out = (table[..., S], (table != np.arange(N)).reshape(-1, N),
               np.cumsum(admissible, axis=1) - 1)
        for part in out:
            part.setflags(write=False)
        return out
    return memo(("_rank_one_maps", field.name, n), build,
                _map_rows(field, n), budget)


class DirectionCase(NamedTuple):
    """Where f sits (radical membership x isotropy) and the sizes of
    Delta_f ∩ O(Q) and ∩ O'(Q) it predicts, which _judge has checked
    against the counted ones.

    letter: "a" f outside the radical, Q(f) != 0   -> sizes (2, 2)
            "b" f outside the radical, Q(f) == 0   -> sizes (1, 1)
            "c" f inside the radical,  Q(f) != 0   -> sizes (1, 1)
            "d" f inside the radical,  Q(f) == 0   -> sizes
                ((q-1) q^(n-1), q^(n-k)) with k = dim radical
    """

    letter: str
    predicted: tuple


COND_RADICAL_LINE = "isotropic-f-spans-radical"
COND_DIM_ONE = "dim-1"
COND_BINARY_PLANE = "gf2-anisotropic-nondegenerate-plane"


def _judge(Q, x, in_rad, isotropic, k, o, w, reflected, inside, scaled_ok):
    """Verify the lemmas on the pair (Q, f = x) from its facts: the sizes o
    and w of Delta_f ∩ O(Q) and ∩ O'(Q), whether the reflection along f is
    one of them, and whether every annihilator transvection of f lies in
    O'(Q).  Returns (DirectionCase, (inside, tag), scaled_ok)."""
    q, n = Q.field.order, Q.n
    if not in_rad:
        letter, predicted = ("b", (1, 1)) if isotropic else ("a", (2, 2))
    elif isotropic:
        letter, predicted = "d", ((q - 1) * q ** (n - 1), q ** (n - k))
    else:
        letter, predicted = "c", (1, 1)
    if (o, w) != predicted:
        raise InvariantViolation((letter, predicted, (o, w), Q, x))
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
    return DirectionCase(letter, predicted), (inside, tag), scaled_ok


def _block_forms(maps):
    """Forms per block, so that forms x maps x the n(n+1)/2 vectors e_i,
    e_i + e_j of one build stay within 2^21 gathered entries."""
    return max(1, 2 ** 21 // maps[0].size)


def _isometries(field, n, narrow, moved, vals, rad):
    """(iso, weak)[form, f - 1, map]: the maps that preserve each form, by
    its values vals, and those that also move no x with Bx = 0 (its radical
    mask rad).  The values at the e_i and e_i + e_j fix a form, as
    B(e_i, e_j) = Q(e_i + e_j) - Q(e_i) - Q(e_j); a radical {o} is fixed."""
    # narrow[0, 0], the identity (f = e_1, a = o), holds e_i and e_i + e_j
    iso = (vals[:, narrow] == vals[:, narrow[:1, :1]]).all(axis=3)
    weak, deg = iso.copy(), rad[:, 1:].any(axis=1)
    weak[deg] &= _gemm_f32(rad[deg], moved.T).reshape(-1, *iso.shape[1:]) == 0
    return iso, weak


def _block_facts(field, n, maps, start):
    """(W, facts): the coefficient stack W of the block that begins at
    position start of enumerate_forms order, and _judge's facts after
    (Q, x), each a (form, f - 1) array by row of W and vector index of f.

    The reflection along f is the map of Delta_f with a = -Q(f)^-1 Bf (a = o,
    the identity, where Q(f) = 0), which is in Delta_f: <a, f> = -Q(f)^-1
    B(f, f) is -2 in odd characteristic and 0 in characteristic 2, never -1.
    """
    narrow, moved, slot = maps
    q, N, m = field.order, field.order ** n, n * (n + 1) // 2
    W = form_block_np(field, n, start,
                      min(_block_forms(maps), q ** m - start))
    vals = values_np(field, n, W)
    images = polar_images_np(field, n, W)                 # row x: B x
    rad = ~images.any(axis=2)
    iso, weak = _isometries(field, n, narrow, moved, vals, rad)
    delta = N - N // q                                   # |Delta_f|
    dual = vector_index_np(field, mul_np(            # a, per form and f
        field, neg_inverses_np(field)[vals[:, 1:, np.newaxis]], images[:, 1:]))
    reflected = iso[np.arange(len(W))[:, np.newaxis], np.arange(N - 1),
                    slot[np.arange(N - 1), dual]]
    # a radical of dimension k has q^k vectors, more than q^i for i < k only
    dims = (rad.sum(axis=1)[:, np.newaxis] > q ** np.arange(n)).sum(axis=1)
    return W, (rad[:, 1:], vals[:, 1:] == 0,
               np.broadcast_to(dims[:, np.newaxis], reflected.shape),
               iso[..., :delta].sum(axis=2), weak[..., :delta].sum(axis=2),
               reflected, weak[..., delta:N].all(axis=2),
               ~weak[..., N:].any(axis=2))


def _lemma_block(field, n, maps, start):
    """(R, R's lemma record) for every form R in the block that begins at
    position start of enumerate_forms order: _judge's answer for every
    direction f, by vector index of f (slot 0 is None), shared by the pairs
    with one code of facts.  _judge runs once per code, on its first pair
    in form and direction order, so the first failing pair raises."""
    W, facts = _block_facts(field, n, maps, start)
    N = field.order ** n
    _, first, inverse = np.unique(np.ravel_multi_index(
        facts, (2, 2, n + 1, N, N, 2, 2, 2)), return_index=True,
        return_inverse=True)
    forms = [QForm._trusted(field, n, tuple(map(tuple, rows)))
             for rows in gram_polar_np(field, n, W)[0].tolist()]
    xs, answers = all_vectors(field, n)[1:], [None] * len(first)
    for j in sorted(range(len(first)), key=first.tolist().__getitem__):
        row, x = divmod(int(first[j]), N - 1)
        answers[j] = _judge(forms[row], xs[x],
                            *(fact[row, x].item() for fact in facts))
    return [(R, (None,) + tuple(map(answers.__getitem__, row)))
            for R, row in zip(forms, inverse.reshape(len(W), -1).tolist())]


def lemma_record(Q, budget=None):
    """Q's lemma record (_lemma_block), behind the gate of the map rows on
    every read.  The lemma table of (field, n), memoised, is (map rows,
    vector index of F^n, records by Q.gram.rows); a cold read adds its
    block's records to it."""
    field, n = Q.field, Q.n
    rows = _map_rows(field, n)
    records = memo(("_lemma_table", field.name, n), lambda: (
        rows, {x: i for i, x in enumerate(all_vectors(field, n))}, {}),
        rows, budget)[2]
    record = records.get(Q.gram.rows)
    if record is None:
        maps = _rank_one_maps(field, n, budget)
        row = form_position(Q) % _block_forms(maps)
        records.update((R.gram.rows, got) for R, got in _lemma_block(
            field, n, maps, form_position(Q) - row))
        record = records[Q.gram.rows]
    return record


def lemma_records(field, n, budget=None):
    """(Q, Q's lemma record) for every form Q on F^n in enumerate_forms
    order, a block at a time, memoising none; the map rows meet the budget
    and the (Q, f) pairs the hard ceiling before the first block."""
    budget = require(_map_rows(field, n), budget)
    forms = field.order ** (n * (n + 1) // 2)
    require(forms * (field.order ** n - 1), HARD_BUDGET_CEILING)
    maps = _rank_one_maps(field, n, budget)
    for start in range(0, forms, _block_forms(maps)):
        yield from _lemma_block(field, n, maps, start)


def _answers(Q, f, budget):
    """(DirectionCase, (inside, tag), scaled_ok) for the pair (Q, f): Q's
    record at the vector index of f, sum_i f_i q^i.  A warm read is one
    read of the lemma table: a tuple of ints finds its index there, the
    budget is read and checked, then the record is read once."""
    field, n = Q.field, Q.n
    table = _MEMO.get(("_lemma_table", field.name, n))
    ints = table is not None and type(f) is tuple
    for c in f if ints else ():  # before the read: 1.0 finds 1, [1] won't hash
        ints = ints and type(c) is int
    idx = table[1].get(f, 0) if ints else 0
    if not idx:     # raises for a zero or misshapen f, before the budget
        x = _direction(field, n, f)
        idx = sum(c * field.order ** i for i, c in enumerate(x)) \
            if field.enumerable else 0
    if table is None:
        return lemma_record(Q, budget)[idx]
    require(table[0], budget)           # on every read, before the lookup
    return (table[2].get(Q.gram.rows) or lemma_record(Q, budget))[idx]


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
