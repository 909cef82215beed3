"""Exhaustive verification of the classification results.

The central question: for which pairs (Q on V, Qt on F x V*) does the dual
representation of the motion group of (V, Q) — or of the weak motion group —
coincide with the weak orthogonal group of Qt?  In large enough cases the
answer is exactly {(Q, c . lift(Q)) : polar form of Q non-degenerate}; in a
handful of small (dim, |F|) combinations there are extra sporadic pairs,
which are pinned down here as embedded fixtures and re-derived from the
weak-group index of the forms on F x V*: (Q, Qt) solves the (weak) motion
equation exactly when the index lists Qt under Q's (weak) motion group.

All sweeps are exhaustive over every form on both sides; nothing is sampled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .budget import InvariantViolation, group_budget, memo, order_gl, require
from .groups import (GroupSet, form_block_np, form_values_np, group_equal,
                     groups_by_orbit, inverses_np, is_subgroup, matmul_np,
                     mul_np, orthogonal_group, point_values_np,
                     polar_images_np, vector_index_np, vectors_np,
                     weak_orthogonal_group)
from .homog import (DegeneratePolarForm, NotDroppable, drop, lift, lift_np,
                    motion_group_dual)
from .quadform import (QForm, enumerate_forms, form_position,
                       is_nondegenerate, poly_str, qf_proportional, qf_scale)

MODE_MOTION = "motion"       # full motion group on the left
MODE_WEAK = "weak"           # weak motion group on the left
MODES = (MODE_MOTION, MODE_WEAK)


class DyadReport(NamedTuple):
    Q: QForm
    Qt: QForm
    satisfies_motion: bool
    satisfies_weak: bool
    is_lift_of: object  # scalar c with Qt = c . lift(Q), or None


def dyad_report(Q, Qt, budget=None):
    """Evaluate both defining equations for the pair, plus the lift scalar."""
    sat_m, sat_w = (dyad_satisfies(Q, Qt, mode, budget) for mode in MODES)
    c = qf_proportional(lift(Q), Qt) if is_nondegenerate(Q) else None
    return DyadReport(Q=Q, Qt=Qt, satisfies_motion=sat_m,
                      satisfies_weak=sat_w, is_lift_of=c)


def dyad_satisfies(Q, Qt, mode, budget=None):
    """Does the (mode) motion group of Q, seen on F x V*, equal O'(Qt)?"""
    if mode not in MODES:
        raise ValueError("unknown mode %r, not one of %r" % (mode, MODES))
    if Qt.n != Q.n + 1 or Qt.field is not Q.field:
        raise ValueError("the right form %s lives on %s^%d, not on F x V* = "
                         "%s^%d" % (poly_str(Qt, "a", 0), Qt.field.name, Qt.n,
                                    Q.field.name, Q.n + 1))
    ow = weak_orthogonal_group(Qt, budget)
    return group_equal(motion_group_dual(Q, mode == MODE_WEAK, budget), ow)


class MainPropReport(NamedTuple):
    field_name: str
    n: int
    forms_checked: int
    scalars_each: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def verify_main_prop(fld, n, budget=None):
    """Every non-degenerate Q and every c != 0: (Q, c lift(Q)) satisfies the
    motion-group equation.  Exhaustive; failures collected, none expected."""
    require(order_gl(n + 1, fld.order), budget)   # before listing forms
    failures = []
    checked = 0
    units = fld.units()
    for Q in enumerate_forms(fld, n):
        if not is_nondegenerate(Q):
            continue
        checked += 1
        for c in units:
            Qt = qf_scale(lift(Q), c)
            if not dyad_satisfies(Q, Qt, MODE_MOTION, budget):
                failures.append((Q, c))
    return MainPropReport(fld.name, n, checked, len(units), tuple(failures))


def weak_group_index(fld, m, budget=None):
    """Forms on F^m by weak orthogonal group: key -> tuple of the forms
    with that group, in enumerate_forms order.  Memoised, behind the
    |GL_m| gate."""
    def build():
        groups = groups_by_orbit(fld, m, weak_orthogonal_group, budget)
        index = {}
        for Qt, g in zip(enumerate_forms(fld, m), groups):
            index[g.key] = index.get(g.key, ()) + (Qt,)
        return index
    return memo(("weak_group_index", fld.name, m), build,
                order_gl(m, fld.order), budget)


def solve_for_qtilde(Q, mode, budget=None):
    """All Qt on F x V* satisfying the (mode) equation against Q.

    Outside the (dim, field) sizes of the sporadic tables the outcome is
    forced: exactly {c lift(Q) : c != 0} when the polar form of Q is
    non-degenerate, and nothing at all otherwise.  That consequence is
    checked here, and raises InvariantViolation even under python -O; at
    the sizes of the tables, reproduce_table checks the solutions instead.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r, not one of %r" % (mode, MODES))
    fld, n = Q.field, Q.n
    target = motion_group_dual(Q, mode == MODE_WEAK, budget)
    sols = list(weak_group_index(fld, n + 1, budget).get(target.key, ()))
    if (n, fld.name) not in _FIXTURES:
        expected = (set() if not is_nondegenerate(Q) else    # lift once
                    {qf_scale(L, c) for L in [lift(Q)] for c in fld.units()})
        if set(sols) != expected:
            raise InvariantViolation((Q, mode, sols))
    return sols


def sweep_budget(fld, n, budget=None):
    """Meet |GL_n| and then |GL_(n+1)|, the gates of a sweep over the pairs
    (Q on F^n, Qt on F x V*) in the order its first pair meets them, and
    return the budget (None: group_budget(), read once).  A sweep calls
    this before it lists a form."""
    for m in (n, n + 1):
        budget = require(order_gl(m, fld.order), budget)
    return budget


# --- tables ----------------------------------------------------------------

class TableFixture(NamedTuple):
    """One sporadic-solution table, transcribed as upper-coefficient data.

    blocks: per block, its printed rows (left, right) in print order, None
    marking a blank cell; every left of a block pairs with every right.
    weak_proper: the lefts whose weak motion group is a proper subgroup of
    the full one.  stabilizers: per block, None for "all of GL" or a vector
    fixed by exactly the block's shared orthogonal group.
    """

    blocks: tuple
    weak_proper: tuple
    stabilizers: tuple


_FIXTURES = {
    (0, "GF(2)"): TableFixture(
        blocks=((((), (0,)), (None, (1,))),),
        weak_proper=(),
        stabilizers=(None,),
    ),
    (0, "GF(4)"): TableFixture(
        blocks=((((), (0,)), (None, (1,)), (None, (2,)), (None, (3,))),),
        weak_proper=(),
        stabilizers=(None,),
    ),
    (1, "GF(2)"): TableFixture(
        blocks=(((None, (1, 1, 0)), ((0,), None), ((1,), None)),),
        weak_proper=(),
        stabilizers=(None,),
    ),
    (1, "GF(3)"): TableFixture(
        blocks=((((1,), (0, 0, 1)), ((2,), (0, 0, 2)), ((0,), None)),),
        weak_proper=((0,),),
        stabilizers=(None,),
    ),
    # The two-dimensional binary table.  The right-hand cells of the last
    # two blocks are swapped relative to the printed source: both the row
    # pairing (right = lift of left) and the block pairing (shared groups)
    # only come out under x1^2+x1x2 <-> a1a2+a2^2 and x1x2+x2^2 <->
    # a1^2+a1a2, which is also what the weak-group index returns.
    (2, "GF(2)"): TableFixture(
        blocks=(
            (((1, 1, 1), (0, 0, 0, 1, 1, 1)), ((0, 0, 0), None)),
            (((0, 1, 0), (0, 0, 0, 0, 1, 0)), ((1, 0, 1), None)),
            (((1, 1, 0), (0, 0, 0, 0, 1, 1)), ((0, 0, 1), None)),
            (((0, 1, 1), (0, 0, 0, 1, 1, 0)), ((1, 0, 0), None)),
        ),
        weak_proper=((0, 0, 0), (1, 0, 1), (0, 0, 1), (1, 0, 0)),
        stabilizers=(None, (1, 1), (1, 0), (0, 1)),
    ),
}

SUPPORTED_TABLES = tuple(sorted(_FIXTURES))


class TableReport(NamedTuple):
    dim: int
    field_name: str
    blocks: tuple          # computed ((lefts QForms), (rights QForms))
    rows: tuple            # printed rows block by block: (QForm | None,
                           # QForm | None)
    row_pairs: tuple       # (Q, Qt) for rows with both cells
    expected_match: bool   # computed dyad structure == fixture
    mismatch: tuple        # one human-readable line per failed claim

    @property
    def ok(self):
        return not self.mismatch


def _is_stabilizer(group, v):
    """Is group, a subgroup of GL_n, all of GL_n (v None, or v = 0) or
    exactly the stabiliser of the vector with entries v?  GL_n is transitive
    on the q^n - 1 nonzero vectors, so that stabiliser has |GL_n| / (q^n - 1)
    elements, and a group of that order that fixes v is all of it."""
    fld, n = group.field, group.n
    gl = order_gl(n, fld.order)
    if v is None or not any(v):
        return group.order == gl
    x = np.array(v, dtype=np.uint8).reshape(n, 1)
    return (group.order * (fld.order ** n - 1) == gl
            and bool((matmul_np(fld, group.as_np(), x) == x).all()))


def reproduce_table(dim, fld, budget=None):
    """Re-derive one sporadic table and diff it against the transcribed
    fixture; every side claim is re-checked as well.

    One pass over the lefts: a block is the lefts whose motion or weak
    motion group is one key of the weak-group index upstairs, paired with
    the forms the index lists under that key.
    """
    fx = _FIXTURES.get((dim, fld.name))
    if fx is None:
        raise ValueError("no table for dim=%r over %s (have: %s)"
                         % (dim, fld.name, ", ".join(map(str, SUPPORTED_TABLES))))
    mismatch = []
    budget = group_budget() if budget is None else budget  # read env once

    index = weak_group_index(fld, dim + 1, budget)  # the |GL_(dim+1)| gate
    expected_proper = {QForm.from_upper(fld, dim, u) for u in fx.weak_proper}
    lefts_of = {}
    weak_only = False
    proper_off = []
    for Q in enumerate_forms(fld, dim):
        ao = motion_group_dual(Q, False, budget)
        aow = motion_group_dual(Q, True, budget)
        if not is_subgroup(aow, ao):
            raise InvariantViolation("weak motion group of %r is not a "
                                     "subgroup of its motion group" % (Q,))
        for key in {ao.key, aow.key} & index.keys():
            lefts_of.setdefault(key, set()).add(Q)
        proper = ao.order > aow.order
        if proper and aow.key in index:     # a pair of the weak equation only
            weak_only = True
        if proper != (Q in expected_proper):
            proper_off.append("proper-subgroup claim off for %s" % poly_str(Q))

    if weak_only:
        mismatch.append("a sporadic pair satisfies only the weak equation")

    computed_blocks = {(frozenset(lefts), frozenset(index[key]))
                       for key, lefts in lefts_of.items()}
    rows = tuple(
        tuple((None if lu is None else QForm.from_upper(fld, dim, lu),
               None if ru is None else QForm.from_upper(fld, dim + 1, ru))
              for lu, ru in block)
        for block in fx.blocks)
    fixture_blocks = [(frozenset(Q for Q, _ in block if Q is not None),
                       frozenset(Qt for _, Qt in block if Qt is not None))
                      for block in rows]
    expected_match = computed_blocks == set(fixture_blocks)
    if not expected_match:
        mismatch.append("computed blocks: %s" % _render_blocks(computed_blocks))
        mismatch.append("fixture blocks:  %s" % _render_blocks(fixture_blocks))

    # row claims: both cells <-> mutually inverse lift/drop; a single blank
    # cell <-> the lift (resp. drop) hypothesis genuinely fails
    row_pairs = []
    for Q, Qt in (row for block in rows for row in block):
        if Q is not None and Qt is not None:
            if lift(Q) != Qt or drop(Qt) != Q:
                mismatch.append("row pair broken: %s | %s"
                                % (poly_str(Q), poly_str(Qt, "a", 0)))
            else:
                row_pairs.append((Q, Qt))
        elif Qt is None:
            try:
                lift(Q)
            except DegeneratePolarForm:
                pass
            else:
                mismatch.append("blank-right row is liftable: %s" % poly_str(Q))
        else:
            try:
                drop(Qt)
            except NotDroppable:
                pass
            else:
                mismatch.append("blank-left row is droppable: %s"
                                % poly_str(Qt, "a", 0))

    # the lefts of each computed block share O (its rights share O' by
    # construction: they are one entry of the index)
    for lefts, _rights in computed_blocks:
        if len({orthogonal_group(Q, budget).key for Q in lefts}) != 1:
            mismatch.append("block does not share its groups")

    # where is the weak motion group a proper subgroup?
    mismatch.extend(proper_off)

    # named stabilizer vectors (and full-GL blocks), on each block's first
    # printed left
    for block, stab in zip(rows, fx.stabilizers):
        sample = next(Q for Q, _ in block if Q is not None)
        if not _is_stabilizer(orthogonal_group(sample, budget), stab):
            mismatch.append("stabilizer claim off for block of %s"
                            % poly_str(sample))

    blocks_out = tuple(
        (tuple(sorted(l, key=lambda f: f.upper_coeffs())),
         tuple(sorted(r, key=lambda f: f.upper_coeffs())))
        for l, r in sorted(
            computed_blocks,
            key=lambda b: sorted(f.upper_coeffs() for f in b[0])))
    return TableReport(
        dim=dim, field_name=fld.name, blocks=blocks_out, rows=rows,
        row_pairs=tuple(row_pairs), expected_match=expected_match,
        mismatch=tuple(mismatch))


def _render_blocks(blocks):
    out = []
    for lefts, rights in sorted(
            blocks, key=lambda b: sorted(f.upper_coeffs() for f in b[0])):
        ls = ", ".join(sorted(poly_str(Q) for Q in lefts))
        rs = ", ".join(sorted(poly_str(Qt, "a", 0) for Qt in rights))
        out.append("[%s | %s]" % (ls, rs))
    return "  ".join(out)


def render_table_lines(report):
    """The block table as fixed-width text, a horizontal rule above each
    block."""
    blocks = [[("" if Q is None else poly_str(Q),
                "" if Qt is None else poly_str(Qt, "a", 0))
               for Q, Qt in block]
              for block in report.rows]
    cells = [cell for block in blocks for cell in block]
    head = ("Q on V", "Qt on F x V*")
    w0 = max(len(head[0]), *(len(a) for a, _ in cells))
    w1 = max(len(head[1]), *(len(b) for _, b in cells))
    rule = "-" * (w0 + 2) + "+" + "-" * (w1 + 2)
    lines = ["%s over %s, dim %d" % (
        "table of sporadic solution pairs", report.field_name, report.dim),
        (" %-*s | %-*s" % (w0, head[0], w1, head[1])).rstrip()]
    for block in blocks:
        lines.append(rule)
        lines.extend((" %-*s | %-*s" % (w0, a, w1, b)).rstrip()
                     for a, b in block)
    return lines


# --- projective view -------------------------------------------------------

def _projective_canon_np(fld, rows):
    """Canonicalise each nonzero row of an integer-coded stack to its
    projective representative; rows full of zeros are dropped.

    Each row is scaled by the inverse of its first nonzero entry.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    rows = rows[(rows != 0).any(axis=1)]
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return mul_np(fld, inverses_np(fld)[lead][:, np.newaxis], rows)


def projective_reduce(gs):
    """The induced collineation set: each matrix rescaled so its first
    non-zero entry (row-major) is 1, duplicates merged.  Memoised."""
    fld, n = gs.field, gs.n

    def build():
        if n == 0:      # the empty matrix has no entry to scale
            return gs
        A = gs.as_np()
        flat = _projective_canon_np(fld, A.reshape(len(A), n * n))
        return GroupSet.from_np(fld, n, flat.reshape(A.shape))
    return memo(("projective_reduce", fld.name, n, gs.key), build)


class ProjectiveReport(NamedTuple):
    field_name: str
    n: int
    pairs_checked: int
    projective_matches: int  # pairs with equal collineations, excluded too
    exclusion_hits: int
    witness_confirmed: bool
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def verify_projective_theorem(fld, n, budget=None):
    """If O'(Qt) induces the same collineations as a motion group of Q, the
    linear groups must already agree — except in dimension 0 over odd
    characteristic with Qt non-zero.  Checked for every (Q, Qt) pair, with
    O'(Qt) read from the orbit table of the forms on F x V*."""
    violations = []
    matches = exclusion_hits = 0
    witness = False
    budget = sweep_budget(fld, n, budget)
    lefts = enumerate_forms(fld, n)
    motions = [(motion_group_dual(Q, False, budget),
                motion_group_dual(Q, True, budget)) for Q in lefts]
    rights = enumerate_forms(fld, n + 1)
    weak = groups_by_orbit(fld, n + 1, weak_orthogonal_group, budget)
    by_key = {}         # right positions by collineation set, in order
    for k, ow in enumerate(weak):
        by_key.setdefault(projective_reduce(ow).key, []).append(k)
    for Q, (ao, aow) in zip(lefts, motions):
        # a position has one key, so the two keys' lists are disjoint
        keys = {projective_reduce(ao).key, projective_reduce(aow).key}
        for k in sorted(k for key in keys for k in by_key.get(key, ())):
            matches += 1
            Qt, ow = rights[k], weak[k]
            linear_same = group_equal(ao, ow)
            excluded = (n == 0 and fld.char != 2 and not Qt.is_zero())
            if excluded:
                exclusion_hits += 1
                if not linear_same:
                    witness = True
                continue
            if not linear_same:
                violations.append((Q, Qt))
    return ProjectiveReport(fld.name, n, len(lefts) * len(rights), matches,
                            exclusion_hits, witness, tuple(violations))


# --- the absolute quadric and its dual description -------------------------

def rep_of(fld, n):
    """The vector index of the projective representative of every vector of
    F^n (n >= 1), by vector index; the zero vector keeps 0.  Memoised."""
    V = vectors_np(fld, n)      # _projective_canon_np drops the zero row
    return memo(("rep_of", fld.name, n), lambda: vector_index_np(
        fld, np.concatenate([V[:1], _projective_canon_np(fld, V[1:])])))


def _rep_mask(fld, n):
    """Mask of the projective points of F^n: nonzero vectors rep_of fixes."""
    tab = rep_of(fld, n)
    return (tab == np.arange(len(tab))) & (tab > 0)


def quadric_points(Q):
    """Canonical projective representatives of the null set of Q.

    Q(cx) = c^2 Q(x), so the null set is a cone and holds the representative
    of each of its lines: the points are the null vectors that are already
    representatives.
    """
    fld, n = Q.field, Q.n
    if n == 0:
        return set()
    hit = (form_values_np(Q) == 0) & _rep_mask(fld, n)
    return set(map(tuple, vectors_np(fld, n)[hit].tolist()))


class QuadricReport(NamedTuple):
    field_name: str
    n: int
    status: str            # ok | empty-quadric | char-2-excluded |
                           # dim-too-small | degenerate-polar | mismatch
    base_points: int
    lifted_points: int
    hyperplane_points: int
    details: tuple

    @property
    def ok(self):
        return self.status in ("ok", "empty-quadric")


# the statuses a block of the quadric table codes as 0 .. 3
_BLOCK_STATUSES = ("ok", "empty-quadric", "degenerate-polar", "mismatch")
# value-table entries per block: 2,048 forms at GF(5)^3, proportionally
# fewer where F^(n+1) is larger, so that one check pays for a bounded block
_BLOCK_ENTRIES = 2048 * 5 ** 4


def _block_size(fld, n):
    return max(1, _BLOCK_ENTRIES // fld.order ** (n + 1))


def _quadric_block(fld, n, block):
    """quadric_duality_check for every form of one block of consecutive
    positions in enumerate_forms order, on the block's coefficient stack:
    each side a (point, form) mask over the projective points only.

    Returns every row's QuadricReport; rows with equal status and counts
    share one report object, except mismatching rows, which list details.
    """
    q, m = fld.order, n * (n + 1) // 2
    size = _block_size(fld, n)
    start = block * size
    W = form_block_np(fld, n, start, min(size, q ** m - start))
    k = len(W)
    ok, up = lift_np(fld, n, W)

    # base side, over the representatives of F^n
    xs = np.flatnonzero(_rep_mask(fld, n))
    null = point_values_np(fld, n, W, xs) == 0
    base = np.count_nonzero(null, axis=0)

    # lifted side, over the representatives of F^(n+1); the first of them
    # is the vertex e0 = (1, 0, ..., 0), the vector with index 1
    reps = np.flatnonzero(_rep_mask(fld, n + 1))
    lifted = point_values_np(fld, n + 1, up, reps) == 0
    if not lifted[0, ok].all():
        raise InvariantViolation("a stacked lift over %s, dim %d, is nonzero "
                                 "at e0" % (fld.name, n))

    # hyperplane side: the annihilators of the hyperplanes through the
    # tangent space at x at infinity are span(e0, (0, Bx)), so rhs holds e0
    # and (a0 : y) for rep(y) = rep(Bx), x a base point (the null cone is F*
    # closed).  B is invertible where ok: no two points x share a rep(Bx).
    rep = rep_of(fld, n)
    codes = rep[vector_index_np(fld, polar_images_np(fld, n, W, xs))]
    marked = np.zeros((q ** n, k), dtype=bool)
    marked[codes.T, np.arange(k)] = null & ok
    rhs = marked[rep[reps // q]]  # the index of (a0, y) is a0 + q idx(y)
    rhs[0] = base > 0

    # where the base quadric is nonempty, both sides hold e0, so a form
    # matches when its two masks agree; where it is empty, there is no
    # tangent hyperplane, and the lifted quadric must be e0 alone
    status = np.where((rhs != lifted).any(axis=0), 3, 0)
    status[(base == 0) & ~lifted[1:].any(axis=0)] = 1
    status[~ok] = 2
    counts = np.stack([base, np.count_nonzero(lifted, axis=0),
                       np.count_nonzero(rhs, axis=0)], axis=1)
    counts[(status == 1) | (status == 2)] = 0
    _, first, inverse = np.unique(np.ravel_multi_index(
        (status, *counts.T), (len(_BLOCK_STATUSES),) + (len(reps) + 1,) * 3),
        return_index=True, return_inverse=True)
    made = [QuadricReport(fld.name, n, _BLOCK_STATUSES[status[r]],
                          *counts[r].tolist(), ()) for r in first.tolist()]
    reports = [made[i] for i in inverse.tolist()]
    lifted, rhs = lifted.T, rhs.T       # by form, for the mismatching rows
    points = vectors_np(fld, n + 1)[reps]
    for r in np.flatnonzero(status == 3).tolist():
        missed = lifted[r] & ~rhs[r]
        missed[0] = False
        reports[r] = reports[r]._replace(details=tuple(
            [("hyperplane-annihilator-off-quadric", a)
             for a in sorted(map(tuple, points[rhs[r] & ~lifted[r]].tolist()))]
            + [("quadric-point-not-an-annihilator", a)
               for a in sorted(map(tuple, points[missed].tolist()))]
            + ([("vertex-missing-from-annihilators",
                 tuple(points[0].tolist()))] if not rhs[r, 0] else [])))
    return tuple(reports)


def quadric_duality_check(Q):
    """The lifted quadric equals the annihilators of the hyperplanes that
    contain a maximal tangent space of the base quadric at infinity.

    Verified point by point in both directions (the distinguished vertex is
    left out on the lifted side, and re-checked separately against the
    hyperplane at infinity).  Characteristic 2 is excluded by design: the
    description is not established there.  The report is one memo read of
    a table per (field, n), built in blocks of consecutive forms.
    """
    fld, n = Q.field, Q.n
    if not fld.enumerable:
        raise ValueError("the quadric check enumerates points; %s is not "
                         "a finite field" % fld.name)
    if fld.char == 2:
        return QuadricReport(fld.name, n, "char-2-excluded", 0, 0, 0, ())
    if n < 2:
        return QuadricReport(fld.name, n, "dim-too-small", 0, 0, 0, ())
    block, row = divmod(form_position(Q), _block_size(fld, n))
    return memo(("_quadric_block", fld.name, n, block),
                lambda: _quadric_block(fld, n, block))[row]
