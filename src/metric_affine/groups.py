"""Exhaustive matrix-group enumeration: GL, isometry groups, closures.

The public objects here are GroupSets: immutable, canonically-encoded sets
of invertible matrices over one of the finite fields.  Group comparisons in
the classification code happen thousands of times, so a GroupSet keeps one
sorted int64 array of matrix codes (matrix_codes: the vector indices of
the columns read as base-q^n digits) and set equality is equality of those
arrays.  This module is the only one that knows how an element is coded.

Under the hood the module keeps, per (field, n), the table of all q^n
vectors (row idx -> vector, idx = sum x_i q^i) as a small numpy integer
array, and builds every group by one frontier of partial bases.  g is an
isometry of Q exactly when it is invertible and its columns v_i satisfy
Q(v_i) = Q(e_i) and B(v_i, v_j) = B(e_i, e_j) for i < j, since Q(sum x_i
v_i) = sum x_i^2 Q(v_i) + sum_{i<j} x_i x_j B(v_i, v_j) in every
characteristic.  So _isometries_np extends every partial basis at once, one
column at a time, by every vector outside its span (the product of the
coefficient table of F^k with its k columns) that meets the next column's
constraints; np.nonzero keeps the result in lexicographic order of the
columns' vector indices, the order of their codes.  For the zero form the
constraints are empty, and the frontier is all of GL_n (enumerate_gl).
The readable route is quadform.is_isometry, which compares the pullback
A^T W A with W, and the tests check the frontier against a GL filter.

Forms in one congruence orbit have conjugate groups, so the groups of
every form on F^n take one frontier per orbit.  _orbit_walk finds the
orbits once for both orbit tables, and groups_by_orbit conjugates each
leader's group onto runs of its other members by their Kronecker rows.

Every stack holds integer element codes.  A form's tables come from its
row of upper coefficients (QForm.upper_coeffs): gram_polar_np alone turns
rows into Gram and polar stacks.  The add, mul and inverse tables are the
field's own (fields.PrimePowerField).  The one float is inside matmul_np
over GF(p): a float32 product of integers below 2^16, every step exact.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .budget import InvariantViolation, group_budget, memo, order_gl, require
from .quadform import QForm, qf_rank, radical_basis

_RUN_ENTRIES = 2 ** 22      # the most entries of one groups_by_orbit product


def _table_np(field, name):
    """The field's own q x q table name, "_add" or "_mul", as uint8, over a
    field that is not prime.  Memoised."""
    return memo(("_table_np", field.name, name),
                lambda: np.array(getattr(field, name), dtype=np.uint8))


def _mod(x, p):
    """x mod p in place, as x - (x // p) p, which numpy runs in SIMD."""
    x -= x // p * p
    return x


# Field arithmetic on uint8 stacks of element codes, broadcast as numpy's own
# operators are: _mod of a sum or product over GF(p), exact in uint8 for p <=
# 16 (on one Xeon core, a (2048, 3, 6) product over GF(5) took 8 us, against
# 77 us with % and 191 us from the p x p table), and the add/mul tables over
# any other field.  These and matmul_np alone tell the two apart.

def add_np(field, a, b):
    if field.order == field.char:
        return _mod(a + b, field.order)
    return _table_np(field, "_add")[a, b]


def mul_np(field, a, b):
    if field.order == field.char:
        return _mod(a * b, field.order)
    return _table_np(field, "_mul")[a, b]


def inverses_np(field):
    """uint8 table c |-> c^-1 (and 0 |-> 0), the field's _inv.  Memoised."""
    return memo(("inverses_np", field.name), lambda: np.array(
        (0,) + field._inv[1:], dtype=np.uint8))


def neg_inverses_np(field):
    """uint8 table c |-> -c^-1 (and 0 |-> 0).  Memoised."""
    return memo(("neg_inverses_np", field.name), lambda: mul_np(
        field, inverses_np(field), field.neg(field.one)))


def triu_np(n):
    """np.triu_indices(n), memoised: a call took 13 us at n = 3."""
    return memo(("triu_np", n), lambda: np.triu_indices(n))


def vectors_np(field, n):
    """(q^n, n) uint8 table; row idx holds the vector with index idx.
    NotImplementedError over an infinite field."""
    def build():
        if not field.enumerable:
            raise NotImplementedError("%s is not enumerable" % field.name)
        q = field.order
        idx = np.arange(q ** n, dtype=np.int64)
        cols = [(idx // q ** i) % q for i in range(n)]
        tab = (np.stack(cols, axis=1).astype(np.uint8) if n
               else np.zeros((1, 0), dtype=np.uint8))
        tab.setflags(write=False)
        return tab
    return memo(("vectors_np", field.name, n), build)


def vector_index_np(field, X):
    """Indices of the rows of X (shape (..., n)) in the vector table:
    sum_i X[..., i] q^i, by Horner's rule in place, in the narrowest
    unsigned type that holds q^n - 1, so that no wider copy of X is made."""
    n = X.shape[-1]
    idx = np.zeros(X.shape[:-1], np.min_scalar_type(field.order ** n - 1))
    for i in reversed(range(n)):
        idx *= field.order
        idx += X[..., i]
    return idx


def _gemm_f32(A, B):
    """A @ B in float32, as one BLAS product wherever one side is a single
    matrix (its stack dimensions all 1): the other side's stack folds into
    the rows, (..., r, k) @ (k, c), or the columns, (r, k) @ (k, ... c), of
    the GEMM.  Only stack @ stack runs numpy's batched @.  The matrix @
    stack result is a view in the GEMM's layout, not a contiguous copy."""
    (r, k), c = A.shape[-2:], B.shape[-1]
    a = np.ascontiguousarray(A, dtype=np.float32)
    if math.prod(B.shape[:-2]) == 1:
        return (a.reshape(math.prod(A.shape[:-1]), k)
                @ np.ascontiguousarray(B, dtype=np.float32).reshape(k, c))
    if math.prod(A.shape[:-2]) == 1:
        b = np.ascontiguousarray(np.moveaxis(B, -2, 0), dtype=np.float32)
        prod = a.reshape(r, k) @ b.reshape(k, math.prod(B.shape[:-2]) * c)
        return np.moveaxis(prod.reshape((r,) + B.shape[:-2] + (c,)), 0, -2)
    return a @ B.astype(np.float32)


def matmul_np(field, A, B):
    """Exact matrix product of integer-coded stacks over a finite field, as
    a uint8 stack broadcast as numpy's @ is.

    Over GF(p) it is one float32 product (_gemm_f32), reduced mod p.  Every
    entry is below p, so a partial sum is at most k (p - 1)^2 for inner
    dimension k; below 2^16 (ValueError otherwise) float32 holds every step
    exactly, whatever order BLAS adds in.  The product is cast to the
    narrowest unsigned type that holds k (p - 1)^2 and reduced by _mod.
    Over any other field it is a sum of add_np/mul_np terms."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    (r, k), c = A.shape[-2:], B.shape[-1]
    if field.order != field.char:
        out = np.zeros(lead + (r, c), dtype=np.uint8)
        for i in range(k):
            out = add_np(field, out, mul_np(field, A[..., :, i, np.newaxis],
                                            B[..., np.newaxis, i, :]))
        return out
    p, top = field.order, k * (field.order - 1) ** 2
    if top >= 2 ** 16:
        raise ValueError("a product over %s with inner dimension %d can "
                         "reach %d, past the exact range below 2^16"
                         % (field.name, k, top))
    out = _gemm_f32(A, B).astype(np.uint8 if top < 2 ** 8 else np.uint16)
    return _mod(out.reshape(lead + (r, c)), p).astype(np.uint8, copy=False)


def mat_to_np(A):
    return np.array([[int(x) for x in row] for row in A.rows],
                    dtype=np.uint8).reshape(A.nrows, A.ncols)


def _code_powers(field, n):
    """The place values of a matrix code by row-major entry, memoised: entry
    (j, i) is digit j of column i's vector index, which is base-q^n digit
    n - 1 - i of the code, so its place value is q^(n (n - 1 - i) + j).
    NotImplementedError over an infinite field."""
    if not field.enumerable:
        raise NotImplementedError("%s is not enumerable" % field.name)
    if field.order ** (n * n) > 2 ** 63:
        raise ValueError("%d x %d matrices over %s do not fit an int64 code"
                         % (n, n, field.name))
    return memo(("_code_powers", field.name, n), lambda: field.order ** (
        n * np.arange(n - 1, -1, -1, dtype=np.int64)
        + np.arange(n)[:, np.newaxis]).ravel())


def matrix_codes(field, stack):
    """The code of every matrix in a (..., n, n) integer-coded stack: the
    vector indices of its columns read as base-q^n digits, column 1 most
    significant, so codes sort as the frontier's rows of column indices."""
    stack = np.asarray(stack)
    n = stack.shape[-1]
    flat = stack.reshape(stack.shape[:-2] + (n * n,)).astype(np.int64)
    return flat @ _code_powers(field, n)


def invert_np(field, stack):
    """(ok, inverse) for a (k, n, n) uint8 stack: ok marks the invertible
    matrices, and inverse holds their inverses (its other rows are
    meaningless).  Gauss-Jordan on [A | I], every matrix of the stack at
    once."""
    k, n = stack.shape[:2]
    inv, minus_one = inverses_np(field), field.neg(field.one)
    aug = np.zeros((k, n, 2 * n), dtype=np.uint8)
    aug[:, :, :n], aug[:, range(n), range(n, 2 * n)] = stack, 1
    ok, rows = np.ones(k, dtype=bool), np.arange(k)
    for c in range(n):
        # pivot on the first row at or below c with a nonzero entry in
        # column c; a matrix without one is singular, and its pivot row
        # is scaled to zero, which leaves the other rows as they are
        piv = c + (aug[:, c:, c] != 0).argmax(axis=1)
        top = aug[rows, piv]
        ok &= top[:, c] != 0
        aug[rows, piv] = aug[:, c]
        aug[:, c] = mul_np(field, top, inv[top[:, c]][:, np.newaxis])
        factor = mul_np(field, aug[:, :, c], minus_one)
        factor[:, c] = 0
        aug = add_np(field, aug, mul_np(field, factor[:, :, np.newaxis],
                                        aug[:, c:c + 1]))
    return ok, aug[:, :, n:]


def upper_coeffs_np(field, S):
    """The canonical upper coefficients (as in QForm.upper_coeffs) of every
    Gram matrix in a (..., n, n) stack: the diagonal kept, the strictly-lower
    part folded onto the upper one."""
    iu, ju = triu_np(S.shape[-1])
    return add_np(field, S[..., iu, ju], np.where(iu == ju, 0, S[..., ju, iu]))


def _isometries_np(field, n, vals, B):
    """The isometries of the form with values vals[v] = Q(v) and polar
    products B[v, w] = B(v, w), by vector index, as (m, n) rows of the
    vector indices of their columns, in lexicographic order: the frontier
    of the module docstring."""
    V = vectors_np(field, n)
    units = field.order ** np.arange(n)        # vector indices of e_1 .. e_n
    # uint8 wherever |GL_n| fits the budget ceiling: there q^n <= 125.
    # np.take, as it gathers these small tables about twice as fast as [].
    parts = np.zeros((1, n), dtype=np.min_scalar_type(len(V) - 1))
    for k in range(n):          # columns k and on of parts are not set yet
        ok = np.repeat((vals == vals[units[k]])[np.newaxis], len(parts), 0)
        for j in range(k):      # one earlier column at a time
            ok &= B.take(parts[:, j], axis=0) == B[units[j], units[k]]
        span = matmul_np(field, vectors_np(field, k)[np.newaxis],
                         V.take(parts[:, :k], axis=0))
        ok[np.arange(len(parts))[:, np.newaxis],
           vector_index_np(field, span)] = False
        rows, vecs = np.nonzero(ok)
        parts = parts.take(rows, axis=0)
        parts[:, k] = vecs
        del ok, rows, vecs      # freed before the next gathers
    return parts


def _monomials_np(field, n):
    """(q^n, n(n+1)/2) uint8 table: row idx holds the products x_i x_j
    (i <= j, row-major) of vector idx, in the order of QForm.upper_coeffs."""
    def build():
        V = vectors_np(field, n)
        iu, ju = triu_np(n)
        tab = mul_np(field, V[:, iu], V[:, ju])
        tab.setflags(write=False)
        return tab
    return memo(("_monomials_np", field.name, n), build)


def form_block_np(field, n, start, k):
    """The upper coefficients of the k forms on F^n at positions start ..
    start + k - 1 in enumerate_forms order, as a (k, n(n+1)/2) uint8 stack:
    the base-q digits of each position, the first most significant."""
    q, m = field.order, n * (n + 1) // 2
    # start's digits as Python ints (q^m can pass 2^63), then i added to the
    # last digit and the carries passed up; F^0 has one form and no digits
    W = np.tile(np.array([start // q ** e % q for e in range(m - 1, -1, -1)],
                         dtype=np.int64), (k, 1))
    if m:
        W[:, -1] += np.arange(k)
    for j in range(m - 1, 0, -1):
        W[:, j - 1] += W[:, j] // q
        W[:, j] %= q
    return W.astype(np.uint8)


def values_np(field, n, C):
    """The values of the forms on F^n with upper coefficients C (a (k,
    n(n+1)/2) uint8 stack) at every vector, as a (k, q^n) uint8 table."""
    return matmul_np(field, C, _monomials_np(field, n).T)


def point_values_np(field, n, C, cols):
    """values_np at the vectors with index in cols, laid out (point, form)."""
    return matmul_np(field, _monomials_np(field, n)[cols], C.T)


def gram_polar_np(field, n, C):
    """(W, B) for the forms on F^n with upper coefficients C (a (k,
    n(n+1)/2) uint8 stack): the (k, n, n) stacks of their Gram matrices W,
    as Q.gram, and polar matrices B = W + W^T, as polar(Q)."""
    W = np.zeros((len(C), n, n), dtype=np.uint8)
    W[(slice(None),) + triu_np(n)] = C
    return W, add_np(field, W, W.transpose(0, 2, 1))


def polar_images_np(field, n, C, cols=slice(None)):
    """B v for every form on F^n with upper coefficients C (a (k,
    n(n+1)/2) uint8 stack), B its polar matrix (gram_polar_np), and every
    vector v with index in cols: a (k, len(cols), n) uint8 stack."""
    B = gram_polar_np(field, n, C)[1]       # symmetric: v^T B = (Bv)^T
    return matmul_np(field, vectors_np(field, n)[cols], B)


def form_values_np(Q):
    """Value table: entry idx is the raw code of Q(vector_idx)."""
    return values_np(Q.field, Q.n, np.array([Q.upper_coeffs()], np.uint8))[0]


def polar_table_np(Q):
    """Polar table: entry [v, w] is the raw code of B(vector_v, vector_w)."""
    BV = polar_images_np(Q.field, Q.n, np.array([Q.upper_coeffs()], np.uint8))
    return matmul_np(Q.field, BV[0], vectors_np(Q.field, Q.n).T)


# --- GroupSet --------------------------------------------------------------

class GroupSet:
    """An immutable set of invertible n x n matrices over a finite field.

    Elements are kept as `elems`, a sorted, duplicate-free int64 array of
    matrix codes; two GroupSets over the same (field, n) are equal iff their
    `key`s, the arrays' bytes, are equal.  Group axioms are not assumed by
    the container.
    """

    __slots__ = ("field", "n", "elems")

    def __init__(self, field, n, codes):
        self.field = field
        self.n = n
        # sort and drop repeats, faster than np.unique from 48 codes on
        codes = np.sort(np.asarray(codes, dtype=np.int64))
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        self.elems = codes[fresh]
        self.elems.setflags(write=False)

    @classmethod
    def from_sorted(cls, field, n, elems):
        """The GroupSet of an int64 array of codes already sorted and free
        of repeats, kept as it is."""
        self = cls.__new__(cls)
        self.field, self.n, self.elems = field, n, elems
        elems.setflags(write=False)
        return self

    @classmethod
    def from_np(cls, field, n, arr):
        return cls(field, n, matrix_codes(field, arr))

    @classmethod
    def from_mats(cls, field, n, mats):
        arr = [mat_to_np(A) for A in mats]
        return cls.from_np(field, n, np.array(arr, dtype=np.uint8)
                           .reshape(len(arr), n, n))

    @property
    def order(self):
        return len(self.elems)

    @property
    def key(self):
        """The sorted codes as bytes: a plain dict and memo key for the set."""
        return self.elems.tobytes()

    def __contains__(self, A):
        return (A.field is self.field and A.nrows == A.ncols == self.n
                and matrix_codes(self.field, mat_to_np(A)) in self.elems)

    def __eq__(self, other):
        return (isinstance(other, GroupSet) and self.field is other.field
                and self.n == other.n and self.key == other.key)

    def __hash__(self):
        return hash((self.field.name, self.n, self.key))

    def __repr__(self):
        return "GroupSet(%s, n=%d, order=%d)" % (self.field.name, self.n, self.order)

    def as_np(self):
        """The elements as an (order, n, n) uint8 stack, in code order."""
        q, n = self.field.order, self.n
        digits = self.elems[:, np.newaxis] // _code_powers(self.field, n) % q
        return digits.astype(np.uint8).reshape(len(self.elems), n, n)

    def columns(self):
        """The vector indices of the elements' columns, as an (order, n)
        array in the narrowest unsigned type, decoded one column at a time."""
        N = self.field.order ** self.n
        cols = np.empty((self.order, self.n), np.min_scalar_type(N - 1))
        for i in range(self.n):
            cols[:, i] = self.elems // N ** (self.n - 1 - i) % N
        return cols


def enumerate_gl(field, n, budget=None):
    """All of GL_n(F) as a GroupSet: the zero form's orthogonal_group, its
    order checked against the product formula on every call."""
    G = orthogonal_group(QForm.zero(field, n), budget)
    if G.order != order_gl(n, field.order):
        raise InvariantViolation("GL_%d(%s) has %d elements, not %d"
                                 % (n, field.name, G.order,
                                    order_gl(n, field.order)))
    return G


def orthogonal_group(Q, budget=None):
    """All GL elements preserving Q: the isometry frontier of Q's value and
    polar tables, its rows of column indices read as codes.  Memoised,
    behind the |GL_n| gate."""
    def build():
        field, N = Q.field, Q.field.order ** Q.n
        cols = _isometries_np(field, Q.n, form_values_np(Q), polar_table_np(Q))
        codes = np.zeros(len(cols), dtype=np.int64)
        for i in range(Q.n):        # Horner's rule, column 1 first
            codes *= N
            codes += cols[:, i]
        return GroupSet.from_sorted(field, Q.n, codes)
    return memo(("orthogonal_group", Q.field.name, Q.n, Q.gram.rows), build,
                order_gl(Q.n, Q.field.order), budget)


def weak_orthogonal_group(Q, budget=None):
    """Isometries of Q fixing the radical of the polar form pointwise: the g
    in O(Q) with g r = r for each radical basis vector r, where g r = sum_i
    r_i (column i of g) is gathered from O(Q)'s columns() (O(Q) itself if
    there is no r).  Memoised, behind the |GL_n| gate: `groups` takes O'(Q)
    twice, and `verify proposition` meets each c lift(Q) for each scaling."""
    def build():
        field, n = Q.field, Q.n
        o, basis = orthogonal_group(Q, budget), radical_basis(Q)
        if not basis:
            return o
        V, cols, elems = vectors_np(field, n), o.columns(), o.elems
        for r in basis:         # on the rows that fix every earlier r
            image = 0
            for c, col in zip(r.entries(), cols.T):
                if c:
                    image = add_np(field, image, mul_np(field, V[col], c))
            fixed = (image == r.entries()).all(axis=1)
            cols, elems = cols[fixed], elems[fixed]
        return GroupSet.from_sorted(field, n, elems)
    return memo(("weak_orthogonal_group", Q.field.name, Q.n, Q.gram.rows),
                build, order_gl(Q.n, Q.field.order), budget)


def congruence_codes(field, R, cols):
    """The position in enumerate_forms order of x |-> R(A x) for every A
    whose columns have the vector indices in a row of cols: the upper
    coefficients R(A e_i) and B(A e_i, A e_j), i < j, read as base-q
    digits, each gathered from R's value or polar table."""
    q, N = field.order, field.order ** R.n
    vals, B = form_values_np(R), polar_table_np(R).ravel()
    codes = np.zeros(len(cols), dtype=np.int64)
    for i in range(R.n):
        codes *= q
        codes += vals.take(cols[:, i])
        row = cols[:, i].astype(np.intp) * N        # B's row of A e_i
        for j in range(i + 1, R.n):
            codes *= q
            codes += B.take(row + cols[:, j])
    return codes


def _orbit_walk(field, n, budget=None):
    """The congruence orbits of the forms on F^n, as (R, members, K): R the
    first form no earlier orbit holds, members the positions of the R o A
    (congruence_codes), and K[k][(a, b), (c, d)] = A^-1[a, c] A[d, b] for
    member k's A, so K[k] vec(g) = vec(A^-1 g A), row-major.  The codes must
    hit each member |O(R)| times (orbit-stabiliser, a check of O(R)), and
    the orbits must not overlap; a failure raises even under -O.  Memoised,
    behind the |GL_n| gate."""
    def build():
        cols = enumerate_gl(field, n, budget).columns()
        seen, orbits = np.zeros(field.order ** (n * (n + 1) // 2), bool), []
        while not seen.all():
            R = QForm.from_upper(field, n, form_block_np(
                field, n, int(seen.argmin()), 1)[0].tolist())
            codes = congruence_codes(field, R, cols)
            hits = np.bincount(codes, minlength=len(seen))
            members = np.flatnonzero(hits)
            if ((hits[members] != orthogonal_group(R, budget).order).any()
                    or seen[members].any()):
                raise InvariantViolation("congruence orbit of %r fails the "
                                         "orbit-stabiliser count" % (R,))
            seen[members] = True
            first = np.empty(len(seen), dtype=np.intp)
            first[codes] = np.arange(len(cols))
            At = vectors_np(field, n)[cols[first[members]]]  # members' A^T
            inv = invert_np(field, At.swapaxes(1, 2))[1]
            K = mul_np(field, inv[:, :, np.newaxis, :, np.newaxis],
                       At[:, np.newaxis, :, np.newaxis])
            orbits.append((R, members, K.reshape(len(members), n * n, n * n)))
        return tuple(orbits)
    return memo(("_orbit_walk", field.name, n), build,
                order_gl(n, field.order), budget)


def groups_by_orbit(field, n, group, budget=None):
    """group(Q) for every form Q on F^n, in enumerate_forms order, where
    group is orthogonal_group or weak_orthogonal_group: for Q = R o A,
    A^-1 O(R) A = O(Q), and A^-1 O'(R) A = O'(Q) as A^-1 rad(R) = rad(Q).
    R, its orbit's first member, takes group(R) itself.  Another member's
    conjugates must be distinct, and the least must be I (the least code of
    GL_n), which checks its A^-1; a failure raises even under -O.
    Memoised, as a tuple, behind the |GL_n| gate."""
    def build():
        out = [None] * field.order ** (n * (n + 1) // 2)
        powers = _code_powers(field, n)
        for R, members, K in _orbit_walk(field, n, budget):
            out[members[0]] = G = group(R, budget)
            if len(members) == 1:       # a lone form, such as zero
                continue
            g = G.as_np()
            run = max(1, _RUN_ENTRIES // max(1, g.size))   # members per run
            for s in range(1, len(members), run):
                conj = matmul_np(field, K[s:s + run],       # one GEMM
                                 g.reshape(len(g), n * n).T)
                codes = np.sort(np.einsum("e,keo->ko", powers, conj), axis=1)
                if (codes[:, 1:] == codes[:, :-1]).any():
                    raise InvariantViolation("repeated conjugates of %r"
                                             % (R,))
                if (codes[:, 0] != powers[::n + 1].sum()).any():   # I's code
                    raise InvariantViolation("the least conjugate of %r is "
                                             "not I" % (R,))
                for k, elems in zip(members[s:s + run].tolist(), codes):
                    out[k] = GroupSet.from_sorted(field, n, elems)
        return tuple(out)
    return memo(("groups_by_orbit", field.name, n, group.__name__), build,
                order_gl(n, field.order), budget)


def closure(field, n, generators, budget=None):
    """Smallest GroupSet containing the generators, by BFS saturation.

    `generators` is a (k, n, n) integer stack.  The ambient (field, n) is
    explicit so that an empty generating set still has a home; the result is
    then just {identity}.
    """
    budget = group_budget() if budget is None else budget
    gens = np.asarray(generators, dtype=np.uint8)
    frontier = np.eye(n, dtype=np.uint8)[np.newaxis]
    seen = matrix_codes(field, frontier)
    while len(frontier) and len(gens):
        prods = matmul_np(field, frontier[:, np.newaxis], gens).reshape(
            len(frontier) * len(gens), n, n)
        codes, first = np.unique(matrix_codes(field, prods), return_index=True)
        new = ~np.isin(codes, seen, assume_unique=True)
        frontier = prods[first[new]]
        seen = np.concatenate([seen, codes[new]])
        require(len(seen), budget)
    return GroupSet(field, n, seen)


def group_equal(g1, g2):
    if g1.field is not g2.field or g1.n != g2.n:
        raise ValueError("group comparison across different spaces")
    return g1.key == g2.key


def is_subgroup(g1, g2):
    """Is g1 contained in g2 (as sets)?"""
    if g1.field is not g2.field or g1.n != g2.n:
        raise ValueError("group comparison across different spaces")
    return bool(np.isin(g1.elems, g2.elems, assume_unique=True).all())


# --- reflection generation -------------------------------------------------

CASE_HYPERBOLIC_RADICAL = "hyperbolic-plane-plus-radical"   # x1x2, dim > 2
CASE_HYPERBOLIC_PAIR = "hyperbolic-pair"                    # x1x2+x3x4, dim >= 4


def _exceptional_shape(Q, vals):
    """The literal two-case taxonomy, read from Q's invariants: is Q over
    GF(2) congruent to x1x2 (n > 2) or to x1x2 + x3x4 (n >= 4)?  Over GF(2)
    a form with value table vals, polar rank k and radical dimension n - k
    is congruent to x1x2 + ... + x(k-1)xk, zero on the radical, exactly
    when it has 2^(n-k) (2^(k-1) + 2^(k/2-1)) zeros: one nonzero on the
    radical has 2^(n-1), and the other Arf class fewer (Lidl and
    Niederreiter, *Finite Fields*, ch. 6)."""
    k = qf_rank(Q) if Q.field.order == 2 and Q.n > 2 else None
    if k in (2, 4) and np.count_nonzero(vals == 0) == 2 ** (Q.n - k) * (
            2 ** (k - 1) + 2 ** (k // 2 - 1)):
        return CASE_HYPERBOLIC_RADICAL if k == 2 else CASE_HYPERBOLIC_PAIR
    return None


def _reflections_np(Q, vals):
    """I - Q(f)^-1 f (Bf)^T for every vector f, in vector-index order, from
    the value table vals of Q (the identity where Q(f) = 0)."""
    field, n = Q.field, Q.n
    V = vectors_np(field, n)
    Bf = polar_images_np(field, n, np.array([Q.upper_coeffs()], np.uint8))[0]
    scaled = mul_np(field, neg_inverses_np(field)[vals][:, np.newaxis], Bf)
    rank_one = mul_np(field, V[:, :, np.newaxis], scaled[:, np.newaxis, :])
    return add_np(field, np.eye(n, dtype=np.uint8), rank_one)


class ReflectionStatus(NamedTuple):
    generates: bool
    exceptional: str | None
    reflection_count: int
    closure_order: int
    weak_order: int


def reflection_generation_status(Q, budget=None):
    """Do the reflections of Q generate the weak orthogonal group?

    Computes the closure of all reflections and compares it with O'(Q),
    then independently reads the exceptional shape from Q's invariants
    (only over the two-element field); the two verdicts must agree, and a
    disagreement raises instead of being swallowed.
    """
    field, n = Q.field, Q.n
    vals = form_values_np(Q)
    refs = _reflections_np(Q, vals)[vals != 0]
    gen = closure(field, n, refs, budget)
    weak = weak_orthogonal_group(Q, budget)
    if not is_subgroup(gen, weak):
        raise InvariantViolation("reflection closure escaped O'")
    generates = group_equal(gen, weak)
    exceptional = _exceptional_shape(Q, vals)
    if generates != (exceptional is None):
        raise InvariantViolation(
            "taxonomy mismatch for %r: closure order %d, weak order %d, "
            "tag %r" % (Q, gen.order, weak.order, exceptional))
    return ReflectionStatus(
        generates=generates,
        exceptional=exceptional,
        reflection_count=len(refs),
        closure_order=gen.order,
        weak_order=weak.order,
    )
