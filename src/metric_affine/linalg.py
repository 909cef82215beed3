"""Small exact matrices over a Field.

Everything here is deliberately plain: a matrix is an immutable tuple of row
tuples plus an explicit shape (so 0x0 and 0xn matrices work), and all the
eliminations are textbook Gauss-Jordan written against the Field interface.
Vectors are n x 1 matrices (columns); dual vectors are columns as well, with
the canonical pairing <a*, x> = sum_i a_i x_i.

These matrices are used for the public, readable side of the package.  The
bulk enumeration work (orthogonal groups and friends) lives in groups.py on
top of numpy integer tables instead.
"""

from __future__ import annotations


class Singular(Exception):
    """Raised when a matrix inversion is impossible."""


class Mat:
    """Immutable matrix over `field`; entries are raw field values."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, shape=None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if shape is None:
            nrows = len(rows)
            ncols = len(rows[0]) if rows else 0
        else:
            nrows, ncols = shape
        assert len(rows) == nrows, (len(rows), nrows)
        for row in rows:
            assert len(row) == ncols, (row, ncols)
        self.field = field
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols

    @classmethod
    def _trusted(cls, field, rows, nrows, ncols):
        """Build from a tuple of row tuples whose entries are already field
        values of the right shape (results of field arithmetic or entries of
        another Mat), skipping the per-entry coercion of the constructor."""
        self = object.__new__(cls)
        self.field = field
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols
        return self

    # --- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], (nrows, ncols))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    # --- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.shape == other.shape
                and self.field.name == other.field.name)

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return "Mat(%s, %r)" % (self.field.name, [list(r) for r in self.rows])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j):
        return Mat._trusted(self.field, tuple((r[j],) for r in self.rows),
                            self.nrows, 1)

    def entries(self):
        """Column-vector convenience: the entries of an n x 1 matrix."""
        assert self.ncols == 1, self.shape
        return tuple(r[0] for r in self.rows)

    @property
    def T(self):
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Mat._trusted(self.field, rows, self.ncols, self.nrows)

    def is_zero(self):
        z = self.field.zero
        return all(x == z for row in self.rows for x in row)

    def is_identity(self):
        return self.nrows == self.ncols and self == Mat.identity(self.field, self.nrows)

    # --- arithmetic --------------------------------------------------------

    def __add__(self, other):
        assert self.shape == other.shape and self.field is other.field
        F = self.field
        return Mat._trusted(F, tuple(tuple(F.add(a, b) for a, b in zip(ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)),
                            self.nrows, self.ncols)

    def __sub__(self, other):
        assert self.shape == other.shape and self.field is other.field
        F = self.field
        return Mat._trusted(F, tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)),
                            self.nrows, self.ncols)

    def __neg__(self):
        F = self.field
        return Mat._trusted(F, tuple(tuple(F.neg(a) for a in row)
                                     for row in self.rows),
                            self.nrows, self.ncols)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return Mat._trusted(F, tuple(tuple(F.mul(c, a) for a in row)
                                     for row in self.rows),
                            self.nrows, self.ncols)

    def __mul__(self, other):
        """Matrix product; maps act on column vectors from the left."""
        assert isinstance(other, Mat), other
        assert self.field is other.field
        assert self.ncols == other.nrows, (self.shape, other.shape)
        F = self.field
        ocols = (tuple(zip(*other.rows)) if other.nrows
                 else ((),) * other.ncols)
        dot = F.dot
        return Mat._trusted(F, tuple(tuple(dot(row, c) for c in ocols)
                                     for row in self.rows),
                            self.nrows, other.ncols)

    def submatrix(self, row_idx, col_idx):
        return Mat._trusted(self.field,
                            tuple(tuple(self.rows[i][j] for j in col_idx)
                                  for i in row_idx),
                            len(row_idx), len(col_idx))


def vec(field, entries):
    entries = list(entries)
    return Mat(field, [[x] for x in entries], (len(entries), 1))


def unit_vector(field, n, i):
    z, o = field.zero, field.one
    return Mat._trusted(field, tuple((o if k == i else z,) for k in range(n)),
                        n, 1)


def pairing(astar, x):
    """Canonical pairing of a dual column with a vector: sum a_i x_i."""
    assert astar.shape == x.shape and astar.ncols == 1
    return astar.field.dot(astar.entries(), x.entries())


def outer(u, vstar):
    """u * vstar^T for columns u, vstar: the rank-<=1 matrix (u_i v_j)."""
    assert u.ncols == 1 and vstar.ncols == 1
    F = u.field
    vs = vstar.entries()
    return Mat(F, [[F.mul(ui, vj) for vj in vs] for ui in u.entries()],
               (u.nrows, vstar.nrows))


def rref(M):
    """Reduced row-echelon form.  Returns (R, pivot_columns)."""
    F = M.field
    rows = [list(r) for r in M.rows]
    nr, nc = M.nrows, M.ncols
    z = F.zero
    inv, mul, sub = F.inv, F.mul, F.sub
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c] != z:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = inv(rows[r][c])
        prow = rows[r] = [mul(pv, x) for x in rows[r]]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f != z:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return Mat._trusted(F, tuple(map(tuple, rows)), nr, nc), pivots


def rank(M):
    return len(rref(M)[1])


def mat_invert(M):
    """Inverse via Gauss-Jordan on [M | I].  Raises Singular."""
    if M.nrows != M.ncols:
        raise Singular("not square: %s" % (M.shape,))
    n = M.nrows
    F = M.field
    eye = Mat.identity(F, n).rows
    aug = Mat._trusted(F, tuple(M.rows[i] + eye[i] for i in range(n)),
                       n, 2 * n)
    R, pivots = rref(aug)
    # [M | I] always has n pivots; M is invertible iff they all land in M.
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return R.submatrix(range(n), range(n, 2 * n))


def kernel_basis(M):
    """Deterministic basis of {x : M x = 0}, as a list of columns.

    Free variables are taken in increasing column order, each set to 1 in
    turn, which is the usual RREF back-substitution convention.
    """
    F = M.field
    R, pivots = rref(M)
    nc = M.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    z, o = F.zero, F.one
    for fc in free:
        x = [z] * nc
        x[fc] = o
        for r_i, pc in enumerate(pivots):
            x[pc] = F.neg(R.rows[r_i][fc])
        basis.append(Mat._trusted(F, tuple((e,) for e in x), nc, 1))
    return basis


def annihilator(field, n, vectors):
    """Basis of {a* in V* : <a*, v> = 0 for all v}, for V of dimension n.

    `vectors` is an iterable of columns in V; the result is a list of dual
    columns.  With no vectors the whole dual space comes back.
    """
    vectors = list(vectors)
    for v in vectors:
        assert v.nrows == n and v.ncols == 1, v.shape
    M = Mat(field, [v.entries() for v in vectors], (len(vectors), n))
    return kernel_basis(M)


def span_contains(basis, v):
    """Is column v in the span of the given columns?"""
    if not basis:
        return v.is_zero()
    cols = [b.entries() for b in basis] + [v.entries()]
    M = Mat(v.field, zip(*cols), (v.nrows, len(cols)))
    return rank(M) == rank(M.submatrix(range(M.nrows), range(len(basis))))

