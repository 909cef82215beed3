"""Quadratic forms Q(x) = x^T W x with a canonical upper-triangular W.

Two Gram matrices describe the same form iff they agree on the diagonal and
on the sums w_ij + w_ji of opposite off-diagonal entries, so we normalise
once in the constructor: keep the diagonal, fold everything strictly below
the diagonal into the upper part, and store that upper-triangular matrix.
Form equality is then plain matrix equality, and a form hashes by its Gram
rows, the key the group memos use.  Forms given by their upper coefficients
(`from_upper`, `enumerate_forms`) are canonical already and skip the fold.

The polar form is B = W + W^T (always symmetric; alternating in
characteristic 2), and D: V -> V* with matrix B is the induced linear map.
"""

from __future__ import annotations

import itertools
import json

from .fields import field_make
from .linalg import Mat, kernel_basis, outer, vec


class NotReflectable(Exception):
    """Raised for reflection vectors r with Q(r) = 0."""


class QForm:
    """A quadratic form on F^n, held as its canonical Gram matrix."""

    __slots__ = ("field", "n", "gram", "_polar")

    def __init__(self, field, gram):
        """From any Gram matrix: fold the part below the diagonal into the
        upper part (pullbacks, scalings, lifts and Mat inputs)."""
        assert isinstance(gram, Mat) and gram.field is field
        assert gram.nrows == gram.ncols
        n = gram.nrows
        z = field.zero
        g = gram.rows
        rows = []
        for i in range(n):
            row = [z] * n
            row[i] = g[i][i]
            for j in range(i + 1, n):
                row[j] = field.add(g[i][j], g[j][i])
            rows.append(tuple(row))
        self._set_rows(field, n, tuple(rows))

    def _set_rows(self, field, n, rows):
        if n < 0:
            raise ValueError("dim must be a non-negative integer, got %r" % (n,))
        self.field = field
        self.n = n
        self.gram = Mat._trusted(field, rows, n, n)
        self._polar = None

    @classmethod
    def _trusted(cls, field, n, rows):
        """Build from a tuple of canonical upper-triangular rows (row i
        starts with i zeros) whose entries are already field values, with
        no coercion and no fold."""
        self = object.__new__(cls)
        self._set_rows(field, n, rows)
        return self

    @classmethod
    def zero(cls, field, n):
        return cls._trusted(field, n, ((field.zero,) * n,) * n)

    @classmethod
    def from_upper(cls, field, n, coeffs):
        """Build from row-major upper coefficients [(0,0), (0,1), ..., (n-1,n-1)]."""
        coeffs = tuple(field.coerce(c) for c in coeffs)
        want = n * (n + 1) // 2
        if len(coeffs) != want:
            raise ValueError("dim %d needs %d coefficients, got %d"
                             % (n, want, len(coeffs)))
        z = field.zero
        rows = []
        k = 0
        for i in range(n):
            rows.append((z,) * i + coeffs[k:k + n - i])
            k += n - i
        return cls._trusted(field, n, tuple(rows))

    def upper_coeffs(self):
        """Row-major upper coefficients; inverse of `from_upper`."""
        return tuple(itertools.chain.from_iterable(
            row[i:] for i, row in enumerate(self.gram.rows)))

    def __eq__(self, other):
        return isinstance(other, QForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram.rows)

    def __repr__(self):
        return "QForm(%s, dim=%d, %s)" % (self.field.name, self.n, poly_str(self))

    def is_zero(self):
        return self.gram.is_zero()


def qf_eval(Q, x):
    """Q(x) for a column (or plain sequence) x."""
    if not isinstance(x, Mat):
        x = vec(Q.field, x)
    assert x.nrows == Q.n and x.ncols == 1
    return (x.T * Q.gram * x)[0, 0] if Q.n else Q.field.zero


def polar(Q):
    """The polar form B = W + W^T as a symmetric matrix (cached: the form
    is immutable and the sweeps ask for B over and over)."""
    if Q._polar is None:
        Q._polar = Q.gram + Q.gram.T
    return Q._polar


def polar_apply(Q, r, x):
    """B(r, x) = Q(r + x) - Q(r) - Q(x), computed via the matrix."""
    return (r.T * polar(Q) * x)[0, 0] if Q.n else Q.field.zero


def radical_basis(Q):
    """Basis of the radical of the polar form, rad B = ker D."""
    return kernel_basis(polar(Q))


def is_nondegenerate(Q):
    return not radical_basis(Q)


def qf_rank(Q):
    return Q.n - len(radical_basis(Q))


def qf_pullback(Q, A):
    """The form x |-> Q(A x), i.e. Gram matrix A^T W A (re-canonicalised)."""
    assert A.nrows == Q.n and A.ncols == A.nrows
    return QForm(Q.field, A.T * Q.gram * A)


def all_vectors(field, n):
    """All of F^n as tuples; index of x is sum_i x_i q^i (x_0 fastest)."""
    return [x[::-1] for x in itertools.product(field.elements(), repeat=n)]


def is_isometry(Q, A):
    """Does A preserve Q, Q(Ax) = Q(x) for every x?

    Polarization, B(e_i, e_j) = Q(e_i + e_j) - Q(e_i) - Q(e_j), recovers
    every canonical coefficient from the values at the e_i and e_i + e_j,
    so on every field this holds exactly when the pullback of Q is Q.
    """
    assert A.nrows == Q.n and A.ncols == Q.n
    return qf_pullback(Q, A) == Q


def reflection(Q, r):
    """The reflection in the hyperplane polar to r: x |-> x - B(r,x)/Q(r) r.

    Requires Q(r) != 0; raises NotReflectable otherwise.
    """
    if not isinstance(r, Mat):
        r = vec(Q.field, r)
    qr = qf_eval(Q, r)
    if qr == Q.field.zero:
        raise NotReflectable("Q(r) = 0 for r = %r" % (r.entries(),))
    c = Q.field.inv(qr)
    return Mat.identity(Q.field, Q.n) - outer(r, polar(Q) * r).scale(c)


def qf_scale(Q, c):
    c = Q.field.coerce(c)
    return QForm(Q.field, Q.gram.scale(c))


def qf_proportional(Q1, Q2):
    """Return c with Q2 = c Q1, c != 0, or None.

    Zero against zero gives 1; zero against anything else gives None.
    """
    assert Q1.field is Q2.field and Q1.n == Q2.n
    F = Q1.field
    c1 = Q1.upper_coeffs()
    c2 = Q2.upper_coeffs()
    if Q1.is_zero():
        return F.one if Q2.is_zero() else None
    for a, b in zip(c1, c2):
        if a != F.zero:
            c = F.div(b, a)
            break
    if c == F.zero:
        return None
    return c if qf_scale(Q1, c) == Q2 else None


def enumerate_forms(field, n):
    """All quadratic forms on F^n, as a deterministic list."""
    # row i of a canonical Gram matrix is i zeros and then any n - i
    # values; every form takes its rows from these shared tuples, and the
    # product runs through the upper coefficients in row-major order
    z = field.zero
    choices = [[(z,) * i + tail
                for tail in itertools.product(field.elements(), repeat=n - i)]
               for i in range(n)]
    return [QForm._trusted(field, n, rows)
            for rows in itertools.product(*choices)]


def form_position(Q):
    """Q's index in enumerate_forms(Q.field, Q.n): its upper coefficients
    read as base-q digits, the first one most significant."""
    q = Q.field.order
    pos = 0
    for i, row in enumerate(Q.gram.rows):
        for c in row[i:]:
            pos = pos * q + c
    return pos


def poly_str(Q, var="x", start=1):
    """Render as a polynomial, e.g. "x1*x2 + x2^2" or "a0^2 + 2*a1*a2"."""
    F = Q.field
    terms = []
    for i in range(Q.n):
        for j in range(i, Q.n):
            c = Q.gram[i, j]
            if c == F.zero:
                continue
            if i == j:
                mono = "%s%d^2" % (var, start + i)
            else:
                mono = "%s%d*%s%d" % (var, start + i, var, start + j)
            if c == F.one:
                terms.append(mono)
            else:
                terms.append("%s*%s" % (F.to_json(c), mono))
    return " + ".join(terms) if terms else "0"


# --- form files ------------------------------------------------------------
#
# A form file is a JSON record {"field": ..., "dim": n, "upper": [...]} with
# the row-major upper-triangular coefficients, optionally preceded by '#'
# comment lines (the writer puts the rendered polynomial there).  Round
# trips are bit-exact: text -> form -> text is the identity on canonical
# files, and form -> text -> form is the identity always.

def form_to_text(Q, var="x", start=1):
    """Serialize a form in the form file format (comment + JSON record)."""
    rec = {"field": Q.field.name, "dim": Q.n,
           "upper": [Q.field.to_json(c) for c in Q.upper_coeffs()]}
    return "# %s\n%s\n" % (poly_str(Q, var, start),
                           json.dumps(rec, sort_keys=True))


def form_from_text(text):
    """Parse a form file; raises ValueError on anything malformed."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("form file holds no record")
    try:
        rec = json.loads("\n".join(lines))
    except json.JSONDecodeError as e:
        raise ValueError("form file is not valid JSON: %s" % e) from None
    if not isinstance(rec, dict):
        raise ValueError("form record must be a JSON object")
    missing = {"field", "dim", "upper"} - set(rec)
    if missing:
        raise ValueError("form record lacks %s" % ", ".join(sorted(missing)))
    field = field_make(rec["field"])
    n = rec["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("dim must be a non-negative integer, got %r" % (n,))
    upper = rec["upper"]
    want = n * (n + 1) // 2
    if not isinstance(upper, list) or len(upper) != want:
        raise ValueError("expected %d upper coefficients for dim %d, got %r"
                         % (want, n, upper))
    try:
        coeffs = [field.from_json(x) for x in upper]
    except (TypeError, ValueError) as e:
        raise ValueError("bad coefficient for %s: %s" % (field.name, e)) from None
    return QForm.from_upper(field, n, coeffs)
