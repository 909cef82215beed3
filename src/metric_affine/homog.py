"""The homogeneous model: affinities as (n+1)-matrices, and form lifting.

An affinity x |-> t + A x of F^n embeds into GL(n+1) twice over:

  * `point_matrix` acts on the space F x V of "homogenised points",
    (x0, x) |-> (x0, x0 t + A x), with block matrix [[1, 0], [t, A]];
  * `dual_matrix` acts on F x V*, the dual side, and is the inverse
    transpose [[1, -t^T A^-T], [0, A^-T]].

Each function here reads F and n from its own argument.  The dual picture
fixes the distinguished vector e0 = (1, o*), the first unit vector of
F x V*, and the maps fixing e0 are exactly the dual images of affinities,
which is what `dual_matrix_preimage` inverts.

A form Q on V with non-degenerate polar form B has a companion form on
F x V* ("lift"): the Gram matrix is diag(0, B^-1 W B^-1).  The companion
vanishes on e0 and has exactly the line through e0 as the radical of its
polar form; "drop" inverts the construction.  Motions of (V, Q) turn into
isometries of the lifted form under the dual representation, which is what
the classification machinery in classify.py exploits.  Only lift_np and
motion_group_dual import numpy and the group engine, in their bodies, so
lift and drop run without them.
"""

from __future__ import annotations

from typing import NamedTuple

from .budget import InvariantViolation
from .linalg import (Mat, Singular, mat_invert, span_contains, unit_vector,
                     vec)
from .quadform import (QForm, enumerate_forms, form_position, is_isometry,
                       is_nondegenerate, poly_str, polar, polar_apply,
                       qf_eval, qf_scale, radical_basis, reflection)


class DegeneratePolarForm(Exception):
    """Lift needs an invertible polar matrix; this form has a radical."""


class NotDroppable(Exception):
    """The form upstairs fails a drop precondition; `reason` says which."""

    REASON_VALUE = "nonzero-at-distinguished-point"
    REASON_RADICAL = "radical-not-distinguished-line"

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__("%s%s" % (reason, (": " + detail) if detail else ""))


class _AffineMapBase(NamedTuple):
    t: Mat
    A: Mat


class AffineMap(_AffineMapBase):
    """x |-> t + A x with invertible linear part A; (t, A) is unique."""

    __slots__ = ()

    def __new__(cls, t, A):
        assert t.ncols == 1 and t.nrows == A.nrows
        assert A.nrows == A.ncols
        return super().__new__(cls, t, A)

    @classmethod
    def identity(cls, fld, n):
        return cls(Mat.zeros(fld, n, 1), Mat.identity(fld, n))

    @classmethod
    def translation(cls, t):
        return cls(t, Mat.identity(t.field, t.nrows))

    @property
    def is_translation(self):
        return self.A.is_identity()

    def apply(self, x):
        return self.t + self.A * x

    def compose(self, other):
        """self after other: x |-> self(other(x))."""
        return AffineMap(self.t + self.A * other.t, self.A * other.A)

    def inverse(self):
        Ainv = mat_invert(self.A)
        return AffineMap(-(Ainv * self.t), Ainv)


def point_matrix(gamma):
    """The (n+1)-matrix [[1, 0],[t, A]] acting on (x0, x) columns."""
    F, n = gamma.A.field, gamma.A.nrows
    z, o = F.zero, F.one
    rows = [[o] + [z] * n]
    for i in range(n):
        rows.append([gamma.t[i, 0]] + list(gamma.A.rows[i]))
    return Mat(F, rows, (n + 1, n + 1))


def dual_matrix(gamma):
    """The action on (a0, a*) columns: [[1, -t^T A^-T], [0, A^-T]].

    This is exactly the inverse transpose of point_matrix(gamma) (checked;
    InvariantViolation otherwise), so its first column is e0, i.e. the
    distinguished dual vector stays put.
    """
    F, n = gamma.A.field, gamma.A.nrows
    z, o = F.zero, F.one
    Ainv = mat_invert(gamma.A)
    head = (Ainv * gamma.t).entries()  # -t^T A^-T as a column, then negate
    rows = [[o] + [F.neg(x) for x in head]]
    AinvT = Ainv.T
    for i in range(n):
        rows.append([z] + list(AinvT.rows[i]))
    out = Mat(F, rows, (n + 1, n + 1))
    if out.T * point_matrix(gamma) != Mat.identity(F, n + 1):
        raise InvariantViolation("dual matrix of %r is not the inverse "
                                 "transpose of its point matrix" % (gamma,))
    return out


def dual_matrix_preimage(kappa):
    """The affinity gamma with dual_matrix(gamma) = kappa, if one exists.

    Returns None unless the first column of kappa is e0 (kappa must fix the
    distinguished dual vector, not just its line).
    """
    F, n = kappa.field, kappa.nrows - 1
    assert kappa.ncols == n + 1
    if kappa.col(0) != unit_vector(F, n + 1, 0):
        return None
    M = kappa.submatrix(range(1, n + 1), range(1, n + 1))   # A^-T
    A = mat_invert(M.T)
    u = vec(F, kappa.rows[0][1:])                           # -t^T A^-T as row
    t = -(A * u)
    gamma = AffineMap(t, A)
    if dual_matrix(gamma) != kappa:
        raise InvariantViolation("%r is not the preimage of %r"
                                 % (gamma, kappa))
    return gamma


def lift(Q):
    """The companion form on F x V*: Gram diag(0, B^-1 W B^-1).

    Only defined when the polar form B is non-degenerate.  The result
    vanishes at e0, and the lower-right block of its polar matrix is B^-1;
    with its first row and column zero, that makes the polar radical
    exactly the line F e0.  Both are checked (InvariantViolation otherwise).
    """
    F, n = Q.field, Q.n
    B = polar(Q)
    try:
        Binv = mat_invert(B)
    except Singular:
        raise DegeneratePolarForm(
            "polar form of %s is degenerate" % poly_str(Q)) from None
    core = Binv * Q.gram * Binv
    z = F.zero
    rows = ((z,) * (n + 1),) + tuple((z,) + r for r in core.rows)
    out = QForm(F, Mat._trusted(F, rows, n + 1, n + 1))
    body = range(1, n + 1)
    if (polar(out).submatrix(body, body) * B != Mat.identity(F, n)
            or qf_eval(out, unit_vector(F, n + 1, 0)) != F.zero):
        raise InvariantViolation("lift of %s must vanish at e0 and have "
                                 "polar block B^-1" % poly_str(Q))
    return out


def lift_np(field, n, W):
    """lift for a stack of forms on F^n over a finite field, held as upper
    coefficients W (shape (k, n(n+1)/2)): (ok, up), where ok marks the
    forms with a non-degenerate polar form and up holds the upper
    coefficients of their lifts on F^(n+1) (other rows are meaningless).

    One stacked Gauss-Jordan inverts every B = W + W^T; the lift is then
    zero on the first row and B^-1 W B^-1 below it.  As in lift, the polar
    block of the lift times B must be the identity (InvariantViolation
    otherwise), on every row of ok.
    """
    import numpy as np
    from .groups import gram_polar_np, invert_np, matmul_np, upper_coeffs_np
    G, B = gram_polar_np(field, n, W)
    ok, Binv = invert_np(field, B)
    core = upper_coeffs_np(field, matmul_np(field, matmul_np(field, Binv, G),
                                            Binv))
    block = gram_polar_np(field, n, core)[1]
    if (matmul_np(field, block[ok], B[ok]) != np.eye(n, dtype=np.uint8)).any():
        raise InvariantViolation("a stacked lift over %s, dim %d, fails "
                                 "polar block * B = I" % (field.name, n))
    return ok, np.concatenate([np.zeros((len(W), n + 1), dtype=np.uint8),
                               core], axis=1)


def drop(Qt):
    """Inverse of lift: from a form on F x V* back down to one on V.

    Preconditions (NotDroppable, with `reason` saying which one failed):
    Qt vanishes at e0, and the radical of its polar form is the line F e0.
    """
    F = Qt.field
    n = Qt.n - 1
    if n < 0:
        # F x V* has dimension >= 1, so a form on F^0 has no line F e0
        raise NotDroppable(NotDroppable.REASON_RADICAL, poly_str(Qt, "a", 0))
    e0 = unit_vector(F, n + 1, 0)
    if qf_eval(Qt, e0) != F.zero:
        raise NotDroppable(NotDroppable.REASON_VALUE, poly_str(Qt, "a", 0))
    rad = radical_basis(Qt)
    if len(rad) != 1 or not span_contains(rad, e0):
        raise NotDroppable(NotDroppable.REASON_RADICAL, poly_str(Qt, "a", 0))
    body = list(range(1, n + 1))
    S = polar(Qt).submatrix(body, body)
    Wsub = Qt.gram.submatrix(body, body)
    Sinv = mat_invert(S)
    out = QForm(F, Sinv * Wsub * Sinv)
    if not is_nondegenerate(out):
        raise InvariantViolation("drop of %s is degenerate"
                                 % poly_str(Qt, "a", 0))
    return out


class RoundtripReport(NamedTuple):
    field_name: str
    n: int
    lifted: int
    dropped: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def roundtrip_checks(fld, n):
    """Exhaustively check lift/drop inversion and the scaling law on dim n.

    For forms Q on V (dim n) with non-degenerate polar form:
      drop(lift(Q)) = Q, and lift(cQ) = c^-1 lift(Q) for every c != 0 —
      so {lift(cQ) : c != 0} and {c lift(Q) : c != 0} are the same set.
    For forms Qt on dim n satisfying the drop preconditions:
      lift(drop(Qt)) = Qt.
    """
    violations = []
    lifted = dropped = 0
    units = fld.units()
    for Q in enumerate_forms(fld, n):
        if not is_nondegenerate(Q):
            continue
        lifted += 1
        up = lift(Q)
        if drop(up) != Q:
            violations.append(("drop-lift", Q))
        for c in units:
            if lift(qf_scale(Q, c)) != qf_scale(up, fld.inv(c)):
                violations.append(("scaling", Q, c))
    if n >= 1:
        for Qt in enumerate_forms(fld, n):
            try:
                down = drop(Qt)
            except NotDroppable:
                continue
            dropped += 1
            if lift(down) != Qt:
                violations.append(("lift-drop", Qt))
    return RoundtripReport(fld.name, n, lifted, dropped, tuple(violations))


def motion_group_dual(Q, weak, budget=None):
    """All motions of (V, Q) pushed through the dual representation.

    A motion is an affinity whose linear part preserves Q (and fixes the
    radical pointwise in the `weak` variant); the result is the GroupSet of
    their (n+1)-matrices on F x V*, of order q^n * |O| (resp. |O'|).

    dual_matrix sends x |-> t + A x to [[1, -(A^-1 t)^T], [0, A^-T]].  The
    linear group is closed under inverses and t |-> -A^-1 t permutes F^n,
    so the image is {[[1, s^T], [0, B^T]] : s in F^n, B in the group},
    assembled here as one stack.  The group is read from the memoised
    groups_by_orbit table, behind its |GL_n| gate, so a first call builds
    the linear groups of every form on F^n, one per congruence orbit.
    """
    import numpy as np
    from . import groups
    F, n = Q.field, Q.n
    linear = groups.groups_by_orbit(
        F, n, (groups.weak_orthogonal_group if weak
               else groups.orthogonal_group), budget)[form_position(Q)]
    S = groups.vectors_np(F, n)
    out = np.zeros((linear.order, len(S), n + 1, n + 1), dtype=np.uint8)
    out[..., 0, 0] = 1
    out[..., 0, 1:] = S
    out[..., 1:, 1:] = linear.as_np().transpose(0, 2, 1)[:, np.newaxis]
    out = groups.GroupSet(F, n + 1, groups.matrix_codes(F, out).ravel())
    if out.order != (F.order ** n) * linear.order:
        raise InvariantViolation("motion group of %s has repeated elements"
                                 % poly_str(Q))
    return out


def affine_reflection(Q, p, r):
    """The affine reflection x |-> x - Q(r)^-1 B(r, x - p) r.

    Linear part: the reflection along r; translation: Q(r)^-1 B(r,p) r.
    Its linear part lands in the weak orthogonal group, and the map fixes
    p (checked; InvariantViolation otherwise).
    """
    F = Q.field
    if not isinstance(p, Mat):
        p = vec(F, p)
    if not isinstance(r, Mat):
        r = vec(F, r)
    A = reflection(Q, r)  # raises NotReflectable when Q(r) = 0
    c = F.mul(F.inv(qf_eval(Q, r)), polar_apply(Q, r, p))
    t = r.scale(c)
    if not is_isometry(Q, A):
        raise InvariantViolation("reflection along %r is no isometry"
                                 % (r.entries(),))
    if any(A * rad != rad for rad in radical_basis(Q)):
        raise InvariantViolation("reflection along %r moves the radical"
                                 % (r.entries(),))
    gamma = AffineMap(t, A)
    if gamma.apply(p) != p:
        raise InvariantViolation("the axis point %r must stay fixed"
                                 % (p.entries(),))
    return gamma


def reflection_correspondence(Q, p, r):
    """Dual image of the affine reflection == reflection of the lifted form
    in the direction (-B(r,p), B r).  Returns the comparison verdict."""
    F = Q.field
    if not isinstance(p, Mat):
        p = vec(F, p)
    if not isinstance(r, Mat):
        r = vec(F, r)
    lhs = dual_matrix(affine_reflection(Q, p, r))
    up = lift(Q)
    direction = vec(F, [F.neg(polar_apply(Q, r, p))] + list((polar(Q) * r).entries()))
    rhs = reflection(up, direction)
    return lhs == rhs
