"""Exact matrix arithmetic: inverses, RREF, kernels, annihilators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metric_affine.fields import GF2, GF3, GF5, QQ
from metric_affine.linalg import (Mat, Singular, annihilator, kernel_basis,
                                  mat_invert, outer, pairing, rank, rref,
                                  span_contains, unit_vector, vec)


def test_identity_and_zero_shapes():
    I = Mat.identity(GF3, 3)
    Z = Mat.zeros(GF3, 2, 3)
    assert I.is_identity() and not I.is_zero()
    assert Z.is_zero()
    assert (I * I) == I
    # 0 x 0 and 0 x n corners stay consistent
    E = Mat.identity(QQ, 0)
    assert E.is_identity() and E.is_zero()  # vacuously both
    assert (E * E).shape == (0, 0) if hasattr(E, "shape") else True


def test_matmul_known():
    A = Mat(GF2, [[1, 1], [0, 1]])
    B = Mat(GF2, [[1, 0], [1, 1]])
    assert (A * B).rows == ((0, 1), (1, 1))
    v = vec(GF2, (1, 1))
    assert (A * v).entries() == (0, 1)


@given(rows=st.lists(st.lists(st.sampled_from(range(5)), min_size=3,
                              max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_inverse_roundtrip_gf5(rows):
    A = Mat(GF5, rows)
    try:
        Ainv = mat_invert(A)
    except Singular:
        assert rank(A) < 3
        return
    assert (A * Ainv).is_identity() and (Ainv * A).is_identity()


@given(rows=st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
             min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=60)
def test_inverse_roundtrip_rational(rows):
    A = Mat(QQ, rows)
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det == 0:
        with pytest.raises(Singular):
            mat_invert(A)
    else:
        assert (A * mat_invert(A)).is_identity()


def test_invert_empty():
    E = Mat.identity(GF2, 0)
    assert mat_invert(E).nrows == 0


def test_rref_and_rank():
    A = Mat(GF3, [[1, 2, 0], [2, 2, 0], [0, 0, 0]])
    R, pivots = rref(A)
    assert pivots == [0, 1]
    assert rank(A) == 2
    # pivot columns hold unit vectors
    for k, j in enumerate(pivots):
        assert R.col(j).entries() == tuple(
            GF3.one if i == k else GF3.zero for i in range(3))


def test_kernel_annihilates():
    A = Mat(GF3, [[1, 2, 0], [2, 2, 0]])
    ker = kernel_basis(A)
    assert len(ker) == 1
    for v in ker:
        assert (A * v).is_zero()


def test_kernel_of_zero_map():
    Z = Mat.zeros(GF2, 2, 2)
    assert len(kernel_basis(Z)) == 2


def test_annihilator_dimension():
    # one vector in F^3 -> annihilator of dimension 2, and it vanishes there
    f = vec(GF5, (1, 2, 3))
    ann = annihilator(GF5, 3, [f])
    assert len(ann) == 2
    for a in ann:
        assert pairing(a, f) == GF5.zero
    assert annihilator(GF5, 3, []) and len(annihilator(GF5, 3, [])) == 3


def test_outer_and_pairing():
    u = vec(GF3, (1, 2))
    a = vec(GF3, (2, 1))
    M = outer(u, a)
    assert M.rows == ((2, 1), (1, 2))
    assert pairing(a, u) == (2 * 1 + 1 * 2) % 3


def test_unit_vectors_span():
    vs = [unit_vector(GF2, 3, i) for i in range(3)]
    assert span_contains(vs, vec(GF2, (1, 1, 1)))
    assert not span_contains(vs[:2], vec(GF2, (0, 0, 1)))
    assert span_contains([], vec(GF2, (0, 0, 0)))


def test_transpose_involution():
    A = Mat(GF3, [[1, 2, 0], [0, 1, 1]])
    assert A.T.T == A
    assert A.T.rows == ((1, 0), (2, 1), (0, 1))


def test_submatrix():
    A = Mat(GF5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    S = A.submatrix([1, 2], [0, 2])
    assert S.rows == ((4, 1), (2, 2))
