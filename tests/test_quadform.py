"""Quadratic forms: canonicalization, polar/radical, isometries, files."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metric_affine.fields import GF2, GF3, GF4, GF5, GF7, QQ, PrimePowerField
from metric_affine.linalg import Mat, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    form_from_text, form_position,
                                    form_to_text, is_isometry,
                                    is_nondegenerate, poly_str, polar,
                                    qf_eval, qf_proportional, qf_pullback,
                                    qf_rank, qf_scale, radical_basis,
                                    reflection, NotReflectable)


def test_canonicalization_folds_lower_part():
    # w21 folds into w12: x2x1 and x1x2 are the same monomial
    Q1 = QForm(GF3, Mat(GF3, [[1, 0], [2, 1]]))
    Q2 = QForm(GF3, Mat(GF3, [[1, 2], [0, 1]]))
    assert Q1 == Q2
    assert Q1.gram.rows == ((1, 2), (0, 1))


@given(entries=st.lists(st.sampled_from(range(5)), min_size=9, max_size=9))
@settings(max_examples=50)
def test_canonicalization_preserves_values(entries):
    W = Mat(GF5, [entries[0:3], entries[3:6], entries[6:9]])
    Q = QForm(GF5, W)
    for x in itertools.product(range(5), repeat=3):
        xv = vec(GF5, x)
        raw = (xv.T * W * xv)[0, 0]
        assert qf_eval(Q, xv) == raw


def test_eval_accepts_sequences():
    Q = QForm.from_upper(GF2, 2, [1, 1, 0])  # x1^2 + x1x2
    assert qf_eval(Q, (1, 1)) == 0
    assert qf_eval(Q, (1, 0)) == 1
    assert qf_eval(Q, vec(GF2, (0, 1))) == 0


def test_polar_is_symmetric_and_alternating_in_char2():
    for F, n in ((GF2, 3), (GF4, 2), (GF3, 3)):
        for Q in enumerate_forms(F, n)[:40]:
            B = polar(Q)
            assert B == B.T
            if F.char == 2:
                for i in range(n):
                    assert B[i, i] == F.zero


def test_polar_values():
    # B(x, y) = Q(x + y) - Q(x) - Q(y)
    Q = QForm.from_upper(GF3, 2, [1, 2, 1])
    B = polar(Q)
    for x in all_vectors(GF3, 2):
        for y in all_vectors(GF3, 2):
            xv, yv = vec(GF3, x), vec(GF3, y)
            s = vec(GF3, tuple(GF3.add(a, b) for a, b in zip(x, y)))
            lhs = (xv.T * B * yv)[0, 0]
            rhs = GF3.add(qf_eval(Q, s),
                          GF3.neg(GF3.add(qf_eval(Q, xv), qf_eval(Q, yv))))
            assert lhs == rhs


def test_radical_and_rank():
    Q = QForm.from_upper(GF3, 3, [1, 0, 0, 1, 0, 0])  # x1^2 + x2^2
    rad = radical_basis(Q)
    assert len(rad) == 1
    assert qf_rank(Q) == 2
    assert not is_nondegenerate(Q)
    # char 2: odd dimension can never have trivial radical
    for Q in enumerate_forms(GF2, 3):
        assert not is_nondegenerate(Q)


def test_enumerate_counts():
    assert len(enumerate_forms(GF2, 2)) == 8
    assert len(enumerate_forms(GF3, 2)) == 27
    assert len(enumerate_forms(GF4, 1)) == 4
    # non-degenerate-polar forms on a binary plane: exactly the 4 with w12=1
    nd = [Q for Q in enumerate_forms(GF2, 2) if is_nondegenerate(Q)]
    assert len(nd) == 4
    assert all(Q.gram[0, 1] == 1 for Q in nd)
    assert len(enumerate_forms(GF2, 0)) == 1


ENUMERATED_SIZES = ([(GF2, n) for n in range(5)] + [(GF3, n) for n in range(4)]
                    + [(GF4, n) for n in range(3)]
                    + [(GF5, n) for n in range(4)]
                    + [(GF7, n) for n in range(3)])


def _forms_through_the_fold(F, n):
    """Every form on F^n in enumeration order, each built from a coerced
    upper-triangular Mat through QForm's general constructor."""
    out = []
    for coeffs in itertools.product(F.elements(), repeat=n * (n + 1) // 2):
        rows = [[0] * n for _ in range(n)]
        k = 0
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = coeffs[k]
                k += 1
        out.append((coeffs, QForm(F, Mat(F, rows, (n, n)))))
    return out


@pytest.mark.parametrize("F,n", ENUMERATED_SIZES,
                         ids=lambda v: getattr(v, "name", v))
def test_enumerated_forms_match_general_route(F, n):
    forms = enumerate_forms(F, n)
    general = _forms_through_the_fold(F, n)
    assert len(forms) == len(general)
    for k, (Q, (coeffs, R)) in enumerate(zip(forms, general)):
        assert Q == R, (Q, R)
        assert hash(Q) == hash(R)
        assert ((Q.gram.field.name, Q.gram.shape, Q.gram.rows)
                == (R.gram.field.name, R.gram.shape, R.gram.rows))
        assert Q.upper_coeffs() == R.upper_coeffs() == coeffs
        assert QForm.from_upper(F, n, Q.upper_coeffs()) == Q
        assert form_position(Q) == k


def test_equality_and_hash_read_field_name_shape_and_rows():
    assert Mat(GF2, [], (0, 2)) != Mat(GF2, [], (0, 3))
    assert Mat(GF2, [[1, 0], [1, 1]]) != Mat(GF3, [[1, 0], [1, 1]])
    assert QForm.from_upper(GF2, 2, (1, 1, 0)) \
        != QForm.from_upper(GF3, 2, (1, 1, 0))
    Q = QForm.from_upper(GF3, 2, (1, 1, 0))
    assert Q != Q.gram and Q.gram != Q
    # a field is named by its name: a second GF(3) gives equal matrices
    A, B = Mat(PrimePowerField(3, (0, 1)), [[1, 2]]), Mat(GF3, [[1, 2]])
    assert A == B and hash(A) == hash(B)
    # one form by every route, over a finite field and over Q
    Q5 = QForm.from_upper(GF5, 2, (1, 4, 2))
    Qr = QForm.from_upper(QQ, 2, (Fraction(1, 2), 3, -3))
    for routes in ([QForm(GF5, Mat(GF5, [[1, 1], [3, 2]])), Q5,
                    next(R for R in enumerate_forms(GF5, 2)
                         if R.upper_coeffs() == (1, 4, 2)), qf_scale(Q5, 1)],
                   [QForm(QQ, Mat(QQ, [[Fraction(1, 2), 1], [2, -3]])), Qr,
                    qf_scale(Qr, 1)]):
        assert all(R == routes[0] for R in routes)
        assert len({hash(R) for R in routes}) == 1
    assert (type(QQ.zero), QQ.zero, type(QQ.one), QQ.one) \
        == (Fraction, 0, Fraction, 1)
    for F in (GF2, GF3, GF4, GF5, GF7, PrimePowerField(3, (1, 0, 1))):
        assert (type(F.zero), F.zero, type(F.one), F.one) == (int, 0, int, 1)


def test_form_position_past_int64():
    # the last form of GF(3)^9 sits at 3^45 - 1 > 2^63
    assert form_position(QForm.from_upper(GF3, 9, (2,) * 45)) == 3 ** 45 - 1
    assert form_position(QForm.from_upper(GF3, 9, (0,) * 44 + (1,))) == 1
    assert form_position(QForm.from_upper(GF3, 9, (1,) + (0,) * 44)) == 3 ** 44


def test_from_upper_coerces_each_coefficient():
    # over Q: ints and Fractions become Fractions, the zeros below too
    Q = QForm.from_upper(QQ, 2, [Fraction(1, 2), 3, Fraction(-2, 3)])
    assert Q == QForm(QQ, Mat(QQ, [[Fraction(1, 2), 3],
                                   [0, Fraction(-2, 3)]]))
    assert all(type(c) is Fraction for row in Q.gram.rows for c in row)
    assert Q.upper_coeffs() == (Fraction(1, 2), Fraction(3), Fraction(-2, 3))
    # over GF(4), codes 0..3: t x1^2 + (t+1) x1x2 + x2^2 folds from
    # w12 = 1, w21 = t
    Q4 = QForm.from_upper(GF4, 2, (2, 3, 1))
    assert Q4 == QForm(GF4, Mat(GF4, [[2, 1], [2, 1]]))
    assert Q4.upper_coeffs() == (2, 3, 1) and form_position(Q4) == 45
    with pytest.raises(ValueError):
        QForm.from_upper(GF4, 1, (4,))


@pytest.mark.parametrize("n,coeffs", [(2, (1, 2)), (2, (1, 2, 0, 1)),
                                      (0, (1,)), (1, ())])
def test_from_upper_rejects_a_wrong_coefficient_count(n, coeffs):
    with pytest.raises(ValueError):
        QForm.from_upper(GF3, n, coeffs)


def test_pullback_composes():
    Q = QForm.from_upper(GF3, 2, [1, 1, 2])
    A = Mat(GF3, [[1, 1], [0, 1]])
    B = Mat(GF3, [[2, 0], [1, 1]])
    assert qf_pullback(qf_pullback(Q, A), B) == qf_pullback(Q, A * B)
    for x in all_vectors(GF3, 2):
        xv = vec(GF3, x)
        assert qf_eval(qf_pullback(Q, A), xv) == qf_eval(Q, A * xv)


@pytest.mark.parametrize("F,n", [(GF2, 2), (GF3, 2), (GF4, 1)],
                         ids=["GF2^2", "GF3^2", "GF4^1"])
def test_is_isometry_two_routes_agree(F, n):
    # the pullback route against Q(Ax) = Q(x) at every vector x, on every
    # form and every n x n matrix, singular ones included: equivalent
    # because polarization recovers every canonical coefficient from values
    xs = [vec(F, x) for x in all_vectors(F, n)]
    verdicts = set()
    for Q in enumerate_forms(F, n):
        for rows in itertools.product(all_vectors(F, n), repeat=n):
            A = Mat(F, rows)
            by_vectors = all(qf_eval(Q, A * x) == qf_eval(Q, x) for x in xs)
            assert is_isometry(Q, A) == by_vectors, (Q, A)
            verdicts.add(by_vectors)
    assert verdicts == {True, False}


def test_is_isometry_rational():
    Q = QForm(QQ, Mat(QQ, [[Fraction(1), Fraction(0)],
                           [Fraction(0), Fraction(1)]]))
    rot = Mat(QQ, [[Fraction(3, 5), Fraction(-4, 5)],
                   [Fraction(4, 5), Fraction(3, 5)]])
    assert is_isometry(Q, rot)
    assert not is_isometry(Q, Mat(QQ, [[2, 0], [0, 1]]))


def test_reflection_involution_and_hyperplane():
    Q = QForm.from_upper(GF5, 2, [1, 0, 1])
    r = vec(GF5, (1, 1))
    s = reflection(Q, r)
    assert (s * s).is_identity()
    assert is_isometry(Q, s)
    assert (s * r).entries() == tuple(GF5.neg(c) for c in r.entries())
    with pytest.raises(NotReflectable):
        reflection(QForm.from_upper(GF5, 2, [0, 1, 0]), vec(GF5, (1, 0)))


def test_reflection_char2_fixed_direction():
    # char 2: the "mirror" fixes r itself only via -1 = 1; the reflected
    # vector differs from x by a multiple of r
    Q = QForm.from_upper(GF2, 2, [1, 1, 1])
    r = vec(GF2, (0, 1))
    s = reflection(Q, r)
    assert (s * s).is_identity() and is_isometry(Q, s)


def test_scale_and_proportional():
    Q = QForm.from_upper(GF5, 2, [1, 2, 3])
    assert qf_scale(Q, 2).upper_coeffs() == (2, 4, 1)
    assert qf_proportional(qf_scale(Q, 2), Q) == 3  # 3 * 2 = 6 = 1
    assert qf_proportional(Q, qf_scale(Q, 2)) == 2
    assert qf_proportional(Q, QForm.from_upper(GF5, 2, [1, 2, 4])) is None
    Zero = QForm.zero(GF5, 2)
    assert qf_proportional(Zero, Zero) == 1
    assert qf_proportional(Q, Zero) is None


def test_qform_eq_across_constructors():
    Q1 = QForm.from_upper(GF2, 1, [1])
    Q2 = QForm(GF2, Mat(GF2, [[1]]))
    assert Q1 == Q2


def test_poly_str():
    assert poly_str(QForm.from_upper(GF2, 2, [0, 1, 1])) == "x1*x2 + x2^2"
    assert poly_str(QForm.from_upper(GF3, 2, [2, 0, 1])) == "2*x1^2 + x2^2"
    assert poly_str(QForm.zero(GF3, 2)) == "0"
    assert poly_str(QForm.from_upper(GF3, 2, [0, 0, 1]), "a", 0) == "a1^2"
    q = QForm(QQ, Mat(QQ, [[Fraction(1, 2)]]))
    assert poly_str(q) == "1/2*x1^2"


# --- form files ------------------------------------------------------------

def test_form_file_roundtrip_everywhere():
    for F, n in ((GF2, 2), (GF3, 1), (GF4, 2), (GF5, 0)):
        for Q in enumerate_forms(F, n):
            assert form_from_text(form_to_text(Q)) == Q


def test_form_file_rational():
    Q = QForm(QQ, Mat(QQ, [[Fraction(1, 2), Fraction(0)],
                           [Fraction(0), Fraction(-3)]]))
    text = form_to_text(Q)
    assert '"1/2"' in text and form_from_text(text) == Q


def test_form_file_text_is_stable():
    Q = QForm.from_upper(GF3, 2, [1, 0, 1])
    t = form_to_text(Q)
    assert t == ('# x1^2 + x2^2\n'
                 '{"dim": 2, "field": "GF(3)", "upper": [1, 0, 1]}\n')
    # comments and blank lines are transparent to the reader
    assert form_from_text("\n# noise\n\n" + t) == Q


@pytest.mark.parametrize("bad", [
    "",
    "# only a comment\n",
    "not json",
    '{"field": "GF(3)", "dim": 2}',
    '{"field": "GF(9)", "dim": 1, "upper": [1]}',
    '{"field": "GF(3)", "dim": 2, "upper": [1]}',
    '{"field": "GF(3)", "dim": -1, "upper": []}',
    '["list", "not", "object"]',
])
def test_form_file_rejects_malformed(bad):
    with pytest.raises(ValueError):
        form_from_text(bad)
