"""Group enumeration: GL, orthogonal, weak orthogonal, closures, budgets."""

import os

import numpy as np
import pytest

from conftest import verify_axioms
from metric_affine import budget, fields, groups
from metric_affine.budget import (DEFAULT_BUDGET, HARD_BUDGET_CEILING,
                                  BadBudgetVariable, BudgetExceeded,
                                  clamp_budget, group_budget, order_gl)
from metric_affine.classify import weak_group_index
from metric_affine.fields import GF2, GF3, GF4, GF5, GF7
from metric_affine.groups import (GroupSet, _exceptional_shape, add_np,
                                  closure, enumerate_gl,
                                  form_values_np, gram_polar_np, group_equal,
                                  groups_by_orbit, inverses_np, invert_np,
                                  is_subgroup, matmul_np, mat_to_np,
                                  matrix_codes, mul_np, neg_inverses_np,
                                  orthogonal_group, polar_table_np,
                                  reflection_generation_status, triu_np,
                                  upper_coeffs_np, values_np,
                                  vector_index_np, vectors_np,
                                  weak_orthogonal_group)
from metric_affine.homog import (DegeneratePolarForm, lift, lift_np,
                                 motion_group_dual)
from metric_affine.linalg import Mat, Singular, mat_invert, rank, vec
from metric_affine.quadform import (QForm, all_vectors, enumerate_forms,
                                    form_position, is_isometry,
                                    is_nondegenerate, polar, polar_apply,
                                    qf_eval, qf_pullback, radical_basis)
from metric_affine.transvect import _rank_one_maps, classify_direction

# group orders from the product formula, |GL_n(q)| = prod (q^n - q^i)
GL_ORDERS = {
    (2, 2): 6, (3, 2): 168, (4, 2): 20160,
    (2, 3): 48, (3, 3): 11232,
    (2, 4): 180, (2, 5): 480, (2, 7): 2016, (0, 5): 1,
}


@pytest.mark.parametrize("nq,order", sorted(GL_ORDERS.items()))
def test_order_gl_formula(nq, order):
    assert order_gl(*nq) == order


def test_enumerate_gl_matches_formula():
    for F, n in ((GF2, 1), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2), (GF5, 2)):
        G = enumerate_gl(F, n)
        assert G.order == order_gl(n, F.order)


def _recursive_gl(field, n):
    """GL_n by depth-first extension of partial bases, one column at a time,
    with each span grown as a Python set: the route GL was first built by."""
    elems = field.elements()
    vecs = [tuple(int(v) for v in row) for row in vectors_np(field, n)]
    columns_out = []

    def extend(cols, span):
        if len(cols) == n:
            columns_out.append(cols)
            return
        for v in vecs:
            if v in span:
                continue
            grown = {tuple(field.add(si, field.mul(c, vi))
                           for si, vi in zip(s, v))
                     for s in span for c in elems}
            extend(cols + (v,), grown)

    extend((), {vecs[0]})
    arr = np.zeros((len(columns_out), n, n), dtype=np.uint8)
    for m_i, cols in enumerate(columns_out):
        for c_i, col in enumerate(cols):
            arr[m_i, :, c_i] = col
    return arr


def _sizes(fits):
    return [(F, n) for F in (GF2, GF3, GF4, GF5, GF7) for n in range(6)
            if fits(F.order, n)]


@pytest.mark.parametrize(
    "F,n", _sizes(lambda q, n: order_gl(n, q) <= DEFAULT_BUDGET),
    ids=lambda v: getattr(v, "name", v))
def test_gl_matches_recursive_build_bytewise(F, n, cold_memo):
    # the frontier's order is the depth-first order, and so is code order
    G = enumerate_gl(F, n)
    got, want = G.as_np(), _recursive_gl(F, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert (G.columns() == vector_index_np(F, want.transpose(0, 2, 1))).all()


@pytest.mark.parametrize("F,n", _sizes(lambda q, n: q ** (n * n) <= 65536),
                         ids=lambda v: getattr(v, "name", v))
def test_gl_equals_rank_filter_of_all_matrices(F, n):
    every = vectors_np(F, n * n)
    every = every.reshape(len(every), n, n)
    full = [A for A in every if rank(Mat(F, A.tolist(), (n, n))) == n]
    assert group_equal(enumerate_gl(F, n), GroupSet.from_np(F, n, full))


def test_gl_zero_dim():
    G = enumerate_gl(GF3, 0)
    assert G.order == 1  # the empty matrix


def test_enumerate_gl_elements_are_invertible():
    # spot-check: no singular matrix sneaks into the GF(4) stack
    from metric_affine.linalg import mat_invert
    G = enumerate_gl(GF4, 2)
    for A in G.as_np()[::17]:
        mat_invert(Mat(GF4, A.tolist()))  # raises Singular if not


# frozen orthogonal-group orders, computed once by the brute-force filter
# and cross-checked against the rank-one intersection counts
ORTH_ORDERS = [
    (GF2, 2, (0, 1, 0), 2, 2),      # hyperbolic plane: {id, swap}
    (GF2, 2, (1, 1, 1), 6, 6),      # anisotropic plane: all of GL
    (GF2, 2, (1, 1, 0), 2, 2),
    (GF3, 2, (1, 0, 1), 8, 8),      # sum of squares over GF(3)
    (GF3, 2, (1, 0, 2), 4, 4),      # hyperbolic: x^2 - y^2
    (GF3, 1, (1,), 2, 2),           # {+-1}
    (GF3, 2, (0, 0, 0), 48, 1),     # zero form: O = GL, weak = {id}
    (GF3, 2, (1, 0, 0), 12, 6),     # radical line: shears along e2 allowed
]


@pytest.mark.parametrize("F,n,upper,o,w", ORTH_ORDERS,
                         ids=lambda v: str(v) if isinstance(v, tuple) else None)
def test_orthogonal_orders_frozen(F, n, upper, o, w):
    Q = QForm.from_upper(F, n, upper)
    assert orthogonal_group(Q).order == o
    assert weak_orthogonal_group(Q).order == w


def test_small_binary_groups_are_stabilizers():
    # O(x1x2) = O(x1^2+x2^2) = {I, swap}; O(x1^2+x1x2) = {I, [[1,1],[0,1]]}
    swap = Mat(GF2, [[0, 1], [1, 0]])
    shear = Mat(GF2, [[1, 1], [0, 1]])
    assert swap in orthogonal_group(QForm.from_upper(GF2, 2, (0, 1, 0)))
    assert shear in orthogonal_group(QForm.from_upper(GF2, 2, (1, 1, 0)))
    assert group_equal(orthogonal_group(QForm.from_upper(GF2, 2, (0, 1, 0))),
                       orthogonal_group(QForm.from_upper(GF2, 2, (1, 0, 1))))


@pytest.mark.parametrize("A,member", [
    (Mat(GF2, [[0, 1], [1, 0]]), True),
    (Mat(GF2, [[0, 0], [0, 0]]), False),
    (Mat(GF2, [[0, 0, 0], [0, 0, 0], [1, 1, 0]]), False),
    (Mat(GF2, [[1, 0, 0], [0, 1, 0]]), False),
    (Mat(GF2, [[1]]), False),
    (Mat(GF3, [[0, 1], [1, 0]]), False)],
    ids=["swap", "zero", "3x3", "2x3", "1x1", "GF(3)-swap"])
def test_membership_needs_the_groups_field_and_shape(A, member):
    # a matrix of another field or shape is not coded as if it were one
    # of the group's own: it is not a member, as it is not equal to one
    assert (A in enumerate_gl(GF2, 2)) is member


@pytest.mark.parametrize("build", [
    lambda: QForm.zero(GF3, -1), lambda: QForm.from_upper(GF3, -1, []),
    lambda: enumerate_forms(GF3, -1), lambda: enumerate_gl(GF3, -1)],
    ids=["zero", "from_upper", "enumerate_forms", "enumerate_gl"])
def test_negative_dims_are_refused(build):
    with pytest.raises(ValueError, match=r"^dim must be a non-negative "
                       r"integer, got -1$"):
        build()


def test_group_containments():
    for Q in enumerate_forms(GF3, 2):
        o = orthogonal_group(Q)
        w = weak_orthogonal_group(Q)
        assert is_subgroup(w, o)
        assert order_gl(2, 3) % o.order == 0   # Lagrange
        assert o.order % w.order == 0
        assert verify_axioms(o)
        assert verify_axioms(w)


def test_mask_route_matches_literal_filter():
    # the frontier, the permutation-table filter of GL and a plain
    # per-matrix filter must build the same group
    G = [Mat(GF3, A.tolist()) for A in enumerate_gl(GF3, 2).as_np()]
    for Q in enumerate_forms(GF3, 2)[:9]:
        literal = GroupSet.from_mats(
            GF3, 2, [A for A in G if is_isometry(Q, A)])
        assert group_equal(orthogonal_group(Q), literal)
        assert _isometry_mask(Q).sum() == literal.order


@pytest.mark.parametrize("F,n", [(GF4, 2), (GF4, 1), (GF4, 0), (GF3, 0),
                                 (GF7, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_codes_round_trip_in_lexicographic_order(F, n):
    # as_np and columns decode the codes back to the matrices they came
    # from, in the lexicographic order of their columns' vector indices,
    # the order of the isometry frontier
    g = enumerate_gl(F, n)
    arr, cols = g.as_np(), g.columns()
    assert GroupSet.from_np(F, n, arr) == g
    assert arr.dtype == np.uint8 and arr.shape == (g.order, n, n)
    assert cols.dtype == np.min_scalar_type(F.order ** n - 1)
    rows = [tuple(vector_index_np(F, A.T).tolist()) for A in arr]
    assert rows == sorted(set(rows)) == [tuple(c) for c in cols.tolist()]
    assert (matrix_codes(F, arr) == g.elems).all()
    # a code is the column indices read as base-q^n digits, column 1 first
    N = F.order ** n
    assert g.elems.tolist() == [sum(c * N ** (n - 1 - i)
                                    for i, c in enumerate(row))
                                for row in rows]


def test_groupset_equality_and_hash():
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    g1 = orthogonal_group(Q)
    g2 = GroupSet.from_mats(GF3, 2, [Mat(GF3, A.tolist())
                                     for A in g1.as_np()[::-1]])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != weak_orthogonal_group(QForm.zero(GF3, 2))
    with pytest.raises(ValueError):
        group_equal(g1, enumerate_gl(GF2, 2))


# every finite field that field_make offers
ENGINE_FIELDS = sorted({F for F in fields._BY_NAME.values() if F.enumerable},
                       key=lambda F: F.order)


@pytest.mark.parametrize("F", ENGINE_FIELDS, ids=lambda F: F.name)
def test_engine_arithmetic_matches_the_field(F):
    # entry by entry: add_np, mul_np, negation as a product with -1 (as
    # invert_np and the reflections negate) and the inverse table
    els = F.elements()
    codes = np.arange(F.order, dtype=np.uint8)
    a, b = codes[:, np.newaxis], codes[np.newaxis, :]
    for got, op in ((add_np(F, a, b), F.add), (mul_np(F, a, b), F.mul)):
        assert got.dtype == np.uint8
        assert got.tolist() == [[op(x, y) for y in els] for x in els]
    neg = mul_np(F, codes, F.neg(F.one))
    assert neg.dtype == np.uint8 and neg.tolist() == [F.neg(x) for x in els]
    inv = inverses_np(F)
    assert inv.dtype == np.uint8
    assert inv.tolist() == [0] + [F.inv(x) for x in els[1:]]


PRIMES = [F for F in ENGINE_FIELDS if F.order == F.char]


@pytest.mark.parametrize("F", PRIMES, ids=lambda F: F.name)
def test_mod_matches_python(F):
    # every uint8 value, every uint16 value as matmul_np reduces, and a
    # numpy scalar, which x - (x // p) p rebinds instead of writing into
    p = F.order
    for x in (np.arange(256, dtype=np.uint8),
              np.arange(2 ** 16, dtype=np.uint16)):
        want = [v % p for v in x.tolist()]
        got = groups._mod(x.copy(), p)
        assert got.dtype == x.dtype and got.tolist() == want
    assert groups._mod(np.uint8(255), p) == 255 % p


@pytest.mark.parametrize("F", ENGINE_FIELDS, ids=lambda F: F.name)
def test_neg_inverses_np_matches_the_field(F):
    els = F.elements()
    tab = neg_inverses_np(F)
    assert tab.dtype == np.uint8
    assert tab.tolist() == [0] + [F.neg(F.inv(x)) for x in els[1:]]


def test_triu_np_is_numpy_triu_indices_read_once():
    for n in range(5):
        iu = triu_np(n)
        assert [part.tolist() for part in iu] == [
            part.tolist() for part in np.triu_indices(n)]
        assert triu_np(n) is iu


# q^n of 256, 256 and 512 on either side of the uint8 limit, and two odd sizes
@pytest.mark.parametrize("F,n", [(GF2, 8), (GF4, 4), (GF2, 9), (GF5, 3),
                                 (GF7, 3)],
                         ids=lambda v: getattr(v, "name", v))
def test_vector_index_np_matches_an_int64_dot(F, n):
    N = F.order ** n
    V = vectors_np(F, n)
    want = V.astype(np.int64) @ F.order ** np.arange(n, dtype=np.int64)
    assert want.tolist() == list(range(N))
    got = vector_index_np(F, V)
    assert got.dtype == np.min_scalar_type(N - 1)
    assert got.dtype.kind == "u" and np.iinfo(got.dtype).max >= N - 1
    assert got.tolist() == want.tolist()
    # a shuffled stack with two leading axes, as the quadric blocks pass
    order = np.random.default_rng(n).permutation(N)
    stack = V[order].reshape(1, N, n)
    assert vector_index_np(F, stack).tolist() == [order.tolist()]


# (A shape, B shape) for each way matmul_np lays out a product: stack @
# matrix, matrix @ stack, stack @ stack, 4-D broadcasts (as groups_by_orbit
# conjugates), stacks of leading 1s (as _isometries_np spans), empty stacks,
# inner dimension 0, and inner dimension 10 (uint16 over GF(7))
MATMUL_SHAPES = [
    ((5, 3, 4), (4, 2)), ((3, 4), (6, 4, 2)), ((5, 3, 4), (5, 4, 2)),
    ((3, 2, 4, 4), (3, 1, 4, 4)), ((3, 1, 4, 4), (2, 4, 4)),
    ((1, 3, 4), (6, 4, 2)), ((6, 3, 4), (1, 4, 2)),
    ((1, 1, 3, 4), (5, 4, 2)), ((4, 2), (1, 1, 2, 3)),
    ((0, 3, 4), (4, 2)), ((3, 4), (0, 4, 2)), ((0, 3, 4), (0, 4, 2)),
    ((3, 0), (0, 2)), ((5, 3, 0), (0, 2)), ((3, 0), (5, 0, 2)),
    ((4, 3, 10), (10, 3)), ((3, 10), (2, 10, 3)),
]


def _mat_product(F, a, b):
    """a @ b broadcast over the stacks, one Mat product per matrix."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.uint8)
    for i in np.ndindex(lead):
        out[i] = mat_to_np(Mat(F, a[i].tolist(), a.shape[-2:])
                           * Mat(F, b[i].tolist(), b.shape[-2:]))
    return out


@pytest.mark.parametrize("F", ENGINE_FIELDS, ids=lambda F: F.name)
def test_matmul_np_agrees_with_mat(F):
    rng = np.random.default_rng(11)
    for sa, sb in MATMUL_SHAPES:
        a = rng.integers(0, F.order, sa, dtype=np.uint8)
        b = rng.integers(0, F.order, sb, dtype=np.uint8)
        got = matmul_np(F, a, b)
        want = _mat_product(F, a, b)
        assert got.dtype == np.uint8 and got.shape == want.shape, (sa, sb)
        assert (got == want).all(), (sa, sb)
    # transposed (non-contiguous) operands on each side, as congruence_codes
    # passes G^T
    G = rng.integers(0, F.order, (6, 3, 3), dtype=np.uint8)
    for a, b in ((G.transpose(0, 2, 1), G[0]), (G[0].T, G),
                 (G.transpose(0, 2, 1), G)):
        assert (matmul_np(F, a, b) == _mat_product(F, a, b)).all()
    # every partial sum at its largest: all entries -1
    top = np.full((2, 3, 10), F.order - 1, dtype=np.uint8)
    want = _mat_product(F, top, top[0].T)
    assert (matmul_np(F, top, top[0].T) == want).all()


def test_matmul_np_refuses_past_the_exact_range():
    # k (p - 1)^2 < 2^16 keeps every float32 step exact: over GF(7), inner
    # dimension 1820 (65520) is the largest product accepted, and it is exact
    six = np.full((1, 1820), 6, dtype=np.uint8)
    assert matmul_np(GF7, six, six.T).tolist() == [[1820 * 36 % 7]]
    for F, k in ((GF7, 1821), (GF5, 4096), (GF2, 2 ** 16)):
        with pytest.raises(ValueError, match="inner dimension %d" % k):
            matmul_np(F, np.zeros((1, k), dtype=np.uint8),
                      np.zeros((k, 1), dtype=np.uint8))


def test_gf4_stacks_agree_with_mat():
    # invert_np on all 256 matrices of order 2, GL_2(4) and the singular
    # ones, against mat_invert
    every = vectors_np(GF4, 4).reshape(-1, 2, 2)
    ok, inv = invert_np(GF4, every)
    assert ok.sum() == order_gl(2, 4)
    for A, invertible, Ainv in zip(every.tolist(), ok, inv.tolist()):
        try:
            want = mat_invert(Mat(GF4, A))
        except Singular:
            assert not invertible, A
        else:
            assert invertible and Ainv == [list(r) for r in want.rows], A
    # the fold of every Gram matrix, against the QForm constructor's
    assert [tuple(c) for c in upper_coeffs_np(GF4, every).tolist()] == [
        QForm(GF4, Mat(GF4, A)).upper_coeffs() for A in every.tolist()]
    # value tables and stacked lifts, against qf_eval and lift
    for n in range(3):
        forms = enumerate_forms(GF4, n)
        C = np.array([Q.upper_coeffs() for Q in forms],
                     dtype=np.uint8).reshape(len(forms), -1)
        vals = values_np(GF4, n, C)
        ok, up = lift_np(GF4, n, C)
        for Q, row, nondegenerate, coeffs in zip(forms, vals.tolist(), ok,
                                                 up.tolist()):
            assert row == [qf_eval(Q, v) for v in all_vectors(GF4, n)], Q
            assert row == form_values_np(Q).tolist(), Q
            try:
                want = lift(Q).upper_coeffs()
            except DegeneratePolarForm:
                assert not nondegenerate, Q
            else:
                assert nondegenerate and tuple(coeffs) == want, Q
    assert ok.sum() == 48       # a x1^2 + b x1x2 + c x2^2 with b != 0


@pytest.mark.parametrize("F,n", [(GF2, 3), (GF3, 2), (GF4, 2), (GF5, 2)],
                         ids=["GF(2)-3", "GF(3)-2", "GF(4)-2", "GF(5)-2"])
def test_gram_polar_np_matches_the_form(F, n):
    # every form's coefficient row, against its Gram matrix and polar(Q)
    forms = enumerate_forms(F, n)
    W, B = gram_polar_np(F, n, np.array([Q.upper_coeffs() for Q in forms],
                                        dtype=np.uint8))
    assert W.dtype == B.dtype == np.uint8
    assert W.shape == B.shape == (len(forms), n, n)
    for Q, w, b in zip(forms, W.tolist(), B.tolist()):
        assert w == [list(r) for r in Q.gram.rows], Q
        assert b == [list(r) for r in polar(Q).rows], Q


@pytest.mark.parametrize("F", [GF2, GF3, GF4], ids=lambda F: F.name)
def test_polar_table_np_matches_polar_apply(F):
    # entry [v, w] against B(v, w) from the polar matrix, on every pair of
    # vectors of every form of F^0, F^1 and F^2
    for n in range(3):
        V = [vec(F, v) for v in all_vectors(F, n)]
        for Q in enumerate_forms(F, n):
            got = polar_table_np(Q)
            assert got.dtype == np.uint8, Q
            assert got.tolist() == [[polar_apply(Q, v, w) for w in V]
                                    for v in V], Q


def test_closure_generates_subgroup():
    swap = Mat(GF3, [[0, 1], [1, 0]])
    neg = Mat(GF3, [[2, 0], [0, 2]])
    g = closure(GF3, 2, [mat_to_np(swap), mat_to_np(neg)])
    assert g.order == 4  # klein four-group here
    assert verify_axioms(g)
    # closure is idempotent
    assert group_equal(closure(GF3, 2, g.as_np()), g)
    # and the orthogonal group of x1^2+x2^2 is generated by its reflections
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    st = reflection_generation_status(Q)
    assert st.generates and st.closure_order == 8


def test_closure_of_nothing_is_identity():
    assert closure(GF3, 2, []).order == 1


@pytest.mark.parametrize("budget,required,charged", [
    (1, 3, 1), (10, 15, 10), (47, 48, 47), (None, 10, 7)])
def test_closure_refuses_past_the_budget(budget, required, charged,
                                         monkeypatch):
    # <[[1,1],[0,1]], [[0,1],[1,0]]> is GL_2(3), of order 48; the search
    # stops at the first round that leaves more elements than the budget,
    # which is METRIC_AFFINE_BUDGET when none is given
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "7")
    gens = [mat_to_np(Mat(GF3, [[1, 1], [0, 1]])),
            mat_to_np(Mat(GF3, [[0, 1], [1, 0]]))]
    assert closure(GF3, 2, gens, 48).order == 48
    with pytest.raises(BudgetExceeded) as exc:
        closure(GF3, 2, gens, budget)
    assert (exc.value.required, exc.value.budget) == (required, charged)


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_gl(GF5, 4, budget=1000)  # |GL_4(5)| is astronomically over
    assert exc.value.required > exc.value.budget == 1000
    # env override is read per call and clamped
    os.environ["METRIC_AFFINE_BUDGET"] = "10"
    try:
        assert group_budget() == 10
    finally:
        del os.environ["METRIC_AFFINE_BUDGET"]


def test_bad_budget_variable_is_rejected(monkeypatch):
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "abc")
    with pytest.raises(BadBudgetVariable, match="METRIC_AFFINE_BUDGET"):
        group_budget()
    with pytest.raises(ValueError, match="'abc'"):
        orthogonal_group(Q)
    # valid integers are still clamped, not rejected
    for raw, want in (("0", 1), ("-7", 1), ("99999999999", HARD_BUDGET_CEILING),
                      (" 48 ", 48)):
        monkeypatch.setenv("METRIC_AFFINE_BUDGET", raw)
        assert group_budget() == want


def _environ_reading():
    """The budget as os.environ.get reads the variable, parsed and clamped,
    or BadBudgetVariable."""
    raw = os.environ.get("METRIC_AFFINE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return clamp_budget(int(raw))
    except ValueError:
        return BadBudgetVariable


@pytest.mark.invariant
@pytest.mark.parametrize("raw,want", [
    (None, DEFAULT_BUDGET), ("7", 7), (" 48 ", 48), ("0", 1), ("-7", 1),
    ("99999999999", HARD_BUDGET_CEILING), ("1_0", 10),
    ("abc", BadBudgetVariable), ("", BadBudgetVariable)])
def test_group_budget_reads_the_variable_as_os_environ_does(raw, want,
                                                            monkeypatch):
    # group_budget reads the dict behind os.environ; it must give what
    # os.environ.get gives, and see every change made through os.environ
    monkeypatch.delenv("METRIC_AFFINE_BUDGET", raising=False)
    assert group_budget() == DEFAULT_BUDGET
    if raw is not None:
        monkeypatch.setenv("METRIC_AFFINE_BUDGET", raw)
    assert _environ_reading() == want
    if want is BadBudgetVariable:
        with pytest.raises(BadBudgetVariable, match="got %r$" % (raw,)):
            group_budget()
    else:
        assert group_budget() == want
    monkeypatch.delenv("METRIC_AFFINE_BUDGET", raising=False)
    assert group_budget() == DEFAULT_BUDGET


@pytest.mark.invariant
def test_memo_gates_every_read(cold_memo, monkeypatch):
    builds = []

    def build():
        builds.append(1)
        return "value"
    key = ("test_memo_gates_every_read",)
    assert budget.memo(key, build, required=48, budget=48) == "value"
    with pytest.raises(BudgetExceeded) as exc:     # cached, and still refused
        budget.memo(key, build, required=48, budget=5)
    assert (exc.value.required, exc.value.budget) == (48, 5)
    # without a requirement there is no gate, and the variable is not read
    monkeypatch.setenv("METRIC_AFFINE_BUDGET", "abc")
    assert budget.memo(key, build) == "value"
    assert budget.memo(key + ("cold",), build) == "value"
    with pytest.raises(BadBudgetVariable):
        budget.memo(key, build, required=48)
    assert builds == [1, 1]


def test_budget_checked_before_memo_lookup():
    # |GL_2(3)| = 48, and the rank-one map table of GF(3)^2 has 88 rows: a
    # memoised result must not slip past a smaller budget.  motion_group_dual
    # memoises nothing; it meets the gate of the orbit table it reads.
    Q = QForm.from_upper(GF3, 2, (1, 0, 1))
    calls = ((48, lambda b: enumerate_gl(GF3, 2, budget=b)),
             (48, lambda b: groups_by_orbit(GF3, 2, orthogonal_group,
                                            budget=b)),
             (48, lambda b: orthogonal_group(Q, budget=b)),
             (48, lambda b: weak_orthogonal_group(Q, budget=b)),
             (48, lambda b: motion_group_dual(Q, False, budget=b)),
             (48, lambda b: motion_group_dual(Q, True, budget=b)),
             (48, lambda b: weak_group_index(GF3, 2, budget=b)),
             (88, lambda b: _rank_one_maps(GF3, 2, budget=b)),
             (88, lambda b: classify_direction(Q, (1, 0), budget=b)))
    for required, call in calls:
        call(required)
        with pytest.raises(BudgetExceeded) as exc:
            call(5)
        assert (exc.value.required, exc.value.budget) == (required, 5)


def test_memo_keys_hold_plain_data():
    # keys are built from what a form already stores, and keep no form or
    # matrix object alive
    Q = QForm.from_upper(GF3, 2, (1, 0, 2))
    orthogonal_group(Q)
    weak_orthogonal_group(Q)
    motion_group_dual(Q, True)
    assert ("orthogonal_group", "GF(3)", 2, ((1, 0), (0, 2))) in budget._MEMO

    def plain(x):
        return (all(map(plain, x)) if isinstance(x, tuple)
                else isinstance(x, (str, int, bytes)))
    assert all(plain(key) for key in budget._MEMO)


ORBIT_FORMS = [
    (GF4, 1, (1,)), (GF4, 2, (1, 1, 1)), (GF4, 2, (0, 1, 0)),
    (GF4, 2, (2, 0, 0)), (GF4, 2, (0, 0, 0)),
    (GF3, 2, (1, 0, 1)), (GF3, 2, (1, 0, 0)), (GF3, 3, (1, 0, 0, 1, 0, 2)),
    (GF5, 2, (1, 0, 4)), (GF5, 2, (2, 0, 0)), (GF7, 2, (1, 0, 1)),
    (GF7, 1, (3,)), (GF2, 3, (1, 1, 0, 1, 0, 0)), (GF5, 0, ()),
]


def _orbit_of(F, n, upper):
    """Upper coefficients of every pullback x |-> R(A x), A in GL, of the
    form R with these upper coefficients, built with Mat arithmetic."""
    R = QForm.from_upper(F, n, upper)
    return {qf_pullback(R, Mat(F, A.tolist(), (n, n))).upper_coeffs()
            for A in enumerate_gl(F, n).as_np()}


def test_congruence_orbit_sizes():
    # orbit sizes must be |GL| / |stabilizer| with the stabilizer acting by
    # congruence; for the binary hyperbolic plane in 3 variables: 168/8
    assert len(_orbit_of(GF2, 3, (0, 1, 0, 0, 0, 0))) == 21
    assert len(_orbit_of(GF2, 4, (0, 1, 0, 0, 0, 0, 0, 0, 0, 0))) == 105
    assert len(_orbit_of(GF2, 4, (0, 1, 0, 0, 0, 0, 0, 0, 1, 0))) == 280
    # over GF(4) and the odd prime fields: orbit-stabiliser against the
    # isometry frontier, and the orbit table conjugates O(R) onto every
    # member of the pullback orbit
    for F, n, upper in ORBIT_FORMS:
        R = QForm.from_upper(F, n, upper)
        orbit = _orbit_of(F, n, upper)
        order = orthogonal_group(R).order
        assert len(orbit) * order == order_gl(n, F.order), (F, n, upper)
        table = groups_by_orbit(F, n, orthogonal_group)
        assert {table[form_position(QForm.from_upper(F, n, c))].order
                for c in orbit} == {order}, (F, n, upper)


def _one_member_orbits(codes):
    """A congruence coder that maps every form to itself: each orbit has
    one member, so the orbit-stabiliser count fails."""
    return lambda field, W, G: codes(field, W, G[:1]).repeat(len(G))


def _overlapping_orbits(codes):
    """A congruence coder that moves the last member of every orbit after
    the zero form's onto position 0, the zero form's own: the orbit sizes
    stay right, so only the overlap check can see it."""
    def coder(field, W, G):
        got = codes(field, W, G)
        got[got == got.max()] = 0
        return got
    return coder


@pytest.mark.invariant
@pytest.mark.parametrize("wrong", [_one_member_orbits, _overlapping_orbits])
def test_orbit_walk_rejects_a_wrong_orbit(wrong, monkeypatch, cold_memo):
    # an orbit that comes out wrong raises instead of building a wrong
    # table.  The table is memoised, so it is built cold here.
    monkeypatch.setattr(groups, "congruence_codes",
                        wrong(groups.congruence_codes))
    with pytest.raises(groups.InvariantViolation, match="orbit-stabiliser"):
        groups_by_orbit(GF3, 2, orthogonal_group)


@pytest.mark.invariant
def test_orbit_walk_rejects_repeated_conjugates(monkeypatch, cold_memo):
    # a zero "inverse" conjugates every element of a group onto 0
    monkeypatch.setattr(groups, "invert_np", lambda field, stack: (
        np.ones(len(stack), dtype=bool), np.zeros_like(stack)))
    with pytest.raises(groups.InvariantViolation,
                       match="^repeated conjugates of "):
        groups_by_orbit(GF3, 2, orthogonal_group)


@pytest.mark.invariant
def test_orbit_walk_rejects_a_wrong_inverse(monkeypatch, cold_memo):
    # an "inverse" that returns A itself conjugates g to A g A: an injective
    # map, so no conjugate repeats, but the identity goes to A^2
    monkeypatch.setattr(groups, "invert_np", lambda field, stack: (
        np.ones(len(stack), dtype=bool), np.array(stack)))
    with pytest.raises(groups.InvariantViolation,
                       match="^the least conjugate of .* is not I$"):
        groups_by_orbit(GF3, 2, orthogonal_group)


def _conjugation_runs(monkeypatch, F, n):
    """The members per product of a Kronecker run, recorded from every
    matmul_np call whose left side is a stack of (n^2, n^2) blocks."""
    real, runs = groups.matmul_np, []

    def recording(field, A, B):
        if A.ndim == 3 and A.shape[1:] == (n * n, n * n):
            runs.append(len(A))
        return real(field, A, B)
    monkeypatch.setattr(groups, "matmul_np", recording)
    return runs


@pytest.mark.parametrize("F,n", [(GF2, 3), (GF3, 2), (GF4, 2), (GF5, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_runs_of_one_member_build_the_same_tables(F, n, cold_memo,
                                                  monkeypatch):
    # the members of an orbit after its leader are conjugated in runs that
    # _RUN_ENTRIES bounds: one run per orbit of two or more forms here, and
    # one member per run with the bound at 1, and both give the same O and
    # O' tables
    forms = F.order ** (n * (n + 1) // 2)
    runs, kinds = _conjugation_runs(monkeypatch, F, n), (
        weak_orthogonal_group, orthogonal_group)
    tables = [groups_by_orbit(F, n, group) for group in kinds]
    walk = groups._orbit_walk(F, n)
    conjugated = forms - len(walk)
    shared = sum(len(members) > 1 for _, members, _ in walk)
    assert sum(runs) == 2 * conjugated
    assert len(runs) == 2 * shared < 2 * conjugated
    cold_memo.clear()
    runs.clear()
    monkeypatch.setattr(groups, "_RUN_ENTRIES", 1)
    assert [groups_by_orbit(F, n, group) for group in kinds] == tables
    assert runs == [1] * (2 * conjugated)


@pytest.mark.parametrize("F,n", [(GF2, 1), (GF2, 3), (GF3, 2), (GF4, 2),
                                 (GF2, 4)],
                         ids=lambda v: getattr(v, "name", v))
def test_leaders_take_their_own_group(F, n, cold_memo, monkeypatch):
    # an orbit's first form takes group(R) itself, and only the leaders of
    # orbits with other members are decoded and conjugated: a lone form,
    # such as zero, whose O is all of GL_n, is neither
    walk = groups._orbit_walk(F, n)
    real, decoded = GroupSet.as_np, []
    monkeypatch.setattr(GroupSet, "as_np",
                        lambda self: decoded.append(self) or real(self))
    runs = _conjugation_runs(monkeypatch, F, n)
    for group in (weak_orthogonal_group, orthogonal_group):
        decoded.clear()
        runs.clear()
        table = groups_by_orbit(F, n, group)
        for R, members, _ in walk:
            assert members[0] == form_position(R)
            assert table[members[0]] is group(R)
        assert [id(g) for g in decoded] == [
            id(group(R)) for R, members, _ in walk if len(members) > 1]
        assert sum(runs) == sum(len(members) - 1 for _, members, _ in walk)
    assert len(walk[0][1]) == 1 and walk[0][0] == QForm.zero(F, n)


@pytest.mark.parametrize("F,n", [(GF2, 3), (GF3, 2), (GF4, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_both_tables_share_one_orbit_walk(F, n, cold_memo, monkeypatch):
    # the O' table walks the orbits, one congruence coding per orbit, and
    # the O table built after it codes none
    real, calls = groups.congruence_codes, []
    monkeypatch.setattr(groups, "congruence_codes",
                        lambda *args: calls.append(1) or real(*args))
    groups_by_orbit(F, n, weak_orthogonal_group)
    assert len(calls) == len(groups._orbit_walk(F, n))
    groups_by_orbit(F, n, orthogonal_group)
    assert len(calls) == len(groups._orbit_walk(F, n))


def _congruence_cases():
    """(F, n) for every finite field offered at dims 1-2, plus GF(2)^3 and
    GF(3)^3."""
    finite = sorted({F.name: F for F in fields._BY_NAME.values()
                     if F.enumerable}.items())
    return [(F, n) for _, F in finite for n in (1, 2)] + [(GF2, 3), (GF3, 3)]


@pytest.mark.parametrize("F,n", _congruence_cases(),
                         ids=lambda x: getattr(x, "name", x))
def test_congruence_codes_match_mat_pullbacks(F, n):
    # the gathered codes, element by element in GL order, against
    # form_position of the Mat pullback, for the zero form, the first
    # degenerate nonzero form and the last non-degenerate form in
    # enumerate_forms order.  Every nonzero form on F^1 is non-degenerate
    # in odd characteristic, and none is on F^odd in characteristic 2.
    forms = enumerate_forms(F, n)
    degenerate = [R for R in forms[1:] if not is_nondegenerate(R)]
    nondegenerate = [R for R in forms if is_nondegenerate(R)]
    assert (bool(degenerate), bool(nondegenerate)) == (
        F.char == 2 or n > 1, F.char != 2 or n % 2 == 0)
    leaders = forms[:1] + degenerate[:1] + nondegenerate[-1:]
    G = enumerate_gl(F, n)
    cols = G.columns()
    assert cols.dtype == np.min_scalar_type(F.order ** n - 1)
    mats = [Mat(F, A.tolist(), (n, n)) for A in G.as_np()]
    for R in leaders:
        assert groups.congruence_codes(F, R, cols).tolist() == [
            form_position(qf_pullback(R, A)) for A in mats], R


def test_exceptional_shapes_are_tagged():
    x1x2 = (0, 1) + (0,) * 4                                # on GF(2)^3
    pair = (0, 1, 0, 0, 0, 0, 0, 0, 1, 0)                   # x1x2 + x3x4

    def tag(n, upper):
        Q = QForm.from_upper(GF2, n, upper)
        return _exceptional_shape(Q, form_values_np(Q))
    assert tag(3, x1x2) == groups.CASE_HYPERBOLIC_RADICAL
    assert tag(4, pair) == groups.CASE_HYPERBOLIC_PAIR
    # x1x2 + x3^2: the radical line of its polar form is anisotropic
    assert tag(3, x1x2[:5] + (1,)) is None
    # x1x2 + x3^2 + x3x4 + x4^2, of polar rank 4 but the other Arf class
    assert tag(4, pair[:7] + (1, 1, 1)) is None
    assert tag(2, (0, 1, 0)) is None                        # no radical
    # x1x2 + x3x4 + x5x6, of polar rank 6: not one of the two shapes
    assert tag(6, tuple(int(i in (1, 12, 19)) for i in range(21))) is None


def _shape_orbits(n):
    """The congruence orbit of each exceptional shape on GF(2)^n, as a set
    of enumerate_forms positions, coded over all of GL_n(2): the reference
    that the tags read from invariants are checked against."""
    m = n * (n + 1) // 2
    # upper coefficients, row-major: x1*x2 sits at 1 and x3*x4 at 2n
    shapes = {groups.CASE_HYPERBOLIC_RADICAL: (0, 1) + (0,) * (m - 2)}
    if n >= 4:
        shapes[groups.CASE_HYPERBOLIC_PAIR] = ((0, 1) + (0,) * (2 * n - 2)
                                               + (1,) + (0,) * (m - 2 * n - 1))
    cols = enumerate_gl(GF2, n).columns()
    return {tag: set(groups.congruence_codes(
        GF2, QForm.from_upper(GF2, n, upper), cols).tolist())
        for tag, upper in shapes.items()}


@pytest.mark.parametrize("n,sizes", [
    (3, {groups.CASE_HYPERBOLIC_RADICAL: 21}),
    (4, {groups.CASE_HYPERBOLIC_RADICAL: 105,
         groups.CASE_HYPERBOLIC_PAIR: 280})])
def test_exceptional_tags_match_gl_orbits(n, sizes):
    # the invariant test against the GL-coded orbits, on every form
    orbits = _shape_orbits(n)
    assert {tag: len(orbit) for tag, orbit in orbits.items()} == sizes
    for Q in enumerate_forms(GF2, n):
        members = [tag for tag, orbit in orbits.items()
                   if form_position(Q) in orbit]
        assert [_exceptional_shape(Q, form_values_np(Q))] == (
            members or [None]), Q


def _gl_order_keys(memo, F, n):
    """The memo keys whose value is a group or stack of order |GL_n(F)|."""
    return [key for key, value in memo.items()
            if isinstance(value, (GroupSet, np.ndarray))
            and len(getattr(value, "elems", value)) == order_gl(n, F.order)]


def test_reflection_status_builds_no_gl(cold_memo):
    # the tags come from the form itself: no form but the zero form, whose
    # O is GL_4(2), leaves a group of order |GL_4(2)| in the memo
    zero, *forms = enumerate_forms(GF2, 4)
    for Q in forms:
        reflection_generation_status(Q)
    assert _gl_order_keys(cold_memo, GF2, 4) == []
    assert "_exceptional_shape" not in {key[0] for key in cold_memo}
    reflection_generation_status(zero)
    assert _gl_order_keys(cold_memo, GF2, 4) == [
        ("orthogonal_group", "GF(2)", 4, zero.gram.rows)]


@pytest.mark.parametrize("F,n", [(GF2, 3), (GF3, 2), (GF4, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_gl_is_the_zero_forms_isometry_group(F, n, cold_memo):
    # one GL per (field, n): enumerate_gl is the zero form's O, and an
    # orbit table, which reads GL and the zero form's O, adds no other
    assert enumerate_gl(F, n) is orthogonal_group(QForm.zero(F, n))
    cold_memo.clear()
    groups_by_orbit(F, n, weak_orthogonal_group)
    groups_by_orbit(F, n, orthogonal_group)
    assert _gl_order_keys(cold_memo, F, n) == [
        ("orthogonal_group", F.name, n, QForm.zero(F, n).gram.rows)]


# The GL filter, the route orthogonal_group took before the isometry
# frontier: every matrix of GL applied to every vector, by a permutation
# table P[g, j] = index of (GL_g vector_j), memoised here per (field, n).
_PERM = {}


def _perm_table(field, n):
    if (field.name, n) not in _PERM:
        images = matmul_np(field, enumerate_gl(field, n).as_np(),
                           vectors_np(field, n).T)          # (g, n, q^n)
        _PERM[field.name, n] = groups.vector_index_np(
            field, images.transpose(0, 2, 1))
    return _PERM[field.name, n]


def _isometry_mask(Q):
    """Which rows of the GL stack preserve Q, by the permutation table."""
    vals = form_values_np(Q)
    return (vals[_perm_table(Q.field, Q.n)] == vals).all(axis=1)


def _gl_weak_mask(Q):
    """O'(Q) as a mask over all of GL: isometries that map every radical
    vector to itself, by the permutation table."""
    field, n = Q.field, Q.n
    basis = [b.entries() for b in radical_basis(Q)]
    rad = np.array(basis, dtype=np.uint8).reshape(len(basis), n)
    span = matmul_np(field, vectors_np(field, len(basis)), rad)
    ridx = np.unique(groups.vector_index_np(field, span))
    P = _perm_table(field, n)
    return _isometry_mask(Q) & (P[:, ridx] == ridx[np.newaxis, :]).all(axis=1)


@pytest.mark.parametrize("F,n", [(GF2, n) for n in range(5)]
                         + [(GF3, n) for n in range(4)]
                         + [(F, n) for F in (GF4, GF5, GF7) for n in range(3)],
                         ids=lambda v: getattr(v, "name", v))
def test_groups_match_gl_filter(F, n):
    # 2,410 forms in all
    G = enumerate_gl(F, n).as_np()
    for Q in enumerate_forms(F, n):
        assert orthogonal_group(Q) == GroupSet.from_np(
            F, n, G[_isometry_mask(Q)]), Q
        assert weak_orthogonal_group(Q) == GroupSet.from_np(
            F, n, G[_gl_weak_mask(Q)]), Q


@pytest.mark.parametrize("F,n", [(GF2, 4), (GF3, 3), (GF4, 2), (GF5, 2),
                                 (GF7, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_weak_groups_are_filtered_on_columns(F, n, cold_memo, monkeypatch):
    # O'(Q) is cut from O(Q)'s columns, with no matrix stack decoded, and a
    # form with no radical has O(Q) itself; both match the GL filter
    G = enumerate_gl(F, n).as_np()
    _perm_table(F, n)

    def refused(self):
        raise AssertionError("as_np decoded %r" % (self,))
    monkeypatch.setattr(GroupSet, "as_np", refused)
    for Q in enumerate_forms(F, n):     # the zero form among them
        w = weak_orthogonal_group(Q)
        assert w == GroupSet.from_np(F, n, G[_gl_weak_mask(Q)]), Q
        assert (w is orthogonal_group(Q)) == is_nondegenerate(Q), Q


def test_reflection_exceptional_cases():
    # hyperbolic plane plus a radical line: reflections give a proper part
    Q = QForm.from_upper(GF2, 3, (0, 1, 0, 0, 0, 0))
    st = reflection_generation_status(Q)
    assert not st.generates
    assert st.exceptional == "hyperbolic-plane-plus-radical"
    assert st.closure_order == 4 and st.weak_order == 8
    # two hyperbolic planes in dimension 4
    Q2 = QForm.from_upper(GF2, 4, (0, 1, 0, 0, 0, 0, 0, 0, 1, 0))
    st2 = reflection_generation_status(Q2)
    assert not st2.generates and st2.exceptional == "hyperbolic-pair"
    # the anisotropic binary plane is fine...
    st3 = reflection_generation_status(QForm.from_upper(GF2, 2, (1, 1, 1)))
    assert st3.generates and st3.exceptional is None
    # ...and so is the hyperbolic plane with no radical (dim 2)
    st4 = reflection_generation_status(QForm.from_upper(GF2, 2, (0, 1, 0)))
    assert st4.generates and st4.exceptional is None


@pytest.mark.invariant
@pytest.mark.parametrize("name,wrong,upper,match", [
    ("_exceptional_shape", lambda Q, vals: None, (0, 1, 0, 0, 0, 0),
     "^taxonomy mismatch "),
    ("_exceptional_shape", lambda Q, vals: groups.CASE_HYPERBOLIC_RADICAL,
     (0, 1, 0, 0, 0, 1), "^taxonomy mismatch "),
    ("closure", lambda field, n, gens, budget=None: enumerate_gl(field, n),
     (0, 1, 0, 0, 0, 0), "^reflection closure escaped O'$")],
    ids=["taxonomy", "taxonomy-tags-generating", "closure-escapes"])
def test_reflection_status_checks_raise(name, wrong, upper, match,
                                        monkeypatch):
    # x1x2 over GF(2)^3: closure 4 inside O' of order 8; x1x2 + x3^2: the
    # reflections generate O'.  A taxonomy that never names an exceptional
    # shape, one that names a shape where the reflections generate, or a
    # closure that is all of GL, must make the status raise
    Q = QForm.from_upper(GF2, 3, upper)
    assert reflection_generation_status(Q).generates == (upper[-1] == 1)
    monkeypatch.setattr(groups, name, wrong)
    with pytest.raises(groups.InvariantViolation, match=match):
        reflection_generation_status(Q)


@pytest.mark.invariant
def test_gl_count_check_raises(cold_memo, monkeypatch):
    # a product formula that is one off: the GL build must raise
    real_order = groups.order_gl
    monkeypatch.setattr(groups, "order_gl",
                        lambda n, q: real_order(n, q) + 1)
    with pytest.raises(groups.InvariantViolation,
                       match=r"^GL_2\(GF\(3\)\) has 48 elements, not 49$"):
        enumerate_gl(GF3, 2)


def test_weak_group_fixes_radical_pointwise():
    Q = QForm.from_upper(GF3, 2, (1, 0, 0))  # radical = span(e2)
    w = weak_orthogonal_group(Q)
    e2 = vec(GF3, (0, 1))
    for A in w.as_np():
        assert Mat(GF3, A.tolist()) * e2 == e2
