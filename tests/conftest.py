"""Shared test helpers."""

import numpy as np
import pytest

from metric_affine import budget
from metric_affine.groups import matmul_np, matrix_codes


@pytest.fixture
def cold_memo():
    """The package's one memo table, emptied for the test (which may clear it
    again); the table the test found is restored after it."""
    saved = dict(budget._MEMO)
    budget._MEMO.clear()
    yield budget._MEMO
    budget._MEMO.clear()
    budget._MEMO.update(saved)


def verify_axioms(G):
    """Whether the GroupSet G holds the identity and is closed under
    products and inverses, by its full product table."""
    ident = matrix_codes(G.field, np.eye(G.n, dtype=np.uint8))
    if ident not in G.elems:
        return False
    arr = G.as_np()
    for a in arr:
        prods = matrix_codes(G.field, matmul_np(G.field, arr, a))
        # closure + identity + finiteness already force inverses, but
        # check anyway: every row of the product table hits the identity
        if not np.isin(prods, G.elems).all() or ident not in prods:
            return False
    return True
