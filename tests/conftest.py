"""Shared test helpers."""

import pytest

from metric_affine import budget


@pytest.fixture
def cold_memo():
    """The package's one memo table, emptied for the test (which may clear it
    again); the table the test found is restored after it."""
    saved = dict(budget._MEMO)
    budget._MEMO.clear()
    yield budget._MEMO
    budget._MEMO.clear()
    budget._MEMO.update(saved)
