"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

from metric_affine import budget


@pytest.fixture
def run_optimized():
    """Run a child script under python -O, which strips assert statements,
    with this checkout's package on its path; returns its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(code):
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run


@pytest.fixture
def cold_memo():
    """The package's one memo table, emptied for the test (which may clear it
    again); the table the test found is restored after it."""
    saved = dict(budget._MEMO)
    budget._MEMO.clear()
    yield budget._MEMO
    budget._MEMO.clear()
    budget._MEMO.update(saved)
