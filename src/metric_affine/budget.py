"""The numpy-free head of the group engine: budget, exceptions, memo table.

Every memoised reader that enumerates hands its requirement to memo, which
checks it on every read with require, the one place that compares a
requirement with the budget."""

import os

DEFAULT_BUDGET = 25_000
HARD_BUDGET_CEILING = 10_000_000
_BUDGET_KEY = os.environ.encodekey("METRIC_AFFINE_BUDGET")


class BudgetExceeded(Exception):
    """An enumeration would need more group elements than allowed."""

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(
            "enumeration needs %d elements, budget is %d "
            "(raise METRIC_AFFINE_BUDGET to allow more)" % (required, budget)
        )


class InvariantViolation(AssertionError):
    """A verified identity failed.  Raised explicitly, so that python -O,
    which strips assert statements, cannot switch the check off."""


class BadBudgetVariable(ValueError):
    """METRIC_AFFINE_BUDGET is set, but not to an integer."""


def group_budget():
    """METRIC_AFFINE_BUDGET, clamped, else DEFAULT_BUDGET.  Read on every call
    from os.environ._data, the dict behind os.environ[...], where an unset
    variable is one dict miss, not os.environ.get's raised KeyError."""
    raw = os.environ._data.get(_BUDGET_KEY)
    if raw is None:
        return DEFAULT_BUDGET
    raw = os.environ.decodevalue(raw)
    try:
        value = int(raw)
    except ValueError:
        raise BadBudgetVariable("METRIC_AFFINE_BUDGET must be an integer, "
                                "got %r" % (raw,)) from None
    return clamp_budget(value)


def clamp_budget(value):
    """value held to [1, HARD_BUDGET_CEILING], whatever the caller asks."""
    return max(1, min(value, HARD_BUDGET_CEILING))


def order_gl(n, q):
    """|GL_n(F_q)| = prod_i (q^n - q^i); NotImplementedError if q is None."""
    if q is None:
        raise NotImplementedError("an infinite field is not enumerable")
    N = q ** n
    order = 1
    for i in range(n):
        order *= N - q ** i
    return order


# One memo table for the whole package.  Keys are tuples led by the name of
# the memoising function, followed by plain field names, dimensions and
# coefficient tuples (a form's `gram.rows`, which it already holds), so no
# form or matrix object is kept alive by a key.
_MEMO = {}


def require(required, budget=None):
    """The budget (None: group_budget()) if required fits it, else
    BudgetExceeded(required, budget)."""
    budget = group_budget() if budget is None else budget
    if required > budget:
        raise BudgetExceeded(required, budget)
    return budget


def memo(key, build, required=None, budget=None):
    """The value memoised under key; build() makes it (never None) on the
    first call.  A required size (|GL_n|, say) must fit the budget (None:
    group_budget()) on every read, cached or cold, else BudgetExceeded, so
    no result depends on what ran earlier; without one, no budget is read."""
    if required is not None:
        require(required, budget)
    got = _MEMO.get(key)
    if got is None:
        got = _MEMO[key] = build()
    return got
