"""The one budget check.

Every entry that takes ``budget=`` hands it to ``check_budget`` together
with the field size q and the largest degree n it will work over; None
means the default below.  The work over F_{q^d} is bounded by q^d, so
nothing is built unless q^d fits the cap for every d <= n.  The oracle's
caps live in ``jacobian`` and the closure cap in ``gmodule``, the modules
that use them.
"""

from .errors import BudgetExceeded, CurveClassError

DEFAULT_BUDGET = 10**6


def check_budget(q: int, n: int, budget: int | None = None) -> int:
    """The cap in force, once q^d fits it for every d <= n.

    CurveClassError unless the budget is an integer >= 1 (not a bool);
    BudgetExceeded at the first d <= n with q^d past the cap.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise CurveClassError(f"budget {budget!r} is not an integer >= 1")
    size = 1
    for _ in range(n):
        size *= q
        if size > budget:
            raise BudgetExceeded(f"q^d = {size} exceeds budget {budget}")
    return budget
