"""Enumeration budget plumbing.

Every exhaustive loop in the package is capped.  The cap is, in order of
precedence: an explicit ``budget=`` argument, the CURVECLASS_BUDGET
environment variable, then the default below.
"""

import os

from .errors import CurveClassError

DEFAULT_BUDGET = 10**6

# separate caps for the divisor-class oracle
ORACLE_ORDER_CAP = 10**4
ORACLE_ENUM_CAP = 10**3

# matrix-group closure cap
CLOSURE_CAP = 10**4


def resolve_budget(budget=None) -> int:
    """The cap in force; CurveClassError unless it is an integer >= 1.

    The environment variable must be written in decimal digits.
    """
    if budget is None:
        env = os.environ.get("CURVECLASS_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        digits = env.strip()
        if not (digits.isascii() and digits.isdigit() and int(digits) >= 1):
            raise CurveClassError(f"CURVECLASS_BUDGET = {env!r} is not an integer >= 1")
        return int(digits)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise CurveClassError(f"budget {budget!r} is not an integer >= 1")
    return budget
