"""Tolerances: two fixed slacks, neither read from the environment."""

import math

# Slack of every exact-statement test: class membership, admissible
# curvatures, kernel directions, eps-subgradients, zero-gap conditions.
TOL = 1e-9
# Slack when one computed value must match or bound another: primal against
# dual, a point's value against the optimum, g against its biconjugate.
VALUE_TOL = 1e-6


def values_agree(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    """Whether two computed values match: equal when either is not finite,
    else within ``tol`` of each other."""
    finite = math.isfinite(a) and math.isfinite(b)
    return bool(abs(a - b) <= tol if finite else a == b)
