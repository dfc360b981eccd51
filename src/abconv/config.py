"""Tolerances: two fixed slacks, neither read from the environment."""

# Slack of every exact-statement test: class membership, admissible
# curvatures, kernel directions, eps-subgradients, zero-gap conditions.
TOL = 1e-9
# Slack when one computed value must match or bound another: primal against
# dual, a point's value against the optimum, g against its biconjugate.
VALUE_TOL = 1e-6
