"""Tolerances: the one runtime knob, read from the environment at call
time, and the fixed slack on comparisons between computed values."""

from __future__ import annotations

import os

DEFAULT_TOL = 1e-9
# Slack when one computed value must match or bound another: primal against
# dual, a point's value against the optimum, g against its biconjugate.
VALUE_TOL = 1e-6


def global_tol() -> float:
    """Default numeric tolerance; override with ABCONV_TOL."""
    raw = os.environ.get("ABCONV_TOL")
    if raw is None or raw == "":
        return DEFAULT_TOL
    value = float(raw)
    if not value > 0.0:
        raise ValueError(f"ABCONV_TOL must be positive, got {raw!r}")
    return value
