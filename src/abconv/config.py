"""Runtime knob read from the environment at call time."""

from __future__ import annotations

import os

DEFAULT_TOL = 1e-9


def global_tol() -> float:
    """Default numeric tolerance; override with ABCONV_TOL."""
    raw = os.environ.get("ABCONV_TOL")
    if raw is None or raw == "":
        return DEFAULT_TOL
    value = float(raw)
    if not value > 0.0:
        raise ValueError(f"ABCONV_TOL must be positive, got {raw!r}")
    return value

