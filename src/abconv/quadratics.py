"""Generalized quadratic functions, curvature classes, and linear maps.

The elementary carrier is ``q(x) = x.A x + u.x + c`` with ``A`` symmetric and
*unhalved* (no 1/2 in front of the quadratic form).  Function classes used for
conjugation are sets of such quadratics with the matrix part constrained to a
scalar multiple of the identity, ``A = alpha*I``, with the admissible range of
``alpha`` described by a :class:`CurvatureSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import InvariantViolation

SYMMETRY_RTOL = 1e-12
_HALF_MAX = 0.5 * np.finfo(float).max  # sums of two entries below it stay finite


def _as_matrix(A, dim: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (dim, dim):
        raise InvariantViolation(f"matrix shape {A.shape} != ({dim}, {dim})")
    if not np.all(np.isfinite(A)):
        raise InvariantViolation("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(A), initial=0.0)))
    if scale <= _HALF_MAX:
        return _symmetrized(A, scale)
    with np.errstate(over="ignore"):  # A - A.T and A + A.T may overflow
        sym = _symmetrized(A, scale)
    if not np.isfinite(sym).all():
        raise InvariantViolation("matrix entries overflow when symmetrized")
    return sym


def _symmetrized(A: np.ndarray, scale: float) -> np.ndarray:
    """``0.5 * (A + A.T)`` of a matrix symmetric within ``SYMMETRY_RTOL * scale``."""
    dev = float(np.max(np.abs(A - A.T), initial=0.0))
    if dev > SYMMETRY_RTOL * scale:
        raise InvariantViolation(f"matrix is not symmetric (deviation {dev:.3e})")
    return 0.5 * (A + A.T)


class _Symmetric:
    """A matrix of the right shape that the package formed exactly
    symmetric: alpha*I, or a stored matrix, or a sum or multiple of them."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix


def _checked_symmetric(A: np.ndarray) -> np.ndarray:
    """An exactly symmetric matrix as ``_as_matrix`` returns it: A itself.
    ``0.5 * (A + A.T)`` doubles each entry and halves it, which gives back
    its bits whenever the doubling stays finite, so only the finiteness
    check and the overflow check remain, with ``_as_matrix``'s errors."""
    top = float(np.abs(A).max(initial=0.0))
    if top <= _HALF_MAX:
        return A
    if not np.isfinite(top):  # a NaN entry fails both tests
        raise InvariantViolation("matrix entries must be finite")
    raise InvariantViolation("matrix entries overflow when symmetrized")


def _as_vector(u, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape != (dim,):
        raise InvariantViolation(f"vector shape {u.shape} != ({dim},)")
    if not np.isfinite(u).all():
        raise InvariantViolation("vector entries must be finite")
    return u


def quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``x.A x`` for every row x of the batch X, shape ``(N, dim)``, or of
    stacked batches, shape ``(P, N, dim)``, each with its own matrix in A,
    shape ``(P, dim, dim)``.

    Adds ``x_i * A_ij * x_j`` to zero for each i, then each j, so a row
    gets the same bits whatever the batch or stack it comes in.  It is the
    package's only batched x.A x, so how x.A x rounds is decided here alone."""
    acc = np.zeros(X.shape[:-1])
    if A.ndim == 3:
        A = A[:, None]  # A[..., i, j] is then a column over each batch's rows
    for i in range(A.shape[-2]):
        for j in range(A.shape[-1]):
            acc += X[..., i] * A[..., i, j] * X[..., j]
    return acc


class _ByBytes:
    """``==`` and ``hash`` field by field: an ndarray or float field by its
    shape and bytes, so -0.0 and 0.0 differ as in the report bytes, and any
    other field by its own ``==``.  Dataclasses that use it pass
    ``eq=False``, which keeps these methods."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple((np.shape(v), np.asarray(v).tobytes())
                     if isinstance(v, (np.ndarray, float)) else v for v in values)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class GeneralizedQuadratic(_ByBytes):
    """``q(x) = x.A x + u.x + c`` on R^dim, A symmetric (unhalved form).

    The quadratics the package derives (``zero``, ``affine``, ``iso``,
    negation, scalar multiples, ``combine``, ``shifted``) go through
    ``_derived``, which skips only the symmetry scan: each equals the
    constructor's quadratic on the same fields, bit for bit."""

    dim: int
    A: np.ndarray
    u: np.ndarray
    c: float

    def __post_init__(self) -> None:
        A = self.A
        if isinstance(A, _Symmetric):
            A = _checked_symmetric(A.matrix)
        else:
            A = _as_matrix(A, self.dim)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", _as_vector(self.u, self.dim))
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise InvariantViolation("constant term must be finite")
        self.A.setflags(write=False)
        self.u.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _derived(cls, dim: int, A: np.ndarray, u, c: float) -> "GeneralizedQuadratic":
        """The quadratic on a matrix A the package formed exactly symmetric."""
        return cls(dim, _Symmetric(A), u, c)

    @classmethod
    def zero(cls, dim: int) -> "GeneralizedQuadratic":
        return cls._derived(dim, np.zeros((dim, dim)), np.zeros(dim), 0.0)

    @classmethod
    def affine(cls, u, c: float = 0.0) -> "GeneralizedQuadratic":
        u = np.asarray(u, dtype=float).reshape(-1)
        return cls._derived(u.size, np.zeros((u.size, u.size)), u, c)

    @classmethod
    def iso(cls, dim: int, alpha: float, u=None, c: float = 0.0) -> "GeneralizedQuadratic":
        """Isotropic member ``alpha*||x||^2 + u.x + c``."""
        if u is None:
            u = np.zeros(dim)
        return cls._derived(dim, float(alpha) * np.eye(dim), u, c)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> float | np.ndarray:
        """Evaluate at one point ``(dim,)`` or a batch ``(N, dim)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            try:
                return float(x @ self.A @ x + self.u @ x + self.c)
            except ValueError:  # a wrong length, reported below
                pass
        elif x.ndim == 2 and x.shape[1] == self.dim:
            return quadratic_form(x, self.A) + x @ self.u + self.c
        raise InvariantViolation(
            f"point shape {x.shape} != ({self.dim},) or (N, {self.dim})")

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * (self.A @ x) + self.u

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "GeneralizedQuadratic") -> "GeneralizedQuadratic":
        return combine(1.0, self, 1.0, other)

    def __sub__(self, other: "GeneralizedQuadratic") -> "GeneralizedQuadratic":
        return combine(1.0, self, -1.0, other)

    def __neg__(self) -> "GeneralizedQuadratic":
        return GeneralizedQuadratic._derived(self.dim, -self.A, -self.u, -self.c)

    def __rmul__(self, s: float) -> "GeneralizedQuadratic":
        s = float(s)
        return GeneralizedQuadratic._derived(self.dim, s * self.A, s * self.u, s * self.c)

    def shifted(self, y) -> "GeneralizedQuadratic":
        """The quadratic ``x -> q(x + y)``."""
        y = _as_vector(y, self.dim)
        return GeneralizedQuadratic._derived(
            self.dim,
            self.A,
            2.0 * (self.A @ y) + self.u,
            self(y),
        )

    def is_zero(self, tol: float = TOL) -> bool:
        return (
            float(np.max(np.abs(self.A), initial=0.0)) <= tol
            and float(np.max(np.abs(self.u), initial=0.0)) <= tol
            and abs(self.c) <= tol
        )

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.A)[0])


def combine(
    s1: float,
    q1: GeneralizedQuadratic,
    s2: float,
    q2: GeneralizedQuadratic,
) -> GeneralizedQuadratic:
    """The quadratic ``s1*q1 + s2*q2`` (dims must match)."""
    if q1.dim != q2.dim:
        raise InvariantViolation(f"dimension mismatch: {q1.dim} vs {q2.dim}")
    return GeneralizedQuadratic._derived(
        q1.dim,
        s1 * q1.A + s2 * q2.A,
        s1 * q1.u + s2 * q2.u,
        s1 * q1.c + s2 * q2.c,
    )


# ---------------------------------------------------------------------------
# Curvature classes


# The admissible curvatures of each kind, a closed interval [lo, hi];
# "fixed" is [value, value].
_INTERVALS = {
    "zero": (0.0, 0.0),
    "nonneg": (0.0, np.inf),
    "nonpos": (-np.inf, 0.0),
    "fixed": None,
    "any": (-np.inf, np.inf),
}


@dataclass(frozen=True)
class CurvatureSpec:
    """Admissible range of the isotropic curvature ``alpha`` of a class member.

    Kinds: ``zero`` (affine members only), ``nonneg`` / ``nonpos`` (half
    lines), ``fixed`` (exactly one value), ``any`` (unconstrained).  Each is
    the closed interval ``interval``; every admissibility question is
    answered from it.
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _INTERVALS:
            raise InvariantViolation(f"unknown curvature kind {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None or not np.isfinite(self.value):
                raise InvariantViolation("fixed curvature needs a finite value")
            object.__setattr__(self, "value", float(self.value))
        elif self.value is not None:
            raise InvariantViolation(f"kind {self.kind!r} takes no value")

    # -- constructors --

    @classmethod
    def zero(cls) -> "CurvatureSpec":
        return cls("zero")

    @classmethod
    def nonneg(cls) -> "CurvatureSpec":
        return cls("nonneg")

    @classmethod
    def nonpos(cls) -> "CurvatureSpec":
        return cls("nonpos")

    @classmethod
    def fixed(cls, value: float) -> "CurvatureSpec":
        return cls("fixed", float(value))

    @classmethod
    def any(cls) -> "CurvatureSpec":
        return cls("any")

    # -- text form used by instance files and the CLI --

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.value:g}"
        return self.kind

    @classmethod
    def parse(cls, label: str) -> "CurvatureSpec":
        label = label.strip()
        if label.startswith("fixed:"):
            return cls.fixed(float(label.split(":", 1)[1]))
        if label in ("zero", "nonneg", "nonpos", "any"):
            return cls(label)
        raise InvariantViolation(f"unknown curvature label {label!r}")

    # -- admissibility --

    @property
    def interval(self) -> tuple[float, float]:
        """The admissible curvatures, the closed interval ``[lo, hi]``."""
        if self.kind == "fixed":
            return self.value, self.value
        return _INTERVALS[self.kind]

    def nearest_admissible(self, alpha: float) -> float:
        lo, hi = self.interval
        return max(lo, min(hi, alpha))  # max(0.0, -0.0) is 0.0

    def admits(self, alpha: float) -> bool:
        return abs(alpha - self.nearest_admissible(alpha)) <= TOL

    def largest_at_most(self, bound: float) -> float | None:
        """Largest admissible curvature <= bound (within ``TOL``),
        or None if none exists."""
        lo, hi = self.interval
        return max(lo, min(hi, bound)) if lo <= bound + TOL else None

    @property
    def closed_under_differences(self) -> bool:
        """Whether the difference of two admissible curvatures is admissible:
        only ``{0}`` and the whole line."""
        return self.interval in ((0.0, 0.0), (-np.inf, np.inf))

    def grid(self, points: int = 21) -> np.ndarray:
        """Admissible curvature values inside [-10, 10], ascending and
        distinct (the point set to 0 lies between its neighbours), for
        parameter sweeps."""
        lo, hi = self.interval
        if lo == hi:
            return np.array([lo])
        lo, hi = max(-10.0, lo), min(10.0, hi)
        mesh = np.linspace(lo, hi, points)
        # keep 0 exactly on the mesh when it is admissible and inside range
        if lo <= 0.0 <= hi:
            mesh[np.argmin(np.abs(mesh))] = 0.0
        return mesh


@dataclass(frozen=True)
class Family:
    """A conjugation class: isotropic quadratics with constrained curvature."""

    dim: int
    curvature: CurvatureSpec
    includes_constants: bool = True

    def member(self, alpha: float, u=None, c: float = 0.0) -> GeneralizedQuadratic:
        if not self.curvature.admits(alpha):
            raise InvariantViolation(
                f"curvature {alpha} not admissible for {self.curvature.label()}"
            )
        if c != 0.0 and not self.includes_constants:
            raise InvariantViolation("class has no constant terms")
        return GeneralizedQuadratic.iso(self.dim, alpha, u, c)

    def tangent(self, q: GeneralizedQuadratic, x) -> GeneralizedQuadratic | None:
        """The member tangent to q at x: the largest admissible curvature at
        or below q's least eigenvalue, and the slope that matches q's
        gradient at x.  None when no curvature is admissible."""
        alpha = self.curvature.largest_at_most(q.min_eigenvalue())
        if alpha is None:
            return None
        x = np.asarray(x, dtype=float)
        return GeneralizedQuadratic.iso(self.dim, alpha, q.gradient(x) - 2.0 * alpha * x)

    def contains(self, q: GeneralizedQuadratic) -> bool:
        """Membership test on the matrix part (slopes are unconstrained).

        The exact zero function belongs to every class (it is the baseline
        element every class is assumed to carry), including fixed-curvature
        classes whose value is nonzero.
        """
        if q.dim != self.dim:
            return False
        if not self.includes_constants and abs(q.c) > TOL:
            return False
        if q.is_zero():
            return True
        diag = np.diagonal(q.A)
        alpha = self.curvature.nearest_admissible(
            0.5 * (float(np.max(diag)) + float(np.min(diag)))
        )
        off = q.A - alpha * np.eye(self.dim)
        return float(np.max(np.abs(off), initial=0.0)) <= TOL


# ---------------------------------------------------------------------------
# Linear maps


@dataclass(frozen=True, eq=False)
class LinearMap(_ByBytes):
    """Dense linear map R^in_dim -> R^out_dim."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise InvariantViolation("linear map needs a 2-d matrix")
        if not np.all(np.isfinite(M)):
            raise InvariantViolation("linear map entries must be finite")
        object.__setattr__(self, "matrix", M)
        M.setflags(write=False)

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(np.eye(dim))

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def apply(self, x) -> np.ndarray:
        """Apply to one point ``(in_dim,)`` or a batch ``(N, in_dim)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.matrix @ x
        return x @ self.matrix.T


def pullback(q: GeneralizedQuadratic, L: LinearMap) -> GeneralizedQuadratic:
    """The quadratic ``x -> q(Lx)``."""
    if q.dim != L.out_dim:
        raise InvariantViolation(f"dimension mismatch: {q.dim} vs {L.out_dim}")
    M = L.matrix
    return GeneralizedQuadratic(L.in_dim, M.T @ q.A @ M, M.T @ q.u, q.c)
