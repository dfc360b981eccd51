"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the plain
mathematical definitions (loops over dense meshes, scalar formulas), sharing
no code with the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")


def quad_scalar(A, u, c, x):
    """Plain x'Ax + u'x + c with explicit loops (no shared helpers)."""
    A = np.asarray(A, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    total = float(c)
    for i in range(len(x)):
        total += u[i] * x[i]
        for j in range(len(x)):
            total += x[i] * A[i, j] * x[j]
    return total


def max_quad_1d(a: float, b: float, c: float) -> float:
    """Exact sup of a t^2 + b t + c over the real line."""
    if a < 0.0:
        return c - b * b / (4.0 * a)
    if a == 0.0:
        return c if b == 0.0 else INF
    return INF


def min_quad_1d(a: float, b: float, c: float) -> float:
    """Exact inf of a t^2 + b t + c over the real line."""
    return -max_quad_1d(-a, -b, -c)


def refine_max(fn, lo, hi, points=401, rounds=3, shrink=0.05):
    """Brute-force maximum of a scalar function over a box, with shrinking
    re-meshing around the incumbent. Returns (value, argmax)."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    dim = len(lo)
    per_axis = max(3, int(round(points ** (1.0 / dim))))
    best_v, best_x = -INF, None
    for _ in range(rounds + 1):
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        for x in mesh:
            v = fn(x)
            if v > best_v:
                best_v, best_x = v, x.copy()
        if best_x is None:
            break
        half = shrink * (hi - lo)
        lo = best_x - half
        hi = best_x + half
    return best_v, best_x


def refine_min(fn, lo, hi, points=401, rounds=3, shrink=0.05):
    v, x = refine_max(lambda z: -fn(z), lo, hi, points, rounds, shrink)
    return -v, x


def conjugate_brute(fA, fu, fc, pA, pu, pc, lo, hi, points=401, rounds=3):
    """sup_x [phi(x) - f(x)] by dense search (both given as (A, u, c))."""
    return refine_max(
        lambda x: quad_scalar(pA, pu, pc, x) - quad_scalar(fA, fu, fc, x),
        lo,
        hi,
        points,
        rounds,
    )[0]


def intersection_brute(p1, p2, alpha, z_lo, z_hi, z_points=2001, t_points=401):
    """Definition-level intersection property on a dense (t, z) grid.

    p1, p2 are (A, u, c) triples. True iff for every t in [0, 1] the strict
    sublevel set (below alpha) of t*p1 + (1-t)*p2 misses the strict sublevel
    set of p1 or that of p2 (sets restricted to the sampled z grid)."""
    z_lo = np.asarray(z_lo, dtype=float).reshape(-1)
    z_hi = np.asarray(z_hi, dtype=float).reshape(-1)
    dim = len(z_lo)
    per_axis = max(3, int(round(z_points ** (1.0 / dim))))
    axes = [np.linspace(z_lo[i], z_hi[i], per_axis) for i in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    v1 = np.array([quad_scalar(*p1, z) for z in mesh])
    v2 = np.array([quad_scalar(*p2, z) for z in mesh])
    below1 = v1 < alpha
    below2 = v2 < alpha
    for t in np.linspace(0.0, 1.0, t_points):
        combo = t * v1 + (1.0 - t) * v2
        below = combo < alpha
        if np.any(below & below1) and np.any(below & below2):
            return False
    return True


def dual_sweep_brute(fA, fu, fc, gA, gu, gc, L, curvatures, slopes, x_lo, x_hi,
                     x_points=2001):
    """Independent conjugate-dual sweep on explicit parameter lists.

    For each member psi = beta*||y||^2 + v.y computes
    inf_x [f(x) + psi(Lx)] - sup_y [psi(y) - g(y)] with the inner pieces done
    by exact 1-d vertex formulas when applicable, else dense meshes.
    Returns the max over members (1-d data only)."""
    L = np.asarray(L, dtype=float)
    best = -INF
    for beta in curvatures:
        for v in slopes:
            # inner inf: f(x) + beta (Lx)^2 + v (Lx)  (1-d)
            a = fA[0][0] + beta * L[0][0] ** 2
            b = fu[0] + v * L[0][0]
            inner = min_quad_1d(a, b, fc)
            # conjugate of g at psi
            gs = max_quad_1d(beta - gA[0][0], v - gu[0], -gc)
            if gs == INF or inner == -INF:
                continue
            best = max(best, inner - gs)
    return best


def biconjugate_dense(X, slopes, curvatures, table, chunk=4096):
    """Reference class biconjugate ``max over finite table entries of
    beta*|x|^2 + s.x - table[beta, s]`` (-inf without one): the plain dense
    loop over chunks of query points, every member at every point."""
    X = np.asarray(X, dtype=float)
    out = np.full(len(X), -INF)
    for start in range(0, len(X), chunk):
        stop = min(start + chunk, len(X))
        Xb = X[start:stop]
        sq = np.sum(Xb * Xb, axis=1)
        lin = Xb @ slopes.T
        best = np.full(stop - start, -INF)
        for i, beta in enumerate(curvatures):
            row = table[i]
            finite = np.isfinite(row)
            if not np.any(finite):
                continue
            vals = beta * sq[:, None] + lin[:, finite] - row[finite]
            np.maximum(best, vals.max(axis=1), out=best)
        out[start:stop] = best
    return out


def lp_dense(fv, LX, slopes, curvatures, table):
    """Reference convexified primal on a mesh: ``(value, index)`` of the
    first-index argmin of ``f + biconjugate_dense(L.)``, +inf where f is."""
    gdd = biconjugate_dense(LX, slopes, curvatures, table)
    total = np.full(len(fv), INF)
    ok = fv != INF
    total[ok] = fv[ok] + gdd[ok]
    idx = int(np.argmin(total))
    return float(total[idx]), idx
