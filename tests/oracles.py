"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the plain
mathematical definitions (loops over dense meshes, scalar formulas), sharing
no code with the package, so agreement is evidence rather than tautology.
The exception is the ``*_dense`` references of batched kernels: each keeps
the package's loop from before the batching, so that the batched path can be
compared with it verdict for verdict or bit for bit.
"""

from __future__ import annotations

import numpy as np

from abconv import conjugates
from abconv.config import TOL
from abconv.conjugates import (
    _QUERY_BLOCK,
    _group_windows,
    biconjugate_at,
    minimize_quadratic,
)
from abconv.duality import ConditionCheck, decomposition_condition_check
from abconv.errors import InvariantViolation
from abconv.lagrange import (
    _LSC_DIRECTIONS,
    _LSC_EPS,
    _LSC_RADIUS,
    value_function,
)
from abconv.objectives import mesh_windows, shrink_windows
from abconv.quadratics import GeneralizedQuadratic, combine, pullback, quadratic_form

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


def iso_combo_min(p1, p2, t):
    """Exact ``min_z [t*p1 + (1-t)*p2](z)`` for (A, u, c) triples with
    ``A = a*I``, at one t or at every t of an array: ``c - |u|^2 / (4a)``
    where ``a > 0``, c where ``a = 0`` and ``u = 0``, else -inf."""
    t = np.asarray(t, dtype=float)
    a = t * p1[0][0][0] + (1.0 - t) * p2[0][0][0]
    u = (np.multiply.outer(t, np.asarray(p1[1], dtype=float))
         + np.multiply.outer(1.0 - t, np.asarray(p2[1], dtype=float)))
    c = t * p1[2] + (1.0 - t) * p2[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(a > 0.0, c - np.sum(u * u, axis=-1) / (4.0 * a),
                     np.where((a == 0.0) & np.all(u == 0.0, axis=-1), c, -INF))
    return m if m.ndim else float(m)


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


def biconjugate_argmax_loop(X, search, table):
    """Reference ``_biconjugate_argmax``: the package's kernel from before
    its per-call setup was vectorised.  It walks the curvatures in order,
    keeps a running best and moves the winner only on a strict gain, so the
    winner is the first member attaining the max and the value carries the
    bits ``np.maximum`` leaves.  A lone row is evaluated twice, as the
    kernel does, so that its products take BLAS's matrix-matrix path."""
    rows_in = len(X)
    X = np.asarray(X, dtype=float)
    if rows_in == 1:
        X = np.repeat(X, 2, axis=0)
    slopes = search.slopes()
    n = len(slopes)
    rows = []
    for i, beta in enumerate(search.curvatures):
        finite = np.isfinite(table[i])
        if finite.all():
            rows.append((beta, table[i], None, i * n + np.arange(n)))
        elif finite.any():
            cols = np.flatnonzero(finite)
            rows.append((beta, table[i][cols], cols, i * n + cols))
    values = np.full(len(X), -INF)
    winner = np.full(len(X), -1)
    start = 0
    for Xb in np.array_split(X, max(1, -(-len(X) // _QUERY_BLOCK))):
        best, won = values[start:start + len(Xb)], winner[start:start + len(Xb)]
        sq = np.sum(Xb * Xb, axis=1)[:, None]
        lin = Xb @ slopes.T
        buf = np.empty_like(lin)
        at = np.arange(len(Xb))
        for beta, row, cols, members in rows:
            if cols is None:
                vals = np.add(beta * sq, lin, out=buf)
            else:
                vals = lin[:, cols]
                np.add(beta * sq, vals, out=vals)
            np.subtract(vals, row, out=vals)
            j = vals.argmax(axis=1)
            top = vals[at, j]
            better = top > best
            won[better] = members[j[better]]
            np.maximum(best, top, out=best)
        start += len(Xb)
    return values[:rows_in], winner[:rows_in]


def quadratic_sup_loop(D, v, k):
    """Reference ``_quadratic_sup_many``: the package's kernel before it read
    max|w| and the ascent test from the end columns of ``eigh``'s output.
    It reduces over every eigenvalue, gathers the live matrices even when
    all are live, and scatters them back into a +inf array."""
    w, V = np.linalg.eigh(D)
    k = np.broadcast_to(np.asarray(k, dtype=float), (len(D),))
    scale = TOL * np.maximum(1.0, np.max(np.abs(w), axis=1, initial=0.0))[:, None]
    live = ~np.any(w > scale, axis=1)
    out = np.full((len(D), v.shape[-2]), INF)
    w, V, scale = w[live], V[live], scale[live]
    if v.ndim == 3:
        v = v[live]
    coeffs = v @ V
    neg = w < -scale
    div = np.where(neg, w, INF)
    total = np.zeros(coeffs.shape[:-1])
    for i in range(w.shape[1]):
        total += coeffs[..., i] ** 2 / div[:, None, i]
    vals = k[live][:, None] - 0.25 * total
    ker = ~neg
    if np.any(ker):
        ktol = TOL * np.maximum(1.0, np.max(np.abs(v), axis=-1, initial=0.0))
        for i in np.flatnonzero(np.any(ker, axis=0)):
            vals[(np.abs(coeffs[..., i]) > ktol) & ker[:, None, i]] = INF
    out[live] = vals
    return out


def contains_batch_all(box, X):
    """Reference ``Box.contains_batch``: the package's formula from before it
    folded the test over the columns, a reduction along each row."""
    return np.all(X >= box.lower, axis=1) & np.all(X <= box.upper, axis=1)


def grid_sup_table_loop(f, mats, U, c, grid):
    """Reference ``_grid_sup_table``: the package's engine from before it
    formed a chunk's x.A x terms in one stacked ``quadratic_form`` call.  It
    loops over the curvatures of each chunk of (window, curvature) pairs,
    gathers the windows each one needs and scatters their terms back.  The
    value block is read from the package at call time, so a test that
    shrinks it chunks both engines alike."""
    n_lin, dim, points = len(U), f.dim, grid.points_per_axis
    n_pts, size = points**dim, len(mats) * n_lin
    best = np.full(size, -INF)
    best_x = np.full((size, dim), np.nan)
    lower = np.tile(grid.box.lower, (size, 1))
    upper = np.tile(grid.box.upper, (size, 1))
    live = np.arange(size)
    step = max(1, conjugates._VALUE_BLOCK // (n_pts * dim))
    for r in range(grid.refine_rounds + 1):
        if r:
            lower[live], upper[live] = shrink_windows(
                lower[live], upper[live], best_x[live], 0.1)
        first, ids = _group_windows(lower[live], upper[live])
        order = np.argsort(ids, kind="stable")
        members, ids = live[order], ids[order]
        curv = members // n_lin
        new = np.ones(len(members), dtype=bool)
        new[1:] = (ids[1:] != ids[:-1]) | (curv[1:] != curv[:-1])
        pair, starts = np.cumsum(new) - 1, np.append(np.flatnonzero(new), len(members))
        pair_win, pair_curv = ids[new], curv[new]
        for w0 in range(0, len(first), step):
            rows = live[first[w0:w0 + step]]
            Xs = mesh_windows(lower[rows], upper[rows], points)
            fX = f.values(Xs.reshape(-1, dim)).reshape(len(rows), n_pts)
            q0, q1 = np.searchsorted(pair_win, [w0, w0 + step])
            for p0 in range(q0, q1, step):
                p1 = min(p0 + step, q1)
                quad = np.empty((p1 - p0, n_pts))
                for k in np.unique(pair_curv[p0:p1]):
                    at = np.flatnonzero(pair_curv[p0:p1] == k)
                    X = Xs[pair_win[p0 + at] - w0].reshape(-1, dim)
                    quad[at] = quadratic_form(X, mats[k]).reshape(-1, n_pts)
                for b in range(starts[p0], starts[p1], step):
                    span = slice(b, min(b + step, starts[p1]))
                    block, win = members[span], ids[span] - w0
                    vals = np.matmul(Xs[win], U[block % n_lin][:, :, None])[:, :, 0]
                    vals += quad[pair[span] - p0]
                    vals += c
                    vals -= fX[win]
                    idx = vals.argmax(axis=1)
                    top = vals[np.arange(len(block)), idx]
                    up = top > best[block]
                    best[block[up]] = top[up]
                    best_x[block[up]] = Xs[win[up], idx[up]]
        if r == 0:
            live = np.flatnonzero(best > -INF)
    shape = (len(mats), n_lin)
    return best.reshape(shape), best_x.reshape(shape + (dim,))


def lp_dense(fv, LX, slopes, curvatures, table):
    """Reference convexified primal on a mesh: ``(value, index)`` of the
    first-index argmin of ``f + biconjugate_dense(L.)``, +inf where f is."""
    gdd = biconjugate_dense(LX, slopes, curvatures, table)
    total = np.full(len(fv), INF)
    ok = fv != INF
    total[ok] = fv[ok] + gdd[ok]
    idx = int(np.argmin(total))
    return float(total[idx]), idx


def conjugate_grid_dense(f, phi, grid):
    """Reference refining grid search for ``sup_x phi(x) - f(x)``, one
    member: mesh the window, take the first-index argmax, keep it only when
    strictly better, shrink 10x around the incumbent (clipped to the
    window), and stop at once if the first window is wholly infeasible.
    Returns ``(value, maximizer, note)``; ``f`` is an ``Objective``."""
    lo, hi = grid.box.lower.copy(), grid.box.upper.copy()
    best_val, best_x = -INF, None
    for _ in range(grid.refine_rounds + 1):
        axes = [np.linspace(lo[i], hi[i], grid.points_per_axis) for i in range(len(lo))]
        X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = np.asarray(phi(X), dtype=float) - f.values(X)
        idx = int(np.argmax(vals))
        if float(vals[idx]) > best_val:
            best_val = float(vals[idx])
            best_x = X[idx]
        if best_x is None:
            break
        center = np.clip(best_x, lo, hi)
        half = 0.5 * 0.1 * (hi - lo)
        lo, hi = np.maximum(lo, center - half), np.minimum(hi, center + half)
    if best_val == -INF:
        return -INF, None, "improper-window"
    return best_val, best_x, ""


def conjugate_table_dense(f, search, grid):
    """Reference grid-engine table: ``conjugate_grid_dense`` at every
    (curvature, slope) member of the search grid, one member at a time."""
    slopes = search.slopes()
    out = np.empty((len(search.curvatures), len(slopes)))
    for i, beta in enumerate(search.curvatures):
        for j in range(len(slopes)):
            member = GeneralizedQuadratic.iso(f.dim, beta, slopes[j])
            out[i, j] = conjugate_grid_dense(f, member, grid)[0]
    return out


def support_point_dense(ctx, psi, x0, alpha):
    """Reference support-point zero-gap check: the scalar check as it was
    before ``support_point_scan``, one base point per call, recomputing the
    psi-only conditions and taking g** at L x0 from a one-row batch."""
    inst = ctx.instance
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    Lx0 = inst.L.apply(x0)
    conditions: dict[str, bool] = {}
    details: dict[str, float] = {}

    # (support): min (g - psi) >= 0
    if inst.g.quad is not None and inst.g.domain_box is None:
        low, _ = minimize_quadratic(combine(1.0, inst.g.quad, -1.0, psi))
    else:
        Y = inst.y_search.box.mesh(inst.y_search.points_per_axis)
        gv = inst.g.values(Y)
        ok = np.isfinite(gv)
        low = float(np.min(gv[ok] - np.asarray(psi(Y[ok])))) if np.any(ok) else INF
    conditions["psi_supports_g"] = low >= -TOL
    details["support_slack"] = low

    # (level): alpha <= inf_x f + psi o L
    if inst.f.quad is not None and inst.f.domain_box is None:
        inf_fpsi, _ = minimize_quadratic(inst.f.quad + pullback(psi, inst.L))
    else:
        X = inst.x_search.box.mesh(inst.x_search.points_per_axis)
        fv = inst.f.values(X)
        ok = np.isfinite(fv)
        pb = pullback(psi, inst.L)
        inf_fpsi = float(np.min(fv[ok] + np.asarray(pb(X[ok])))) if np.any(ok) else INF
    conditions["alpha_below_inf"] = alpha <= inf_fpsi + TOL
    details["inf_f_plus_psi"] = inf_fpsi

    # (sandwich): f(x0) <= alpha <= psi(L x0)
    fx0 = inst.f.value(x0)
    psi_at = float(psi(Lx0))
    conditions["sandwich"] = fx0 <= alpha + TOL and alpha <= psi_at + TOL
    details["f_at_x0"] = fx0
    details["psi_at_Lx0"] = psi_at

    # (point): L x0 supported by g* over the member grid, or g(L x0) <= 0
    sup_a = biconjugate_at(inst.g, Lx0, inst.psi_search, table=ctx.gstar_table())
    g_at = inst.g.value(Lx0)
    point_in_a = sup_a <= TOL
    g_nonpos = g_at <= TOL
    conditions["point_in_support_set"] = point_in_a
    conditions["g_nonpositive_at_point"] = g_nonpos
    details["sup_member_minus_gstar"] = sup_a
    details["g_at_Lx0"] = g_at

    holds = (
        conditions["psi_supports_g"]
        and conditions["alpha_below_inf"]
        and conditions["sandwich"]
        and (point_in_a or g_nonpos)
    )
    return ConditionCheck(holds, "support_point", conditions, details)


def lsc_samples(ctx):
    """The perturbations y at which the lsc probe evaluates V: the probe
    radius times unit sphere directions, then the axis points."""
    m = ctx.instance.L.out_dim
    # The last of five blocks of directions, as the probe draws them.
    dirs = np.random.default_rng(0).normal(size=(5, _LSC_DIRECTIONS, m))[-1]
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms
    axes = np.concatenate([np.eye(m), -np.eye(m)], axis=0)
    return [_LSC_RADIUS * d for d in np.concatenate([dirs, axes], axis=0)]


def lsc_probe_dense(ctx):
    """Reference lsc probe: the per-sample loop as it was before the batched
    V(y) samples, one ``value_function`` call per perturbation."""
    v0 = value_function(ctx, np.zeros(ctx.instance.L.out_dim))
    if not np.isfinite(v0):
        raise InvariantViolation(f"V(0) = {v0}; the probe needs a finite value")
    return all(value_function(ctx, y) > v0 - _LSC_EPS for y in lsc_samples(ctx))


# The per-kind chains of ``CurvatureSpec`` from before the kinds became
# intervals, kept unchanged as the reference of the interval table.


def nearest_admissible_chain(spec, alpha):
    if spec.kind == "any":
        return alpha
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "fixed":
        return float(spec.value)
    if spec.kind == "nonneg":
        return max(0.0, alpha)
    return min(0.0, alpha)  # nonpos


def admits_chain(spec, alpha):
    return abs(alpha - nearest_admissible_chain(spec, alpha)) <= TOL


def largest_at_most_chain(spec, bound):
    if spec.kind == "any":
        return bound
    if spec.kind == "nonpos":
        return min(0.0, bound)
    if spec.kind == "zero":
        return 0.0 if bound >= -TOL else None
    if spec.kind == "nonneg":
        return max(0.0, bound) if bound >= -TOL else None
    return spec.value if spec.value <= bound + TOL else None  # fixed


def grid_chain(spec, points=21):
    lo, hi = -10.0, 10.0
    if spec.kind == "fixed":
        return np.array([spec.value])
    if spec.kind == "zero":
        return np.array([0.0])
    if spec.kind == "nonneg":
        lo = max(lo, 0.0)
    elif spec.kind == "nonpos":
        hi = min(hi, 0.0)
    if hi < lo:
        raise InvariantViolation("empty curvature grid")
    mesh = np.linspace(lo, hi, points)
    if lo <= 0.0 <= hi:
        mesh[np.argmin(np.abs(mesh))] = 0.0
    return np.unique(mesh)


def closed_under_differences_chain(spec):
    return spec.kind in ("zero", "any") or (spec.kind == "fixed" and spec.value == 0.0)


def tangent_inline(family, q, x):
    """The tangent member as it was built inline: the largest admissible
    curvature at or below lambda_min(q), the slope matching q's gradient."""
    alpha = largest_at_most_chain(family.curvature, q.min_eigenvalue())
    if alpha is None:
        return None
    return GeneralizedQuadratic.iso(family.dim, alpha, q.gradient(x) - 2.0 * alpha * x)


def condition_b_dense(instance):
    """Condition (b) by grid search as the package walked it before reading
    the g* table: the first member of the psi grid whose own check holds."""
    search = instance.psi_search
    for k in range(search.size):
        if decomposition_condition_check(instance, "b", psi=search.member_at(k)).holds:
            return search.member_at(k)
    return None
