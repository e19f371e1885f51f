"""Trust-region Newton polish of the certified scan's best cells.

certified_max hands polish every ball's best cell center once its
branch-and-bound has closed; polish only raises those values, so the
certificate does not depend on it. Each step takes f, grad f and the
Hessian of f at the running balls' points from one objective.taylor call
and takes the exact trust-region step of More and Sorensen 1983 (_tr_step)
from a Jacobi eigendecomposition of the 2 x 2 or 3 x 3 Hessian (_eigh);
on a sphere of the domain where grad f points out of it, the step is taken
in the tangent space with the Lagrangian Hessian (_tangent). Every step is
elementwise or per row, so a ball's path does not depend on its batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["polish"]

MAX_POLISH_STEPS = 30  # trust-region Newton steps a ball may take
SECULAR_STEPS = 30     # Newton steps on the trust-region step's multiplier


def _eigh(a):
    """Eigenvalues, ascending (P, k), and unit eigenvectors, as columns
    (P, k, k), of the symmetric matrices a (P, k, k), by cyclic Jacobi
    rotations (Golub and Van Loan, Matrix Computations, 8.5): each sweep
    zeroes the off-diagonal entries of a matrix in turn, and a matrix stops
    once their squares sum to at most 1e-32 of its own. One rotation
    diagonalizes a 2 x 2 matrix. Each matrix rotates on its own. It stands
    in for numpy.linalg.eigh, whose LAPACK code adds about 0.8 MB of
    resident pages to a process that runs no other LAPACK routine."""
    k = a.shape[1]
    a = a.copy()
    v = np.zeros_like(a)
    v[:, range(k), range(k)] = 1.0
    upper = np.triu_indices(k, 1)
    run = np.arange(len(a))
    while True:
        off = a[run][:, upper[0], upper[1]]
        run = run[np.einsum("pj,pj->p", off, off)
                  > 1e-32 * np.einsum("pab,pab->p", a[run], a[run])]
        if not len(run):
            break
        x, w = a[run], v[run]
        for p, q in zip(*upper):
            apq = x[:, p, q]
            tau = np.divide(x[:, q, q] - x[:, p, p], 2.0 * apq,
                            out=np.zeros(len(run)), where=apq != 0.0)
            t = np.where(apq == 0.0, 0.0, np.where(tau < 0.0, -1.0, 1.0)
                         / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.sqrt(1.0 + t * t)[:, None]
            s = t[:, None] * c
            # x <- J^T x J and w <- w J, J the rotation by (c, s) in the
            # (p, q) plane, which zeroes x_pq
            for m in (x, w):
                m[:, :, p], m[:, :, q] = (c * m[:, :, p] - s * m[:, :, q],
                                          s * m[:, :, p] + c * m[:, :, q])
            x[:, p], x[:, q] = (c * x[:, p] - s * x[:, q],
                                s * x[:, p] + c * x[:, q])
            x[:, p, q] = x[:, q, p] = 0.0
        a[run], v[run] = x, w
    diag = a[:, range(k), range(k)]
    order = np.argsort(diag, axis=1, kind="stable")
    return (np.take_along_axis(diag, order, axis=1),
            np.take_along_axis(v, order[:, None, :], axis=2))


def _tr_step(grad, hess, radius):
    """The maximizer p of grad . p + p . hess p / 2 over |p| <= radius, per
    row of grad (P, k), hess (P, k, k) and radius (P,), the trust-region
    step of More and Sorensen 1983: p = (sigma I - hess)^-1 grad with the
    least sigma >= max(0, lambda_max(hess)) that keeps |p| <= radius.

    In the eigenbasis (mu_j, v_j) of hess, with gamma_j = v_j . grad,
    |p(sigma)|^2 = sum_j gamma_j^2 / (sigma - mu_j)^2. Its root at the
    radius is at least mu_j + |gamma_j| / radius for every j; from that
    start, Newton's method on 1/|p(sigma)| - 1/radius, which is concave,
    climbs to the root without passing it, and stops within a relative
    1e-12 of the radius (p is then scaled onto it). When the start already
    gives |p| < radius, p is the Newton step (sigma = 0, hess negative
    definite), or, in the hard case (sigma = lambda_max >= 0, where grad
    has no component along v_max, up to rounding), p(sigma) with its v_max
    component grown until p reaches the radius. Every row's step depends
    on that row alone."""
    mu, vec = _eigh(hess)
    gamma = np.einsum("pab,pa->pb", vec, grad)
    # components at the rounding level of |grad| are 0: against sigma near
    # their mu_j they would divide rounding by rounding
    size = np.sqrt(np.einsum("pa,pa->p", grad, grad))
    gamma[np.abs(gamma) <= 1e-13 * size[:, None]] = 0.0
    sigma = np.maximum(np.max(mu + np.abs(gamma) / radius[:, None], axis=1),
                       0.0)
    coef = np.zeros_like(gamma)
    run = np.arange(len(grad))
    for _ in range(SECULAR_STEPS):
        # sigma >= mu_j; a gap of 0 (gamma_j = 0, or so small that it
        # rounds away against mu_j) drops that term
        gap = sigma[run, None] - mu[run]
        c = np.divide(gamma[run], gap, out=np.zeros_like(gap), where=gap > 0)
        norm2 = np.einsum("pj,pj->p", c, c)
        norm, r = np.sqrt(norm2), radius[run]
        coef[run] = c * np.minimum(1.0, r / np.maximum(norm, 1e-300))[:, None]
        far = norm > (1.0 + 1e-12) * r
        if not far.any():
            break
        c, gap = c[far], gap[far]
        slope = np.einsum("pj,pj->p", c, np.divide(
            c, gap, out=np.zeros_like(c), where=gap > 0))
        run = run[far]
        sigma[run] += (norm[far] - r[far]) / r[far] * norm2[far] / slope
    norm2 = np.einsum("pj,pj->p", coef, coef)
    hard = (norm2 < radius * radius) & ((sigma > 0.0) | (mu[:, -1] >= 0.0))
    top = coef[hard, -1]
    coef[hard, -1] = np.where(top < 0.0, -1.0, 1.0) * np.sqrt(
        top * top + radius[hard]**2 - norm2[hard])
    return np.einsum("pab,pb->pa", vec, coef)


def _tangent(d, grad, hess):
    """grad and the Lagrangian Hessian of offsets d (P, n) on their sphere
    |d| = |d_p|, in the tangent space: with nu = d / |d| and the multiplier
    kappa = grad . d / |d|^2, T grad and T (hess - kappa I) T, T = I -
    nu nu^T, plus -M nu nu^T with M = 2 (||hess||_F + |kappa|), which puts
    the normal direction below every tangent eigenvalue."""
    r2 = np.einsum("pa,pa->p", d, d)
    nu = d / np.sqrt(r2)[:, None]
    kappa = np.einsum("pa,pa->p", grad, d) / r2
    u = np.einsum("pab,pb->pa", hess, nu)
    level = np.einsum("pa,pa->p", nu, u) + kappa - 2.0 * (
        np.sqrt(np.einsum("pab,pab->p", hess, hess)) + np.abs(kappa))
    outer = nu[:, :, None] * u[:, None, :]
    hess = (hess - kappa[:, None, None] * np.eye(d.shape[1]) - outer
            - outer.transpose(0, 2, 1)
            + level[:, None, None] * nu[:, :, None] * nu[:, None, :])
    grad = grad - np.einsum("pa,pa->p", grad, nu)[:, None] * nu
    return grad, hess


def polish(objective, domain, balls, d0, step, tol):
    """Trust-region Newton ascent of each ball's objective from its start d0
    (A, n), balls (A,) their ball ids, with initial trust radii step (one,
    or one per ball).

    Every step takes f, grad f and the Hessian from one objective.taylor
    call over the running balls. A ball inside its domain takes the exact
    trust-region step (_tr_step); one on a sphere of the domain where grad
    f points out of it takes that step in the sphere's tangent space with
    the Lagrangian Hessian (_tangent), mapped back onto the sphere. An
    interior step that leaves the domain ends where it first meets the
    domain's boundary (domain.clip). A step is taken only if it strictly
    raises f. With rho the ratio of the gain to the model's, the radius
    becomes a quarter of the step when rho < 1/4 and doubles when
    rho > 3/4 and the step reached it. A ball stops when
    the model predicts no gain, when it takes a step of at most
    step tol^(3/2) or its radius falls to that floor (near a smooth maximum
    what it could still gain is then far inside the tolerance), or after
    MAX_POLISH_STEPS steps. Every step is elementwise or per row, so a
    ball's path does not depend on the balls beside it. Returns (offsets,
    values, evaluations, residuals) per ball: each value a pointwise
    evaluation at its offset, evaluations the points it evaluated, and
    residual the norm of grad f there, of its tangent part where grad f
    points out of the domain on one of its spheres."""
    d = np.array(d0, dtype=float)
    f, grad, hess = objective.taylor(d, balls)
    used = np.ones(len(d), dtype=np.int64)
    radius = np.array(np.broadcast_to(step, len(d)), dtype=float)
    floor = radius * tol**1.5
    run = np.flatnonzero(radius > floor)
    for _ in range(MAX_POLISH_STEPS):
        if not len(run):
            break
        b, x, g, h, r = balls[run], d[run], grad[run], hess[run], radius[run]
        sphere = domain.boundary(x, g, b)
        on = np.flatnonzero(sphere > 0.0)
        if len(on):
            g[on], h[on] = _tangent(x[on], g[on], h[on])
        p = _tr_step(g, h, r)
        trial = domain.clip(x, p, b)
        moved = trial - x
        if len(on):
            y = x[on] + p[on]
            trial[on] = y * (sphere[on] / np.linalg.norm(y, axis=-1))[:, None]
            moved[on] = p[on]
        gain = (np.einsum("pa,pa->p", g, moved)
                + 0.5 * np.einsum("pa,pab,pb->p", moved, h, moved))
        go = gain > 0.0
        run, b, trial, gain, r = (v[go] for v in (run, b, trial, gain, r))
        if not len(run):
            break
        length = np.linalg.norm(p[go], axis=-1)
        ft, gt, ht = objective.taylor(trial, b)
        used[run] += 1
        up = ft > f[run]
        ratio = (ft - f[run]) / gain
        r = np.where(ratio < 0.25, 0.25 * length,
                     np.where((ratio > 0.75) & (length >= 0.99 * r), 2.0 * r,
                              r))
        radius[run] = r
        take = run[up]
        d[take], f[take], grad[take], hess[take] = (
            trial[up], ft[up], gt[up], ht[up])
        run = run[~((up & (length <= floor[run])) | (r <= floor[run]))]
    on = np.flatnonzero(domain.boundary(d, grad, balls))
    grad[on] = _tangent(d[on], grad[on], hess[on])[0]
    return d, f, used, np.sqrt(np.einsum("pa,pa->p", grad, grad))
