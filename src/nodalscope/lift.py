"""Harmonic lift H(x, t) = psi(x) exp(t sqrt(lambda)) on torus x line.

H is harmonic for the product metric (the t-direction growth cancels the
eigenvalue), which lets cube-based nodal bounds for harmonic functions apply
to eigenfunctions. The cube doubling index N(H, Q) is the sup over Euclidean
balls inside the cube of the log sup-ratio of H^2 between the double ball and
the ball; the scan over (center, scale) pairs returns a certified lower bound
of that sup. Since H^2 = psi^2 exp(2 t sqrt(lambda)), moving a ball in t
multiplies both sups of a pair by the same factor: a ball's log sup ratio,
and so the cube index, does not depend on its t-offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import LiftOverflowError, ScaleRangeError
from .fields import lifted_sup_on_ball
from .geometry import wrap_point
from .scan import EXP_GUARD
from .spectrum import EigenfunctionSpec, evaluate

__all__ = [
    "CubeIndex",
    "lift_evaluate",
    "harmonicity_residual",
    "cube_doubling_index",
    "cube_zero_set_bound",
]

MIN_SCALE_DIV = 64
PAIR_BUDGET = 150


@dataclass
class CubeIndex:
    center: np.ndarray       # spatial cube center
    half_side: float         # r: cube is center +- r in space, [-r, r] in t
    n_value: float           # scanned doubling index (lower bound of the sup)
    argmax_center: np.ndarray  # (x..., t) of the best ball
    argmax_scale: float
    pairs_scanned: int
    budget_exhausted: bool = False


def lift_evaluate(spec: EigenfunctionSpec, x, t: float) -> float:
    """psi(x) exp(t sqrt(lambda)); guards the exponent against overflow."""
    if abs(t) > 1.0:
        raise ScaleRangeError(f"need |t| <= 1, got {t}")
    arg = t * math.sqrt(spec.lam)
    if arg > EXP_GUARD:
        raise LiftOverflowError(
            f"t*sqrt(lambda) = {arg:.1f} exceeds {EXP_GUARD}"
        )
    return float(evaluate(spec, wrap_point(x))) * math.exp(arg)


def harmonicity_residual(spec: EigenfunctionSpec, x, t: float,
                         h: float) -> float:
    """(2n+3)-point second-difference Laplacian of H in (x, t).

    Exactly zero in the limit: the spatial part contributes -lambda H and the
    t-part +lambda H. The discrete residual is O(h^2 lambda^2 |H|).
    """
    if not 0.0 < h < 1e-2:
        raise ValueError(f"h must be in (0, 1e-2), got {h}")
    x = wrap_point(x)
    n = spec.model.dim
    center = lift_evaluate(spec, x, t)
    acc = -2.0 * (n + 1) * center
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        acc += lift_evaluate(spec, x + e, t) + lift_evaluate(spec, x - e, t)
    acc += lift_evaluate(spec, x, t + h) + lift_evaluate(spec, x, t - h)
    return abs(acc / (h * h))


def cube_doubling_index(spec: EigenfunctionSpec, cube_center, r: float,
                        tol: float = 1e-2) -> CubeIndex:
    """Scan sup over Euclidean balls B_s inside the cube of the H^2 log ratio.

    The cube is centered on the t = 0 slice. Centers run over a 9^(n+1)
    sub-grid of the cube (descending inscribed radius first), scales
    dyadically from the inscribed radius down to r/MIN_SCALE_DIV. On the
    flat torus Euclidean and geodesic balls coincide at these scales, so
    ball sups reduce to the certified lifted-sup scan. A center's t-offset
    only caps its inscribed radius, so each (x-offset, radius) ball is
    scanned once, in one lockstep scan per radius. The result is a lower
    bound of the continuum sup; PAIR_BUDGET caps the number of
    (center, scale) ball pairs, and exhaustion returns the best of the first
    PAIR_BUDGET pairs with a flag.
    """
    if not 0.0 < r <= 0.125:
        raise ScaleRangeError(f"need 0 < r <= 1/8, got {r}")
    cube_center = wrap_point(cube_center)
    n = spec.model.dim
    strip = [(-r + (i + 0.5) * (2.0 * r / 9.0)) for i in range(9)]
    grid = list(product(strip, repeat=n + 1))
    # inscribed Euclidean ball radius at offset u, then largest-first order
    def inscribed(u):
        return min(r - abs(c) for c in u)

    grid.sort(key=lambda u: (-inscribed(u), u))

    # the (center, scale) pairs in scan order, the first PAIR_BUDGET kept
    s_floor = r / MIN_SCALE_DIV
    pairs = []
    for u in grid:
        s = inscribed(u)
        while s >= s_floor:
            pairs.append((u, s))
            s /= 2.0
    exhausted = len(pairs) > PAIR_BUDGET
    pairs = pairs[:PAIR_BUDGET]

    # one lockstep scan per radius (to 15 digits; the first one asked for
    # stands for the rest) over the x-offsets whose pairs need it
    balls: dict[float, tuple[float, dict]] = {}
    for u, s in pairs:
        for radius in (2.0 * s, s):
            balls.setdefault(round(radius, 15), (radius, {}))[1][u[:n]] = None
    sup = {}
    for key, (radius, xoffs) in balls.items():
        values = lifted_sup_on_ball(
            spec, cube_center + np.array(list(xoffs)), radius, tol
        )
        sup.update(((xoff, key), v) for xoff, v in zip(xoffs, values))

    best = 0.0
    best_center = np.concatenate([cube_center, [0.0]])
    best_scale = s_floor
    for u, s in pairs:
        xoff = u[:n]
        den = sup[xoff, round(s, 15)]
        if den > 0.0:
            val = math.log(sup[xoff, round(2.0 * s, 15)] / den)
            if val > best:
                best = val
                best_center = np.concatenate(
                    [wrap_point(cube_center + np.array(xoff)), [u[n]]]
                )
                best_scale = s
    return CubeIndex(
        center=cube_center, half_side=r, n_value=best,
        argmax_center=best_center, argmax_scale=best_scale,
        pairs_scanned=len(pairs), budget_exhausted=exhausted,
    )


def cube_zero_set_bound(n_value: float, r: float, alpha: float, kappa: float,
                  dim_d: int) -> float:
    """Per-cube zero-set bound kappa diam(Q)^(d-1) N^(2 alpha).

    The cube has half-side r in d dimensions, diam = 2 r sqrt(d). alpha and
    kappa are configuration inputs (alpha > 1/2); N doubles the bound by
    2^(2 alpha).
    """
    if alpha <= 0.5:
        raise ValueError(f"alpha must exceed 1/2, got {alpha}")
    if n_value < 0:
        raise ValueError(f"n_value must be >= 0, got {n_value}")
    diam = 2.0 * r * math.sqrt(dim_d)
    return kappa * diam ** (dim_d - 1) * n_value ** (2.0 * alpha)
