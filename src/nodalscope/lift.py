"""Harmonic lift H(x, t) = psi(x) exp(t sqrt(lambda)) on torus x line.

H is harmonic for the product metric (the t-direction growth cancels the
eigenvalue), which lets cube-based nodal bounds for harmonic functions apply
to eigenfunctions. The cube doubling index N(H, Q) is the sup over Euclidean
balls inside the cube of the log sup-ratio of H^2 between the double ball and
the ball; the scan over (center, scale) pairs returns a certified lower bound
of that sup. Centers and scales are integer indices (grid point u, ring k,
dyadic step j), so every radius is the one float r(9 - 2k)/(9 2^j) and a
ball's double is found by its index. Since H^2 = psi^2 exp(2 t sqrt(lambda)), moving a ball in t
multiplies both sups of a pair by the same factor: a ball's log sup ratio,
and so the cube index, does not depend on its t-offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .doubling import _log_ratio
from .errors import LiftOverflowError, ScaleRangeError
from .fields import ENSEMBLE_SUP_TOL, lifted_sup_on_ball
from .geometry import wrap_point
from .scan import EXP_GUARD
from .spectrum import EigenfunctionSpec, evaluate

__all__ = [
    "CubeIndex",
    "lift_evaluate",
    "harmonicity_residual",
    "cube_doubling_index",
]

MIN_SCALE_DIV = 64
PAIR_BUDGET = 150


@dataclass
class CubeIndex:
    half_side: float         # r: cube is center +- r in space, [-r, r] in t
    n_value: float           # scanned doubling index (lower bound of the sup)
    pairs_scanned: int
    budget_exhausted: bool


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


def cube_doubling_index(spec: EigenfunctionSpec, cube_center, r: float
                        ) -> CubeIndex:
    """Scan sup over Euclidean balls B_s inside the cube of the H^2 log ratio.

    The cube is centered on the t = 0 slice. Ball centers run over the
    integer grid u in {0..8}^(n+1), at offset (2u - 8) r/9 from the cube
    center. A point in ring k = max|u - 4| has inscribed radius r(9 - 2k)/9
    and scales r(9 - 2k)/(9 2^j), j = 0, 1, ..., down to r/MIN_SCALE_DIV.
    The (center, scale) pairs are taken in order of (k, u), ring by ring and
    lexicographic within a ring, and cut at PAIR_BUDGET; exhaustion is
    flagged. On the flat torus Euclidean and geodesic balls coincide at these
    scales, so ball sups reduce to the certified lifted-sup scan. A center's
    t-offset only caps its ring, so each (x-offset, radius) ball is scanned
    once, and the double of radius (k, j) is (k, j - 1). All balls of a cube
    are one lockstep scan with a radius per ball: the 150 pairs take 70
    lifted balls of 15 radii on T^2 and 64 balls on T^3, at every r. The
    result is a lower bound of the continuum sup.
    """
    if not 0.0 < r <= 0.125:
        raise ScaleRangeError(f"need 0 < r <= 1/8, got {r}")
    cube_center = wrap_point(cube_center)
    n = spec.model.dim
    rings = sorted((max(abs(v - 4) for v in u), u)
                   for u in product(range(9), repeat=n + 1))
    # scale j of ring k is kept while 9 2^j <= (9 - 2k) MIN_SCALE_DIV
    pairs = [(u[:n], k, j) for k, u in rings
             for j in range(((9 - 2 * k) * MIN_SCALE_DIV // 9).bit_length())]
    exhausted = len(pairs) > PAIR_BUDGET
    pairs = pairs[:PAIR_BUDGET]

    # one lockstep scan of every (x-offset, radius) ball the pairs need,
    # grouped by radius
    radii: dict[tuple[int, int], dict] = {}
    for x, k, j in pairs:
        for key in ((k, j - 1), (k, j)):
            radii.setdefault(key, {})[x] = None
    balls = [(x, k, j) for (k, j), xs in radii.items() for x in xs]
    offsets = (2.0 * np.array([x for x, _, _ in balls]) - 8.0) * r / 9.0
    s = np.array([r * (9 - 2 * k) / 9.0 / 2.0**j for _, k, j in balls])
    values = lifted_sup_on_ball(spec, cube_center + offsets, s,
                                ENSEMBLE_SUP_TOL)
    sup = dict(zip(balls, values))
    n_value = max(0.0, *(_log_ratio(sup[x, k, j - 1], sup[x, k, j])
                         for x, k, j in pairs))
    return CubeIndex(half_side=r, n_value=n_value,
                     pairs_scanned=len(pairs), budget_exhausted=exhausted)
