"""Flat unit torus R^n/Z^n (n = 2 or 3): metric, ball volumes, covers.

Covers are regular grids whose balls of radius r tile the torus with bounded
overlap of the doubled balls; the overlap multiplicity is measured on a dense
probe grid and stored with the cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import CoverRadiusError, EmbeddedBallError

__all__ = [
    "TorusModel",
    "CoverSet",
    "wrap_point",
    "geodesic_distance",
    "ball_volume",
    "generate_cover",
    "overlap_multiplicity",
]


@dataclass(frozen=True)
class TorusModel:
    """Unit flat torus of dimension 2 or 3 (side 1, volume 1)."""

    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


def wrap_point(x) -> np.ndarray:
    """Reduce coordinates into [0, 1).

    np.mod rounds a tiny negative coordinate up to 1.0; the second mod
    takes that to 0.0 and leaves every coordinate in [0, 1) as it is.
    """
    return np.mod(np.mod(np.asarray(x, dtype=float), 1.0), 1.0)


def geodesic_distance(a, b, model: TorusModel) -> float:
    """Torus distance: the norm of the min-image displacement."""
    a = wrap_point(a)
    b = wrap_point(b)
    if a.shape[-1] != model.dim or b.shape[-1] != model.dim:
        raise ValueError("point dimension does not match model")
    d = min_image(a - b)
    return float(np.sqrt(np.sum(d * d, axis=-1)))


def min_image(delta) -> np.ndarray:
    """Per-axis signed displacement folded into [-1/2, 1/2)."""
    delta = np.asarray(delta, dtype=float)
    return delta - np.round(delta)


def ball_volume(r: float, model: TorusModel) -> float:
    """Volume of the embedded geodesic ball: pi r^2 (n=2), (4/3) pi r^3 (n=3)."""
    if not 0.0 < r <= 0.5:
        raise EmbeddedBallError(f"ball radius {r} outside embedded range (0, 1/2]")
    if model.dim == 2:
        return math.pi * r * r
    return (4.0 / 3.0) * math.pi * r**3


@dataclass(frozen=True)
class CoverSet:
    """Regular-grid cover by balls of radius r with measured doubled-ball overlap."""

    radius: float
    centers: np.ndarray  # (C, n), rows in [0, 1)
    overlap_bound: int
    grid_axis_count: int | None = None  # set when centers form the full K^n grid

    def __len__(self) -> int:
        return len(self.centers)


def _grid_axis_count(r: float, dim: int) -> int:
    # Even count so that halving r exactly doubles the grid at the dyadic
    # scales used for overlap verification; still satisfies spacing <= r/sqrt(n)
    # and the cardinality bound K <= 2 sqrt(n)/r for r <= 1/4.
    return 2 * math.ceil(math.sqrt(dim) / (2.0 * r))


def _grid_centers(K: int, dim: int) -> np.ndarray:
    axes = [np.arange(K) / K] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


@lru_cache(maxsize=64)
def _cached_cover(r: float, dim: int) -> CoverSet:
    K = _grid_axis_count(r, dim)
    centers = _grid_centers(K, dim)
    cover = CoverSet(radius=r, centers=centers, overlap_bound=0, grid_axis_count=K)
    bound = overlap_multiplicity(cover, TorusModel(dim))
    return CoverSet(
        radius=r, centers=centers, overlap_bound=bound, grid_axis_count=K
    )


def generate_cover(r: float, model: TorusModel) -> CoverSet:
    """Regular grid of ball centers at spacing <= r/sqrt(n).

    Cardinality is at most (2 sqrt(n))^n r^(-n); the doubled-ball overlap
    multiplicity is measured and stored.
    """
    if not 0.0 < r <= 0.25:
        raise CoverRadiusError(f"cover radius {r} outside (0, 1/4]")
    return _cached_cover(float(r), model.dim)


_PROBE_MIN = 512  # probe-grid density per axis for overlap measurement


def overlap_multiplicity(cover: CoverSet, model: TorusModel) -> int:
    """Max number of doubled balls B_{2r}(x_i) containing any probe point.

    The probe grid has P = K*ceil(512/K) >= 512 points per axis. For regular
    grid covers the multiplicity function is periodic with the grid cell, so
    the maximum is evaluated exactly on the P/K residue classes.
    """
    n = model.dim
    r2 = 2.0 * cover.radius
    centers = np.asarray(cover.centers, dtype=float)
    tree = cKDTree(centers, boxsize=1.0)
    K = cover.grid_axis_count
    if K is not None and len(centers) == K**n:
        c = math.ceil(_PROBE_MIN / K)
        P = K * c
        axes = [np.arange(c) / P] * n
    else:
        P = _PROBE_MIN
        axes = [np.arange(P) / P] * n
    best = 0
    # chunk along the first axis to bound memory for n=3 brute-force probes
    first = axes[0]
    rest = axes[1:]
    mesh_rest = np.meshgrid(*rest, indexing="ij") if rest else []
    rest_flat = [m.reshape(-1) for m in mesh_rest]
    n_rest = rest_flat[0].size if rest_flat else 1
    chunk = max(1, int(2e6) // max(n_rest, 1))
    for i0 in range(0, len(first), chunk):
        sub = first[i0 : i0 + chunk]
        pts = np.empty((len(sub) * n_rest, n))
        pts[:, 0] = np.repeat(sub, n_rest)
        for d, vals in enumerate(rest_flat):
            pts[:, d + 1] = np.tile(vals, len(sub))
        counts = tree.query_ball_point(pts, r2, return_length=True)
        best = max(best, int(counts.max()))
    return best
