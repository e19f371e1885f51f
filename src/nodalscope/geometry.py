"""Flat unit torus R^n/Z^n (n = 2 or 3): metric, ball volumes, covers.

Covers are regular grids whose balls of radius r tile the torus with bounded
overlap of the doubled balls; the overlap multiplicity is measured on a dense
probe grid the first time a cover's overlap_bound is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import CoverRadiusError, EmbeddedBallError

__all__ = [
    "TorusModel",
    "CoverSet",
    "wrap_point",
    "geodesic_distance",
    "embedded_radius",
    "euclidean_ball_volume",
    "ball_volume",
    "index_box",
    "generate_cover",
    "member_cover",
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


def embedded_radius(r):
    """r, when the geodesic ball of radius r, or each of the radii r, embeds
    in the unit torus (0 < r <= 1/2); raises EmbeddedBallError naming the
    first radius that does not."""
    radii = np.ravel(r)
    bad = np.flatnonzero(~((0.0 < radii) & (radii <= 0.5)))
    if len(bad):
        raise EmbeddedBallError(
            f"ball radius {radii[bad[0]]} outside (0, 1/2]")
    return r


def euclidean_ball_volume(r: float, dim: int) -> float:
    """pi r^2 (n=2), (4/3) pi r^3 (n=3), for any r >= 0."""
    if dim == 2:
        return math.pi * r * r
    return (4.0 / 3.0) * math.pi * r**3


def ball_volume(r: float, model: TorusModel) -> float:
    """Volume of the embedded geodesic ball of radius r."""
    return euclidean_ball_volume(embedded_radius(r), model.dim)


def index_box(size: int, dim: int) -> np.ndarray:
    """The (size^dim, dim) integer index vectors of a box, row-major."""
    mesh = np.meshgrid(*[np.arange(size)] * dim, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


@dataclass(frozen=True)
class CoverSet:
    """Regular-grid cover by balls of radius r; the doubled-ball overlap is
    measured on first read of overlap_bound and kept with the cover."""

    radius: float
    centers: np.ndarray  # (C, n), rows in [0, 1)
    grid_axis_count: int | None = None  # set when centers form the full K^n grid

    def __len__(self) -> int:
        return len(self.centers)

    @cached_property
    def overlap_bound(self) -> int:
        """overlap_multiplicity of this cover on its torus."""
        return overlap_multiplicity(self, TorusModel(self.centers.shape[1]))


def _grid_axis_count(r: float, dim: int) -> int:
    # Even count so that halving r exactly doubles the grid at the dyadic
    # scales used for overlap verification; still satisfies spacing <= r/sqrt(n)
    # and the cardinality bound K <= 2 sqrt(n)/r for r <= 1/4.
    return 2 * math.ceil(math.sqrt(dim) / (2.0 * r))


@lru_cache(maxsize=64)
def _cached_cover(r: float, dim: int) -> CoverSet:
    K = _grid_axis_count(r, dim)
    return CoverSet(radius=r, centers=index_box(K, dim) / K, grid_axis_count=K)


def generate_cover(r: float, model: TorusModel) -> CoverSet:
    """Regular grid of ball centers at spacing <= r/sqrt(n).

    Cardinality is at most (2 sqrt(n))^n r^(-n). Only the centers are built
    here; the doubled-ball overlap multiplicity is measured when the cover's
    overlap_bound is first read.
    """
    if not 0.0 < r <= 0.25:
        raise CoverRadiusError(f"cover radius {r} outside (0, 1/4]")
    return _cached_cover(float(r), model.dim)


def member_cover(r: float, model: TorusModel) -> CoverSet:
    """The cover a member certified at radius r is measured on: min(r, 1/4)."""
    return generate_cover(min(r, 0.25), model)


_PROBE_MIN = 512  # probe-grid density per axis for overlap measurement


def overlap_multiplicity(cover: CoverSet, model: TorusModel) -> int:
    """Max number of doubled balls B_{2r}(x_i) containing any probe point.

    The probe grid has P = K*ceil(512/K) >= 512 points per axis. For regular
    grid covers the multiplicity function is periodic with the grid cell, so
    the maximum is evaluated exactly on the P/K residue classes.
    """
    from scipy.spatial import cKDTree

    n = model.dim
    r2 = 2.0 * cover.radius
    centers = np.asarray(cover.centers, dtype=float)
    tree = cKDTree(centers, boxsize=1.0)
    K = cover.grid_axis_count
    if K is not None and len(centers) == K**n:
        c = math.ceil(_PROBE_MIN / K)
        P = K * c
    else:
        P = c = _PROBE_MIN
    best = 0
    # the probes are index_box(c, n) / P, taken in chunks along the first
    # axis to bound memory for n=3 brute-force probes
    first = np.arange(c) / P
    rest = index_box(c, n - 1) / P
    chunk = max(1, int(2e6) // len(rest))
    for i0 in range(0, c, chunk):
        sub = first[i0 : i0 + chunk]
        pts = np.column_stack([np.repeat(sub, len(rest)),
                               np.tile(rest, (len(sub), 1))])
        counts = tree.query_ball_point(pts, r2, return_length=True)
        best = max(best, int(counts.max()))
    return best
