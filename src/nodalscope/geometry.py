"""Flat unit torus R^n/Z^n (n = 2 or 3): metric, ball volumes, covers.

Every cover is a K^n grid whose balls of radius r tile the torus with bounded
overlap of the doubled balls; the overlap multiplicity is counted exactly on
the grid cell the first time a cover's overlap_bound is read. pairs_within
is the periodic neighbour search: a cell list plus min-image distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import itertools
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
    "pairs_within",
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
    """Balls of radius r on the grid index_box(K, n)/K, K = grid_axis_count;
    the doubled-ball overlap is measured on first read of overlap_bound and
    kept with the cover."""

    radius: float
    centers: np.ndarray  # (K^n, n), rows in [0, 1)
    grid_axis_count: int

    def __len__(self) -> int:
        return len(self.centers)

    @cached_property
    def overlap_bound(self) -> int:
        """overlap_multiplicity of this cover."""
        return overlap_multiplicity(self)


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


def overlap_multiplicity(cover: CoverSet) -> int:
    """Max number of open doubled balls B_{2r}(x_i) containing any probe point.

    The balls are open: a probe at distance exactly 2r from a center is not
    in its ball. Every stored bound counts this way; at n = 3, r = 1/32,
    closed balls would give 192 where the open count is 186.

    The probe grid has P = K*ceil(512/K) >= 512 points per axis. On the
    K^n grid the multiplicity function is periodic with the grid cell and
    even in each axis, so the maximum is taken over the residues a in
    [0, P/(2K)] per axis, exactly: in units of 1/P probes and centers sit on
    integers, and a squared distance counts when it is below (2 r P)^2.
    """
    n = cover.centers.shape[1]
    K = cover.grid_axis_count
    c = math.ceil(_PROBE_MIN / K)
    P = K * c
    # the largest integer below (2 r P)^2, from r's exact ratio
    num, den = cover.radius.as_integer_ratio()
    limit = ((2 * P * num) ** 2 - 1) // den**2
    # squared min-image distances along one axis, residue x center column,
    # over the columns some residue reaches
    d = np.abs(np.arange(c // 2 + 1)[:, None] - c * np.arange(K))
    d = np.minimum(d, P - d) ** 2
    d = d[:, (d <= limit).any(axis=0)]
    head = d
    for _ in range(n - 2):
        head = (head[:, None, :, None] + d[None, :, None, :]).reshape(
            len(head) * len(d), -1)
    return max(int(np.count_nonzero(head[:, :, None] + row <= limit,
                                    axis=(1, 2)).max()) for row in d)


def pairs_within(points, queries, radius: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (q, p) with queries[q] within min-image distance radius
    of points[p] (closed balls), both sets in [0, 1)^n.

    The torus is cut into G^n cells of side 1/G > radius, so a pair lies
    in the same or a neighbouring cell along each axis. The points are
    sorted by cell, and each query reads its 3^n neighbouring cells (fewer
    when G < 3) from the sorted list; the candidates' squared min-image
    distances are then compared with radius^2. Pairs come grouped by
    neighbour cell, not sorted.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = points.shape[1]
    G = max(1, min(math.floor(1.0 / radius) - 1, 1 << 20))
    dims = (G,) * n

    def cells(x):
        return np.minimum((x * G).astype(np.int64), G - 1)

    key = np.ravel_multi_index(cells(points).T, dims)
    order = np.argsort(key, kind="stable")
    key = key[order]
    home = cells(queries)
    shifts = sorted({s % G for s in (-1, 0, 1)})
    q_idx, p_idx = [], []
    for shift in itertools.product(shifts, repeat=n):
        target = np.ravel_multi_index(((home + shift) % G).T, dims)
        lo = np.searchsorted(key, target, "left")
        count = np.searchsorted(key, target, "right") - lo
        q = np.repeat(np.arange(len(queries)), count)
        q_idx.append(q)
        p_idx.append(order[np.arange(len(q)) + np.repeat(
            lo - np.cumsum(count) + count, count)])
    q, p = np.concatenate(q_idx), np.concatenate(p_idx)
    d = min_image(points[p] - queries[q])
    close = np.sum(d * d, axis=-1) <= radius * radius
    return q[close], p[close]
