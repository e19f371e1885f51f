"""Nodal sets of 2-D eigenfunctions: extraction, length, singular points.

The zero set is traced by marching squares on the exact node samples, as
array operations: a (pattern, center sign) table gives each crossing cell's
edge pairs, saddle cells are resolved by the exact sign of psi at their
centers (one batched evaluation), and crossing points are linear
interpolants on the sign-change edges. Segments are stitched into closed
polylines across the torus seam through integer grid-edge ids: every
sign-change edge is shared by exactly two segment endpoints.

Singular points (psi = |grad psi| = 0) are found by batched Newton on
grad psi from the cells where psi changes sign and both gradient
components change sign nearby; a result counts when its residual
max(|psi|, |grad psi|) is below RESIDUAL_TOL. The order of vanishing is
exact: the first j whose derivative tensor D^j psi is not zero relative to
||c||_1 (2 pi sqrt(m))^j, read off the same mode sum the certified scan uses.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionError, ResolutionError, ScaleRangeError
from .fields import nyquist_resolution
from .geometry import min_image, wrap_point
from .spectrum import (
    EigenfunctionSpec,
    evaluate,
    evaluate_gradient,
    evaluate_gradient_grid,
    evaluate_grid,
    evaluate_hessian,
    mode_sum,
    mode_weights,
    point_phases,
)

__all__ = [
    "NodalSet",
    "SingularPoint",
    "extract_nodal",
    "find_singular_points",
    "vanishing_order",
    "count_singular_in_balls",
    "write_segments_csv",
    "singular_points_json",
]

logger = logging.getLogger(__name__)

NUDGE = 1e-12
ZERO_TOL = 64.0 * np.finfo(float).eps
RESIDUAL_TOL = 1e-8
ORDER_TOL = 1e-6

# Corners c0=(i,j), c1=(i+1,j), c2=(i+1,j+1), c3=(i,j+1) give the 4-bit
# positivity pattern of a cell; its edges are e0=c0c1, e1=c1c2, e2=c3c2,
# e3=c0c3. Each pattern lists the edge pairs its segments join, in segment
# order, for a non-positive and for a positive psi at the cell center; only
# the saddle patterns 5 and 10 depend on that sign.
_SEGMENTS = {
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    3: [(1, 3)], 12: [(1, 3)],
    4: [(1, 2)], 11: [(1, 2)],
    6: [(0, 2)], 9: [(0, 2)],
    7: [(2, 3)], 8: [(2, 3)],
}
_SADDLES = {
    5: ([(0, 3), (1, 2)], [(0, 1), (2, 3)]),
    10: ([(0, 1), (2, 3)], [(0, 3), (1, 2)]),
}
# local edge e -> (di, dj, axis): e runs from node (i+di, j+dj) one step
# along the axis
_EDGE_BASE = np.array([(0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1)])


def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """(pattern, center_positive, slot) -> edge pair, and pairs per pattern."""
    table = np.zeros((16, 2, 2, 2), dtype=np.intp)
    count = np.zeros(16, dtype=np.intp)
    for pat, pairs in _SEGMENTS.items():
        table[pat, :, 0] = pairs[0]
        count[pat] = 1
    for pat, by_sign in _SADDLES.items():
        table[pat] = by_sign
        count[pat] = 2
    return table, count


_PAIRS, _N_PAIRS = _pair_table()


@dataclass
class NodalSet:
    polylines: list          # list of (V, 2) vertex arrays, wrapped mod 1
    resolution: int
    length: float
    segments: np.ndarray | None = None  # (S, 4): x1, y1, x2, y2


@dataclass
class SingularPoint:
    location: np.ndarray
    vanishing_order: int
    residual: float


def _cell_patterns(vals: np.ndarray) -> np.ndarray:
    """4-bit positivity pattern of the corners c0..c3 of every cell (i, j)."""
    pos = (vals > 0.0).astype(np.uint8)
    p1 = np.roll(pos, -1, axis=0)
    return pos + 2 * p1 + 4 * np.roll(p1, -1, axis=1) \
        + 8 * np.roll(pos, -1, axis=1)


def _signed_grid(spec: EigenfunctionSpec, N: int) -> np.ndarray:
    """psi on the N x N grid with every node at a rounding-level value set
    to +NUDGE, so that cell sign patterns do not follow rounding noise.

    A node counts as zero when |psi| <= ZERO_TOL ||c||_1: the magnitudes of
    the summed terms add up to at most ||c||_1, so the grid sum's rounding
    error is a few ulps of it.
    """
    vals = evaluate_grid(spec, N)
    zero = np.abs(vals) <= ZERO_TOL * spec.coeff_l1()
    zero_nodes = int(np.count_nonzero(zero))
    if zero_nodes:
        logger.info("nudged %d rounding-level grid nodes to +%g", zero_nodes,
                    NUDGE)
        vals = np.where(zero, NUDGE, vals)
    return vals


def extract_nodal(spec: EigenfunctionSpec, N: int) -> NodalSet:
    """Marching-squares contour of {psi = 0} with torus-periodic stitching.

    Segments come in row-major cell order, then pair order within a cell;
    crossing points are linear interpolants on the sign-change edges.
    """
    if spec.model.dim != 2:
        raise DimensionError("nodal extraction is 2-D only")
    required = 4 * nyquist_resolution(spec.m)
    if N < required:
        raise ResolutionError(N, required)
    vals = _signed_grid(spec, N)
    h = 1.0 / N
    pattern = _cell_patterns(vals)
    ii, jj = np.nonzero(_N_PAIRS[pattern])
    pats = pattern[ii, jj]

    center_pos = np.zeros(len(ii), dtype=np.intp)
    saddle = np.flatnonzero(_N_PAIRS[pats] == 2)
    centers = np.stack([(ii[saddle] + 0.5) * h, (jj[saddle] + 0.5) * h],
                       axis=-1)
    center_pos[saddle] = evaluate(spec, centers) > 0.0

    # one row per segment, in cell order then pair order
    n_pairs = _N_PAIRS[pats]
    cell = np.repeat(np.arange(len(ii)), n_pairs)
    slot = np.zeros(len(cell), dtype=np.intp)
    slot[1:] = cell[1:] == cell[:-1]
    edges = _PAIRS[pats[cell], center_pos[cell], slot]  # (S, 2) local edges
    base = _EDGE_BASE[edges]                            # (S, 2, 3)
    i0 = ii[cell, None] + base[..., 0]
    j0 = jj[cell, None] + base[..., 1]
    axis = base[..., 2]
    iw, jw = i0 % N, j0 % N
    v0 = vals[iw, jw]
    v1 = vals[(iw + 1 - axis) % N, (jw + axis) % N]
    t = v0 / (v0 - v1)
    x = np.where(axis == 0, (i0 + t) * h, i0 * h)
    y = np.where(axis == 1, (j0 + t) * h, j0 * h)
    seg_arr = np.stack([x, y], axis=-1).reshape(-1, 4)
    edge_ids = 2 * (iw * N + jw) + axis
    length = _segments_length(seg_arr)
    polylines = _stitch(seg_arr, edge_ids.ravel())
    return NodalSet(polylines=polylines, resolution=N, length=length,
                    segments=seg_arr)


def _segments_length(segments: np.ndarray) -> float:
    if len(segments) == 0:
        return 0.0
    d = min_image(segments[:, 2:4] - segments[:, 0:2])
    return float(np.sum(np.linalg.norm(d, axis=-1)))


def _stitch(segments: np.ndarray, edge_ids: np.ndarray) -> list:
    """Join segments into closed vertex chains through shared grid edges.

    Endpoint p = 2 s + side of segment s lies on grid edge edge_ids[p]. Every
    sign-change edge borders two cells and carries one endpoint from each,
    so sorting the ids pairs each endpoint with its partner, and a chain
    walks segment to segment by integers alone. Chains start at the lowest
    unused segment and run from its first endpoint through its second.
    """
    order = np.argsort(edge_ids, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]] = order[1::2]
    partner[order[1::2]] = order[0::2]
    partner = partner.tolist()
    points = np.mod(segments.reshape(-1, 2), 1.0)
    used = bytearray(len(segments))
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = 1
        path = [2 * start]
        tip = 2 * start + 1
        while True:
            path.append(tip)
            nxt = partner[tip]
            if used[nxt >> 1]:
                break
            used[nxt >> 1] = 1
            tip = nxt ^ 1
        chains.append(points[path])
    return chains


def vanishing_order(spec: EigenfunctionSpec, x) -> int:
    """Order of vanishing of psi at x: its first nonzero derivative tensor.

    D^j psi(x) = Re sum_l c_l exp(2 pi i k_l . x) (2 pi i k_l)^(tensor j)
    is read off one mode sum over the phases at x (spectrum.mode_weights).
    Its Frobenius norm is at most
    ||c||_1 (2 pi sqrt(m))^j, and the order is the first j at which it
    exceeds ORDER_TOL times that bound. A nonzero point has order 0
    (precondition violation, logged).
    """
    x = wrap_point(x)
    n = spec.model.dim
    at_x = point_phases(spec, x[None, :])
    scale = ORDER_TOL * spec.coeff_l1()
    growth = 2.0 * math.pi * math.sqrt(spec.m)
    # psi is a sum over the 2M frequencies +-k_l, so a nonzero psi has a
    # nonzero derivative of some order below 2M
    for order in range(2 * spec.n_modes):
        tensor = mode_sum(at_x, mode_weights(spec, order))[0, -n**order:]
        if np.linalg.norm(tensor) > scale * growth**order:
            if order == 0:
                logger.warning("vanishing_order at %s: psi = %.3g, point is "
                               "not a zero of psi", np.array2string(x),
                               tensor[0])
            return order
    raise ValueError(f"psi vanishes to order {2 * spec.n_modes} at {x}")


def _newton_singular(spec: EigenfunctionSpec, x: np.ndarray,
                     max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton on grad psi from the rows of x (P, 2).

    Closed-form gradients and 2x2 Hessians of the active points, with an
    explicit 2x2 solve. A point leaves the active set when its step drops
    below 1e-13 or its Hessian is singular. Every point is then judged by
    its residual max(|psi|, |grad psi|), returned with the locations: near
    a zero of order >= 3 the Hessian vanishes and Newton converges only
    linearly, so a step test alone would drop such zeros.
    """
    x = wrap_point(x)
    active = np.arange(len(x))
    for _ in range(max_iter):
        if not len(active):
            break
        g = evaluate_gradient(spec, x[active])
        hess = evaluate_hessian(spec, x[active])
        hxx, hxy, hyy = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
        det = hxx * hyy - hxy * hxy
        ok = det != 0.0
        step = np.stack([hxy * g[:, 1] - hyy * g[:, 0],
                         hxy * g[:, 0] - hxx * g[:, 1]], axis=-1)[ok]
        step /= det[ok, None]
        moved = active[ok]
        x[moved] = wrap_point(x[moved] + step)
        active = moved[np.linalg.norm(step, axis=-1) >= 1e-13]
    resid = np.maximum(np.abs(evaluate(spec, x)),
                       np.linalg.norm(evaluate_gradient(spec, x), axis=-1))
    return x, resid


def _dilate(mask: np.ndarray) -> np.ndarray:
    """OR of a node mask over the 4x4 nodes (i-1..i+2, j-1..j+2) of cell
    (i, j): the corners of its 3x3 cell neighbourhood, periodically."""
    for axis in (0, 1):
        mask = mask | np.roll(mask, 1, axis) | np.roll(mask, -1, axis) \
            | np.roll(mask, -2, axis)
    return mask


def _in_unit_box(x) -> np.ndarray:
    """Coordinates in [0, 1), as a periodic cKDTree needs them: np.mod may
    round a tiny negative coordinate up to 1.0."""
    x = wrap_point(x)
    return np.where(x < 1.0, x, 0.0)


def find_singular_points(spec: EigenfunctionSpec, N: int) -> list[SingularPoint]:
    """Common zeros of psi and grad psi by batched Newton on grad psi.

    A cell is a candidate when psi changes sign on its corners and both
    d_x psi and d_y psi change sign on the nodes of its 3x3 cell
    neighbourhood: a singular point is a crossing of the two gradient
    component zero sets, wherever it sits in the cell. Newton runs from
    all candidate cell centers at once; a result is accepted when
    max(|psi|, |grad psi|) < 1e-8 (RESIDUAL_TOL), however Newton stopped,
    and points within h of an earlier accepted one are merged by a
    periodic k-d tree. Points are returned sorted by location, each with
    its vanishing order.
    """
    if spec.model.dim != 2:
        raise DimensionError("singular-point search is 2-D only")
    required = 4 * nyquist_resolution(spec.m)
    if N < required:
        raise ResolutionError(N, required)
    h = 1.0 / N
    vals = _signed_grid(spec, N)
    grad = evaluate_gradient_grid(spec, N)
    gate = _N_PAIRS[_cell_patterns(vals)] > 0
    for d in range(2):
        gate &= _dilate(grad[..., d] > 0.0) & _dilate(grad[..., d] < 0.0)
    candidates = np.argwhere(gate)
    x, resid = _newton_singular(spec, (candidates + 0.5) * h)
    hit = resid < RESIDUAL_TOL
    if not np.all(hit):
        logger.info("Newton did not reach a singular point from %d of %d "
                    "cells", int(np.count_nonzero(~hit)), len(candidates))
    x, resid = x[hit], resid[hit]
    keep = np.ones(len(x), dtype=bool)
    if len(x) > 1:
        tree = cKDTree(_in_unit_box(x), boxsize=1.0)
        for a, b in sorted(tree.query_pairs(h)):
            if keep[a]:
                keep[b] = False
    found = [
        SingularPoint(location=loc, vanishing_order=vanishing_order(spec, loc),
                      residual=float(r))
        for loc, r in zip(x[keep], resid[keep])
    ]
    found.sort(key=lambda p: (p.location[0], p.location[1]))
    return found


def count_singular_in_balls(points: list[SingularPoint], r: float, lam: float,
                            centers, radius_override: float | None = None
                            ) -> list[int]:
    """Per-center sum of (order - 1) over singular points within
    sqrt(r) lambda^(-1/4) (or an explicit override radius)."""
    if r < lam ** -0.5:
        raise ScaleRangeError(
            f"need r >= lambda^(-1/2) = {lam ** -0.5:.3g}, got {r}"
        )
    radius = radius_override if radius_override is not None \
        else math.sqrt(r) * lam ** -0.25
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if not points:
        return [0] * len(centers)
    weights = np.array([p.vanishing_order - 1 for p in points])
    tree = cKDTree(_in_unit_box([p.location for p in points]), boxsize=1.0)
    hits = tree.query_ball_point(_in_unit_box(centers), radius)
    return [int(weights[h].sum()) for h in hits]


def write_segments_csv(ns: NodalSet, path, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["x1", "y1", "x2", "y2"])
        for seg in (ns.segments if ns.segments is not None else []):
            writer.writerow([f"{c:.17g}" for c in seg])


def singular_points_json(points: list[SingularPoint]) -> str:
    payload = [
        {"location": [float(c) for c in p.location],
         "vanishing_order": p.vanishing_order,
         "residual": p.residual}
        for p in points
    ]
    return json.dumps(payload, sort_keys=True)
