"""Nodal sets of 2-D eigenfunctions: extraction, length, singular points.

The zero set is traced by marching squares on the exact node samples, as
array operations: one gather of packed (pattern, center sign, slot) codes
gives each segment's grid edges and orientation, saddle cells are resolved
by the exact sign of psi at their centers (one batched evaluation), and
crossing points are linear interpolants on the sign-change edges. Cell,
node and edge indices are int32 wherever the grid allows, and every N^2-
or segment-sized temporary is released once read. Segments are stitched into closed polylines across
the torus seam through integer grid-edge ids: every sign-change edge is
shared by exactly two segment endpoints, and each segment is oriented with
psi > 0 on its left, so the chains are the cycles of a successor map on
the segments. A sparse ruling set ranks them (Reid-Miller 1994): lockstep
walks between hashed ruler segments, then pointer jumping over the rulers,
all int32 array operations.

Singular points (psi = |grad psi| = 0) are found by batched Newton on
grad psi from the cells where psi changes sign and both gradient
components change sign nearby (one dilation of a 4-bit sign code), all
starts in lockstep; each iteration takes grad psi and the Hessian from one
mode sum over the phases at the points (the kernel the certified scan
uses), in blocks of spectrum.PHASE_BLOCK starts x modes, the first from
per-axis tables at the cell centers. A start stops once a Kantorovich
certificate proves it cannot reach a zero of psi. A result counts when its
residual max(|psi|, |grad psi|) is below RESIDUAL_TOL. The order of
vanishing is exact: the first j whose derivative tensor D^j psi is not zero
relative to D_j (spec.derivative_bound), its Frobenius norm read off a Gram
form in the spec's modes, no n^j tensor.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResolutionError, ScaleRangeError
from .geometry import pairs_within, wrap_point
from .spectrum import (
    TWO_PI,
    EigenfunctionSpec,
    _grid_sum,
    axis_phases,
    evaluate,
    evaluate_grid,
    lattice_phases,
    mode_sum,
    mode_weights,
    phase_blocks,
    point_phases,
)

__all__ = [
    "nyquist_resolution",
    "member_resolution",
    "NodalSet",
    "SingularPoint",
    "extract_nodal",
    "find_singular_points",
    "vanishing_order",
    "count_singular_in_balls",
]

logger = logging.getLogger(__name__)

NUDGE = 1e-12
ZERO_TOL = 64.0 * np.finfo(float).eps
RESIDUAL_TOL = 1e-8
ORDER_TOL = 1e-6
NEWTON_ITERATIONS = 50

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
_EDGE_BASE = np.array([(0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1)],
                      dtype=np.int8)
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))  # local edge -> corners


def _pair_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pattern, center_positive, slot) -> packed segment code, pairs per
    pattern, and (pattern, center_positive, slot) -> orientation: 1 when
    psi > 0 lies to the left of the segment run from its first edge to its
    second. A code holds di + 2 dj + 4 axis (_EDGE_BASE) of its first edge
    in bits 0-2, of its second in bits 3-5, and its orientation in bit 6.

    A segment keeps each of its edges' positive corners on its positive
    side. Which side a corner is on can be read off the edge midpoints,
    since the crossing points move only along their edges.
    """
    table = np.zeros((16, 2, 2, 2), dtype=np.uint8)
    count = np.zeros(16, dtype=np.uint8)
    for pat, pairs in _SEGMENTS.items():
        table[pat, :, 0] = pairs[0]
        count[pat] = 1
    for pat, by_sign in _SADDLES.items():
        table[pat] = by_sign
        count[pat] = 2
    corner = ((0, 0), (1, 0), (1, 1), (0, 1))
    orient = np.zeros((16, 2, 2), dtype=np.uint8)
    for pat in range(16):
        for pos in range(2):
            for slot in range(count[pat]):
                (a0, a1), (b0, b1) = (_EDGE_CORNERS[e]
                                      for e in table[pat, pos, slot])
                plus = a0 if pat >> a0 & 1 else a1
                # from the first edge's midpoint to the second's and to the
                # positive corner, doubled to stay in integers
                mid = [corner[a0][k] + corner[a1][k] for k in (0, 1)]
                d = [corner[b0][k] + corner[b1][k] - mid[k] for k in (0, 1)]
                v = [2 * corner[plus][k] - mid[k] for k in (0, 1)]
                orient[pat, pos, slot] = d[0] * v[1] > d[1] * v[0]
    edge = _EDGE_BASE @ np.array([1, 2, 4])
    codes = edge[table[..., 0]] | edge[table[..., 1]] << 3 | orient << 6
    return codes.astype(np.uint8), count, orient


_CODES, _N_PAIRS, _ = _pair_table()


def nyquist_resolution(m: int) -> int:
    """Nyquist grid resolution 2*ceil(sqrt(m)) + 2 of the modes |k|^2 = m."""
    return 2 * math.ceil(math.sqrt(m)) + 2


def _min_resolution(m: int) -> int:
    """Smallest grid N the extraction and the singular search admit."""
    return 4 * nyquist_resolution(m)


def member_resolution(m: int) -> int:
    """The grid members are measured on: the smallest 512 * 2^j that the
    extraction admits."""
    return 512 << ((_min_resolution(m) - 1) // 512).bit_length()


def _check_grid(spec: EigenfunctionSpec, N: int, task: str) -> None:
    if spec.model.dim != 2:
        raise DimensionError(f"{task} is 2-D only")
    if N < _min_resolution(spec.m):
        raise ResolutionError(N, _min_resolution(spec.m))


@dataclass
class NodalSet:
    polylines: list          # list of (V, 2) vertex arrays, wrapped mod 1
    length: float
    segments: np.ndarray     # (S, 4): x1, y1, x2, y2


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


def _crossing(pattern: np.ndarray) -> np.ndarray:
    """Cells whose corners differ in sign: pattern neither 0 nor 15."""
    return pattern - np.uint8(1) < 14  # 0 wraps to 255


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
        vals[zero] = NUDGE
    return vals


def extract_nodal(spec: EigenfunctionSpec, N: int) -> NodalSet:
    """Marching-squares contour of {psi = 0} with torus-periodic stitching.

    Segments come in row-major cell order, then pair order within a cell;
    crossing points are linear interpolants on the sign-change edges.
    """
    _check_grid(spec, N, "nodal extraction")
    vals = _signed_grid(spec, N).ravel()
    h = 1.0 / N
    # node and cell indices below N^2, endpoint ids below 4 N^2
    index = np.int32 if 4 * N * N <= np.iinfo(np.int32).max else np.int64
    pattern = _cell_patterns(vals.reshape(N, N)).ravel()
    cells = np.flatnonzero(_crossing(pattern)).astype(index)
    pats = pattern[cells]
    del pattern
    n_pairs = _N_PAIRS[pats]
    saddle = np.flatnonzero(n_pairs == 2)
    center_pos = np.zeros(len(pats), dtype=np.uint8)
    centers = (np.stack(np.divmod(cells[saddle], N), axis=-1) + 0.5) * h
    center_pos[saddle] = evaluate(spec, centers) > 0.0

    # one row per segment, in cell order then pair order (a saddle's slot 1
    # after its slot 0); endpoint e lies on the grid edge from node
    # (i0, j0), unwrapped, one step along axis
    key = np.repeat(4 * pats + 2 * center_pos, n_pairs)  # flat _CODES index
    key[saddle + np.arange(1, len(saddle) + 1)] += 1
    code = np.take(_CODES, key)
    ends = np.stack([code, code >> 3], axis=-1)  # each endpoint's edge
    ii, jj = np.divmod(np.repeat(cells, n_pairs), N)
    i0 = ii[:, None] + (ends & 1)
    j0 = jj[:, None] + (ends >> 1 & 1)
    axis = ends >> 2 & 1
    orient = code >> 6
    del cells, pats, n_pairs, center_pos, key, code, ends, ii, jj
    # the far ends first, so that the grid shares the peak with one of v0, v1
    v1 = vals[((i0 + 1 - axis) % N) * N + (j0 + axis) % N]
    node = (i0 % N) * N + j0 % N
    v0 = vals[node]
    del vals
    t = v0 / (v0 - v1)
    del v0, v1
    seg = np.empty(i0.shape + (2,))
    seg[..., 0] = i0 + t * (axis == 0)
    seg[..., 1] = j0 + t * (axis == 1)
    seg *= h
    del i0, j0, t
    # endpoint ids 2 e + 1 where the curve leaves its segment, psi > 0 on
    # its left, through grid edge e = 2 node + axis, and 2 e where it enters
    node *= 4
    node += 2 * axis
    node[:, 0] += 1 - orient
    node[:, 1] += orient
    edge_ids = node.ravel()
    del node, axis, orient
    # a segment's ends lie on its own cell's unwrapped edges: no min-image
    dx, dy = (seg[:, 1] - seg[:, 0]).T
    length = float(np.sum(np.sqrt(dx * dx + dy * dy)))
    del dx, dy
    seg_arr = seg.reshape(-1, 4)
    polylines = _stitch(seg_arr, edge_ids)
    return NodalSet(polylines=polylines, length=length, segments=seg_arr)


def _stitch(segments: np.ndarray, edge_ids: np.ndarray) -> list:
    """Join segments into closed vertex chains through shared grid edges.

    Endpoint p = 2 s + side of segment s has id edge_ids[p] = 2 e + 1 when
    the curve, run with psi > 0 on its left, leaves s through grid edge e,
    and 2 e when it enters s there. Every sign-change edge borders two
    cells, so it carries one leaving and one entering endpoint, and the
    segments form the cycles of the successor map: the segment a curve
    enters where it leaves s. A chain is one cycle: it starts at the lowest
    segment s of its cycle (the chains are ordered by s) and runs from
    endpoint 2 s to 2 s + 1, with or against the successor map, then
    through the far endpoint of each segment in turn.

    The cycles are ranked by a sparse ruling set (Reid-Miller 1994): about
    one segment in 16, picked by a fixed hash of its id, is a ruler, and
    lockstep walks from every ruler to the next give each segment its
    ruler and its distance from it. Every segment of a cycle no hash
    picked (a short cycle, since about one in 16 segments is picked) is a
    ruler of its own. Pointer jumping over the cycles of rulers then
    gives each ruler its cycle's lowest segment and its distance along
    the cycle, and so every segment its place in its chain.
    """
    if not len(edge_ids):
        return []
    path, heads = _chain_path(edge_ids)
    points = np.take(segments.reshape(-1, 2), path, axis=0)
    del path
    points -= np.floor(points)  # np.mod(points, 1.0) to the bit, faster
    return np.split(points, heads[1:])


def _chain_path(edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints of every chain in chain order, and where each chain
    starts in that list; see _stitch. Its per-segment arrays are freed on
    return, before _stitch gathers the vertices."""
    n_seg = len(edge_ids) // 2
    index = edge_ids.dtype
    seg = np.arange(n_seg, dtype=index)
    # ids sort into (2 e, 2 e + 1): an entering endpoint, then its partner
    order = np.argsort(edge_ids).astype(index)
    succ = np.empty(n_seg, dtype=index)
    succ[order[1::2] >> 1] = order[0::2] >> 1
    del order
    is_ruler = (seg.astype(np.uint32) * np.uint32(0x9E3779B1)) >> 28 == 0
    rulers = np.flatnonzero(is_ruler).astype(index)
    owner = np.full(n_seg, -1, dtype=index)
    offset = np.empty(n_seg, dtype=index)
    walks = [_walk(succ, rulers, is_ruler, owner, offset, 0)]
    # every segment of a cycle no hash picked becomes a ruler of its own
    lost = np.flatnonzero(owner < 0).astype(index)
    is_ruler[lost] = True
    walks.append(_walk(succ, lost, is_ruler, owner, offset, len(rulers)))
    rulers = np.concatenate([rulers, lost])
    del succ, is_ruler
    end, gap = (np.concatenate(w) for w in zip(*walks))
    n_rul = len(rulers)
    nxt = owner[end]
    # each ruler's cycle's lowest segment, and the ruler holding it
    label = np.full(n_rul, n_seg, dtype=index)
    np.minimum.at(label, owner, seg)
    jump, span = nxt, 1
    while span < n_rul:
        label = np.minimum(label, label[jump])
        jump = jump[jump]
        span *= 2
    anchor = owner[label]
    # segments from each ruler to the end of its cycle cut before its
    # anchor; the sentinel n_rul ends every cut cycle
    dist = np.append(gap, 0)
    jump = np.append(np.where(nxt == anchor, n_rul, nxt), n_rul)
    span = 1
    while span < n_rul:
        dist = dist + dist[jump]
        jump = jump[jump]
        span *= 2
    size = dist[anchor]
    is_anchor = anchor == np.arange(n_rul)
    firsts, sizes = label[is_anchor], size[is_anchor]
    by_first = np.argsort(firsts)
    firsts, sizes = firsts[by_first], sizes[by_first]
    heads = np.cumsum(sizes + 1) - sizes - 1  # each chain's place in path
    base = np.empty(n_rul, dtype=index)
    base[np.flatnonzero(is_anchor)[by_first]] = heads
    base = base[anchor] + 1
    # side of each segment's leaving endpoint. A chain runs with the
    # successor map when its first segment leaves through side 1, and its
    # segments are then left through their leaving endpoints.
    leaves = (edge_ids[1::2] & 1).astype(index)
    forward = leaves[label]
    sign = 2 * forward - 1
    # each ruler's place in its chain: its distance after the cycle's
    # lowest segment, with or against the chain's direction, mod size
    first = (sign * (size - dist[:-1] - offset[label])) % size
    size, sign, forward = size[owner], sign[owner], forward[owner]
    place = first[owner] + sign * offset
    del sign, offset
    place = np.where(place < 0, place + size, place)
    place = np.where(place >= size, place - size, place)
    path = np.empty(n_seg + len(firsts), dtype=index)
    path[base[owner] + place] = 2 * seg + (leaves ^ 1 ^ forward)
    path[heads] = 2 * firsts
    return path, heads


def _walk(succ, rulers, is_ruler, owner, offset, first):
    """Lockstep walks along succ from each ruler to the next one.

    Every segment a walk passes gets owner first + i, i the walk's number,
    and offset its steps from rulers[i]. Returns each walk's end ruler and
    its length in segments.
    """
    walker = np.arange(len(rulers), dtype=rulers.dtype)
    owner[rulers] = walker + first
    offset[rulers] = 0
    end = np.empty_like(rulers)
    gap = np.empty_like(rulers)
    cur, step = rulers, 0
    while len(cur):
        step += 1
        cur = succ[cur]
        stop = is_ruler[cur]
        end[walker[stop]] = cur[stop]
        gap[walker[stop]] = step
        go = ~stop
        cur, walker = cur[go], walker[go]
        owner[cur] = walker + first
        offset[cur] = step
    return end, gap


def vanishing_order(spec: EigenfunctionSpec, x) -> int:
    """Order of vanishing of psi at x: its first nonzero derivative tensor.

    D^j psi(x) = Re sum_l c_l exp(2 pi i k_l . x) (2 pi i k_l)^(tensor j)
    = (2 pi)^j sum_l u_l k_l^(tensor j), u_l = Re(i^j c_l exp(2 pi i k_l . x)),
    and <k^(tensor j), k'^(tensor j)> = (k . k')^j, so its Frobenius norm
    over its largest possible growth (2 pi sqrt(m))^j is
    sqrt(u^T (K K^T / m)^(entrywise j) u): one M x M Gram form per order,
    its entries at most 1 in size, and no n^j tensor. The order is the
    first j at which that norm exceeds ORDER_TOL ||c||_1. The form's
    rounding is about eps ||c||_1^2, far under ORDER_TOL^2 ||c||_1^2. A
    nonzero point has order 0 (precondition violation, logged).
    """
    x = wrap_point(x)
    v = (spec.a - 1j * spec.b) * point_phases(spec, x[None, :])[0]
    # u is +-Re v for even j and +-Im v for odd j; the form ignores signs
    parts = (v.real, v.imag)
    cosines = (spec.k @ spec.k.T) / spec.m
    gram = np.ones_like(cosines)
    threshold = (ORDER_TOL * spec.coeff_l1()) ** 2
    # psi is a sum over the 2M frequencies +-k_l, so a nonzero psi has a
    # nonzero derivative of some order below 2M
    for order in range(2 * spec.n_modes):
        u = parts[order % 2]
        if u @ gram @ u > threshold:
            if order == 0:
                logger.warning("vanishing_order at %s: psi = %.3g, point is "
                               "not a zero of psi", np.array2string(x),
                               u.sum())
            return order
        gram *= cosines
    raise ValueError(f"psi vanishes to order {2 * spec.n_modes} at {x}")


def _newton_singular(spec: EigenfunctionSpec, cells: np.ndarray, N: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Newton on grad psi from the centers of the grid cells (P, 2),
    every start in lockstep.

    Each iteration takes psi, grad psi and the 2x2 Hessian of the active
    points from one mode sum over their phases, in blocks of
    spectrum.PHASE_BLOCK starts x modes (_block_sums), with an explicit 2x2
    solve; the first iteration reads the cell-center phases off per-axis
    tables (axis_phases, lattice_phases), the later ones use point_phases.
    A point leaves the active set when its step drops below 1e-13 or its
    Hessian is singular, or after NEWTON_ITERATIONS steps, and is then
    judged by its residual max(|psi|, |grad psi|): near a zero of order >= 3
    the Hessian vanishes and Newton converges only linearly, so a step test
    alone would drop such zeros.

    A start is dropped as soon as Kantorovich's theorem proves it cannot
    reach a zero of psi (Ortega-Rheinboldt 1970, 12.6). At an iterate x with
    beta = 1/min|eig H|, eta = |step| and L = ||c||_1 (2 pi sqrt(m))^3, which
    bounds D^3 psi, h = beta L eta <= 1/2 keeps every later iterate in the
    ball of radius t* = 2 eta / (1 + sqrt(1 - 2h)) about x, where
    |psi| >= |psi(x)| - t* (|grad psi| + ||H|| t* + L t*^2 / 2). When that
    exceeds 2 RESIDUAL_TOL + ZERO_TOL ||c||_1 (the sums' rounding), the run
    ends above RESIDUAL_TOL however it stops, and its residual is its last
    |psi|; h carries a 1% margin for rounding. Rows are computed alone, so
    no result depends on the block. Returns the end points, their
    residuals and the mask of dropped starts.
    """
    # columns: psi, d_x, d_y, d_xx, d_xy, d_yx, d_yy
    weights = mode_weights(spec, 2)
    lip = spec.derivative_bound(3)
    floor = 2.0 * RESIDUAL_TOL + ZERO_TOL * spec.coeff_l1()
    coords = (np.arange(N) + 0.5) * (1.0 / N)
    tables = [axis_phases(spec, coords, a) for a in range(2)]
    x = coords[cells]
    resid = np.empty(len(x))
    dropped = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    phases, rows = (lambda c: lattice_phases(tables, c)), cells
    for _ in range(NEWTON_ITERATIONS):
        if not len(active):
            break
        d = _block_sums(spec, phases, rows, weights)
        det = d[:, 3] * d[:, 6] - d[:, 4] * d[:, 4]
        ok = det != 0.0
        moved, d, det = active[ok], d[ok], det[ok]
        gx, gy, hxx, hxy, hyy = d[:, 1], d[:, 2], d[:, 3], d[:, 4], d[:, 6]
        step = np.stack([hxy * gy - hyy * gx, hxy * gx - hxx * gy],
                        axis=-1) / det[:, None]
        eta = np.linalg.norm(step, axis=-1)
        # ||H|| = max|eig H|, so beta = 1/min|eig H| = ||H|| / |det H|
        top = np.abs(hxx + hyy) / 2 + np.hypot((hxx - hyy) / 2, hxy)
        h = 1.01 * lip * eta * top / np.abs(det)
        t = 2.0 * eta / (1.0 + np.sqrt(np.maximum(1.0 - 2.0 * h, 0.0)))
        psi = np.abs(d[:, 0])
        sure = (h <= 0.5) & (psi - t * (np.hypot(gx, gy) + top * t
                                        + 0.5 * lip * t * t) > floor)
        dropped[moved[sure]] = True
        resid[moved[sure]] = psi[sure]
        moved, step, eta = moved[~sure], step[~sure], eta[~sure]
        x[moved] = wrap_point(x[moved] + step)
        active = moved[eta >= 1e-13]
        phases, rows = (lambda p: point_phases(spec, p)), x[active]
    done = np.flatnonzero(~dropped)
    d = _block_sums(spec, lambda p: point_phases(spec, p), x[done],
                    weights[:, :3])
    resid[done] = np.maximum(np.abs(d[:, 0]),
                             np.linalg.norm(d[:, 1:], axis=-1))
    return x, resid, dropped


def _block_sums(spec, phases, rows, weights) -> np.ndarray:
    """mode_sum(phases(rows), weights), a phase_blocks block at a time."""
    out = np.empty((len(rows), weights.shape[1]))
    for part in phase_blocks(len(rows), spec):
        out[part] = mode_sum(phases(rows[part]), weights)
    return out


def _dilate(mask: np.ndarray) -> np.ndarray:
    """OR of a node mask over the 4x4 nodes (i-1..i+2, j-1..j+2) of cell
    (i, j): the corners of its 3x3 cell neighbourhood, periodically."""
    for axis in (0, 1):
        mask = mask | np.roll(mask, 1, axis) | np.roll(mask, -1, axis) \
            | np.roll(mask, -2, axis)
    return mask


def _start_cells(gate: np.ndarray, grads) -> np.ndarray:
    """Cells (i, j), row-major, where gate holds and each of the two grids
    in grads (read one at a time) takes both signs on the nodes _dilate
    gathers: a > 0 and a < 0 bit per grid in one code, dilated once."""
    signs = np.zeros(gate.shape, dtype=np.uint8)
    for grad in grads:
        signs <<= 2
        signs |= (grad > 0.0).view(np.uint8)
        signs |= (grad < 0.0).view(np.uint8) << np.uint8(1)
        del grad
    flat = np.flatnonzero(gate & (_dilate(signs) == 15))
    return np.stack(np.divmod(flat, gate.shape[1]), axis=-1)


def find_singular_points(spec: EigenfunctionSpec, N: int) -> list[SingularPoint]:
    """Common zeros of psi and grad psi by batched Newton on grad psi.

    A cell is a candidate when psi changes sign on its corners and both
    d_x psi and d_y psi change sign on the nodes of its 3x3 cell
    neighbourhood: a singular point is a crossing of the two gradient
    component zero sets, wherever it sits in the cell (_start_cells).
    Newton runs from the candidate cell centers in lockstep, and drops each
    start a Kantorovich certificate proves cannot reach a zero of psi
    (_newton_singular); a result is accepted when max(|psi|, |grad psi|)
    < 1e-8 (RESIDUAL_TOL), however Newton stopped, and points within h of
    an earlier kept one are merged (_merge_close).
    Points are returned in row-major order of their nearest grid node, an
    integer key that ulp-level moves of a point cannot flip (its float
    coordinates can: points on one grid line tie up to rounding), each
    with its vanishing order.
    """
    _check_grid(spec, N, "singular-point search")
    h = 1.0 / N
    # spectrum.evaluate_gradient_grid's columns, one grid at a time
    cols = (1j * TWO_PI) * spec.k * (spec.a - 1j * spec.b)[:, None]
    cells = _start_cells(_crossing(_cell_patterns(_signed_grid(spec, N))),
                         (_grid_sum(spec, N, cols[:, d, None])[..., 0]
                          for d in range(2)))
    x, resid, dropped = _newton_singular(spec, cells, N)
    hit = resid < RESIDUAL_TOL
    n_hit, n_drop = int(np.count_nonzero(hit)), int(np.count_nonzero(dropped))
    logger.info("singular search from %d cells: %d reached a singular point, "
                "%d dropped by the Kantorovich certificate, %d ended above "
                "RESIDUAL_TOL", len(cells), n_hit, n_drop,
                len(cells) - n_hit - n_drop)
    x, resid = x[hit], resid[hit]
    keep = _merge_close(x, h)
    x, resid = x[keep], resid[keep]
    node = np.round(x * N).astype(np.int64) % N
    return [
        SingularPoint(location=x[i], vanishing_order=vanishing_order(spec, x[i]),
                      residual=float(resid[i]))
        for i in np.lexsort((node[:, 1], node[:, 0]))
    ]


def _merge_close(x: np.ndarray, h: float) -> np.ndarray:
    """Keep mask of the points x in [0, 1)^2: over the pairs (a, b), a < b,
    within min-image distance h, in sorted order, b is dropped when a is
    still kept."""
    keep = np.ones(len(x), dtype=bool)
    a, b = pairs_within(x, x, h)
    for i, j in sorted(zip(a[a < b].tolist(), b[a < b].tolist())):
        if keep[i]:
            keep[j] = False
    return keep


def count_singular_in_balls(points: list[SingularPoint], r: float, lam: float,
                            centers) -> list[int]:
    """Per-center sum of (order - 1) over singular points within
    min-image distance sqrt(r) lambda^(-1/4), ball boundary included
    (geometry.pairs_within)."""
    if r < lam ** -0.5:
        raise ScaleRangeError(
            f"need r >= lambda^(-1/2) = {lam ** -0.5:.3g}, got {r}"
        )
    radius = math.sqrt(r) * lam ** -0.25
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if not points:
        return [0] * len(centers)
    weights = np.array([p.vanishing_order - 1 for p in points])
    center, point = pairs_within(wrap_point([p.location for p in points]),
                                 wrap_point(centers), radius)
    return np.bincount(center, weights[point],
                       len(centers)).astype(int).tolist()
