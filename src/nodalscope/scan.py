"""Certified maximization of field quantities over balls, annuli, and the torus.

The engine is a branch-and-bound over the cells of one nested lattice on the
torus. Every cell carries an upper bound of the objective over the cell,
built by squaring Taylor enclosures of psi and grad psi on the ball of
radius rho around the cell center x,

    |psi| <= |psi(x)| + |grad psi(x)| rho + (1/2) ||H psi(x)||_F rho^2
             + (1/6) D3 rho^3,
    |grad psi| <= |grad psi(x)| + ||H psi(x)||_F rho + (1/2) D3 rho^2,

with D_j = ||c||_1 (2 pi sqrt(m))^j, which bounds the j-th derivative tensor
of psi mode by mode: psi to order 2 with its Lagrange remainder
(|d^T H d| <= ||H||_F |d|^2), grad psi to order 1. Each ball keeps its best
cell-center value inside the domain; cells whose bound cannot beat it by
more than the relative tolerance are pruned, and survivors are subdivided.
A cell-center value is a point value, no larger than the sup, so the
pruning stays certified. Once every ball's gap has closed, one projected
pattern search polishes every ball's best cell. The returned value is a
pointwise evaluation at the returned offset, a lower bound of the true
supremum within the requested relative tolerance.

The lattice is absolute. With N = ceil(1/h0), cell i of level L sits at
(i + 1/2)/(N 2^L) on each axis, and its children are 2i and 2i + 1. A ball
starts at the coarsest level whose spacing meets its domain's bound (h0, at
most half the band width and at most the outer radius); the torus domain
starts at level 0. Each ball takes the cells of its window, the box of
cells around its center that meet the domain, by unwrapped indices; a
cell's phases come from its index reduced mod N 2^L. So a cell's value and
bound are a function of (spec, objective, level, index) alone, and an
objective that depends on the offset from the ball's center (LiftedSquared)
applies that factor per ball.

One scan serves a batch of B balls that share a domain shape. A radius (the
domain's outer radius, the lifted ball's s) is one value or one per ball,
and each ball's first level follows its own radius: the balls that share a
first level run together. The descent runs the (ball, cell) pairs of many
balls in lockstep: every pair belongs to one ball, each ball keeps its own
incumbent, prune threshold and node count (NODE_BUDGET, counted on its own
cells however they were evaluated), and each level is evaluated in one pass
over the pairs. A level's pairs are in ball order, and a first level's are
in window row-major order within each ball.

A level evaluates each of its distinct cells once, whatever the number of
pairs that hold it: overlapping windows and neighbouring balls share their
cells, and every pair reads its cell's value and bound. When the windows of
the balls that share a first level together hold more cells than the torus
level, that level is evaluated once over the whole torus, and each ball
reads its window from the table as a box, with wrapped index ranges: its
norms, band, node count, best cell (the first in window row-major order)
and prune are computed on the box, and only the surviving cells become
pairs. Balls of one window size are read together, in ball order. Both
routes give a ball the same bits and the same node count.

First levels are evaluated in groups: balls enter a group until its
windows' children (2^n per window cell) reach spectrum.PHASE_BLOCK cells (a
ball too large for a group is a group of its own). The cells that survive
the first level are pooled across groups under the same bound, rows times
2^n at most PHASE_BLOCK (a group whose own survivors reach it descends
alone), and each pool descends in one lockstep. A level whose children
would pass PHASE_BLOCK is split at ball boundaries and its parts descend
depth-first. Every level's phases, the torus table's too, are built in
chunks of at most PHASE_BLOCK cells x modes; together these bound the
memory a scan takes. A ball's value does not depend on the balls that share
its batch, to the last bit: every step is elementwise or reduces within one
row (spectrum.mode_sum, point_phases) or within one ball's cells, which
stay together in their order.

Every objective is f = alpha |grad psi|^2 + beta psi^2 (SpectralObjective)
or psi^2 times the harmonic lift's t-factor (LiftedSquared, balls at t = 0:
the cube index does not depend on a ball's t-offset). A cell's psi, grad
psi and Hessian of psi come from one mode sum (spectrum.mode_sum). A level's
phases are products of per-axis tables built once per level over its
distinct reduced indices (spectrum.axis_phases, lattice_phases), so balls
that share lattice rows share their exps and one product evaluates a chunk
of the level's distinct cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import BudgetError, LiftOverflowError, ScaleRangeError
from .geometry import index_box
from .spectrum import (
    EigenfunctionSpec,
    axis_phases,
    lattice_phases,
    mode_sum,
    mode_weights,
    phase_blocks,
    point_phases,
)

__all__ = [
    "ScanResult",
    "RadialDomain",
    "TorusDomain",
    "SpectralObjective",
    "LiftedSquared",
    "certified_max",
    "pattern_search",
]

TOL_FLOOR = 1e-9
NODE_BUDGET = 4_000_000
STEP_FLOOR = 1e-9
MAX_POLISH_EVALS = 600
EXP_GUARD = 700.0  # largest exponent of the harmonic lift's t-factor


@dataclass
class ScanResult:
    value: np.ndarray   # (B,) certified lower bounds, within rel. tol
    offset: np.ndarray  # (B, n) offsets from each center achieving value
    nodes: int          # objective evaluations, summed over the batch


def _per_ball(value, balls):
    """A radius that is one value, or the entries of the given balls when it
    holds one value per ball."""
    return value if np.ndim(value) == 0 else value[balls]


class RadialDomain:
    """Offsets d with lo <= |d| <= hi (ball when lo == 0, annulus otherwise).

    hi is one radius or one per ball (B,); the methods then take the ball
    ids of their rows, which a single radius does not need."""

    def __init__(self, lo: float, hi):
        hi = np.asarray(hi, dtype=float) if np.ndim(hi) else float(hi)
        bad = np.flatnonzero(~((0.0 <= lo) & (lo < np.ravel(hi))))
        if len(bad):
            raise ScaleRangeError(
                f"need 0 <= lo < hi, got [{lo}, {np.ravel(hi)[bad[0]]}]")
        self.lo = lo
        self.hi = hi

    def name(self, ball=None) -> str:
        hi = _per_ball(self.hi, ball)
        if self.lo == 0.0:
            return f"ball of radius {hi:g}"
        return f"annulus of radii [{self.lo:g}, {hi:g}]"

    def contains(self, norms: np.ndarray, balls=None) -> np.ndarray:
        eps = 1e-14
        return ((norms >= self.lo - eps)
                & (norms <= _per_ball(self.hi, balls) + eps))

    def band_mask(self, norms: np.ndarray, rho: float,
                  balls=None) -> np.ndarray:
        return ((norms >= self.lo - rho)
                & (norms <= _per_ball(self.hi, balls) + rho))

    def project(self, d: np.ndarray, balls=None) -> np.ndarray:
        """Radial projection of a batch of offsets (P, n) into the band; an
        offset at the origin goes to lo along the first axis."""
        r = np.sqrt(np.einsum("pa,pa->p", d, d))
        scale = np.minimum(np.maximum(r, self.lo), _per_ball(self.hi, balls))
        out = d * (scale / np.maximum(r, 1e-300))[:, None]
        if self.lo > 0.0:
            out[r == 0.0, 0] = self.lo
        return out

    def max_spacing(self, h0: float):
        """Largest first-level spacing, per radius: h0, at most half the
        band width and at most the outer radius."""
        return np.minimum(
            np.minimum(h0, np.maximum((self.hi - self.lo) / 2.0, 1e-8)),
            self.hi)

    def window(self, centers: np.ndarray, count: int, balls=None):
        """(first cells (B, n), cells per axis (B,)) of the box of each of
        the centers of balls on the lattice of count cells per axis: it
        holds every cell that meets the ball of radius hi."""
        hi = _per_ball(self.hi, balls)
        lows = np.floor((centers - np.expand_dims(hi, -1)) * count)
        sizes = np.ceil(2.0 * hi * count).astype(np.int64) + 3
        return (lows.astype(np.int64) - 1,
                np.broadcast_to(sizes, len(centers)))


class TorusDomain:
    """All offsets; used for full-torus suprema."""

    def name(self, ball=None):
        return "the torus"

    def contains(self, norms, balls=None):
        return np.ones_like(norms, dtype=bool)

    def band_mask(self, norms, rho, balls=None):
        return np.ones_like(norms, dtype=bool)

    def project(self, d, balls=None):
        return d

    def max_spacing(self, h0: float) -> float:
        return h0

    def window(self, centers: np.ndarray, count: int, balls=None):
        return (np.zeros(centers.shape, dtype=np.int64),
                np.full(len(centers), count))


class SpectralObjective:
    """f = alpha |grad psi|^2 + beta psi^2 at center_b + offset, for each of
    the centers (B, n) (a single center (n,) is a batch of one).

    Cell bounds take psi, grad psi and the Hessian H of psi from one mode
    sum over the phases exp(2 pi i k . x) of the cell centers; pointwise
    values take psi and, when alpha != 0, grad psi. A cell's bound is
    beta U_psi^2 + alpha U_grad^2, U_psi the order-2 and U_grad the order-1
    Taylor enclosure of |psi| and |grad psi| on the cell's ball (module
    docstring); d3 is their remainder constant D3 = lambda^(3/2) ||c||_1
    (spec.derivative_bound(3)). The first lattice has
    N = ceil(1/h0) cells per axis.
    """

    def __init__(self, spec: EigenfunctionSpec, centers, alpha: float,
                 beta: float):
        self.spec = spec
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.dim = spec.model.dim
        self.alpha = alpha
        self.beta = beta
        self.weights = mode_weights(spec, 2)
        self.point_weights = mode_weights(spec, 1 if alpha else 0)
        self.d3 = spec.derivative_bound(3)
        self.h0 = 1.0 / ((8.0 if alpha else 6.0) * math.sqrt(spec.m))

    def _value(self, parts: np.ndarray) -> np.ndarray:
        psi = parts[:, 0]
        f = self.beta * psi * psi
        if self.alpha:
            g = parts[:, 1:self.dim + 1]
            f += self.alpha * np.einsum("pa,pa->p", g, g)
        return f

    def values(self, offsets: np.ndarray, balls) -> np.ndarray:
        """Pointwise f at offsets (P, n) from the centers of balls (P,)."""
        return self._value(mode_sum(
            point_phases(self.spec, self.centers[balls] + offsets),
            self.point_weights))

    def cell_bounds(self, phases: np.ndarray, rho: float):
        """f at the cell centers and its upper bound over each cell of
        circumradius rho, from the phases of the cell centers."""
        parts = mode_sum(phases, self.weights)
        g = parts[:, 1:self.dim + 1]
        hess = parts[:, self.dim + 1:]
        slope = np.sqrt(np.einsum("pa,pa->p", g, g))
        curv = np.sqrt(np.einsum("pa,pa->p", hess, hess))
        u_psi = (np.abs(parts[:, 0]) + slope * rho + 0.5 * curv * rho * rho
                 + self.d3 * rho**3 / 6.0)
        ub = self.beta * u_psi * u_psi
        if self.alpha:
            u_grad = slope + curv * rho + 0.5 * self.d3 * rho * rho
            ub += self.alpha * u_grad * u_grad
        return self._value(parts), ub

    def ball_bounds(self, vals, ubs, norms, rho, balls=None):
        """cell_bounds of cells whose centers lie at distances norms from
        the centers of their balls; f does not depend on them."""
        return vals, ubs


class LiftedSquared(SpectralObjective):
    """sup of H^2 = psi(x)^2 exp(2 t sqrt(lambda)) over (n+1)-balls B_s
    centered at t = 0, one per x-center; s is one radius or one per
    x-center.

    Moving the ball to t = tau multiplies the sup by exp(2 tau sqrt(lambda)),
    so the log ratio of two concentric ball sups does not depend on tau. The
    t maximization is closed form (exp is increasing), reducing the ball to
    the n-dimensional objective psi(x0+d)^2 exp(2 sqrt(lambda) sqrt(s^2-|d|^2)).
    Cell bounds multiply the squared psi enclosure by the exact cell maximum
    of the monotone t-factor. Raises LiftOverflowError, naming the first
    such s, when the t-factor's exponent 2 s sqrt(lambda) exceeds EXP_GUARD,
    where the sup would overflow.
    """

    def __init__(self, spec, x_centers, s):
        super().__init__(spec, x_centers, 0.0, 1.0)
        self.s = np.asarray(s, dtype=float) if np.ndim(s) else float(s)
        self.sqrt_lam = math.sqrt(spec.lam)
        args = 2.0 * self.sqrt_lam * np.ravel(self.s)
        over = np.flatnonzero(args > EXP_GUARD)
        if len(over):
            raise LiftOverflowError(
                f"2 s sqrt(lambda) = {args[over[0]]:.1f} exceeds {EXP_GUARD} "
                f"at s = {float(np.ravel(self.s)[over[0]])}"
            )

    def _t_factor(self, norms: np.ndarray, balls=None) -> np.ndarray:
        s = _per_ball(self.s, balls)
        g = np.sqrt(np.maximum(s**2 - norms**2, 0.0))
        return np.exp(2.0 * self.sqrt_lam * g)

    def values(self, offsets, balls):
        norms = np.linalg.norm(offsets, axis=-1)
        return super().values(offsets, balls) * self._t_factor(norms, balls)

    def ball_bounds(self, vals, ubs, norms, rho, balls=None):
        factor_max = self._t_factor(np.maximum(norms - rho, 0.0), balls)
        return vals * self._t_factor(norms, balls), ubs * factor_max


def pattern_search(objective, domain, balls, d0, step):
    """Projected compass search for a local max of each ball's objective
    from its start d0 (A, n), balls (A,) their ball ids, with initial step
    lengths step (one, or one per ball).

    Each step probes all 2n axis directions at every running ball's step
    length in one objective.values call; a ball moves to its best probe that
    improves, or halves its step when none does, and stops below STEP_FLOOR.
    All balls stop once a ball has had MAX_POLISH_EVALS evaluations. Every
    ball starts at iteration 0 with its own step, so a ball's path does not
    depend on the balls beside it. Returns (offsets, values, evaluations)
    per ball, each value a pointwise evaluation at its offset.
    """
    d = np.array(d0, dtype=float)
    v = objective.values(d, balls)
    used = np.ones(len(d), dtype=int)
    dim = d.shape[1]
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    steps = np.broadcast_to(np.asarray(step, dtype=float), len(d))
    # running balls: their positions in d, offsets, values and steps, and
    # the flat index of each one's first probe
    run = np.flatnonzero(steps > STEP_FLOOR)
    rd, rv, rs = d[run], v[run], steps[run]
    probe_balls = np.repeat(balls[run], 2 * dim)
    base = 2 * dim * np.arange(len(run))
    evals = 1
    while len(run) and evals < MAX_POLISH_EVALS:
        cand = domain.project(
            (rd[:, None, :] + rs[:, None, None] * dirs).reshape(-1, dim),
            probe_balls)
        cv = objective.values(cand, probe_balls).reshape(len(run), 2 * dim)
        evals += 2 * dim
        top = np.maximum.reduce(cv, axis=1)
        up = top > rv
        rd = np.where(up[:, None], cand[base + cv.argmax(axis=1)], rd)
        rv = np.maximum(top, rv)
        rs = np.where(up, rs, 0.5 * rs)
        done = rs <= STEP_FLOOR
        if done.any():
            stop = run[done]
            d[stop], v[stop], used[stop] = rd[done], rv[done], evals
            run, rd, rv, rs = run[~done], rd[~done], rv[~done], rs[~done]
            probe_balls = np.repeat(balls[run], 2 * dim)
            base = base[:len(run)]
    d[run], v[run], used[run] = rd, rv, evals
    return d, v, used


def certified_max(objective, domain, tol: float) -> ScanResult:
    """Max of the objective over the domain around each of its centers,
    within relative tolerance tol.

    A ball's first level is the coarsest of the lattice whose spacing meets
    domain.max_spacing(objective.h0) at its radius. The branch-and-bound
    finds each ball's best cell center; one pattern_search over all balls
    then polishes them from there. A ball's search starts at twice its
    first level's cell radius: from a cell next to a maximum on the
    domain's boundary, a shorter step crawls along the boundary until
    MAX_POLISH_EVALS stops it.
    Raises BudgetError when tol is NaN, infinite or below the certification
    floor, or, naming the ball, when one ball's evaluations pass NODE_BUDGET.
    """
    if not TOL_FLOOR <= tol < math.inf:
        raise BudgetError(
            f"tolerance {tol} outside [{TOL_FLOOR}, inf), the certified range"
        )
    dim = objective.dim
    balls = np.arange(len(objective.centers))
    counts = _first_counts(objective, domain)
    search = _Search(objective, domain, tol)
    step = np.empty(len(balls))
    for count in np.unique(counts).tolist():
        level = balls[counts == count]
        rho = math.sqrt(dim) / (2.0 * count)
        step[level] = 2.0 * rho
        search.run(level, count, rho)
    lost = np.flatnonzero(np.isnan(search.best_off[:, 0]))
    if len(lost):
        raise BudgetError(
            f"scan of the {_ball_name(objective, domain, lost[0])} found no "
            "admissible sample points"
        )
    offset, value, used = pattern_search(
        objective, domain, balls, search.best_off, step)
    search.nodes += used
    _check_budget(objective, domain, tol, search.nodes)
    return ScanResult(value=value, offset=offset,
                      nodes=int(search.nodes.sum()))


def _first_counts(objective, domain) -> np.ndarray:
    """Cells per axis of each ball's first level: N = ceil(1/h0), doubled
    until the spacing meets the domain's bound at the ball's radius."""
    need = np.ceil(1.0 / np.broadcast_to(domain.max_spacing(objective.h0),
                                         len(objective.centers)))
    count = np.full(len(need), math.ceil(1.0 / objective.h0))
    while np.any(count < need):
        count = np.where(count < need, 2 * count, count)
    return count


def _runs(weights: np.ndarray) -> list[slice]:
    """Consecutive runs of weights, each summing to at most
    spectrum.PHASE_BLOCK or holding a single weight above it."""
    out, lo, total = [], 0, 0
    for i, w in enumerate(weights.tolist()):
        if total + w > spectrum.PHASE_BLOCK and i > lo:
            out.append(slice(lo, i))
            lo, total = i, 0
        total += w
    out.append(slice(lo, len(weights)))
    return out


def _ball_name(objective, domain, b: int) -> str:
    center = ", ".join(f"{c:g}" for c in objective.centers[b])
    return f"{domain.name(b)} at center ({center})"


def _check_budget(objective, domain, tol, nodes):
    over = np.flatnonzero(nodes > NODE_BUDGET)
    if len(over):
        raise BudgetError(
            f"scan of the {_ball_name(objective, domain, over[0])} "
            f"exceeded node budget {NODE_BUDGET} (tol={tol})"
        )


def _level_bounds(objective, coords, count, inv, rho):
    """objective.cell_bounds of the cells of index coords[a][inv[p, a]] on
    the lattice of count cells per axis, from per-axis tables over the
    distinct indices reduced mod count, built once per level. Each distinct
    cell is evaluated once; every row then reads its cell's results."""
    tables, rows = [], []
    for a, c in enumerate(coords):
        reduced, row = np.unique(np.mod(c, count), return_inverse=True)
        tables.append(axis_phases(objective.spec, (reduced + 0.5) / count, a))
        rows.append(row.ravel())
    # a row's cell is one key over its tables' rows, int32 when they fit
    space = math.prod(len(t) for t in tables)
    dtype = np.int32 if space <= np.iinfo(np.int32).max else np.int64
    key = np.take(rows[0].astype(dtype), inv[:, 0])
    for a in range(1, len(rows)):
        key *= len(tables[a])
        key += np.take(rows[a].astype(dtype), inv[:, a])
    del rows
    cells, back = np.unique(key, return_inverse=True)
    del key
    vals, ubs = _key_bounds(objective, tables, cells, rho)
    del tables, cells
    return vals[back], ubs[back]


def _key_bounds(objective, tables, keys, rho):
    """objective.cell_bounds of the cells keys, each the row-major index of
    its rows in the per-axis tables, in chunks of at most
    spectrum.PHASE_BLOCK cells x modes."""
    vals, ubs = np.empty(len(keys)), np.empty(len(keys))
    for part in phase_blocks(len(keys), objective.spec):
        rest = keys[part]
        idx = np.empty((len(rest), len(tables)), dtype=keys.dtype)
        for a in range(len(tables) - 1, 0, -1):
            rest, idx[:, a] = np.divmod(rest, len(tables[a]))
        idx[:, 0] = rest
        vals[part], ubs[part] = objective.cell_bounds(
            lattice_phases(tables, idx), rho)
    return vals, ubs


def _torus_level(objective, count, rho):
    """objective.cell_bounds of every cell of the torus level of count cells
    per axis, in row-major order of the cell indices."""
    tables = [axis_phases(objective.spec, (np.arange(count) + 0.5) / count, a)
              for a in range(objective.dim)]
    return _key_bounds(objective, tables, np.arange(count**objective.dim), rho)


@dataclass
class _Cells:
    """Cells of one lattice level of count cells per axis, of circumradius
    rho. Cell p has the unwrapped lattice index coords[a][inv[p, a]] on axis
    a and belongs to ball owner[a][inv[p, a]] on every axis: each axis keeps
    its indices per ball, and a ball's cells are consecutive rows. inv is
    int32, half the bytes of the rows that set a level's memory."""
    coords: list
    owner: list
    inv: np.ndarray
    count: int
    rho: float


def _window_cells(balls, lows, sizes, count, rho) -> _Cells:
    """The cells of the balls' windows (first cells lows (B, n), sizes (B,)
    cells per axis), each ball's box in row-major order."""
    dim = lows.shape[1]
    starts = np.cumsum(sizes) - sizes
    local = np.arange(starts[-1] + sizes[-1]) - np.repeat(starts, sizes)
    coords = [np.repeat(lows[:, a], sizes) + local for a in range(dim)]
    boxes = []
    for run in np.split(np.arange(len(sizes)),
                        np.flatnonzero(np.diff(sizes)) + 1):
        size = int(sizes[run[0]])
        boxes.append(np.tile(index_box(size, dim), (len(run), 1))
                     + np.repeat(starts[run], size**dim)[:, None])
    return _Cells(coords, [np.repeat(balls, sizes)] * dim,
                  np.concatenate(boxes).astype(np.int32), count, rho)


def _compact(cells: _Cells) -> _Cells:
    """cells with each axis's indices kept to the ones its rows use."""
    coords, owner, inv = list(cells.coords), list(cells.owner), cells.inv
    for a in range(inv.shape[1]):
        used = np.zeros(len(coords[a]), dtype=bool)
        used[inv[:, a]] = True
        coords[a], owner[a] = coords[a][used], owner[a][used]
        inv[:, a] = np.take(np.cumsum(used) - 1, inv[:, a])
    return _Cells(coords, owner, inv, cells.count, cells.rho)


def _children(cells: _Cells) -> _Cells:
    """The next level's cells: children 2i + {0, 1} per axis of each cell,
    2^n consecutive rows per parent row."""
    dim = cells.inv.shape[1]
    coords = [(2 * c[:, None] + (0, 1)).ravel() for c in cells.coords]
    owner = [np.repeat(o, 2) for o in cells.owner]
    inv = ((2 * cells.inv)[:, None, :]
           + index_box(2, dim).astype(np.int32)[None, :, :])
    return _Cells(coords, owner, inv.reshape(-1, dim), 2 * cells.count,
                  0.5 * cells.rho)


def _merge(parts: list[_Cells]) -> _Cells:
    """One set of the cells of parts, which share a level, in their order."""
    if len(parts) == 1:
        return parts[0]
    dim = parts[0].inv.shape[1]
    shift = np.cumsum([[0] * dim] + [[len(c) for c in p.coords]
                                      for p in parts[:-1]], axis=0,
                      dtype=np.int32)
    return _Cells(
        [np.concatenate([p.coords[a] for p in parts]) for a in range(dim)],
        [np.concatenate([p.owner[a] for p in parts]) for a in range(dim)],
        np.concatenate([p.inv + s for p, s in zip(parts, shift)]),
        parts[0].count, parts[0].rho)


def _split(cells: _Cells) -> list[_Cells]:
    """cells in parts at ball boundaries whose rows, split into their 2^n
    children, hold at most spectrum.PHASE_BLOCK cells (or hold one ball)."""
    dim = cells.inv.shape[1]
    ball = cells.owner[0][cells.inv[:, 0]]
    heads = np.flatnonzero(np.diff(ball)) + 1
    edges = np.concatenate([[0], heads, [len(ball)]])
    runs = _runs(np.diff(edges) << dim)
    if len(runs) == 1:
        return [cells]
    return [_compact(_Cells(cells.coords, cells.owner,
                            cells.inv[edges[run.start]:edges[run.stop]].copy(),
                            cells.count, cells.rho))
            for run in runs]


def _box_axis(x, a: int, dim: int) -> np.ndarray:
    """x (B, size), per-ball values along one axis, as a view that
    broadcasts along axis a of (B, size, ..., size) boxes of dimension
    dim."""
    return x.reshape(x.shape[:1] + (1,) * a + x.shape[1:]
                     + (1,) * (dim - 1 - a))


def _norms(xs, inv) -> np.ndarray:
    """Distances of the cells inv from their balls' centers, from the
    per-axis offsets xs of their indices."""
    norms = np.zeros(len(inv))
    for a in range(len(xs)):
        norms += np.take(xs[a] * xs[a], inv[:, a])
    return np.sqrt(norms)


class _Search:
    """The state of one certified_max call: each ball's best cell-center
    value inside the domain, its offset, and the ball's node count."""

    def __init__(self, objective, domain, tol):
        self.objective, self.domain, self.tol = objective, domain, tol
        balls = len(objective.centers)
        self.best = np.full(balls, -math.inf)
        self.best_off = np.full((balls, objective.dim), np.nan)
        self.nodes = np.zeros(balls, dtype=np.int64)

    def run(self, balls, count, rho):
        """Branch-and-bound of the given balls from their windows on the
        first level of count cells per axis (cell circumradius rho): the
        windows are evaluated in groups, and the survivors are pooled
        across groups and descend pool by pool. When the windows hold more
        cells than the level, it is evaluated once over the torus and each
        ball reads its window from that table as a box."""
        dim = self.objective.dim
        lows, sizes = self.domain.window(self.objective.centers[balls],
                                         count, balls)
        table = None
        if np.sum(sizes**dim) > count**dim:
            table = _torus_level(self.objective, count, rho)
        # a pool's rows, split into their 2^n children, hold at most
        # spectrum.PHASE_BLOCK cells
        pool, rows = [], 0
        for group in _runs(sizes**dim << dim):
            if table is None:
                cells = self.level(_window_cells(
                    balls[group], lows[group], sizes[group], count, rho))
            else:
                cells = self.boxes(table, balls[group], lows[group],
                                   sizes[group], count, rho)
            if cells is None:
                continue
            more = len(cells.inv) << dim
            if pool and rows + more > spectrum.PHASE_BLOCK:
                self.descend(pool)
                rows = 0
            pool.append(cells)
            rows += more
            del cells
            if rows >= spectrum.PHASE_BLOCK:  # one group's survivors
                self.descend(pool)
                rows = 0
        del table  # only first levels read it
        if pool:
            self.descend(pool)

    def descend(self, pool: list[_Cells]):
        """Branch-and-bound below the surviving cells of pool, which it
        empties, in one lockstep until every gap has closed; a level whose
        children would pass spectrum.PHASE_BLOCK cells is split at ball
        boundaries and its parts descend depth-first."""
        stack = [_merge(pool)]
        pool.clear()
        while stack:
            cells = stack.pop()
            if len(cells.inv) << cells.inv.shape[1] > spectrum.PHASE_BLOCK:
                parts = _split(cells)
                if len(parts) > 1:
                    stack.extend(reversed(parts))
                    del parts  # held, a part would outlive its descent
                    continue
            # the parent goes before the children's level is evaluated
            cells = _children(cells)
            cells = self.level(cells)
            if cells is not None:
                stack.append(cells)

    def threshold(self) -> np.ndarray:
        """Each ball's prune threshold: a cell survives when its bound
        passes its ball's best value times 1 + tol (the best itself when
        that is not positive)."""
        best = self.best
        return np.where(best > 0, best * (1.0 + self.tol), best)

    def level(self, cells: _Cells) -> _Cells | None:
        """Evaluates one level's cells and updates the balls' best,
        best_off and nodes. Returns the cells whose bound can still beat
        their ball's threshold, or None."""
        objective, domain = self.objective, self.domain
        dim = objective.dim
        coords, owner, inv = cells.coords, cells.owner, cells.inv
        count, rho = cells.count, cells.rho
        best, nodes = self.best, self.nodes
        # per-axis offsets of the index rows from their balls' centers
        xs = [(coords[a] + 0.5) / count - objective.centers[owner[a], a]
              for a in range(dim)]
        band = domain.band_mask(_norms(xs, inv), rho,
                                np.take(owner[0], inv[:, 0]))
        # the in-band rows replace the level's, which no caller reads again
        cells.inv = inv = np.compress(band, inv, axis=0)
        del band
        if len(inv) == 0:
            return None
        counts = np.bincount(np.take(owner[0], inv[:, 0]),
                             minlength=len(nodes))
        nodes += counts
        _check_budget(objective, domain, self.tol, nodes)
        # phase chunks set the peak: rows' balls and norms are made after
        vals, ubs = _level_bounds(objective, coords, count, inv, rho)
        ball, norms = np.take(owner[0], inv[:, 0]), _norms(xs, inv)
        vals, ubs = objective.ball_bounds(vals, ubs, norms, rho, ball)
        # each present ball's first best cell inside the domain, from its
        # segment of the cells (sorted by ball)
        present = np.flatnonzero(counts)
        heads = np.cumsum(counts[present]) - counts[present]
        inner = np.where(domain.contains(norms, ball), vals, -math.inf)
        top = np.full(len(nodes), -math.inf)
        top[present] = np.maximum.reduceat(inner, heads)
        hits = np.flatnonzero(inner == top[ball])
        first = hits[np.searchsorted(ball[hits], present)]
        gain = first[top[present] > best[present]]
        best[ball[gain]] = vals[gain]
        self.best_off[ball[gain]] = np.stack([xs[a][inv[gain, a]]
                                              for a in range(dim)], axis=-1)
        keep = ubs > self.threshold()[ball]
        if not keep.any():
            return None
        return _compact(_Cells(coords, owner, np.compress(keep, inv, axis=0),
                               count, rho))

    def boxes(self, table, balls, lows, sizes, count, rho) -> _Cells | None:
        """level() of the windows of balls (first cells lows (B, n), sizes
        (B,) cells per axis) on the torus level of count cells per axis,
        read as boxes from table, that level's cell_bounds in row-major
        order, with wrapped index ranges. A run of balls of one window size
        is one (balls, window row-major) array; only the cells that survive
        become rows, in ball order."""
        objective, domain = self.objective, self.domain
        dim = objective.dim
        parts = []
        for run in np.split(np.arange(len(balls)),
                            np.flatnonzero(np.diff(sizes)) + 1):
            bs, size = balls[run], int(sizes[run[0]])
            shape = (size,) * dim
            # unwrapped indices and offsets from the centers, (balls, size)
            # per axis; their sums over the box axes are (balls, size^n)
            idx = [lows[run, a, None] + np.arange(size) for a in range(dim)]
            xs = [(idx[a] + 0.5) / count - objective.centers[bs, a, None]
                  for a in range(dim)]
            sq = sum(_box_axis(x * x, a, dim) for a, x in enumerate(xs))
            norms = np.sqrt(sq).reshape(len(bs), -1)
            ball = bs[:, None]
            band = domain.band_mask(norms, rho, ball)
            self.nodes[bs] += np.count_nonzero(band, axis=1)
            _check_budget(objective, domain, self.tol, self.nodes)
            # each box cell's row in the table, row-major over the torus
            rows = 0
            for a, i in enumerate(idx):
                rows = rows * count + _box_axis(np.mod(i, count), a, dim)
            rows = rows.reshape(len(bs), -1)
            vals, ubs = objective.ball_bounds(
                np.take(table[0], rows), np.take(table[1], rows), norms, rho,
                ball)
            # each ball's first best cell inside the domain, row-major
            inner = np.where(band & domain.contains(norms, ball), vals,
                             -math.inf)
            first = inner.argmax(axis=1)
            top = inner[np.arange(len(bs)), first]
            gain = np.flatnonzero(top > self.best[bs])
            self.best[bs[gain]] = top[gain]
            at = np.unravel_index(first[gain], shape)
            self.best_off[bs[gain]] = np.stack(
                [xs[a][gain, at[a]] for a in range(dim)], axis=-1)
            keep = band & (ubs > self.threshold()[ball])
            row, flat = np.nonzero(keep)
            if len(row):
                at = np.unravel_index(flat, shape)
                inv = np.stack([row * size + at[a] for a in range(dim)],
                               axis=-1).astype(np.int32)
                parts.append(_compact(_Cells(
                    [i.ravel() for i in idx], [np.repeat(bs, size)] * dim,
                    inv, count, rho)))
        return _merge(parts) if parts else None
