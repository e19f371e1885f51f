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
(i + 1/2)/(N 2^L) on each axis, and its children are 2i and 2i + 1. A scan
starts at the coarsest level whose spacing meets the domain's bound (h0, at
most half the band width and at most the outer radius); the torus domain
starts at level 0. Each ball takes the cells of its window, the box of
cells around its center that meet the domain, by unwrapped indices; a
cell's phases come from its index reduced mod N 2^L. So a cell's value and
bound are a function of (spec, objective, level, index) alone, and an
objective that depends on the offset from the ball's center (LiftedSquared)
applies that factor per ball.

One scan serves a batch of B balls that share a domain. When the balls'
windows together hold more cells than the torus level, that level is
evaluated once over the whole torus and each ball reads its window from the
table; otherwise each ball's own cells are evaluated. Both routes give the
same bits. The descent runs the (ball, cell) pairs of a group of balls in
lockstep: every pair belongs to one ball, each ball keeps its own
incumbent, prune threshold and node count (NODE_BUDGET, counted on its own
cells however they were evaluated), and each level is evaluated in one pass
over the group's pairs. Balls enter a group until its windows' children
(2^n per window cell) reach spectrum.PHASE_BLOCK cells (a ball too large
for a group is a group of its own), and every level's phases, the torus
table's too, are built in chunks of at most PHASE_BLOCK cells x modes,
which bounds the memory a level takes. A ball's value does not depend on
the balls that share its batch, to the last bit: every step is elementwise
or reduces within one row (spectrum.mode_sum, point_phases).

Every objective is f = alpha |grad psi|^2 + beta psi^2 (SpectralObjective)
or psi^2 times the harmonic lift's t-factor (LiftedSquared, balls at t = 0:
the cube index does not depend on a ball's t-offset). A cell's psi, grad
psi and Hessian of psi come from one mode sum (spectrum.mode_sum). A level's
phases are products of per-axis tables built once per level
(spectrum.axis_phases, lattice_phases), so one product evaluates a chunk of
the level.
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


class RadialDomain:
    """Offsets d with lo <= |d| <= hi (ball when lo == 0, annulus otherwise)."""

    def __init__(self, lo: float, hi: float):
        if not 0.0 <= lo < hi:
            raise ScaleRangeError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __str__(self):
        if self.lo == 0.0:
            return f"ball of radius {self.hi:g}"
        return f"annulus of radii [{self.lo:g}, {self.hi:g}]"

    def contains(self, norms: np.ndarray) -> np.ndarray:
        eps = 1e-14
        return (norms >= self.lo - eps) & (norms <= self.hi + eps)

    def band_mask(self, norms: np.ndarray, rho: float) -> np.ndarray:
        return (norms >= self.lo - rho) & (norms <= self.hi + rho)

    def project(self, d: np.ndarray) -> np.ndarray:
        """Radial projection of a batch of offsets (P, n) into the band; an
        offset at the origin goes to lo along the first axis."""
        r = np.sqrt(np.einsum("pa,pa->p", d, d))
        scale = np.minimum(np.maximum(r, self.lo), self.hi)
        out = d * (scale / np.maximum(r, 1e-300))[:, None]
        if self.lo > 0.0:
            out[r == 0.0, 0] = self.lo
        return out

    def max_spacing(self, h0: float) -> float:
        """Largest first-level spacing: h0, at most half the band width and
        at most the outer radius."""
        return min(h0, max((self.hi - self.lo) / 2.0, 1e-8), self.hi)

    def window(self, centers: np.ndarray, count: int):
        """(first cells (B, n), cells per axis) of each center's box on the
        lattice of count cells per axis: it holds every cell that meets the
        ball of radius hi."""
        lows = np.floor((centers - self.hi) * count).astype(np.int64) - 1
        return lows, math.ceil(2.0 * self.hi * count) + 3


class TorusDomain:
    """All offsets; used for full-torus suprema."""

    def __str__(self):
        return "the torus"

    def contains(self, norms):
        return np.ones_like(norms, dtype=bool)

    def band_mask(self, norms, rho):
        return np.ones_like(norms, dtype=bool)

    def project(self, d):
        return d

    def max_spacing(self, h0: float) -> float:
        return h0

    def window(self, centers: np.ndarray, count: int):
        return np.zeros(centers.shape, dtype=np.int64), count


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

    def ball_bounds(self, vals, ubs, norms, rho):
        """cell_bounds of cells whose centers lie at distances norms from
        their balls' centers; f does not depend on them."""
        return vals, ubs


class LiftedSquared(SpectralObjective):
    """sup of H^2 = psi(x)^2 exp(2 t sqrt(lambda)) over (n+1)-balls B_s
    centered at t = 0, one per x-center.

    Moving the ball to t = tau multiplies the sup by exp(2 tau sqrt(lambda)),
    so the log ratio of two concentric ball sups does not depend on tau. The
    t maximization is closed form (exp is increasing), reducing the ball to
    the n-dimensional objective psi(x0+d)^2 exp(2 sqrt(lambda) sqrt(s^2-|d|^2)).
    Cell bounds multiply the squared psi enclosure by the exact cell maximum
    of the monotone t-factor. Raises LiftOverflowError when the t-factor's
    exponent 2 s sqrt(lambda) exceeds EXP_GUARD, where the sup would overflow.
    """

    def __init__(self, spec, x_centers, s: float):
        super().__init__(spec, x_centers, 0.0, 1.0)
        self.s = float(s)
        self.sqrt_lam = math.sqrt(spec.lam)
        arg = 2.0 * self.sqrt_lam * self.s
        if arg > EXP_GUARD:
            raise LiftOverflowError(
                f"2 s sqrt(lambda) = {arg:.1f} exceeds {EXP_GUARD} at s = {s}"
            )

    def _t_factor(self, norms: np.ndarray) -> np.ndarray:
        g = np.sqrt(np.maximum(self.s**2 - norms**2, 0.0))
        return np.exp(2.0 * self.sqrt_lam * g)

    def values(self, offsets, balls):
        norms = np.linalg.norm(offsets, axis=-1)
        return super().values(offsets, balls) * self._t_factor(norms)

    def ball_bounds(self, vals, ubs, norms, rho):
        factor_max = self._t_factor(np.maximum(norms - rho, 0.0))
        return vals * self._t_factor(norms), ubs * factor_max


def pattern_search(objective, domain, balls, d0, step: float):
    """Projected compass search for a local max of each ball's objective
    from its start d0 (A, n), balls (A,) their ball ids.

    Each step probes all 2n axis directions at every running ball's step
    length in one objective.values call; a ball moves to its best probe that
    improves, or halves its step when none does, and stops below STEP_FLOOR.
    All balls stop once a ball has had MAX_POLISH_EVALS evaluations. Every
    ball starts at iteration 0 with the same step, so a ball's path does not
    depend on the balls beside it. Returns (offsets, values, evaluations)
    per ball, each value a pointwise evaluation at its offset.
    """
    d = np.array(d0, dtype=float)
    v = objective.values(d, balls)
    used = np.ones(len(d), dtype=int)
    dim = d.shape[1]
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    # running balls: their positions in d, offsets, values and steps, and
    # the flat index of each one's first probe
    run = np.arange(len(d) if step > STEP_FLOOR else 0)
    rd, rv, rs = d[run], v[run], np.full(len(run), float(step))
    probe_balls = np.repeat(balls[run], 2 * dim)
    base = 2 * dim * np.arange(len(run))
    evals = 1
    while len(run) and evals < MAX_POLISH_EVALS:
        cand = domain.project(
            (rd[:, None, :] + rs[:, None, None] * dirs).reshape(-1, dim))
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

    The first level is the coarsest of the lattice whose spacing meets
    domain.max_spacing(objective.h0). The branch-and-bound finds each ball's
    best cell center; one pattern_search over all balls then polishes them
    from there. It starts at twice the first level's cell radius: from a
    cell next to a maximum on the domain's boundary, a shorter step crawls
    along the boundary until MAX_POLISH_EVALS stops it.
    Raises BudgetError when tol is NaN, infinite or below the certification
    floor, or, naming the ball, when one ball's evaluations pass NODE_BUDGET.
    """
    if not TOL_FLOOR <= tol < math.inf:
        raise BudgetError(
            f"tolerance {tol} outside [{TOL_FLOOR}, inf), the certified range"
        )
    dim = objective.dim
    count = _first_count(objective, domain)
    rho = math.sqrt(dim) / (2.0 * count)
    lows, size = domain.window(objective.centers, count)
    balls = np.arange(len(objective.centers))
    table = None
    if len(balls) * size**dim > count**dim:
        table = _torus_level(objective, count, rho)
    best = np.full(len(balls), -math.inf)
    best_off = np.full((len(balls), dim), np.nan)
    nodes = np.zeros(len(balls), dtype=np.int64)
    # a group's windows, split into their 2^n children each, hold at most
    # spectrum.PHASE_BLOCK cells (a ball too large is a group of its own)
    per = max(1, spectrum.PHASE_BLOCK // (size**dim << dim))
    for lo in range(0, len(balls), per):
        group = slice(lo, lo + per)
        _lockstep(objective, domain, tol, balls[group], lows[group], size,
                  count, rho, table, best, best_off, nodes)
    offset, value, used = pattern_search(
        objective, domain, balls, best_off, 2.0 * rho)
    nodes += used
    _check_budget(objective, domain, tol, nodes)
    return ScanResult(value=value, offset=offset, nodes=int(nodes.sum()))


def _first_count(objective, domain) -> int:
    """Cells per axis of a scan's first level: N = ceil(1/h0), doubled until
    the spacing meets the domain's bound."""
    count = math.ceil(1.0 / objective.h0)
    need = math.ceil(1.0 / domain.max_spacing(objective.h0))
    while count < need:
        count *= 2
    return count


def _ball_name(objective, domain, b: int) -> str:
    center = ", ".join(f"{c:g}" for c in objective.centers[b])
    return f"{domain} at center ({center})"


def _check_budget(objective, domain, tol, nodes):
    over = np.flatnonzero(nodes > NODE_BUDGET)
    if len(over):
        raise BudgetError(
            f"scan of the {_ball_name(objective, domain, over[0])} "
            f"exceeded node budget {NODE_BUDGET} (tol={tol})"
        )


def _level_bounds(objective, coords, count, inv, rho):
    """objective.cell_bounds of the cells of index coords[a][inv[p, a]] on
    the lattice of count cells per axis, in chunks of at most
    spectrum.PHASE_BLOCK cells x modes, from per-axis tables of the indices
    reduced mod count, built once per level."""
    spec = objective.spec
    tables = [axis_phases(spec, (np.mod(c, count) + 0.5) / count, a)
              for a, c in enumerate(coords)]
    vals, ubs = np.empty(len(inv)), np.empty(len(inv))
    for part in phase_blocks(len(inv), spec):
        vals[part], ubs[part] = objective.cell_bounds(
            lattice_phases(tables, inv[part]), rho)
    return vals, ubs


def _torus_level(objective, count, rho):
    """objective.cell_bounds of every cell of the torus level of count cells
    per axis, in row-major order of the cell indices."""
    return _level_bounds(objective, [np.arange(count)] * objective.dim, count,
                         index_box(count, objective.dim), rho)


def _lockstep(objective, domain, tol, balls, lows, size, count, rho,
              table, best, best_off, nodes):
    """Branch-and-bound of the given balls in lockstep from their windows
    (first cells lows, size cells per axis) on the first level of count
    cells per axis, reading that level from table, the torus level's
    cell_bounds in row-major order, when there is one. Updates the balls'
    entries of best, best_off (each ball's best cell center inside the
    domain) and nodes (arrays over all balls) in place."""
    dim = objective.dim
    # cell p has the unwrapped lattice index coords[a][inv[p, a]] on axis a
    # and belongs to ball owner[a][inv[p, a]] on every axis: each axis keeps
    # its indices per ball, and cells stay sorted by ball
    coords = [(lows[:, a, None] + np.arange(size)).ravel()
              for a in range(dim)]
    owner = [np.repeat(balls, size)] * dim
    inv = np.tile(index_box(size, dim), (len(balls), 1))
    inv += np.repeat(size * np.arange(len(balls)), size**dim)[:, None]
    bits = index_box(2, dim)

    while True:
        # per-axis offsets of the index rows from their balls' centers
        xs = [(coords[a] + 0.5) / count - objective.centers[owner[a], a]
              for a in range(dim)]
        norms = np.zeros(len(inv))
        for a in range(dim):
            norms += (xs[a] * xs[a])[inv[:, a]]
        norms = np.sqrt(norms)
        band = domain.band_mask(norms, rho)
        inv, norms = inv[band], norms[band]
        del band  # phase chunks set the peak: hold no more through them
        if len(inv) == 0:
            break
        ball = owner[0][inv[:, 0]]
        counts = np.bincount(ball, minlength=len(nodes))
        nodes += counts
        _check_budget(objective, domain, tol, nodes)
        if table is None:
            vals, ubs = _level_bounds(objective, coords, count, inv, rho)
        else:
            flat = np.mod(coords[0], count)[inv[:, 0]]
            for a in range(1, dim):
                flat = flat * count + np.mod(coords[a], count)[inv[:, a]]
            vals, ubs = table[0][flat], table[1][flat]
            table = None  # the torus table holds the first level only
        vals, ubs = objective.ball_bounds(vals, ubs, norms, rho)
        # each present ball's first best cell inside the domain, from its
        # segment of the cells (sorted by ball)
        present = np.flatnonzero(counts)
        heads = np.cumsum(counts[present]) - counts[present]
        inner = np.where(domain.contains(norms), vals, -math.inf)
        top = np.full(len(nodes), -math.inf)
        top[present] = np.maximum.reduceat(inner, heads)
        hits = np.flatnonzero(inner == top[ball])
        first = hits[np.searchsorted(ball[hits], present)]
        gain = first[top[present] > best[present]]
        best[ball[gain]] = vals[gain]
        best_off[ball[gain]] = np.stack([xs[a][inv[gain, a]]
                                         for a in range(dim)], axis=-1)
        threshold = np.where(best > 0, best * (1.0 + tol), best)
        inv = inv[ubs > threshold[ball]]
        # the next level's phase chunks set the peak: free this level's
        del vals, ubs, ball, norms, counts, present, heads, inner, top, \
            hits, first, gain, threshold
        # children 2i + {0, 1} per axis, indices kept to the used ones
        for a in range(dim):
            used = np.zeros(len(coords[a]), dtype=bool)
            used[inv[:, a]] = True
            coords[a] = (2 * coords[a][used][:, None] + (0, 1)).ravel()
            owner[a] = np.repeat(owner[a][used], 2)
            inv[:, a] = 2 * (np.cumsum(used) - 1)[inv[:, a]]
        inv = (inv[:, None, :] + bits[None, :, :]).reshape(-1, dim)
        count *= 2
        rho *= 0.5
    lost = balls[np.isnan(best_off[balls, 0])]
    if len(lost):
        raise BudgetError(
            f"scan of the {_ball_name(objective, domain, lost[0])} found no "
            "admissible sample points"
        )
