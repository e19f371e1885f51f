"""Certified maximization of field quantities over balls, annuli, and the torus.

The engine is a branch-and-bound over offset cells. Every cell carries an
upper bound of the objective over the cell, built by squaring first-order
Taylor enclosures of psi and grad psi on the ball of radius rho around the
cell center,

    |psi| <= |psi(center)| + |grad psi(center)| rho + (1/2) D2 rho^2,
    |grad psi| <= |grad psi(center)| + ||H psi(center)|| rho + (1/2) D3 rho^2,

with D_j = ||c||_1 (2 pi sqrt(m))^j, which bounds the j-th derivative tensor
of psi mode by mode. Each ball keeps its best cell-center value inside the
domain; cells whose bound cannot beat it by more than the relative
tolerance are pruned, and survivors are subdivided. A cell-center value is
a point value, no larger than the sup, so the pruning stays certified.
Once every ball's gap has closed, one projected pattern search polishes
every ball's best cell. The returned value is a pointwise evaluation at the
returned offset, a lower bound of the true supremum within the requested
relative tolerance.

One scan serves a batch of B balls that share a domain (the same offsets
around B centers) in lockstep: every cell belongs to one ball, each ball
keeps its own incumbent, prune threshold and node count, and each level is
evaluated in one pass over all balls' cells. A ball's value does not depend
on the balls that share its batch, to the last bit: every step is
elementwise or reduces within one row (spectrum.mode_sum, point_phases).
Balls enter a lockstep group until its first level's cells times the
spec's modes reach spectrum.PHASE_BLOCK, and every level's phases are built
in chunks of at most that many cells x modes, which bounds the memory a
level takes (a ball too large for a group is a group of its own).

Cells are integer lattice indices: the child of cell i on each axis is 2i or
2i + 1 at half the spacing, and cell i sits at offset (i + 1/2) spacing - hi
(ball or annulus of outer radius hi) or (i + 1/2) spacing (torus). Axis-0
indices are kept per ball, so that cell p belongs to the ball that owns its
axis-0 index. Every objective is f = alpha |grad psi|^2 + beta psi^2
(SpectralObjective) or psi^2 times the harmonic lift's t-factor
(LiftedSquared, balls at t = 0: the cube index does not depend on a ball's
t-offset). psi, grad psi and, when alpha != 0, the Hessian of psi come from
one mode sum (spectrum.mode_sum). A level's phases are products of per-axis
tables built once per level (spectrum.axis_phases, lattice_phases), each
ball's center phase folded into its rows of the axis-0 table, so one
product evaluates a chunk of the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetError, LiftOverflowError
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
            raise ValueError(f"invalid radial band [{lo}, {hi}]")
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

    def initial_lattice(self, h0: float) -> tuple[int, float, float]:
        """(cells per axis, spacing, origin) of the first level; the spacing
        is at most half the band width and at most the outer radius."""
        h0 = min(h0, max((self.hi - self.lo) / 2.0, 1e-8), self.hi)
        count = max(2, int(math.ceil(2.0 * self.hi / h0)))
        return count, 2.0 * self.hi / count, -self.hi


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

    def initial_lattice(self, h0: float) -> tuple[int, float, float]:
        count = max(2, int(math.ceil(1.0 / h0)))
        return count, 1.0 / count, 0.0


class SpectralObjective:
    """f = alpha |grad psi|^2 + beta psi^2 at center_b + offset, for each of
    the centers (B, n) (a single center (n,) is a batch of one).

    psi, grad psi and, when alpha != 0, the Hessian H of psi come from one
    mode sum over the phases exp(2 pi i k . x) of the points; on the scan's
    lattice these are the offsets' phases times shifts[b], the phases of the
    ball's center x_b. A cell's bound is
    beta U_psi^2 + alpha U_grad^2, U_psi and U_grad the Taylor enclosures of
    |psi| and |grad psi| on the cell's ball (module docstring); d2 and d3 are
    their remainder constants D2 = lambda A1 and D3 = lambda^(3/2) A1,
    A1 = sum_l |c_l| the coefficient l1 norm. h0 is the first lattice
    spacing.
    """

    def __init__(self, spec: EigenfunctionSpec, centers, alpha: float,
                 beta: float):
        self.spec = spec
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.dim = spec.model.dim
        self.alpha = alpha
        self.beta = beta
        self.weights = mode_weights(spec, 2 if alpha else 1)
        self.shifts = point_phases(spec, self.centers)
        growth = 2.0 * math.pi * math.sqrt(spec.m)
        self.d2 = spec.coeff_l1() * growth**2
        self.d3 = spec.coeff_l1() * growth**3
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
            self.weights))

    def cell_bounds(self, phases: np.ndarray, offsets: np.ndarray,
                    rho: float):
        """f at the cell centers and its upper bound over each cell, from
        the cells' phases relative to the origin (shifts included)."""
        parts = mode_sum(phases, self.weights)
        g = parts[:, 1:self.dim + 1]
        slope = np.sqrt(np.einsum("pa,pa->p", g, g))
        u_psi = np.abs(parts[:, 0]) + slope * rho + 0.5 * self.d2 * rho * rho
        ub = self.beta * u_psi * u_psi
        if self.alpha:
            hess = parts[:, self.dim + 1:]
            u_grad = (slope + np.sqrt(np.einsum("pa,pa->p", hess, hess)) * rho
                      + 0.5 * self.d3 * rho * rho)
            ub += self.alpha * u_grad * u_grad
        return self._value(parts), ub


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

    def cell_bounds(self, phases, offsets, rho):
        psi_sq, psi_ub = super().cell_bounds(phases, offsets, rho)
        norms = np.linalg.norm(offsets, axis=-1)
        factor_max = self._t_factor(np.maximum(norms - rho, 0.0))
        return psi_sq * self._t_factor(norms), psi_ub * factor_max


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

    The first level has spacing about objective.h0. The branch-and-bound
    finds each ball's best cell center; one pattern_search over all balls
    then polishes them from there. It starts at twice the first level's cell
    radius: from a cell next to a maximum on the domain's boundary, a
    shorter step crawls along the boundary until MAX_POLISH_EVALS stops it.
    Raises BudgetError when tol is below the certification floor, or,
    naming the ball, when one ball's evaluations pass NODE_BUDGET.
    """
    if tol < TOL_FLOOR:
        raise BudgetError(
            f"tolerance {tol} below certification floor {TOL_FLOOR}"
        )
    count, spacing, _ = domain.initial_lattice(objective.h0)
    balls = np.arange(len(objective.centers))
    best = np.full(len(balls), -math.inf)
    best_off = np.full((len(balls), objective.dim), np.nan)
    nodes = np.zeros(len(balls), dtype=np.int64)
    for group in phase_blocks(len(balls), objective.spec,
                              count**objective.dim):
        _lockstep(objective, domain, tol, balls[group], best, best_off, nodes)
    offset, value, used = pattern_search(
        objective, domain, balls, best_off,
        spacing * math.sqrt(objective.dim))
    nodes += used
    _check_budget(objective, domain, tol, nodes)
    return ScanResult(value=value, offset=offset, nodes=int(nodes.sum()))


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


def _level_bounds(objective, xs, inv, owner, offsets, rho):
    """objective.cell_bounds of a level's cells, in chunks of at most
    spectrum.PHASE_BLOCK cells x modes, from per-axis tables built once per
    level (each ball's center phase folded into its axis-0 rows)."""
    spec = objective.spec
    tables = [axis_phases(spec, x, a) for a, x in enumerate(xs)]
    tables[0] *= objective.shifts[owner]
    vals, ubs = np.empty(len(inv)), np.empty(len(inv))
    for part in phase_blocks(len(inv), spec):
        vals[part], ubs[part] = objective.cell_bounds(
            lattice_phases(tables, inv[part]), offsets[part], rho)
    return vals, ubs


def _lockstep(objective, domain, tol, balls, best, best_off, nodes):
    """Branch-and-bound of the given balls in lockstep, updating their
    entries of best, best_off (each ball's best cell center inside the
    domain) and nodes (arrays over all balls) in place."""
    dim = objective.dim
    count, spacing, origin = domain.initial_lattice(objective.h0)
    rho = spacing * math.sqrt(dim) / 2.0
    # cell p has lattice index coords[a][inv[p, a]] on axis a and belongs
    # to ball owner[inv[p, 0]]; cells stay sorted by ball
    axis = np.arange(count)
    coords = [np.tile(axis, len(balls))] + [axis] * (dim - 1)
    owner = np.repeat(balls, count)
    cells = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    inv = np.tile(cells.reshape(-1, dim), (len(balls), 1))
    inv[:, 0] += np.repeat(count * np.arange(len(balls)), count**dim)
    bits = np.array(list(product((0, 1), repeat=dim)))

    while True:
        xs = [(c + 0.5) * spacing + origin for c in coords]
        offsets = np.stack([xs[a][inv[:, a]] for a in range(dim)], axis=-1)
        norms = np.sqrt(np.einsum("pa,pa->p", offsets, offsets))
        band = domain.band_mask(norms, rho)
        inv, offsets, norms = inv[band], offsets[band], norms[band]
        del band  # phase chunks set the peak: hold no more through them
        if len(inv) == 0:
            break
        nodes += np.bincount(owner[inv[:, 0]], minlength=len(nodes))
        _check_budget(objective, domain, tol, nodes)
        vals, ubs = _level_bounds(objective, xs, inv, owner, offsets, rho)
        ball = owner[inv[:, 0]]
        # each ball's first best cell inside the domain: segment k of the
        # cells (sorted by ball) is the k-th ball present
        starts = np.r_[True, ball[1:] != ball[:-1]]
        seg = np.cumsum(starts) - 1
        inner = np.where(domain.contains(norms), vals, -math.inf)
        top = np.maximum.reduceat(inner, np.flatnonzero(starts))
        hits = np.flatnonzero(inner == top[seg])
        first = hits[np.r_[True, seg[hits[1:]] != seg[hits[:-1]]]]
        gain = first[top > best[ball[first]]]
        best[ball[gain]], best_off[ball[gain]] = vals[gain], offsets[gain]
        threshold = np.where(best > 0, best * (1.0 + tol), best)
        inv = inv[ubs > threshold[ball]]
        # the next level's phase chunks set the peak: free this level's
        del vals, ubs, ball, starts, seg, inner, hits, first, gain, threshold
        # children 2i + {0, 1} per axis, tables kept to the used coordinates
        for a in range(dim):
            used = np.zeros(len(coords[a]), dtype=bool)
            used[inv[:, a]] = True
            coords[a] = (2 * coords[a][used][:, None] + (0, 1)).ravel()
            if a == 0:
                owner = np.repeat(owner[used], 2)
            inv[:, a] = 2 * (np.cumsum(used) - 1)[inv[:, a]]
        inv = (inv[:, None, :] + bits[None, :, :]).reshape(-1, dim)
        spacing *= 0.5
        rho *= 0.5
    lost = balls[np.isnan(best_off[balls, 0])]
    if len(lost):
        raise BudgetError(
            f"scan of the {_ball_name(objective, domain, lost[0])} found no "
            "admissible sample points"
        )
