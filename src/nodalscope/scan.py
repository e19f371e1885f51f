"""Certified maximization of field quantities over balls, annuli, and the torus.

The engine is a branch-and-bound over offset cells. Every cell carries an
upper bound of the objective over the cell, built by squaring first-order
Taylor enclosures of psi and grad psi on the ball of radius rho around the
cell center,

    |psi| <= |psi(center)| + |grad psi(center)| rho + (1/2) D2 rho^2,
    |grad psi| <= |grad psi(center)| + ||H psi(center)|| rho + (1/2) D3 rho^2,

with D_j = ||c||_1 (2 pi sqrt(m))^j, which bounds the j-th derivative tensor
of psi mode by mode. Cells that cannot beat the incumbent by more than the
relative tolerance are pruned, survivors are subdivided, and the incumbent
is polished by projected pattern search. The returned value is a pointwise
evaluation at the returned offset, a lower bound of the true supremum within
the requested relative tolerance.

Cells are integer lattice indices: the child of cell i on each axis is 2i or
2i + 1 at half the spacing, and cell i sits at offset (i + 1/2) spacing - hi
(ball or annulus of outer radius hi) or (i + 1/2) spacing (torus). Every
objective is f = alpha |grad psi|^2 + beta psi^2 (SpectralObjective) or psi^2
times the harmonic lift's t-factor (LiftedSquared, balls at t = 0: the cube
index does not depend on a ball's t-offset). psi, grad psi and, when
alpha != 0, the Hessian of psi come from one mode sum (spectrum.mode_sum) with
the query center's phase folded into its weights. A level's phases are
products of per-axis tables over the level's distinct coordinates
(spectrum.lattice_phases), so one GEMM evaluates the whole level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetError
from .spectrum import (
    EigenfunctionSpec,
    lattice_phases,
    mode_sum,
    mode_weights,
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


@dataclass
class ScanResult:
    value: float        # certified lower bound, within rel. tol of the sup
    offset: np.ndarray  # offset (from the query center) achieving value
    nodes: int          # total objective evaluations


class RadialDomain:
    """Offsets d with lo <= |d| <= hi (ball when lo == 0, annulus otherwise)."""

    def __init__(self, lo: float, hi: float):
        if not 0.0 <= lo < hi:
            raise ValueError(f"invalid radial band [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

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
    """f = alpha |grad psi|^2 + beta psi^2 at center + offset.

    psi, grad psi and, when alpha != 0, the Hessian H of psi come from one
    mode sum whose weights carry the center's phase. A cell's bound is
    beta U_psi^2 + alpha U_grad^2, U_psi and U_grad the Taylor enclosures of
    |psi| and |grad psi| on the cell's ball (module docstring); d2 and d3 are
    their remainder constants D2 = lambda A1 and D3 = lambda^(3/2) A1,
    A1 = sum_l |c_l| the coefficient l1 norm. h0 is the first lattice
    spacing.
    """

    def __init__(self, spec: EigenfunctionSpec, center, alpha: float,
                 beta: float):
        self.spec = spec
        self.center = np.asarray(center, dtype=float)
        self.dim = spec.model.dim
        self.alpha = alpha
        self.beta = beta
        self.weights = mode_weights(spec, 2 if alpha else 1, self.center)
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

    def values(self, offsets: np.ndarray) -> np.ndarray:
        """Pointwise f at a batch of offsets (P, n)."""
        return self._value(mode_sum(point_phases(self.spec, offsets),
                                    self.weights))

    def cell_bounds(self, phases: np.ndarray, offsets: np.ndarray,
                    rho: float):
        """f at the cell centers and its upper bound over each cell."""
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
    """sup of H^2 = psi(x)^2 exp(2 t sqrt(lambda)) over an (n+1)-ball B_s
    centered at t = 0.

    Moving the ball to t = tau multiplies the sup by exp(2 tau sqrt(lambda)),
    so the log ratio of two concentric ball sups does not depend on tau. The
    t maximization is closed form (exp is increasing), reducing the ball to
    the n-dimensional objective psi(x0+d)^2 exp(2 sqrt(lambda) sqrt(s^2-|d|^2)).
    Cell bounds multiply the squared psi enclosure by the exact cell maximum
    of the monotone t-factor.
    """

    def __init__(self, spec, x_center, s: float):
        super().__init__(spec, x_center, 0.0, 1.0)
        self.s = float(s)
        self.sqrt_lam = math.sqrt(spec.lam)

    def _t_factor(self, norms: np.ndarray) -> np.ndarray:
        g = np.sqrt(np.maximum(self.s**2 - norms**2, 0.0))
        return np.exp(2.0 * self.sqrt_lam * g)

    def values(self, offsets: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(offsets, axis=-1)
        return super().values(offsets) * self._t_factor(norms)

    def cell_bounds(self, phases, offsets, rho):
        psi_sq, psi_ub = super().cell_bounds(phases, offsets, rho)
        norms = np.linalg.norm(offsets, axis=-1)
        factor_max = self._t_factor(np.maximum(norms - rho, 0.0))
        return psi_sq * self._t_factor(norms), psi_ub * factor_max


def pattern_search(objective, domain, d0, step: float):
    """Projected compass search for a local max of the objective from d0.

    Each step probes all 2n axis directions at the current step length in
    one objective.values call and moves to the best probe that improves,
    or halves the step when none does; it stops below STEP_FLOOR or after
    MAX_POLISH_EVALS evaluations. Returns (offset, value, evaluations), value a
    pointwise evaluation at offset.
    """
    d = np.array(d0, dtype=float)
    v = float(objective.values(d[None, :])[0])
    evals = 1
    dim = d.shape[0]
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    while step > STEP_FLOOR and evals < MAX_POLISH_EVALS:
        cand = domain.project(d + step * dirs)
        cv = objective.values(cand)
        evals += len(cand)
        best = cv.argmax()
        if cv[best] > v:
            d, v = cand[best], float(cv[best])
        else:
            step *= 0.5
    return d, v, evals


def certified_max(objective, domain, tol: float) -> ScanResult:
    """Max of the objective over the domain, within relative tolerance tol.

    The first level has spacing about objective.h0. Raises BudgetError when
    tol is below the certification floor or NODE_BUDGET evaluations pass
    before the bound gap closes.
    """
    if tol < TOL_FLOOR:
        raise BudgetError(
            f"tolerance {tol} below certification floor {TOL_FLOOR}"
        )
    dim = objective.center.shape[0]
    count, spacing, origin = domain.initial_lattice(objective.h0)
    rho = spacing * math.sqrt(dim) / 2.0
    # cell p has lattice index coords[a][inv[p, a]] on axis a
    coords = [np.arange(count)] * dim
    inv = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    inv = inv.reshape(-1, dim)
    bits = np.array(list(product((0, 1), repeat=dim)))

    best_val = -math.inf
    best_off = None
    nodes = 0
    while True:
        xs = [(c + 0.5) * spacing + origin for c in coords]
        offsets = np.stack([xs[a][inv[:, a]] for a in range(dim)], axis=-1)
        norms = np.sqrt(np.einsum("pa,pa->p", offsets, offsets))
        band = domain.band_mask(norms, rho)
        inv, offsets, norms = inv[band], offsets[band], norms[band]
        if len(inv) == 0:
            if best_off is None:
                raise BudgetError("scan found no admissible sample points")
            return ScanResult(value=best_val, offset=best_off, nodes=nodes)
        nodes += len(inv)
        if nodes > NODE_BUDGET:
            raise BudgetError(
                f"scan exceeded node budget {NODE_BUDGET} (tol={tol})"
            )
        vals, ubs = objective.cell_bounds(
            lattice_phases(objective.spec, xs, inv), offsets, rho
        )
        inside = domain.contains(norms)
        if np.any(inside):
            idx = int(np.argmax(np.where(inside, vals, -math.inf)))
            if vals[idx] > best_val:
                d, v, used = pattern_search(objective, domain, offsets[idx],
                                            2.0 * rho)
                nodes += used
                if v > best_val:
                    best_val, best_off = v, d
        threshold = best_val * (1.0 + tol) if best_val > 0 else best_val
        inv = inv[ubs > threshold]
        # children 2i + {0, 1} per axis, tables kept to the used coordinates
        for a in range(dim):
            used = np.zeros(len(coords[a]), dtype=bool)
            used[inv[:, a]] = True
            coords[a] = (2 * coords[a][used][:, None] + (0, 1)).ravel()
            inv[:, a] = 2 * (np.cumsum(used) - 1)[inv[:, a]]
        inv = (inv[:, None, :] + bits[None, :, :]).reshape(-1, dim)
        spacing *= 0.5
        rho *= 0.5
