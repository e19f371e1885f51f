"""Ball measurements of eigenfunctions: sup |psi|^2, L^2 mass, and the
auxiliary density q = |grad psi|^2 + (lambda/2)|psi|^2.

Two mass routes are provided. MassEvaluator writes a ball mass as a
quadratic form in the spec's own modes, whose entries are closed-form ball
integrals (Bessel transforms) of the pairwise mode sums and differences; it
is exact to rounding and is the path certificates use. On T^2 those entries
need the Bessel function J1, which _bessel_j1 takes to rounding from the
midpoint rule on its periodic integral, 2 floor(0.275 z) + 30 nodes for
arguments up to z (truncation error below 2^-53 by Kapteyn's inequality),
so certificates need no scipy. l2_on_ball is midpoint
quadrature over grid cells (interior cells full, boundary cells weighted by a
4^n-subsample partial-volume fraction), kept as the independent cross-check
of the closed forms. Sup queries go through the certified branch-and-bound
scan. Lifted sups are taken over balls centered at t = 0: a ball's t-offset
scales both sups of a doubling pair by the same factor, so the harmonic
lift's cube index does not depend on it.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectrum
from .errors import BudgetError
from .geometry import ball_volume, embedded_radius, index_box, wrap_point
from .scan import (
    LiftedSquared,
    RadialDomain,
    SpectralObjective,
    TorusDomain,
    certified_max,
)
from .spectrum import EigenfunctionSpec, evaluate, phase_blocks, point_phases

__all__ = [
    "sup_on_ball",
    "sup_on_annulus",
    "l2_on_ball",
    "MassEvaluator",
    "q_on_ball",
    "sup_global",
    "gradient_sup_global",
    "lifted_sup_on_ball",
]

DEFAULT_TOL = 1e-3        # sup tolerance of single measurements
ENSEMBLE_SUP_TOL = 1e-2   # sup tolerance of ensemble and lifted scans
MAX_QUAD_POINTS = 40_000_000


def _sups(result, center):
    """The scan's sups: a float for one center (n,), else an array (B,)."""
    return float(result.value[0]) if np.ndim(center) == 1 else result.value


def _ball(s, center) -> RadialDomain:
    """The closed ball of radius s, or of each of the radii s, one per
    center of centers (B, n), as a scan domain; only 0 < s <= 1/2 embeds
    in the unit torus."""
    if np.ndim(s) and np.shape(s) != (len(np.atleast_2d(center)),):
        raise ValueError(f"{np.size(s)} radii for "
                         f"{len(np.atleast_2d(center))} centers")
    return RadialDomain(0.0, embedded_radius(s))


def _sup(spec: EigenfunctionSpec, center, domain, tol: float,
         alpha: float = 0.0, beta: float = 1.0):
    """Certified sup of alpha |grad psi|^2 + beta psi^2 over center + domain,
    for one center (n,) or, in one lockstep scan, for each of centers
    (B, n)."""
    obj = SpectralObjective(spec, wrap_point(center), alpha, beta)
    return _sups(certified_max(obj, domain, tol), center)


def sup_on_ball(spec: EigenfunctionSpec, center, s,
                tol: float = DEFAULT_TOL):
    """sup of |psi|^2 over the closed ball B_s(center), within rel. error tol.

    center (n,) gives a float; centers (B, n) give the B sups as an array,
    each equal bit for bit to its own single-center call. With centers, s is
    one radius or one per center (B,); one lockstep scan serves them all.
    """
    return _sup(spec, center, _ball(s, center), tol)


def sup_on_annulus(spec: EigenfunctionSpec, center, lo: float, hi: float,
                   tol: float = DEFAULT_TOL) -> float:
    """sup of |psi|^2 over the closed annulus lo <= d(y, center) <= hi.
    Raises EmbeddedBallError unless 0 < hi <= 1/2 and ScaleRangeError
    unless 0 <= lo < hi."""
    return _sup(spec, center, RadialDomain(lo, embedded_radius(hi)), tol)


def q_on_ball(spec: EigenfunctionSpec, center, s,
              tol: float = DEFAULT_TOL):
    """sup of q = |grad psi|^2 + (lambda/2)|psi|^2 over the closed ball;
    one center or a batch, as sup_on_ball."""
    return _sup(spec, center, _ball(s, center), tol, 1.0, 0.5 * spec.lam)


def sup_global(spec: EigenfunctionSpec) -> float:
    """sup of |psi|^2 over the whole torus, within DEFAULT_TOL."""
    return _sup(spec, np.zeros(spec.model.dim), TorusDomain(), DEFAULT_TOL)


def gradient_sup_global(spec: EigenfunctionSpec) -> float:
    """sup of |grad psi|^2 over the whole torus, within DEFAULT_TOL."""
    return _sup(spec, np.zeros(spec.model.dim), TorusDomain(), DEFAULT_TOL,
                1.0, 0.0)


def lifted_sup_on_ball(spec: EigenfunctionSpec, x_center, s,
                       tol: float = DEFAULT_TOL):
    """sup of H^2 = psi^2 exp(2 t sqrt(lambda)) over the (n+1)-ball B_s
    centered at (x_center, 0); the cube index does not depend on t-offsets.
    One x-center or a batch, with one s or one per x-center, as
    sup_on_ball. Raises EmbeddedBallError unless every 0 < s <= 1/2, and
    LiftOverflowError when 2 s sqrt(lambda) exceeds scan.EXP_GUARD."""
    domain = _ball(s, x_center)
    obj = LiftedSquared(spec, wrap_point(x_center), s)
    return _sups(certified_max(obj, domain, tol), x_center)


# ---------------------------------------------------------------------------
# L^2 mass on balls


def _quad_spacing(spec_or_const, r: float, tol: float) -> float:
    """Grid spacing for the midpoint + partial-volume quadrature.

    Error model (documented): boundary partial-volume bias O(h^2 * curvature
    * perimeter * G) plus midpoint-vs-cell error in the boundary ring
    O(perimeter * h^2 * |grad f|); interior midpoint error cancels on the
    torus once 1/h exceeds the mode Nyquist rate.
    """
    if spec_or_const is None:
        G, root_m = 1.0, 0.0
    else:
        G = spec_or_const.coeff_l1() ** 2
        root_m = math.sqrt(spec_or_const.m)
    C = math.pi / 8.0 + 10.0 * math.pi**2 * r * root_m
    target = 0.3 * tol * math.pi * r * r
    h = math.sqrt(target / (G * C))
    if root_m > 0:
        h = min(h, 1.0 / (4.0 * root_m + 2.0))
    return min(h, r / 4.0)


def _ball_quadrature(f, center, r: float, h: float, dim: int) -> float:
    """Midpoint rule with 4^n-subsampled partial-volume boundary fractions."""
    count = int(math.ceil(2.0 * r / h))
    h = 2.0 * r / count
    if count**dim > MAX_QUAD_POINTS:
        raise BudgetError(
            f"ball quadrature needs {count**dim} points (> {MAX_QUAD_POINTS})"
        )
    axis = (np.arange(count) + 0.5) * h - r
    offsets = axis[index_box(count, dim)]
    dist = np.linalg.norm(offsets, axis=-1)
    half_diag = 0.5 * h * math.sqrt(dim)
    inner = dist <= r - half_diag
    boundary = (~inner) & (dist <= r + half_diag)
    total = 0.0
    if np.any(inner):
        total += float(np.sum(f(center + offsets[inner]))) * h**dim
    if np.any(boundary):
        boff = offsets[boundary]
        sub = (np.arange(4) + 0.5) * (h / 4.0) - h / 2.0
        soff = sub[index_box(4, dim)]  # (4^n, dim)
        pts = boff[:, None, :] + soff[None, :, :]
        margins = r - np.linalg.norm(pts, axis=-1)
        frac = np.clip(0.5 + margins / (h / 4.0), 0.0, 1.0)
        weights = frac.mean(axis=1)
        vals = np.asarray(f(center + boff))
        total += float(np.sum(vals * weights)) * h**dim
    return total


def l2_on_ball(spec: EigenfunctionSpec | None, center, r: float,
               tol: float = DEFAULT_TOL, field=None) -> float:
    """Integral of |psi|^2 over B_r(center) by midpoint quadrature.

    `field` overrides the integrand with an arbitrary vectorized function
    (test hook, e.g. the constant unit field); otherwise the spec's |psi|^2
    is integrated. Result clipped to [0, 1 + tol] for spec fields.
    """
    embedded_radius(r)
    center = wrap_point(center)
    if field is None:
        if spec is None:
            raise ValueError("need a spec or an explicit field")

        def field(points):
            return np.atleast_1d(evaluate(spec, points)) ** 2

        dim = spec.model.dim
    else:
        dim = len(center)
    h = _quad_spacing(spec, r, tol)
    mass = _ball_quadrature(field, center, r, h, dim)
    if spec is not None:
        mass = min(max(mass, 0.0), 1.0 + tol)
    return mass


def _j1_nodes(z_max: float) -> int:
    """Midpoint nodes on [0, pi] that take _bessel_j1 to rounding for
    0 <= z <= z_max: n = 2 floor(0.275 z_max) + 30, even and at least
    0.55 z_max + 28 (the bound is stated in _bessel_j1)."""
    return 2 * (int(0.275 * z_max) + 15)


def _bessel_j1(z: np.ndarray) -> np.ndarray:
    """Bessel J1 at each z >= 0 of an array, to rounding, in numpy alone.

    J1(z) = (1/pi) int_0^pi sin t sin(z sin t) dt, and the integrand has
    period pi and only even frequencies, so the n-point midpoint rule
    (1/n) sum_j sin t_j sin(z sin t_j), t_j = pi (j + 1/2)/n, errs by
    sum_{q>=1} (-1)^q (J_{2qn+1}(z) - J_{2qn-1}(z)) (Trefethen-Weideman
    2014): about |J_{2n-1}(z)|. Kapteyn's inequality
    |J_nu(nu sech a)| <= exp(-nu (a - tanh a)) bounds that sum below 2^-53
    for every z <= z_max once n = _j1_nodes(z_max). For z_max >= 1300,
    nu = 2n - 1 >= 1.1 z_max + 55 gives a - tanh a >= 0.027 and an exponent
    past 40; below 1300 the bound is evaluated (tests/test_fields.py).
    What remains is the rounding of z sin t_j, about 1e-16 sqrt(z). The
    integrand is symmetric about pi/2 and n is even, so the rule is the
    mean over its first n/2 nodes.

    Each distinct z is evaluated once, with n from the largest, in blocks
    of at most spectrum.PHASE_BLOCK z's x nodes/2; each z's nodes are
    summed on their own, so its value depends on z and that n alone, not on
    the blocks.
    """
    values, inverse = np.unique(z, return_inverse=True)
    n = _j1_nodes(values[-1])
    sin_t = np.sin((np.arange(n // 2) + 0.5) * (math.pi / n))
    out = np.empty_like(values)
    rows = max(1, spectrum.PHASE_BLOCK // len(sin_t))
    for lo in range(0, len(values), rows):
        part = slice(lo, lo + rows)
        out[part] = (np.sin(values[part, None] * sin_t) * sin_t).sum(axis=1)
    return (out / len(sin_t))[inverse].reshape(z.shape)


class MassEvaluator:
    """Closed-form ball masses of |psi|^2 as a quadratic form in the modes.

    With c = a - ib and v_l = c_l exp(2 pi i k_l . x), psi = Re sum_l of
    exp(2 pi i k_l . (y - x)) v_l, so the mass of B_r(x) is
    (1/2) Re[v^T S v + v^H D v], where S and D hold the exact ball integral
    W(|q|) of exp(2 pi i q . y) at q = k_l + k_l' and q = k_l - k_l':
    n=2: r J1(2 pi |q| r)/|q|; n=3: (sin z - z cos z)/(2 pi^2 |q|^3),
    z = 2 pi |q| r. Exact for embedded balls (r <= 1/2). J1 is
    _bessel_j1: the midpoint rule on J1's periodic integral with
    2 floor(0.275 z) + 30 nodes, z = 2 pi r max|q|, whose truncation error
    Kapteyn's inequality keeps below 2^-53; it agrees with scipy's j1 to
    about 2e-14 for z up to 7000.
    """

    def __init__(self, spec: EigenfunctionSpec):
        self.spec = spec
        k, k_t = spec.k[:, None, :], spec.k[None, :, :]
        # |k_l + k_l'| and |k_l - k_l'|, (2, M, M)
        self.norms = np.linalg.norm(np.stack((k + k_t, k - k_t)), axis=-1)

    def _ball_transform(self, q: np.ndarray, r: float) -> np.ndarray:
        out = np.empty_like(q)
        zero = q < 1e-12
        out[zero] = ball_volume(r, self.spec.model)
        qs = q[~zero]
        if self.spec.model.dim == 2:
            out[~zero] = r * _bessel_j1(2.0 * math.pi * qs * r) / qs
        else:
            z = 2.0 * math.pi * qs * r
            out[~zero] = (np.sin(z) - z * np.cos(z)) / (
                2.0 * math.pi**2 * qs**3
            )
        return out

    def mass(self, center, r: float) -> float:
        return float(self.mass_many(np.atleast_2d(center), r)[0])

    def mass_many(self, centers: np.ndarray, r: float) -> np.ndarray:
        embedded_radius(r)
        # with v = X + iY: Re[v^T S v + v^H D v] = X(S + D)X^T + Y(D - S)Y^T
        s, d = self._ball_transform(self.norms, r)
        form_re, form_im = 0.5 * (d + s), 0.5 * (d - s)
        c = self.spec.a - 1j * self.spec.b
        out = np.empty(len(centers))
        for part in phase_blocks(len(centers), self.spec):
            v = point_phases(self.spec, centers[part])
            v *= c
            x, y = v.real, v.imag
            out[part] = (np.einsum("pl,pl->p", x @ form_re, x)
                         + np.einsum("pl,pl->p", y @ form_im, y))
        return out
