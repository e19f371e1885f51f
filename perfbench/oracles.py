"""Checks of nodalscope outputs that do not use nodalscope.

Every function here works from raw spec data (modes k and coefficients a, b)
and its own trigonometric sums, or from properties the method must have. No
function compares against a saved copy of earlier output. Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
KAC_RICE = 1.0 / (2.0 * math.sqrt(2.0))  # E[length]/sqrt(lambda), Rudnick-Wigman


class Field:
    """psi(x) = Re sum_j (a_j - i b_j) exp(2 pi i k_j.x) on the unit 2-torus."""

    def __init__(self, k, a, b):
        self.k = np.asarray(k, dtype=float)
        self.c = np.asarray(a, dtype=float) - 1j * np.asarray(b, dtype=float)
        self.m = int(round(float(np.sum(self.k[0] ** 2))))

    @classmethod
    def from_payload(cls, payload: dict) -> "Field":
        modes = payload["modes"]
        return cls([mo["k"] for mo in modes], [mo["a"] for mo in modes],
                   [mo["b"] for mo in modes])

    @property
    def lam(self) -> float:
        return 4.0 * math.pi**2 * self.m

    def _terms(self, pts):
        return np.exp(2j * math.pi * (np.asarray(pts, float) @ self.k.T)) \
            * self.c

    def values(self, pts) -> np.ndarray:
        return self._terms(pts).sum(axis=-1).real

    def values_and_gradients(self, pts):
        t = self._terms(pts)
        return t.sum(axis=-1).real, (t @ (2j * math.pi * self.k)).real

    def grid(self, N: int) -> np.ndarray:
        """psi at the nodes (i/N, j/N) by one inverse FFT of the coefficients."""
        C = np.zeros((N, N), dtype=complex)
        ki = self.k.astype(int)
        np.add.at(C, (ki[:, 0] % N, ki[:, 1] % N), 0.5 * self.c)
        np.add.at(C, (-ki[:, 0] % N, -ki[:, 1] % N), 0.5 * np.conj(self.c))
        return np.fft.ifft2(C).real * (N * N)

    def l2_norm_sq(self) -> float:
        """Mean of psi^2 on a grid fine enough to be exact for psi^2."""
        N = 4 * math.isqrt(self.m) + 8
        return float(np.mean(self.grid(N) ** 2))


# ---------------------------------------------------------------------------
# Ball masses and certificates


def ball_masses(field: Field, centers, rho: float, chunk: int = 16
                ) -> np.ndarray:
    """Integral of psi^2 over Euclidean disks of radius rho at each center.

    Polar product rule: trapezoid in the angle (exact for the band-limited
    angular series) and Gauss-Legendre in the radius, both sized from the
    largest frequency 2 sqrt(m) of psi^2 so the error is at rounding level.
    """
    omega = TWO_PI * 2.0 * math.sqrt(field.m) * rho
    n_t = int(math.ceil(1.15 * omega)) + 48
    n_s = int(math.ceil(omega / 2.0)) + 24
    x, w = np.polynomial.legendre.leggauss(n_s)
    s = 0.5 * rho * (x + 1.0)
    ws = 0.5 * rho * w * s * (TWO_PI / n_t)
    theta = TWO_PI * np.arange(n_t) / n_t
    offsets = np.stack([np.outer(s, np.cos(theta)).ravel(),
                        np.outer(s, np.sin(theta)).ravel()], axis=-1)
    weights = np.repeat(ws, n_t)
    E = np.exp(2j * math.pi * (offsets @ field.k.T))  # (P, M)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    out = np.empty(len(centers))
    for i0 in range(0, len(centers), chunk):
        cc = np.exp(2j * math.pi * (centers[i0:i0 + chunk] @ field.k.T)) \
            * field.c
        psi = (cc @ E.T).real
        out[i0:i0 + chunk] = (psi * psi) @ weights
    return out


def certificate_ratios(field: Field, centers, r: float) -> tuple[float, float]:
    """(min mass(B_{r/2})/(r/2)^2, max mass(B_{2r})/(2r)^2) over the centers."""
    lo = ball_masses(field, centers, r / 2.0) / (r / 2.0) ** 2
    hi = ball_masses(field, centers, 2.0 * r) / (2.0 * r) ** 2
    return float(lo.min()), float(hi.max())


RATIO_TOL = 1e-9  # quadrature error on the O(1) ratios, with a wide margin


def check_certificate(field: Field, centers, r: float, k1: float, k2: float,
                      min_ratio: float, max_ratio: float, passed: bool
                      ) -> list[str]:
    own_min, own_max = certificate_ratios(field, centers, r)
    problems = []
    if abs(own_min - min_ratio) > RATIO_TOL * max(1.0, abs(own_min)):
        problems.append(f"min_ratio {min_ratio!r} vs quadrature {own_min!r}")
    if abs(own_max - max_ratio) > RATIO_TOL * max(1.0, abs(own_max)):
        problems.append(f"max_ratio {max_ratio!r} vs quadrature {own_max!r}")
    near = (abs(own_min - k1) <= RATIO_TOL or abs(own_max - k2) <= RATIO_TOL)
    own_pass = k1 <= own_min and own_max <= k2
    if own_pass != passed and not near:
        problems.append(f"verdict {passed} vs quadrature {own_pass}")
    return problems


def fails_everywhere(field: Field, covers: dict, k1: float, k2: float
                     ) -> list[str]:
    """A skipped spec must fail the certificate at every grid radius.

    covers maps each admissible grid radius r to the centers of its r/2-cover.
    """
    problems = []
    for r, centers in covers.items():
        own_min, own_max = certificate_ratios(field, centers, r)
        if k1 + RATIO_TOL <= own_min and own_max <= k2 - RATIO_TOL:
            problems.append(f"skipped spec passes at r={r} by quadrature "
                            f"({own_min:.6g}, {own_max:.6g})")
    return problems


# ---------------------------------------------------------------------------
# Ball sups


def _zoom(field: Field, center, s: float, d, g: float) -> float:
    """Local maximum of psi^2 over the disk by shrinking 7x7 grid searches."""
    steps = np.arange(-3, 4) / 3.0
    mesh = np.stack(np.meshgrid(steps, steps, indexing="ij"), -1).reshape(-1, 2)
    best_d = np.asarray(d, dtype=float)
    best_v = float(field.values(center + best_d[None, :])[0] ** 2)
    w = g
    for _ in range(48):
        cand = best_d + w * mesh
        norms = np.linalg.norm(cand, axis=-1)
        out = norms > s
        cand[out] *= (s / norms[out])[:, None]
        vals = field.values(center + cand) ** 2
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_d = float(vals[i]), cand[i]
        w *= 0.5
    return best_v


def ball_sup_estimate(field: Field, center, s: float, n_starts: int = 6
                      ) -> float:
    """sup of psi^2 over the closed disk B_s(center), from below.

    Dense sampling (about 12 points per wavelength, plus the boundary
    circle) followed by local zoom refinement from the best few samples.
    """
    center = np.asarray(center, dtype=float)
    g = min(s / 8.0, 1.0 / (12.0 * math.sqrt(field.m)))
    n = int(math.ceil(s / g))
    axis = np.linspace(-s, s, 2 * n + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    grid = grid[np.linalg.norm(grid, axis=-1) <= s]
    n_circ = int(math.ceil(TWO_PI * s / g)) + 8
    th = TWO_PI * np.arange(n_circ) / n_circ
    ring = s * np.stack([np.cos(th), np.sin(th)], -1)
    pts = np.vstack([grid, ring])
    vals = field.values(center + pts) ** 2
    order = np.argsort(vals)[::-1]
    starts = []
    for i in order:
        if all(np.linalg.norm(pts[i] - p) > 2.0 * g for p in starts):
            starts.append(pts[i])
            if len(starts) == n_starts:
                break
    return max(_zoom(field, center, s, d, g) for d in starts)


def check_ball_sup(certified: float, estimate: float, tol: float,
                   label: str = "") -> list[str]:
    """A certified sup lies in [estimate/(1+tol), estimate] up to rounding."""
    problems = []
    if certified * (1.0 + tol) < estimate * (1.0 - 1e-12):
        problems.append(f"{label} sup {certified!r} more than tol below the "
                        f"dense estimate {estimate!r}")
    if certified > estimate * (1.0 + 1e-9):
        problems.append(f"{label} sup {certified!r} above the dense "
                        f"estimate {estimate!r}")
    return problems


# ---------------------------------------------------------------------------
# Nodal length


def _crossings(field: Field, a_pts, b_pts, va, vb, iters: int = 5):
    """Exact zero of psi on each segment a->b (opposite signs at the ends).

    Safeguarded Newton on the segment parameter, started from linear
    interpolation and kept inside the sign bracket.
    """
    lo = np.zeros(len(va))
    hi = np.ones(len(va))
    t = va / (va - vb)
    d = b_pts - a_pts
    sa = np.sign(va)
    for _ in range(iters):
        f, g = field.values_and_gradients(a_pts + t[:, None] * d)
        same = np.sign(f) == sa
        lo = np.where(same, t, lo)
        hi = np.where(same, hi, t)
        df = np.sum(g * d, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t - f / df
        bad = ~np.isfinite(tn) | (tn <= lo) | (tn >= hi)
        t = np.where(bad, 0.5 * (lo + hi), tn)
    return a_pts + t[:, None] * d


def nodal_length(field: Field, N: int) -> float:
    """Length of {psi = 0} by arc-length quadrature on the exact zero set.

    Cells of the N x N grid locate the curve (saddle cells are split by the
    sign at the cell center). Each piece runs between exact edge zeros; its
    length is the chord refined by the zero found along the normal through
    the chord midpoint, with Richardson extrapolation of the one- and
    two-chord lengths, so the error is O(h^4) per piece.
    """
    h = 1.0 / N
    V = field.grid(N)
    pos = V > 0.0
    idx = np.arange(N)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    node = np.stack([I, J], -1).astype(float) * h
    # edge points: x-edge (i,j)->(i+1,j), y-edge (i,j)->(i,j+1)
    xe = pos != np.roll(pos, -1, axis=0)
    ye = pos != np.roll(pos, -1, axis=1)
    px = np.full((N, N, 2), np.nan)
    py = np.full((N, N, 2), np.nan)
    for mask, out, step, axis in ((xe, px, (h, 0.0), 0), (ye, py, (0.0, h), 1)):
        a = node[mask]
        va = V[mask]
        vb = np.roll(V, -1, axis=axis)[mask]
        out[mask] = _crossings(field, a, a + np.array(step), va, vb)
    # cell (i,j): e0 = x-edge (i,j), e1 = y-edge (i+1,j), e2 = x-edge (i,j+1),
    # e3 = y-edge (i,j); positions unwrapped into the cell's frame
    e = [px, np.roll(py, -1, axis=0), np.roll(px, -1, axis=1), py]
    shift = [(0, 0), (1, 0), (0, 1), (0, 0)]
    has = [~np.isnan(arr[..., 0]) for arr in e]
    count = sum(hh.astype(int) for hh in has)
    pieces = []
    two = count == 2
    for ea in range(4):
        for eb in range(ea + 1, 4):
            sel = two & has[ea] & has[eb]
            if np.any(sel):
                pieces.append(_cell_pts(e, shift, sel, ea, eb, node, h))
    four = count == 4
    if np.any(four):
        ci, cj = np.nonzero(four)
        cen = (np.stack([ci, cj], -1) + 0.5) * h
        same = (field.values(cen) > 0.0) == pos[ci, cj]
        for flag, pairs in ((True, ((0, 1), (2, 3))), (False, ((0, 3), (1, 2)))):
            sel = np.zeros_like(four)
            sel[ci[same == flag], cj[same == flag]] = True
            for ea, eb in pairs:
                pieces.append(_cell_pts(e, shift, sel, ea, eb, node, h))
    p0 = np.vstack([p[0] for p in pieces])
    p1 = np.vstack([p[1] for p in pieces])
    return float(np.sum(_refined_lengths(field, p0, p1)))


def _cell_pts(e, shift, sel, ea, eb, node, h):
    """Both ends of the pieces in the selected cells, in each cell's frame."""
    ends = []
    for ed in (ea, eb):
        pt = e[ed][sel]
        # undo the wrap of edge points that sit across the torus seam
        ends.append(pt - np.round(pt - node[sel] - np.array(shift[ed]) * h))
    return ends[0], ends[1]


def _refined_lengths(field: Field, p0, p1):
    mid = 0.5 * (p0 + p1)
    chord = p1 - p0
    l1 = np.linalg.norm(chord, axis=-1)
    nrm = np.stack([-chord[:, 1], chord[:, 0]], -1) / np.maximum(l1, 1e-300)[:, None]
    t = np.zeros(len(mid))
    for _ in range(3):
        f, g = field.values_and_gradients(mid + t[:, None] * nrm)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t - f / np.sum(g * nrm, axis=-1)
    ok = np.isfinite(t) & (np.abs(t) <= 0.5 * l1)
    t = np.where(ok, t, 0.0)
    q = mid + t[:, None] * nrm
    l2 = np.linalg.norm(q - p0, axis=-1) + np.linalg.norm(p1 - q, axis=-1)
    return l2 + (l2 - l1) / 3.0


def length_allowance(m: int, N: int) -> float:
    """Relative length error allowed to marching squares at grid size N.

    Linearly interpolated edge points sit off the curve by O(h^2) and the
    chords between them cut arcs, so the error is second order in the cell
    size over the wavelength, x = 2 pi sqrt(m) / N. Random waves read long by
    0.006-0.013 x^2 (m = 325 at N = 256, m = 1105 and 5525 at N = 1024).
    """
    return 0.03 * (TWO_PI * math.sqrt(m) / N) ** 2 + 2e-4


def check_length(program: float, reference: float, m: int, N: int,
                 label: str = "") -> list[str]:
    """Program length within [-0.3 A, +A] of the reference, relative."""
    rel = (program - reference) / reference
    allow = length_allowance(m, N)
    if rel < -0.3 * allow or rel > allow:
        return [f"{label} length {program!r} vs arc-length quadrature "
                f"{reference!r} (rel {rel:+.2e}, allowed "
                f"[-{0.3 * allow:.2e}, +{allow:.2e}])"]
    return []


def check_product_length(program: float, k: int, l: int, N: int,
                         label: str = "") -> list[str]:
    """2 sin(2 pi k x) sin(2 pi l y): 2k + 2l unit lines, 4kl crossings.

    Marching squares is exact on the straight lines and cuts a corner at
    each crossing cell, at most (2 - sqrt 2) h per crossing.
    """
    exact = 2.0 * (k + l)
    short = (2.0 - math.sqrt(2.0)) * 4 * k * l / N
    if not exact - short <= program <= exact * (1.0 + 1e-12):
        return [f"{label} length {program!r} outside [{exact - short!r}, "
                f"{exact!r}]"]
    return []


def check_kac_rice(ratios, allowances, p_false: float = 1e-4) -> list[str]:
    """Mean of length/sqrt(lambda) against 1/(2 sqrt 2).

    The bound is a Student-t interval from the sample itself at a false-alarm
    rate of p_false, widened by the largest marching-squares allowance.
    """
    from scipy import stats  # imported here: set-up processes never need it

    x = np.asarray(ratios, dtype=float)
    n = len(x)
    se = float(np.std(x, ddof=1)) / math.sqrt(n)
    half = float(stats.t.ppf(1.0 - p_false / 2.0, n - 1)) * se
    allow = max(allowances) * KAC_RICE
    mean = float(np.mean(x))
    if abs(mean - KAC_RICE) > half + allow:
        return [f"Kac-Rice: mean length/sqrt(lambda) {mean:.6f} vs "
                f"{KAC_RICE:.6f}, bound {half + allow:.2e} (n={n})"]
    return []


def check_polylines_closed(polylines, label: str = "") -> list[str]:
    open_count = 0
    for chain in polylines:
        d = np.asarray(chain[-1]) - np.asarray(chain[0])
        if np.linalg.norm(d - np.round(d)) > 1e-9:
            open_count += 1
    if open_count:
        return [f"{label} {open_count} of {len(polylines)} polylines open"]
    return []


# ---------------------------------------------------------------------------
# Singular points


def check_singular_set(points, expected, h: float, label: str = ""
                       ) -> tuple[list[str], list[str]]:
    """Compare found (location, order) pairs with the exact singular set.

    Returns (missing, wrong): expected points not found within h, and found
    points that match no expected point or carry the wrong order.
    """
    missing, wrong = [], []
    used = set()
    for loc, order in points:
        d = np.asarray([e[0] for e in expected], float) - np.asarray(loc)
        dist = np.linalg.norm(d - np.round(d), axis=-1) if len(expected) \
            else np.array([])
        if len(dist) == 0 or dist.min() > h:
            wrong.append(f"{label} spurious singular point {np.round(loc, 6)}")
            continue
        i = int(np.argmin(dist))
        if i in used:
            wrong.append(f"{label} duplicate singular point {np.round(loc, 6)}")
        used.add(i)
        if order != expected[i][1]:
            wrong.append(f"{label} order {order} at {np.round(loc, 6)}, "
                         f"expected {expected[i][1]}")
    for i, (loc, _) in enumerate(expected):
        if i not in used:
            missing.append(f"{label} missing singular point {np.round(loc, 6)}")
    return missing, wrong


def product_crossings(k: int, l: int, tau) -> list:
    """Exact singular set of 2 sin(2 pi k x) sin(2 pi l y) moved by tau."""
    xs = (np.arange(2 * k) / (2 * k) + tau[0]) % 1.0
    ys = (np.arange(2 * l) / (2 * l) + tau[1]) % 1.0
    return [(np.array([x, y]), 2) for x in xs for y in ys]


def singular_counts(points, centers, radius: float) -> list[int]:
    """Brute-force sum of (order - 1) over points within radius of a center."""
    out = []
    for c in np.atleast_2d(np.asarray(centers, float)):
        total = 0
        for loc, order in points:
            d = np.asarray(loc) - c
            if np.linalg.norm(d - np.round(d)) <= radius:
                total += order - 1
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Reports


def check_report(payload: dict, m: int, rel: float = 1e-12) -> list[str]:
    """Recompute eq2-eq5 and the verdicts from a report's own numbers."""
    problems = []
    meta, meas = payload["meta"], payload["measured"]
    pred, const, verd = payload["predicted"], payload["constants"], \
        payload["verdicts"]
    n = 2
    lam = 4.0 * math.pi**2 * m
    r = meta["r"]

    def close(a, b):
        return a is not None and b is not None and \
            abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)

    if not close(meta["lambda"], lam):
        problems.append(f"lambda {meta['lambda']!r} != 4 pi^2 m")
    beta = const["beta"]["value"]
    kappa = const["kappa"]["value"]
    root = r * math.sqrt(lam)
    eq3 = const["c2"]["value"] * root
    eq5 = const["c4"]["value"] * root
    c3 = const["c3"]["value"]
    eq4 = None if c3 is None else c3 * r ** (0.5 - 2 * beta) * lam ** (0.75 - beta)
    for name, mine in (("eq3", eq3), ("eq4", eq4), ("eq5", eq5)):
        if (mine is None) != (pred[name] is None) or \
                (mine is not None and not close(mine, pred[name])):
            problems.append(f"{name} {pred[name]!r} vs recomputed {mine!r}")
    if not close(const["c2"]["value"], meas["c_star"]):
        problems.append("c2 is not the measured c*")
    n_lift = meas["N_lift"]
    c0 = (2.0 * math.sqrt(n)) ** n
    eq2 = [] if n_lift is None else [
        kappa * c0 * n_lift ** (2.0 * a) / r for a in const["alpha"]["value"]]
    if len(eq2) != len(pred["eq2"]) or not all(
            close(x, e["value"]) for x, e in zip(eq2, pred["eq2"])):
        problems.append("eq2 values differ from the recomputed curve")
    length = meas["nodal_length"]
    want = {
        "eq3_order_bound": meas["max_vanishing_order"] <= eq3,
        "eq5_singular_bound": meas["max_singular_count"] <= eq5 + 1e-12,
    }
    if eq4 is not None and length is not None:
        want["eq4_length_bound"] = length <= eq4
    if eq2 and length is not None:
        want["eq2_length_bound"] = {
            f"alpha={a}": length <= v
            for a, v in zip(const["alpha"]["value"], eq2)}
    if want != verd:
        problems.append(f"verdicts {verd} vs recomputed {want}")
    return problems
