"""Exact Laplacian eigenfunctions on the unit torus.

An eigenfunction with eigenvalue lambda = 4 pi^2 m is a finite expansion

    psi(x) = sum_j a_j cos(2 pi k_j . x) + b_j sin(2 pi k_j . x)

over canonical lattice modes k_j with |k_j|^2 = m (one representative per
antipodal pair {k, -k}, first nonzero coordinate positive). The L^2 norm over
the torus is (1/2) sum (a^2 + b^2), held equal to 1.

Random coefficient draws are a desk-scale random-wave surrogate for
high-density eigenbasis subsequences; the correspondence is heuristic and not
asserted anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NoModesError, SpecError
from .geometry import TorusModel, wrap_point

__all__ = [
    "EigenfunctionSpec",
    "enumerate_lattice",
    "random_eigenfunction",
    "mode_spec",
    "evaluate",
    "evaluate_gradient",
    "evaluate_hessian",
    "evaluate_grid",
    "mode_weights",
    "point_phases",
    "axis_phases",
    "lattice_phases",
    "mode_sum",
    "phase_blocks",
    "laplacian_residual",
    "translate",
    "spec_to_json",
    "spec_from_json",
]

TWO_PI = 2.0 * math.pi
PHASE_BLOCK = 2**16  # most rows x modes one phase array may hold


def enumerate_lattice(m: int, n: int) -> list[tuple[int, ...]]:
    """All canonical representatives k with |k|^2 = m, lexicographic order.

    Canonical means the first nonzero coordinate is positive; the empty list
    is returned when m is not a sum of n squares, and for every m < 1.
    """
    if m < 1:
        return []
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    kmax = math.isqrt(m)
    reps = []
    for k in product(range(-kmax, kmax + 1), repeat=n):
        if sum(c * c for c in k) != m:
            continue
        first = next(c for c in k if c != 0)
        if first > 0:
            reps.append(k)
    reps.sort()
    return reps


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Finite lattice-mode expansion with exact eigenvalue 4 pi^2 m; seed is
    None or an integer >= 0, held as an int."""

    model: TorusModel
    m: int
    k: np.ndarray  # (M, n) integer canonical modes
    a: np.ndarray  # (M,) cosine coefficients
    b: np.ndarray  # (M,) sine coefficients
    seed: int | None = None

    def __post_init__(self):
        k = np.asarray(self.k, dtype=int)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if k.ndim != 2 or k.shape[1] != self.model.dim:
            raise SpecError("mode array must be (M, dim)")
        if not np.all((k * k).sum(axis=1) == self.m):
            raise SpecError("every mode must satisfy |k|^2 = m")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise SpecError("coefficients must be finite")
        # k and -k are one mode: flip each row to its first nonzero > 0
        first = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
        canonical = np.where(first[:, None] < 0, -k, k)
        if len(np.unique(canonical, axis=0)) != len(k):
            raise SpecError("modes repeat, exactly or up to sign")
        norm = 0.5 * float(np.sum(a * a + b * b))
        if abs(norm - 1.0) > 1e-12:
            raise SpecError(f"L2 norm {norm} != 1")
        if self.seed is not None:
            object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def lam(self) -> float:
        """Eigenvalue, always derived from m."""
        return 4.0 * math.pi**2 * self.m

    @property
    def n_modes(self) -> int:
        return len(self.a)

    def coeff_l1(self) -> float:
        """sum_j sqrt(a_j^2 + b_j^2): bounds sup|psi|."""
        return float(np.sum(np.hypot(self.a, self.b)))

    def derivative_bound(self, order: int) -> float:
        """D_j = ||c||_1 (2 pi sqrt(m))^j bounds D^j psi (Makino-Berz 2003)."""
        return self.coeff_l1() * (TWO_PI * math.sqrt(self.m)) ** order


def _seed(seed) -> int:
    """seed as an int; SpecError unless it is an integer >= 0 (a numpy
    integer is one, a bool is not)."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise SpecError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def random_eigenfunction(m: int, model: TorusModel, seed: int) -> EigenfunctionSpec:
    """Gaussian coefficients on the canonical modes, normalized to unit L2 norm.

    Deterministic in (m, seed); raises SpecError unless seed is an integer
    >= 0, and NoModesError when the spectrum at m is empty.
    """
    seed = _seed(seed)
    reps = enumerate_lattice(m, model.dim)
    if not reps:
        raise NoModesError(m, model.dim)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len(reps))
    b = rng.standard_normal(len(reps))
    scale = math.sqrt(0.5 * float(np.sum(a * a + b * b)))
    return EigenfunctionSpec(
        model=model, m=m, k=np.array(reps, dtype=int), a=a / scale, b=b / scale,
        seed=seed,
    )


def mode_spec(modes, model: TorusModel) -> EigenfunctionSpec:
    """Spec from explicit (k, a, b) triples, e.g. single sin modes or products.

    Coefficients are taken as given and must already satisfy the unit-norm
    convention (1/2) sum(a^2 + b^2) = 1.
    """
    k = np.array([mk for mk, _, _ in modes], dtype=int)
    a = np.array([ak for _, ak, _ in modes], dtype=float)
    b = np.array([bk for _, _, bk in modes], dtype=float)
    m = int((k[0] * k[0]).sum())
    return EigenfunctionSpec(model=model, m=m, k=k, a=a, b=b)


def _phases(spec: EigenfunctionSpec, x: np.ndarray) -> np.ndarray:
    # x: (..., n) -> (..., M)
    return TWO_PI * (x @ spec.k.T.astype(float))


def evaluate(spec: EigenfunctionSpec, x) -> float | np.ndarray:
    """psi(x) by exact trigonometric summation; x may be a batch (..., n)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    ph = _phases(spec, np.atleast_2d(x))
    vals = np.cos(ph) @ spec.a + np.sin(ph) @ spec.b
    return float(vals[0]) if scalar else vals.reshape(x.shape[:-1])


def evaluate_gradient(spec: EigenfunctionSpec, x) -> np.ndarray:
    """grad psi(x), term-wise differentiated closed form."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    xb = np.atleast_2d(x)
    ph = _phases(spec, xb)
    kf = spec.k.astype(float)
    w = -np.sin(ph) * spec.a + np.cos(ph) * spec.b  # (..., M)
    grad = TWO_PI * (w @ kf)
    return grad[0] if scalar else grad.reshape(x.shape)


def evaluate_hessian(spec: EigenfunctionSpec, x) -> np.ndarray:
    """Hessian of psi: (n, n) at a point, (..., n, n) for a batch (..., n)."""
    x = np.asarray(x, dtype=float)
    ph = _phases(spec, x)
    kf = spec.k.astype(float)
    w = -(np.cos(ph) * spec.a + np.sin(ph) * spec.b)  # (..., M)
    kk = (kf[:, :, None] * kf[:, None, :]).reshape(len(kf), -1)
    return (TWO_PI**2 * (w @ kk)).reshape(x.shape + x.shape[-1:])


def _grid_sum(spec: EigenfunctionSpec, N: int, c: np.ndarray) -> np.ndarray:
    """Re sum_j c[j, q] exp(2 pi i k_j . x) at the N^n nodes x = i/N.

    psi itself is c = a - ib, since a cos(theta) + b sin(theta) =
    Re[(a - ib) exp(i theta)]. One GEMM over the modes: per-axis phase
    tables T_d[j, i] = exp(2 pi i k_jd i/N), the phase reduced exactly
    mod N so that the table at i/N equals the one at 2i/2N; axes 1..n-1
    folded into one column axis by their row-wise (Khatri-Rao) product, with
    c folded into that side; then Re(T_0^T @ R) as one real product of the
    stacked real and imaginary parts. Nested grids stay bit-identical,
    since every node sums the same 2M products in the same order. Returns
    shape (N,)*n + (Q,).
    """
    n = spec.model.dim
    nodes = np.arange(N)
    unit = np.exp((1j * TWO_PI / N) * nodes)
    tabs = [unit[(spec.k[:, d, None] * nodes) % N] for d in range(n)]
    right = tabs[1]
    for tab in tabs[2:]:
        right = (right[:, :, None] * tab[:, None, :]).reshape(len(c), -1)
    right = (right[:, :, None] * c[:, None, :]).reshape(len(c), -1)
    left = np.hstack([tabs[0].T.real, -tabs[0].T.imag])
    out = left @ np.vstack([right.real, right.imag])
    return out.reshape((N,) * n + (c.shape[1],))


def mode_weights(spec: EigenfunctionSpec, order: int) -> np.ndarray:
    """Real (2M, Q) weights of the mode sum giving psi and its derivatives.

    The complex columns are the derivative tensors of orders 0..order,
    (2 pi i)^j k^(tensor j) c for order j: c = a - ib (psi), 2 pi i k_d c
    (d_d psi), (2 pi i)^2 k_a k_b c (d_a d_b psi), and so on, each block of
    n^j columns row-major over its axes. A sum over the phases
    exp(2 pi i k . x) gives the derivatives at x. Rows alternate Re C and
    -Im C, matching a complex128 phase array viewed as float64 (re, im)
    pairs, so that Re(E @ C) is one real product (mode_sum).
    """
    c = spec.a - 1j * spec.b
    ik = (1j * TWO_PI) * spec.k
    powers = [np.ones((len(c), 1))]
    for _ in range(order):
        powers.append((powers[-1][:, :, None] * ik[:, None, :])
                      .reshape(len(c), -1))
    cols = np.hstack(powers) * c[:, None]
    return np.stack([cols.real, -cols.imag], axis=1).reshape(2 * len(c), -1)


def point_phases(spec: EigenfunctionSpec, x) -> np.ndarray:
    """exp(2 pi i k_j . x_p) for points or offsets x (P, n); shape (P, M).

    Each row depends on its own point only (no BLAS product, whose rows can
    round differently with the rows beside them).
    """
    x = np.asarray(x, dtype=float)
    arg = np.multiply.outer(x[:, 0], spec.k[:, 0])
    for a in range(1, x.shape[1]):
        arg += np.multiply.outer(x[:, a], spec.k[:, a])
    return np.exp((1j * TWO_PI) * arg)


def axis_phases(spec: EigenfunctionSpec, x, axis: int) -> np.ndarray:
    """exp(2 pi i k_j[axis] x_c) for coordinates x (C,) along one axis;
    shape (C, M): one complex exp per (coordinate, mode)."""
    return np.exp((1j * TWO_PI) * np.multiply.outer(x, spec.k[:, axis]))


def lattice_phases(tables, inv) -> np.ndarray:
    """exp(2 pi i k_j . d_p) for lattice offsets d_p[a] = coords[a][inv[p, a]],
    from the per-axis tables (axis_phases over coords[a]).

    Row inv[p, a] of each table, multiplied across axes: a complex product
    per (offset, mode, axis). The scan's coordinates are absolute lattice
    points, so a row depends on its cell alone.
    """
    phases = tables[0][inv[:, 0]]
    for a in range(1, len(tables)):
        phases *= tables[a][inv[:, a]]
    return phases


def mode_sum(phases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Re(phases @ C) for the columns C that mode_weights packs; (P, Q).

    Summed row by row over the modes without BLAS, so that a row's value
    does not depend on which rows share the call: the certified scan
    evaluates many balls in one call and must give each ball the value it
    gets alone.
    """
    real = np.ascontiguousarray(phases).view(np.float64)
    return np.einsum("pk,qk->pq", real, np.ascontiguousarray(weights.T))


def phase_blocks(rows: int, spec: EigenfunctionSpec) -> list[slice]:
    """Slices of range(rows), each of at most PHASE_BLOCK // M rows and at
    least one, M the spec's modes: the blocks of a (rows, M) phase array.
    PHASE_BLOCK is read at call time, so patching it moves every caller."""
    size = max(1, PHASE_BLOCK // spec.n_modes)
    return [slice(lo, lo + size) for lo in range(0, rows, size)]


def evaluate_grid(spec: EigenfunctionSpec, N: int) -> np.ndarray:
    """psi on the uniform N^n grid of nodes i/N, as one mode-sum GEMM.

    The nodes of grid N are bit-identical to the even nodes of grid 2N.
    """
    return _grid_sum(spec, N, (spec.a - 1j * spec.b)[:, None])[..., 0]


def evaluate_gradient_grid(spec: EigenfunctionSpec, N: int) -> np.ndarray:
    """grad psi on the N^n grid; returns array (N, ..., N, n).

    The same GEMM as evaluate_grid with c = a - ib multiplied by 2 pi i k_d,
    one column block per axis d.
    """
    c = (spec.a - 1j * spec.b)[:, None]
    return _grid_sum(spec, N, (1j * TWO_PI) * spec.k * c)


def laplacian_residual(spec: EigenfunctionSpec, x, h: float) -> float:
    """|Delta_h psi + lambda psi| for the (2n+1)-point second-difference stencil.

    Delta_h is the plain sum of per-axis second differences, so that the
    eigen-equation for the positive Laplacian reads Delta_h psi + lambda psi
    -> 0. The residual is O(h^2 lambda^2) (fourth-derivative Taylor term).
    """
    if not 0.0 < h < 1e-2:
        raise ValueError(f"h must be in (0, 1e-2), got {h}")
    x = wrap_point(x)
    n = spec.model.dim
    center = evaluate(spec, x)
    acc = -2.0 * n * center
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        acc += evaluate(spec, x + e) + evaluate(spec, x - e)
    return abs(acc / (h * h) + spec.lam * center)


def translate(spec: EigenfunctionSpec, tau) -> EigenfunctionSpec:
    """Spec of x -> psi(x - tau) via the closed-form coefficient phase shift."""
    tau = np.asarray(tau, dtype=float)
    theta = TWO_PI * (spec.k.astype(float) @ tau)
    ct, st = np.cos(theta), np.sin(theta)
    a_new = spec.a * ct - spec.b * st
    b_new = spec.a * st + spec.b * ct
    return EigenfunctionSpec(
        model=spec.model, m=spec.m, k=spec.k.copy(), a=a_new, b=b_new,
        seed=spec.seed,
    )


def spec_to_json(spec: EigenfunctionSpec) -> str:
    """Serialize; lambda is never stored, always derived from m."""
    payload = {
        "dim": spec.model.dim,
        "m": spec.m,
        "seed": spec.seed,
        "modes": [
            {"k": [int(c) for c in spec.k[j]], "a": float(spec.a[j]),
             "b": float(spec.b[j])}
            for j in range(spec.n_modes)
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> EigenfunctionSpec:
    """Parse spec JSON; SpecError when the text is not a valid spec."""
    try:
        payload = json.loads(text)
        model = TorusModel(payload["dim"])
        modes = payload["modes"]
        k = np.array([mo["k"] for mo in modes], dtype=int)
        a = np.array([mo["a"] for mo in modes], dtype=float)
        b = np.array([mo["b"] for mo in modes], dtype=float)
        m, seed = payload["m"], payload.get("seed")
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"not an eigenfunction spec: {exc}") from exc
    return EigenfunctionSpec(model=model, m=m, k=k, a=a, b=b, seed=seed)
