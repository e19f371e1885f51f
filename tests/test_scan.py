import math

import numpy as np
import pytest

from nodalscope import scan, trust
from nodalscope.doubling import default_scale_sweep
from nodalscope.errors import BudgetError
from nodalscope.fields import DEFAULT_TOL
from nodalscope.geometry import TorusModel, index_box, member_cover
from nodalscope.lift import cube_doubling_index
from nodalscope.scan import (
    LiftedSquared,
    RadialDomain,
    SpectralObjective,
    TorusDomain,
    certified_max,
)
from nodalscope.spectrum import (
    axis_phases,
    evaluate,
    evaluate_gradient,
    evaluate_hessian,
    lattice_phases,
    mode_spec,
    mode_sum,
    mode_weights,
    point_phases,
    random_eigenfunction,
)

# constructor, (alpha, beta) of f = alpha |grad psi|^2 + beta psi^2 (None:
# lambda/2), and the power of 2 pi sqrt(m) that scales f
OBJECTIVES = {
    "amplitude": (lambda s, c: SpectralObjective(s, c, 0.0, 1.0), 0.0, 1.0, 0),
    "gradient": (lambda s, c: SpectralObjective(s, c, 1.0, 0.0), 1.0, 0.0, 2),
    "energy": (lambda s, c: SpectralObjective(s, c, 1.0, 0.5 * s.lam),
               1.0, None, 2),
    "lifted": (lambda s, c: LiftedSquared(s, c, 0.05), 0.0, 1.0, 0),
}


def _cells(idx, spacing, origin):
    """Lattice cells idx: per-axis distinct indices and each cell's position
    in them, as certified_max carries them, and the cell-center offsets."""
    dim = idx.shape[1]
    coords, inv = [], np.empty_like(idx)
    for a in range(dim):
        u, inv[:, a] = np.unique(idx[:, a], return_inverse=True)
        coords.append((u + 0.5) * spacing + origin)
    offsets = np.stack([coords[a][inv[:, a]] for a in range(dim)], axis=-1)
    return coords, inv, offsets


def _lattice_phases(spec, center, coords, inv):
    """lattice_phases of the cells at center + offsets, from per-axis tables
    of their absolute coordinates, as the scan builds them."""
    tables = [axis_phases(spec, center[a] + x, a)
              for a, x in enumerate(coords)]
    return lattice_phases(tables, inv)


def _bounds(obj, center, cells, rho):
    """obj's cell values, bounds and log-space bounds over the cells
    (coords, inv, offsets) around center, as certified_max makes them:
    cell_bounds from the cells' phases, then the ball's factor at the
    offsets' norms, and log_bounds at the offsets (inf for an objective
    without them)."""
    coords, inv, offsets = cells
    bounds = obj.cell_bounds(_lattice_phases(obj.spec, center, coords, inv),
                             rho)
    vals, ubs = obj.ball_bounds(bounds[0], bounds[1],
                                np.linalg.norm(offsets, axis=-1), rho)
    logs = np.full(len(vals), math.inf)
    if obj.log_bounds is not None:
        logs = obj.log_bounds(bounds, offsets, rho)
    return vals, ubs, logs


def _log(x):
    """log x, -inf where x <= 0."""
    return np.log(x, out=np.full(np.shape(x), -math.inf), where=x > 0)


def _lattice(rng, dim, spacing, origin, count=300):
    """Random lattice cells with indices in [-40, 40) per axis."""
    return _cells(rng.integers(-40, 40, size=(count, dim)), spacing, origin)


@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_lattice_kernel_matches_pointwise(dim, m):
    # psi, grad psi and the Hessian from the per-axis tables and one GEMM,
    # against the closed forms at the same points, to
    # 1e-12 ||c||_1 (2 pi sqrt(m))^j for the j-th derivative
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    rng = np.random.default_rng(dim)
    center = rng.random(dim)
    coords, inv, offsets = _lattice(rng, dim, 1.7e-3, -0.05)
    x = center + offsets
    parts = mode_sum(_lattice_phases(spec, center, coords, inv),
                     mode_weights(spec, 2))
    scale = spec.coeff_l1()
    freq = 2 * math.pi * math.sqrt(m)
    assert np.max(np.abs(parts[:, 0] - evaluate(spec, x))) <= 1e-12 * scale
    assert np.max(np.abs(parts[:, 1:dim + 1] - evaluate_gradient(spec, x))) \
        <= 1e-12 * scale * freq
    hess = parts[:, dim + 1:].reshape(-1, dim, dim)
    assert np.max(np.abs(hess - evaluate_hessian(spec, x))) \
        <= 1e-12 * scale * freq**2


@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_kernel_rows_do_not_depend_on_the_batch(dim, m):
    # a ball in a lockstep scan gets its single-ball value bit for bit only
    # if point_phases and mode_sum compute each row from that row alone:
    # rows of a 4096-point call equal the same rows computed one at a time
    # and in slices of other lengths
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    x = np.random.default_rng(dim).random((4096, dim))
    phases = point_phases(spec, x)
    weights = mode_weights(spec, 2)
    full = mode_sum(phases, weights)
    for lo, hi in ((0, 1), (7, 8), (5, 9), (100, 233), (1000, 4096)):
        assert np.array_equal(point_phases(spec, x[lo:hi]), phases[lo:hi])
        assert np.array_equal(mode_sum(phases[lo:hi], weights), full[lo:hi])


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_taylor_matches_central_differences(name, dim, m):
    # the polish's grad f and Hessian match central differences of f and of
    # the gradient, each to 1e-6 of the row's scale (f, and its derivatives
    # in units of 2 pi sqrt(m)); the lifted offsets stay inside its ball
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    rng = np.random.default_rng(dim + 3)
    obj = OBJECTIVES[name][0](spec, rng.random((3, dim)))
    balls = np.repeat(np.arange(3), 10)
    d = rng.uniform(-0.03, 0.03, (30, dim))
    f, grad, hess = obj.taylor(d, balls)
    freq = 2 * math.pi * math.sqrt(m)
    h = 1e-4 / freq
    row = np.maximum.reduce([np.abs(f), np.max(np.abs(grad), axis=1) / freq,
                             np.max(np.abs(hess), axis=(1, 2)) / freq**2])
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        up, down = obj.taylor(d + e, balls), obj.taylor(d - e, balls)
        assert np.all(np.abs((up[0] - down[0]) / (2 * h) - grad[:, a])
                      <= 1e-6 * freq * row)
        assert np.all(np.abs((up[1] - down[1]) / (2 * h) - hess[:, :, a])
                      <= 1e-6 * freq**2 * row[:, None])


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_objective_values_and_slopes(name, dim, m):
    # f of each objective on the lattice path (the cell-center values of
    # cell_bounds) and pointwise, against f built from evaluate and
    # evaluate_gradient
    make, alpha, beta, power = OBJECTIVES[name]
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    if beta is None:
        beta = 0.5 * spec.lam
    rng = np.random.default_rng(dim + 7)
    center = rng.random(dim)
    obj = make(spec, center)
    cells = _lattice(rng, dim, 1.3e-3, -0.05)
    offsets = cells[2]
    x = center + offsets
    psi = evaluate(spec, x)
    g = evaluate_gradient(spec, x)
    f_ref = alpha * np.sum(g * g, axis=-1) + beta * psi * psi

    vals, ubs, logs = _bounds(obj, center, cells, 1e-3)
    pointwise = obj.values(offsets, 0)
    factor = 1.0
    if name == "lifted":
        factor = obj._t_factor(np.linalg.norm(offsets, axis=-1))
    scale = spec.coeff_l1() ** 2 * (2 * math.pi * math.sqrt(m)) ** power
    assert np.max(np.abs(vals / factor - f_ref)) <= 1e-12 * scale
    f_ref = f_ref * factor
    assert np.max(np.abs(vals - f_ref)) <= 1e-12 * np.max(np.abs(f_ref))
    assert np.max(np.abs(pointwise - f_ref)) <= 1e-12 * np.max(np.abs(f_ref))
    assert np.all(ubs >= vals)
    assert np.all(logs >= _log(vals))


def _dense_offsets(domain, n):
    if isinstance(domain, TorusDomain):
        axis = np.arange(n) / n
    else:
        axis = np.linspace(-domain.hi, domain.hi, n)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    if isinstance(domain, RadialDomain):
        pts = pts[domain.contains(np.linalg.norm(pts, axis=-1))]
    return pts


DOMAINS = {
    "ball": lambda: RadialDomain(0.0, 0.12),
    "annulus": lambda: RadialDomain(0.04, 0.1),
    "torus": lambda: TorusDomain(),
}


# the lifted objective is defined on its own ball only
SCAN_CASES = [(name, dom) for name in sorted(OBJECTIVES)
              for dom in sorted(DOMAINS) if name != "lifted" or dom == "ball"]


@pytest.mark.parametrize("name,domain_name", SCAN_CASES)
def test_certified_max_brackets_dense_max(rand100, name, domain_name):
    make = OBJECTIVES[name][0]
    tol = 1e-3
    center = np.array([0.31, 0.67])
    obj = make(rand100, center)
    domain = DOMAINS[domain_name]()
    if name == "lifted":
        domain = RadialDomain(0.0, obj.s)
    dense = np.max(obj.values(_dense_offsets(domain, 301), 0))
    # the default first level, and a coarse one whose best cell need not
    # lie in the basin of the maximum, so that pruning decides the result
    for h0 in (obj.h0, 0.3):
        obj.h0 = h0
        res = certified_max(obj, domain, tol)
        assert dense <= res.value[0] * (1 + tol)
        # the value is a pointwise evaluation at the offset it reports
        assert res.value[0] == pytest.approx(
            obj.values(res.offset, 0)[0], rel=1e-14)
        if isinstance(domain, RadialDomain):
            assert domain.contains(np.linalg.norm(res.offset[0]))
        assert res.nodes > 0


@pytest.mark.parametrize("dim,m,n", [(2, 100, 161), (2, 1105, 161),
                                     (3, 50, 31)])
def test_lifted_batch_brackets_dense_max(dim, m, n):
    # 40 lifted balls of random radii in one scan from a coarse first level
    # (h0 = 0.3), so that pruning by both cell bounds, not the first
    # level's best cell, decides each result: the largest value on a dense
    # grid of each ball is at most its value times 1 + tol
    tol = 1e-3
    spec = random_eigenfunction(m, TorusModel(dim), 5)
    rng = np.random.default_rng(1)
    s = rng.uniform(0.02, 0.12, 40)
    obj = LiftedSquared(spec, rng.random((40, dim)), s)
    obj.h0 = 0.3
    res = certified_max(obj, RadialDomain(0.0, s), tol)
    axis = np.linspace(-1.0, 1.0, n)
    grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"),
                    -1).reshape(-1, dim)
    grid = grid[np.linalg.norm(grid, axis=-1) <= 1.0]
    for b in range(40):
        dense = obj.values(grid * s[b], np.full(len(grid), b)).max()
        assert dense <= res.value[b] * (1 + tol)


def test_certified_max_budget_errors(rand100, monkeypatch):
    obj = SpectralObjective(rand100, np.array([0.2, 0.4]), 0.0, 1.0)
    # below the floor, or not finite: a NaN tol would prune every cell
    for tol in (1e-12, math.nan, math.inf):
        with pytest.raises(BudgetError):
            certified_max(obj, RadialDomain(0.0, 0.1), tol)
    res = certified_max(obj, RadialDomain(0.0, 0.1), 1e-6)
    assert res.nodes > 200
    monkeypatch.setattr(scan, "NODE_BUDGET", 200)
    with pytest.raises(BudgetError):
        certified_max(obj, RadialDomain(0.0, 0.1), 1e-6)


def test_derived_constants(rand100):
    # the Taylor remainder D3 = lambda^(3/2) A1 bounds ||D^3 psi|| for every
    # objective; h0 is 1/(6 sqrt m) for psi^2 and 1/(8 sqrt m) once the
    # gradient enters
    lam, a1, root_m = rand100.lam, rand100.coeff_l1(), math.sqrt(100)
    center = np.array([0.1, 0.2])
    divs = {"amplitude": 6.0, "gradient": 8.0, "energy": 8.0, "lifted": 6.0}
    for name, div in divs.items():
        obj = OBJECTIVES[name][0](rand100, center)
        assert obj.d3 == pytest.approx(lam**1.5 * a1, rel=1e-15)
        assert obj.h0 == 1.0 / (div * root_m)
    # where psi, grad psi and H vanish (all phases 0 stand in for such a
    # cell), the psi^2 bound is the order-2 remainder alone, (D3 rho^3/6)^2
    obj = OBJECTIVES["amplitude"][0](rand100, center)
    for rho in (1e-3, 0.01, 0.05):
        vals, ubs = obj.cell_bounds(np.zeros((1, rand100.n_modes), complex),
                                    rho)
        assert vals[0] == 0.0
        assert ubs[0] == pytest.approx((lam**1.5 * a1 * rho**3 / 6) ** 2,
                                       rel=1e-14)


def _on_diagonal_mode(dim):
    """psi = sqrt(2) sin(2 pi (x_1 + ... + x_n)): its gradient points along
    the cell diagonal, so a cell's corners sit a full rho from its center."""
    return mode_spec([((1,) * dim, 0.0, math.sqrt(2))], TorusModel(dim))


def _cell_samples(spacing, dim, per_axis=5):
    """Offsets of a per_axis^dim grid over a cell, center and corners
    included."""
    axis = np.linspace(-0.5 * spacing, 0.5 * spacing, per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def _ball_cases(spec, dim, h, radius, rng):
    """Cases (label, spec, center, cells, h) of the lattice of spacing h
    around balls of the given radius: up to 200 cells whose centers lie
    inside the ball and whose disks cross its edge; at three random
    centers, the cell centered on the ball's center; and the 5^n cells
    around the maxima of the lifted objective and of psi^2 on the ball."""
    rho = h * math.sqrt(dim) / 2
    u = rng.standard_normal((400, dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    idx = np.unique(np.round(u * (radius - rng.random((400, 1)) * rho) / h)
                    .astype(int), axis=0)
    norms = np.linalg.norm(idx * h, axis=-1)
    shell = idx[(norms < radius) & (norms + rho > radius)][:200]
    cases = [("edge", spec, rng.random(dim), _cells(shell, h, -0.5 * h), h)]
    cases += [("center", spec, rng.random(dim),
               _cells(np.zeros((1, dim), int), h, -0.5 * h), h)
              for _ in range(3)]
    for obj in (LiftedSquared(spec, rng.random(dim), radius),
                SpectralObjective(spec, rng.random(dim), 0.0, 1.0)):
        peak = certified_max(obj, RadialDomain(0.0, radius),
                             1e-3).offset[0]
        near = np.round(peak / h).astype(int) + index_box(5, dim) - 2
        cases.append(("peak", spec, obj.centers[0],
                      _cells(near, h, -0.5 * h), h))
    return cases


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_cell_bound_dominates_samples(name, dim, m):
    # each cell's upper bound is at least the objective's largest value on
    # dense samples inside the cell, and its log-space bound (the lifted
    # objective's) at least the log of the largest on the samples that also
    # lie in the ball: on random waves, at half the Nyquist spacing and at
    # the first level's spacing 1/N, the largest cells a scan bounds; on
    # the diagonal single mode with cells centered on zeros of psi (index
    # sum 0), where the log form must not apply, and of |grad psi| (index
    # sum 100 at spacing 1/400, where k.x = 1/4), where the slope vanishes
    # and the higher-order terms alone must cover the cell; and, at both
    # spacings and at 1/16 of the first, where the Taylor terms are nearly
    # tight, on cells whose centers lie inside the lifted ball and whose
    # disks cross its edge, on cells at the ball's center, where grad tau
    # vanishes, and on cells around the maxima of the lifted objective,
    # where the log-space bound is the smaller one, and of psi^2, where the
    # curvature term of U_psi is negative
    make = OBJECTIVES[name][0]
    rng = np.random.default_rng(dim + 3)
    wave = random_eigenfunction(m, TorusModel(dim), 11)
    radius = OBJECTIVES["lifted"][0](wave, np.zeros(dim)).s
    spacing = 0.5 / (2 * math.pi * math.sqrt(m))
    cases = [("wave", wave, rng.random(dim),
              _lattice(rng, dim, spacing, -0.05), spacing)]
    free = rng.integers(-30, 30, size=(60, dim - 1))
    idx = np.concatenate([
        np.hstack([free, -free.sum(axis=1, keepdims=True)]),
        np.hstack([free, 100 - free.sum(axis=1, keepdims=True)]),
    ])
    cases.append(("diagonal", _on_diagonal_mode(dim), np.zeros(dim),
                  _cells(idx, 1 / 400, -0.5 / 400), 1 / 400))
    first = 1.0 / math.ceil(1.0 / make(wave, np.zeros(dim)).h0)
    cases.append(("wave", wave, rng.random(dim),
                  _lattice(rng, dim, first, -0.05), first))
    for h in (spacing / 16, spacing, first):
        cases += _ball_cases(wave, dim, h, radius, rng)
    tighter = 0
    for label, spec, center, cells, h in cases:
        obj = make(spec, center)
        offsets = cells[2]
        rho = h * math.sqrt(dim) / 2
        vals, ubs, logs = _bounds(obj, center, cells, rho)
        samples = _cell_samples(h, dim)
        pts = (offsets[:, None, :] + samples[None, :, :]).reshape(-1, dim)
        values = obj.values(pts, 0).reshape(len(offsets), -1)
        dense = values.max(axis=1)
        assert np.all(ubs >= dense)
        assert np.all(dense >= vals - 1e-12 * np.max(np.abs(vals)))
        inside = (np.linalg.norm(pts, axis=-1) <= radius).reshape(
            len(offsets), -1)
        assert np.all(logs >= _log(np.where(inside, values, 0.0).max(axis=1)))
        if label == "diagonal":
            assert np.all(logs[:len(free)] == math.inf)
        if label == "peak":
            tighter += np.count_nonzero(logs < _log(ubs))
    assert (tighter > 0) == (name == "lifted")


@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_signed_enclosure_never_above_the_frobenius_one(dim, m):
    # U_psi = max(psi + rise(mu+), -psi + rise(mu-)) + D3 rho^3 / 6 is never
    # above |psi| + |grad psi| rho + ||H||_F rho^2 / 2 + D3 rho^3 / 6 on
    # random cells, and below it on most of them
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    x = np.random.default_rng(dim + 5).random((2000, dim))
    parts = mode_sum(point_phases(spec, x), mode_weights(spec, 2))
    d3 = spec.derivative_bound(3)
    for rho in (1e-4, 1e-3, 1e-2, 0.05):
        slope, curv, _, u_psi = scan._enclosure(parts, dim, d3, rho)
        old = (np.abs(parts[:, 0]) + slope * rho + 0.5 * curv * rho * rho
               + d3 * rho**3 / 6.0)
        assert np.all(u_psi <= old)
        assert np.mean(u_psi < old) > 0.9


@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_lifted_log_rows_follow_their_closed_form(dim, m):
    # LiftedSquared.cell_bounds' log-space rows against psi, grad psi and
    # the Hessian's eigenvalues from the closed forms and eigvalsh: they
    # apply where psi_min = |psi| - |g| rho - ||H||_F rho^2 / 2
    # - D3 rho^3 / 6 > 0, and there read log psi^2 + Lambda rho^2 / 2, with
    # Lambda = 2 max(lambda_max(sign(psi) H) + D3 rho, 0) / psi_min (equal
    # to rounding in 2-D, where the trace bound is exact, and at least it
    # in 3-D), and 2 grad psi / psi
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    x = np.random.default_rng(dim + 9).random((3000, dim))
    obj = LiftedSquared(spec, np.zeros(dim), 0.05)
    psi, g = evaluate(spec, x), evaluate_gradient(spec, x)
    hess = evaluate_hessian(spec, x)
    d3 = spec.derivative_bound(3)
    for rho in np.array([1e-3, 1e-2, 0.1]) / (2 * math.pi * math.sqrt(m)):
        rows = obj.cell_bounds(point_phases(spec, x), rho)
        floor = (np.abs(psi) - np.linalg.norm(g, axis=-1) * rho
                 - 0.5 * np.linalg.norm(hess, axis=(1, 2)) * rho * rho
                 - d3 * rho**3 / 6)
        clear = np.abs(floor) > 1e-3 * np.abs(psi)
        ok = clear & (floor > 0)
        assert ok.sum() > 100
        assert np.all(rows[2, clear & (floor < 0)] == math.inf)
        top = np.linalg.eigvalsh(np.sign(psi)[:, None, None] * hess)[:, -1]
        ref = (2 * np.log(np.abs(psi)) + np.maximum(top + d3 * rho, 0.0)
               * rho * rho / floor)[ok]
        if dim == 2:
            assert np.allclose(rows[2, ok], ref, rtol=1e-9, atol=1e-9)
        else:
            assert np.all(rows[2, ok] >= ref - 1e-9 * np.abs(ref) - 1e-9)
        assert np.allclose(rows[3:, ok].T, 2 * g[ok] / psi[ok, None],
                           rtol=1e-9, atol=0)


@pytest.mark.parametrize("dim", [2, 3])
def test_trace_bound_dominates_eigenvalues(dim):
    # mu+ = tr/n + sqrt((n - 1)/n) ||H - (tr/n) I||_F >= lambda_max(H) and
    # mu- = sqrt((n - 1)/n) ||H - (tr/n) I||_F - tr/n >= -lambda_min(H)
    # (Wolkowicz and Styan 1980) on random symmetric matrices of several
    # scales, multiples of I and rank-one ones, up to rounding; in 2-D
    # both are exact
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((3000, dim, dim))
    v = rng.standard_normal((500, dim))
    hess = np.concatenate([
        (a + a.transpose(0, 2, 1)) * 10.0 ** rng.integers(-3, 4, (3000, 1, 1)),
        rng.standard_normal((500, 1, 1)) * np.eye(dim),
        v[:, :, None] * v[:, None, :] * rng.choice([-1.0, 1.0], (500, 1, 1)),
    ])
    parts = np.hstack([np.zeros((len(hess), 1 + dim)),
                       hess.reshape(len(hess), -1)])
    _, curv, (up, down), _ = scan._enclosure(parts, dim, 1.0, 1e-3)
    eig = np.linalg.eigvalsh(hess)
    slack = 1e-14 * curv
    assert np.all(up >= eig[:, -1] - slack)
    assert np.all(down >= -eig[:, 0] - slack)
    assert np.all(up <= curv + slack) and np.all(down <= curv + slack)
    if dim == 2:
        assert np.all(np.abs(up - eig[:, -1]) <= 1e-13 * curv)
        assert np.all(np.abs(down + eig[:, 0]) <= 1e-13 * curv)
    else:
        assert np.mean(up > eig[:, -1] + 1e-3 * curv) > 0.5


@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_bounds_raise_no_floating_point_errors(dim, m):
    # with every numpy division, overflow and invalid-operation error
    # raised: the bounds of cells where psi, grad psi and H all vanish, of
    # cells centered on zeros of psi, where psi_min <= 0, and of random
    # cells; the lifted log-space bounds at the ball's center, inside it,
    # on its sphere and outside it; a lifted ball scan centered on a zero
    # of psi; and a cube index
    spec = random_eigenfunction(m, TorusModel(dim), 11)
    diagonal = _on_diagonal_mode(dim)
    rng = np.random.default_rng(dim)
    radius = 0.05
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for sp, phases in (
                (spec, np.zeros((4, spec.n_modes), complex)),
                (diagonal, point_phases(diagonal, np.zeros((1, dim)))),
                (spec, point_phases(spec, rng.random((500, dim))))):
            for name in sorted(OBJECTIVES):
                obj = OBJECTIVES[name][0](sp, np.zeros(dim))
                for rho in (1e-6, 1e-3, 0.05):
                    bounds = obj.cell_bounds(phases, rho)
                    if obj.log_bounds is None:
                        continue
                    d = rng.standard_normal((len(phases), dim))
                    d /= np.linalg.norm(d, axis=-1, keepdims=True)
                    for r in (0.0, 0.5 * radius, radius, 2.0 * radius):
                        logs = obj.log_bounds(bounds, r * d, rho)
                        assert np.all(np.isfinite(logs) | (logs == math.inf))
        res = certified_max(LiftedSquared(diagonal, np.zeros(dim), radius),
                            RadialDomain(0.0, radius), 1e-3)
        assert res.value[0] > 0.0
        cube_doubling_index(spec, np.full(dim, 0.5), 0.125)


def test_clip_batch():
    # a step that stays in the band is taken whole; one that leaves it ends
    # where the segment first meets a sphere, scaled onto it: through the
    # outer sphere, into the hole (also when it would pass over it), never
    # when only the segment's line meets the hole, beyond the step's end
    dom = RadialDomain(0.1, 0.2)
    d = np.array([[0.15, 0.0], [0.15, 0.0], [0.15, 0.0], [0.15, 0.0],
                  [0.0, 0.15], [0.12, 0.05]])
    p = np.array([[0.01, 0.02], [0.1, 0.0], [-0.1, 0.0], [-0.4, 0.0],
                  [0.01, -0.001], [0.0, 0.0]])
    out = dom.clip(d, p)
    assert np.array_equal(out[[0, 4, 5]], (d + p)[[0, 4, 5]])
    assert np.allclose(out[1:4], [[0.2, 0.0], [0.1, 0.0], [0.1, 0.0]],
                       rtol=0, atol=1e-15)
    assert np.all(np.abs(np.linalg.norm(out[1:4], axis=-1)
                         - [0.2, 0.1, 0.1]) <= 1e-16)
    ball = RadialDomain(0.0, 0.2)
    step = np.array([[0.3, 0.4]])
    assert np.allclose(ball.clip(np.zeros((1, 2)), step), [[0.12, 0.16]],
                       rtol=0, atol=1e-15)
    assert np.array_equal(TorusDomain().clip(d, p), d + p)


@pytest.mark.parametrize("dim", [2, 3])
def test_jacobi_eigh(dim):
    # the trust-region step's eigendecomposition: ascending eigenvalues as
    # LAPACK's to 1e-14 of the norm, orthonormal vectors that rebuild the
    # matrix, and each row's bits alone equal to its bits in a batch; on
    # random matrices of several scales, multiples of I, the zero matrix
    # and matrices with two eigenvalues 1e-12 apart
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((600, dim, dim))
    a = (a + a.transpose(0, 2, 1)) * 10.0 ** rng.integers(-8, 8, (600, 1, 1))
    a[:50] = np.eye(dim) * rng.standard_normal((50, 1, 1))
    a[50:100] = 0.0
    q = np.linalg.qr(rng.standard_normal((50, dim, dim)))[0]
    close = np.ones((50, dim))
    close[:, 0] += 1e-12
    a[100:150] = np.einsum("pab,pb,pcb->pac", q, close, q)
    mu, vec = trust._eigh(a)
    norm = np.linalg.norm(a, axis=(1, 2))
    assert np.all(np.abs(mu - np.linalg.eigvalsh(a))
                  <= 1e-14 * norm[:, None])
    assert np.allclose(np.einsum("pab,pac->pbc", vec, vec), np.eye(dim),
                       rtol=0, atol=1e-14)
    rebuilt = np.einsum("pab,pb,pcb->pac", vec, mu, vec)
    assert np.all(np.linalg.norm(rebuilt - a, axis=(1, 2)) <= 1e-14 * norm)
    for row in (0, 75, 120, 599):
        alone = trust._eigh(a[row:row + 1])
        assert np.array_equal(alone[0][0], mu[row])
        assert np.array_equal(alone[1][0], vec[row])


def _model(g, h, p):
    return (np.einsum("pa,pa->p", g, p)
            + 0.5 * np.einsum("pa,pab,pb->p", p, h, p))


@pytest.mark.parametrize("dim", [2, 3])
def test_trust_region_step_is_exact(dim):
    # the step maximizes the quadratic model over the trust region: no
    # point of a dense sample of the ball beats it, it stays in the ball,
    # and where the Hessian is negative definite and the Newton step fits,
    # it is that step; on random models of several scales (rows 0-299),
    # the hard case (the gradient orthogonal to the top eigenvector, whose
    # eigenvalue is >= 0; 300-349), a zero gradient (350-359) and negative
    # definite models whose Newton step fits (360-399)
    rng = np.random.default_rng(dim)
    count = 400
    a = rng.standard_normal((count, dim, dim))
    h = (a + a.transpose(0, 2, 1)) * 10.0 ** rng.integers(-2, 3, (count, 1, 1))
    g = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(
        -3, 2, (count, 1))
    mu, vec = np.linalg.eigh(h)
    hard = slice(300, 350)
    g[hard] -= np.einsum("pa,pa->p", g[hard], vec[hard, :, -1])[:, None] \
        * vec[hard, :, -1]
    h[hard] -= np.minimum(mu[hard, -1], 0.0)[:, None, None] * np.eye(dim)
    g[350:360] = 0.0
    radius = 10.0 ** rng.uniform(-2, 0, count)
    fits = slice(360, 400)
    h[fits] = -np.einsum("pba,pbc->pac", a[fits], a[fits]) - np.eye(dim)
    g[fits] *= 1e-3 * radius[fits, None] / np.linalg.norm(g[fits], axis=-1,
                                                         keepdims=True)
    p = trust._tr_step(g, h, radius)
    assert np.all(np.linalg.norm(p, axis=-1) <= radius * (1 + 1e-12))
    u = rng.standard_normal((20_000, dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    u *= rng.random((20_000, 1)) ** (1.0 / dim)
    best = _model(g, h, p)
    for row in range(count):
        dense = _model(np.broadcast_to(g[row], u.shape),
                       np.broadcast_to(h[row], (len(u), dim, dim)),
                       u * radius[row])
        assert dense.max() <= best[row] + 1e-9 * np.abs(dense).max()
    newton = np.linalg.solve(h[fits], -g[fits, :, None])[:, :, 0]
    assert np.allclose(p[fits], newton, rtol=1e-10, atol=0)
    assert np.all(np.linalg.norm(p[hard], axis=-1)
                  >= radius[hard] * (1 - 1e-12))


def _sweep_1105():
    """An m = 1105 doubling sweep's objective and domain, as scan_doubling
    builds them: the member cover's centers x the sweep's radii."""
    spec = random_eigenfunction(1105, TorusModel(2), 0)
    centers = member_cover(0.25, spec.model).centers
    radii = sorted({s for d in default_scale_sweep(spec.lam, 0.25)
                    for s in (d, 2.0 * d)})
    obj = SpectralObjective(spec, np.tile(centers, (len(radii), 1)), 0.0, 1.0)
    return obj, RadialDomain(0.0, np.repeat(radii, len(centers)))


def test_each_distinct_cell_evaluated_once(monkeypatch):
    # an m = 1105 doubling sweep, as scan_doubling runs it: every level's
    # rows are evaluated once per distinct (level, reduced index) cell, so
    # overlapping windows and the cells that balls share cost one row each;
    # the branch-and-bound's node count, counted per ball, is the one the
    # sweep took when each row was evaluated on its own; the balls of all
    # first levels descend together, one _level_bounds call per level of
    # the sweep's pooled descent; the polish, which stops at
    # 2 rho0 tol^(3/2), adds its own evaluations to nodes
    obj, domain = _sweep_1105()
    level_bounds = scan._level_bounds
    cell_bounds = SpectralObjective.cell_bounds
    held, evaluated, phases = [], [], []

    def spy_cells(self, chunk, rho):
        phases.append(chunk.copy())
        return cell_bounds(self, chunk, rho)

    def spy_level(objective, coords, count, inv, rho):
        phases.clear()
        out = level_bounds(objective, coords, count, inv, rho)
        cells = np.stack([np.mod(coords[a][inv[:, a]], count)
                          for a in range(inv.shape[1])], axis=-1)
        rows = np.concatenate(phases)
        # no cell twice: as many rows, all different, as distinct cells
        assert (len(np.unique(rows, axis=0)) == len(rows)
                == len(np.unique(cells, axis=0)))
        held.append(len(inv))
        evaluated.append(len(rows))
        return out

    monkeypatch.setattr(scan, "_level_bounds", spy_level)
    monkeypatch.setattr(SpectralObjective, "cell_bounds", spy_cells)
    result = certified_max(obj, domain, DEFAULT_TOL)
    assert len(held) == 14
    # 45,518 of 71,550 rows: the dedupe, pinned exactly
    assert (sum(evaluated), sum(held)) == (45_518, 71_550)
    assert result.nodes - result.polish_evals == 656_494
    assert result.polish_evals == 874


def test_polish_stops_at_the_tolerance(monkeypatch):
    # each ball's polish stops once it takes a step of at most
    # 2 rho0 tol^(3/2): against the same polish run on to the certification
    # floor, every ball keeps all but 4 tol^3 of the value and uses no more
    # evaluations
    tol = 1e-2
    obj, domain = _sweep_1105()
    polish = scan.polish
    calls = []

    def spy(*args):
        calls.append((args, polish(*args)))
        return calls[-1][1]

    monkeypatch.setattr(scan, "polish", spy)
    result = certified_max(obj, domain, tol)
    ((objective, dom, balls, d0, step, used_tol), (_, _, used, _)), = calls
    assert used_tol == tol and used.sum() == result.polish_evals
    _, floor_value, floor_used, _ = polish(objective, dom, balls, d0, step,
                                           scan.TOL_FLOOR)
    assert np.all(result.value >= (1.0 - 4.0 * tol**3) * floor_value)
    assert np.all(result.value <= floor_value)
    assert np.all(used <= floor_used) and used.sum() < floor_used.sum()


def _searches(monkeypatch):
    """The _Search of every certified_max call that follows, in order."""
    made = []
    init = scan._Search.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(scan._Search, "__init__", spy)
    return made


@pytest.mark.parametrize("name,domain_name", SCAN_CASES)
def test_polish_keeps_the_best_cell_and_converges(monkeypatch, name,
                                                  domain_name):
    # over 24 balls, each ball's value is at least its branch-and-bound
    # best cell value; for psi^2, on these balls and on the m = 1105 sweep,
    # a ball whose offset lies inside its domain has a gradient residual of
    # at most 1e-6 sqrt(f)
    spec = random_eigenfunction(100, TorusModel(2), 3)
    centers = np.random.default_rng(4).random((24, 2))
    obj = OBJECTIVES[name][0](spec, centers)
    domain = (RadialDomain(0.0, obj.s) if name == "lifted"
              else DOMAINS[domain_name]())
    cases = [(obj, domain)]
    if name == "amplitude" and domain_name == "ball":
        cases.append(_sweep_1105())
    searches = _searches(monkeypatch)
    for obj, domain in cases:
        result = certified_max(obj, domain, DEFAULT_TOL)
        assert np.all(result.value >= searches[-1].best)
        if name != "amplitude":
            continue
        r = np.linalg.norm(result.offset, axis=-1)
        inside = np.ones(len(r), dtype=bool)
        if isinstance(domain, RadialDomain):
            inside = ((r < domain.hi * (1 - 1e-9))
                      & (r > domain.lo * (1 + 1e-9)))
        assert inside.any()
        assert np.all(result.residual[inside]
                      <= 1e-6 * np.sqrt(result.value[inside]))


def test_polish_is_batch_invariant():
    # a ball's polished offset, value, evaluations and residual are the
    # same bits alone and in a shuffled batch: starts inside and on the
    # sphere of balls of several radii, one whose radius is already at its
    # floor (0)
    spec = random_eigenfunction(1105, TorusModel(2), 5)
    rng = np.random.default_rng(8)
    count = 12
    obj = SpectralObjective(spec, rng.random((count, 2)), 0.0, 1.0)
    hi = rng.uniform(0.004, 0.03, count)
    domain = RadialDomain(0.0, hi)
    raw = (rng.uniform(-1.0, 1.0, (count, 2)) * hi[:, None]
           * rng.choice([0.5, 2.0], (count, 1)))
    norms = np.linalg.norm(raw, axis=-1)
    d0 = raw * (np.minimum(norms, hi) / norms)[:, None]
    step = rng.uniform(0.001, 0.004, count)
    step[3] = 0.0
    balls = np.arange(count)
    alone = [trust.polish(obj, domain, balls[b:b + 1], d0[b:b + 1],
                          step[b:b + 1], 1e-2) for b in balls]
    order = rng.permutation(count)
    batch = trust.polish(obj, domain, balls[order], d0[order], step[order],
                         1e-2)
    for i, b in enumerate(order):
        for part in range(4):
            assert np.array_equal(batch[part][i], alone[b][part][0])
    assert batch[2][np.flatnonzero(order == 3)[0]] == 1


def test_torus_table_holds_the_windows_only(monkeypatch):
    # a cube index reads its first level as boxes of one torus table; the
    # table holds only the product of the per-axis unions of the windows'
    # reduced indices, and each of its cells has the bits of that cell in
    # the table of the whole torus
    spec = random_eigenfunction(325, TorusModel(2), 0)
    torus_level = scan._torus_level
    calls = []

    def spy(*args):
        calls.append((args, torus_level(*args)))
        return calls[-1][1]

    monkeypatch.setattr(scan, "_torus_level", spy)
    cube_doubling_index(spec, np.full(2, 0.5), 0.125)
    assert len(calls) == 1
    (objective, axes, count, rho), table = calls[0]
    assert table.shape[1] == len(axes[0]) * len(axes[1]) < count**2 // 3
    full = torus_level(objective, [np.arange(count)] * 2, count, rho)
    rows = np.add.outer(axes[0] * count, axes[1]).ravel()
    assert np.array_equal(full[:, rows], table)
