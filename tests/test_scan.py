import math

import numpy as np
import pytest

from nodalscope import scan
from nodalscope.doubling import default_scale_sweep
from nodalscope.errors import BudgetError
from nodalscope.fields import DEFAULT_TOL
from nodalscope.geometry import TorusModel, member_cover
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
    """obj's cell values and bounds over the cells (coords, inv, offsets)
    around center, as certified_max makes them: cell_bounds from the cells'
    phases, then the ball's factor at the offsets' norms."""
    coords, inv, offsets = cells
    vals, ubs = obj.cell_bounds(_lattice_phases(obj.spec, center, coords,
                                                inv), rho)
    return obj.ball_bounds(vals, ubs, np.linalg.norm(offsets, axis=-1), rho)


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

    vals, ubs = _bounds(obj, center, cells, 1e-3)
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


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("dim,m", [(2, 1105), (3, 50)])
def test_cell_bound_dominates_samples(name, dim, m):
    # each cell's upper bound is at least the objective's largest value on
    # dense samples inside the cell: on random waves, at half the Nyquist
    # spacing and at the first level's spacing 1/N, the largest cells a scan
    # bounds; and on the diagonal single mode with cells centered on zeros
    # of psi (index sum 0) and of |grad psi| (index sum 100 at spacing
    # 1/400, where k.x = 1/4), where the slope vanishes and the higher-order
    # terms alone must cover the cell
    make = OBJECTIVES[name][0]
    rng = np.random.default_rng(dim + 3)
    wave = random_eigenfunction(m, TorusModel(dim), 11)
    spacing = 0.5 / (2 * math.pi * math.sqrt(m))
    cases = [(wave, rng.random(dim), _lattice(rng, dim, spacing, -0.05),
              spacing)]
    free = rng.integers(-30, 30, size=(60, dim - 1))
    idx = np.concatenate([
        np.hstack([free, -free.sum(axis=1, keepdims=True)]),
        np.hstack([free, 100 - free.sum(axis=1, keepdims=True)]),
    ])
    cases.append((_on_diagonal_mode(dim), np.zeros(dim),
                  _cells(idx, 1 / 400, -0.5 / 400), 1 / 400))
    first = 1.0 / math.ceil(1.0 / make(wave, np.zeros(dim)).h0)
    cases.append((wave, rng.random(dim), _lattice(rng, dim, first, -0.05),
                   first))
    for spec, center, cells, h in cases:
        obj = make(spec, center)
        offsets = cells[2]
        rho = h * math.sqrt(dim) / 2
        vals, ubs = _bounds(obj, center, cells, rho)
        samples = _cell_samples(h, dim)
        pts = (offsets[:, None, :] + samples[None, :, :]).reshape(-1, dim)
        dense = obj.values(pts, 0).reshape(len(offsets), -1).max(axis=1)
        assert np.all(ubs >= dense)
        assert np.all(dense >= vals - 1e-12 * np.max(np.abs(vals)))


def test_project_batch():
    dom = RadialDomain(0.1, 0.2)
    d = np.array([[0.0, 0.0], [0.3, 0.4], [0.05, 0.0], [0.12, 0.05]])
    out = dom.project(d)
    assert np.allclose(out, [[0.1, 0.0], [0.12, 0.16], [0.1, 0.0],
                             [0.12, 0.05]], rtol=0, atol=1e-15)
    assert np.array_equal(out[3], d[3])
    ball = RadialDomain(0.0, 0.2)
    assert np.array_equal(ball.project(np.zeros((1, 2))), np.zeros((1, 2)))


def test_each_distinct_cell_evaluated_once(monkeypatch):
    # an m = 1105 doubling sweep, as scan_doubling runs it: every level's
    # rows are evaluated once per distinct (level, reduced index) cell, so
    # overlapping windows and the cells that balls share cost one row each;
    # the node count, counted per ball, is the one the sweep took when each
    # row was evaluated on its own
    spec = random_eigenfunction(1105, TorusModel(2), 0)
    centers = member_cover(0.25, spec.model).centers
    radii = sorted({s for d in default_scale_sweep(spec.lam, 0.25)
                    for s in (d, 2.0 * d)})
    obj = SpectralObjective(spec, np.tile(centers, (len(radii), 1)), 0.0, 1.0)
    domain = RadialDomain(0.0, np.repeat(radii, len(centers)))
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
    assert len(held) > 10
    assert sum(evaluated) <= 0.6 * sum(held)
    assert result.nodes == 813_030
