import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalscope import fields, scan, spectrum
from nodalscope.errors import BudgetError, EmbeddedBallError, ScaleRangeError
from nodalscope.fields import (
    DEFAULT_TOL,
    MassEvaluator,
    l2_on_ball,
    lifted_sup_on_ball,
    q_on_ball,
    sup_global,
    sup_on_annulus,
    sup_on_ball,
)
from nodalscope.geometry import TorusModel, ball_volume, generate_cover
from nodalscope.nodal import nyquist_resolution
from nodalscope.spectrum import (
    evaluate,
    evaluate_grid,
    random_eigenfunction,
    translate,
)

# Monte Carlo oracle, frozen before the build: 1e7 uniform samples of
# 2 sin^2(2 pi x) over the ball of radius 0.5 centered at (0.25, 0),
# seed 123456789; value +- 3 sigma.
MC_MASS = 0.7324894788587147
MC_3SIGMA = 0.000518


def test_nyquist_bound():
    assert nyquist_resolution(100) == 22
    assert nyquist_resolution(25) == 12


def test_sample_values_closed_form(t2, sin1):
    values = evaluate_grid(sin1, 8)
    assert values.shape == (8, 8)
    for j in range(8):
        assert values[0, j] == pytest.approx(0.0, abs=1e-15)
        assert values[2, j] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_sample_subgrid_bit_identical(rand25):
    coarse = evaluate_grid(rand25, 32)
    fine = evaluate_grid(rand25, 64)
    assert np.array_equal(coarse, fine[::2, ::2])


def test_sup_examples(sin1):
    assert sup_on_ball(sin1, (0.25, 0.25), 0.1) == pytest.approx(2.0, rel=1e-9)
    assert sup_on_ball(sin1, (0, 0), 0.125) == pytest.approx(1.0, rel=1e-9)
    assert sup_on_ball(sin1, (0, 0), 0.25) == pytest.approx(2.0, rel=1e-9)


def test_sup_on_annulus(sin1):
    # the annulus 0.04 <= d(y, (1/4, 1/4)) <= 0.08 meets the line x = 1/4
    # where psi^2 = 2
    assert sup_on_annulus(sin1, (0.25, 0.25), 0.04, 0.08) == pytest.approx(
        2.0, rel=1e-6
    )
    with pytest.raises(EmbeddedBallError):
        sup_on_annulus(sin1, (0, 0), 0.1, 0.6)
    # a band needs 0 <= lo < hi
    for lo, hi in ((0.2, 0.1), (-0.1, 0.2), (0.1, 0.1)):
        with pytest.raises(ScaleRangeError):
            sup_on_annulus(sin1, (0, 0), lo, hi)


def test_sup_monotone_in_radius(rand25):
    rng = np.random.default_rng(2)
    tol = 1e-3
    for _ in range(10):
        x = rng.random(2)
        s1, s2 = sorted(rng.uniform(0.02, 0.25, size=2))
        v1 = sup_on_ball(rand25, x, s1, tol)
        v2 = sup_on_ball(rand25, x, s2, tol)
        assert v1 <= v2 * (1 + tol)


def test_sup_tol_consistency(rand25):
    # tightening the tolerance moves the certified value by less than tol
    x = (0.37, 0.61)
    v3 = sup_on_ball(rand25, x, 0.1, 1e-3)
    v5 = sup_on_ball(rand25, x, 0.1, 1e-5)
    assert abs(v3 - v5) <= 1e-3 * v5


def test_sup_budget_guard(rand25):
    with pytest.raises(BudgetError):
        sup_on_ball(rand25, (0, 0), 0.1, 1e-12)


def test_l2_constant_field(t2):
    def const(points):
        return np.ones(len(points))

    mass = l2_on_ball(None, (0.3, 0.4), 0.1, tol=1e-6, field=const)
    assert mass == pytest.approx(math.pi * 0.01, rel=1e-6)


def test_l2_monte_carlo_oracle(sin1):
    mass = l2_on_ball(sin1, (0.25, 0.0), 0.5, tol=1e-3)
    assert abs(mass - MC_MASS) <= MC_3SIGMA + 1e-3 * MC_MASS
    exact = MassEvaluator(sin1).mass((0.25, 0.0), 0.5)
    assert abs(exact - MC_MASS) <= MC_3SIGMA


def test_l2_mass_below_norm(rand25):
    assert l2_on_ball(rand25, (0.2, 0.8), 0.5, tol=1e-3) <= 1 + 1e-3


def test_grid_vs_exact_cross_validation(rand25, rand100):
    rng = np.random.default_rng(3)
    for spec in (rand25, rand100):
        ev = MassEvaluator(spec)
        for _ in range(3):
            c = rng.random(2)
            r = rng.uniform(0.05, 0.3)
            grid = l2_on_ball(spec, c, r, tol=1e-3)
            exact = ev.mass(c, r)
            assert grid == pytest.approx(exact, rel=2e-3, abs=1e-6)


def test_exact_mass_dim3(t3):
    spec = random_eigenfunction(5, t3, 1)
    ev = MassEvaluator(spec)
    # Monte Carlo cross-check in 3-D
    rng = np.random.default_rng(12)
    r, c = 0.3, np.array([0.2, 0.5, 0.8])
    pts = rng.normal(size=(400_000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= r * rng.random(400_000)[:, None] ** (1 / 3)
    mc = float(np.mean(evaluate(spec, c + pts) ** 2)) * ball_volume(r, t3)
    assert ev.mass(c, r) == pytest.approx(mc, rel=2e-2)


def _per_frequency_masses(spec, centers, r):
    # sum over q = (+-k_l) + (+-k_l') of w_q(r) exp(2 pi i q . x), with w_q
    # the ball integral of exp(2 pi i q . y) times the product coefficient
    from scipy.special import j1

    k = np.vstack([spec.k, -spec.k]).astype(float)
    c = 0.5 * np.concatenate([spec.a - 1j * spec.b, spec.a + 1j * spec.b])
    freqs = (k[:, None, :] + k[None, :, :]).reshape(-1, k.shape[1])
    q = np.linalg.norm(freqs, axis=1)
    qs = np.where(q > 0, q, 1.0)
    z = 2 * math.pi * qs * r
    if k.shape[1] == 2:
        w = np.where(q > 0, r * j1(z) / qs, math.pi * r * r)
    else:
        ball = (np.sin(z) - z * np.cos(z)) / (2 * math.pi**2 * qs**3)
        w = np.where(q > 0, ball, 4 / 3 * math.pi * r**3)
    w = w * np.outer(c, c).ravel()
    return np.concatenate([
        np.real(np.exp(2j * math.pi * (block @ freqs.T)) @ w)
        for block in np.array_split(centers, max(1, len(centers) // 256))])


@pytest.mark.parametrize("dim,m,cover_r", [(2, 1105, 0.0625), (3, 50, 0.125)])
def test_mass_many_blocks_match_single_masses(dim, m, cover_r, monkeypatch):
    # a cover spanning several phase blocks gives each center's own mass
    # and the per-frequency sum's mass to 1e-12 relative; the covers of
    # certified benchmark members (largest: m = 1105 at r = 1/8) stay a
    # single block
    from nodalscope.geometry import generate_cover

    model = TorusModel(dim)
    spec = random_eigenfunction(m, model, 2)
    ev = MassEvaluator(spec)
    centers = generate_cover(cover_r, model).centers
    r = cover_r / 2
    whole = ev.mass_many(centers, r)
    monkeypatch.setattr(spectrum, "PHASE_BLOCK", 7 * spec.n_modes)
    blocked = ev.mass_many(centers, r)
    assert len(centers) > 10 * 7
    single = np.array([ev.mass(c, r) for c in centers])
    direct = _per_frequency_masses(spec, centers, r)
    for masses in (blocked, whole, direct):
        assert np.max(np.abs(masses - single) / single) <= 1e-12
    monkeypatch.undo()
    bench = random_eigenfunction(1105, TorusModel(2), 0)
    assert (len(generate_cover(0.0625, TorusModel(2)).centers)
            * bench.n_modes <= spectrum.PHASE_BLOCK)


def _pair_norms(m):
    """|k + k'| and |k - k'| over the canonical modes of |k|^2 = m on T^2,
    as MassEvaluator holds them (numpy lattice: m = 1185665 in milliseconds)."""
    x = np.arange(-math.isqrt(m), math.isqrt(m) + 1)
    y = np.sqrt(m - x * x).round().astype(int)
    x, y = x[y * y == m - x * x], y[y * y == m - x * x]
    k = np.unique(np.concatenate([np.stack((x, y), 1), np.stack((x, -y), 1)]),
                  axis=0)
    k = k[(k[:, 0] > 0) | ((k[:, 0] == 0) & (k[:, 1] > 0))]
    return np.linalg.norm(np.stack((k[:, None] + k, k[:, None] - k)), axis=-1)


def _kapteyn_log_bound(nu, z):
    """log of Kapteyn's bound exp(-nu (a - tanh a)) on |J_nu(z)|, z =
    nu sech a <= nu."""
    x = z / nu
    s = np.sqrt(1 - x * x)
    return nu * (np.log(x) + s - np.log1p(s))


def test_j1_node_rule_bound():
    # _j1_nodes is nondecreasing and Kapteyn's bound increases with z, so on
    # each step [k, k + 1)/0.275 of floor(0.275 z) the node count at the
    # left end and z at the right end bound the aliasing sum
    # sum_q |J_{2qn-1}(z)| + |J_{2qn+1}(z)| for every z of the step
    ends = np.arange(100_000) / 0.275
    n = np.array([fields._j1_nodes(z) for z in ends[:-1]])
    assert np.all(np.diff(n) >= 0) and np.all(n % 2 == 0) and n[0] == 30
    z = ends[1:]
    total = sum(np.exp(_kapteyn_log_bound(2 * q * n + sign, z))
                for q in (1, 2, 3) for sign in (-1, 1))
    assert np.max(total) < 2.0**-53


def test_bessel_j1_matches_scipy():
    from scipy.special import j1

    z = np.linspace(0.0, 7000.0, 20001)
    assert np.max(np.abs(fields._bessel_j1(z) - j1(z))) <= 1e-13
    for m in (1105, 32045, 1185665):
        q = _pair_norms(m)
        q = q[q > 0]
        for r in 2.0 ** -np.arange(1, 9):
            arg = 2 * math.pi * q * r
            assert np.max(np.abs(fields._bessel_j1(arg) - j1(arg))) <= 1e-13


def test_bessel_j1_repeats_and_blocks_keep_bits(monkeypatch):
    # the 2 x M x M pair norms of m = 32045 repeat each of 163 values; every
    # repeat gets the same bits, and so does any split into PHASE_BLOCK blocks
    q = _pair_norms(32045)
    z = 2 * math.pi * q * 0.25
    whole = fields._bessel_j1(z)
    assert whole.shape == z.shape
    for value in np.unique(z):
        assert len(set(whole[z == value].tolist())) == 1
    for block in (1, 3 * fields._j1_nodes(z.max()) + 1):
        monkeypatch.setattr(spectrum, "PHASE_BLOCK", block)
        assert np.array_equal(fields._bessel_j1(z), whole)


_TRANSLATED = {dim: random_eigenfunction(m, TorusModel(dim), 0)
               for dim, m in ((2, 1105), (3, 50))}
unit = st.floats(min_value=0.0, max_value=1.0)


@given(st.sampled_from([2, 3]), st.lists(unit, min_size=6, max_size=6),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mass_translation_invariance(dim, coords, r):
    # translate(spec, tau) is x -> psi(x - tau): its ball masses at x + tau
    # are the spec's at x, to rounding on the density mass / |B_r|
    spec = _TRANSLATED[dim]
    x, tau = np.array(coords[:dim]), np.array(coords[3:3 + dim])
    moved = MassEvaluator(translate(spec, tau)).mass(x + tau, r)
    vol = ball_volume(r, spec.model)
    assert abs(moved - MassEvaluator(spec).mass(x, r)) <= 1e-12 * vol


@given(st.sampled_from([2, 3]), st.lists(st.integers(0, 7), min_size=6,
                                         max_size=6))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_sup_translation_invariance(dim, steps):
    # tau on the grid (1/8)Z^n: certified ball sups agree within tol
    spec = _TRANSLATED[dim]
    x = np.full(dim, 0.3)
    tau = np.array(steps[:dim]) / 8
    tol = 1e-3
    moved = sup_on_ball(translate(spec, tau), x + tau, 0.05, tol)
    assert moved == pytest.approx(sup_on_ball(spec, x, 0.05, tol), rel=tol)


BALL_SUPS = {"psi2": sup_on_ball, "q": q_on_ball,
             "lifted": lifted_sup_on_ball}
# every entry point of geometry.embedded_radius, called as (spec, center, s)
BALL_MEASURES = {
    **BALL_SUPS,
    "l2": l2_on_ball,
    "mass_many": lambda spec, center, s: MassEvaluator(spec).mass_many(
        np.atleast_2d(center), s),
    "ball_volume": lambda spec, center, s: ball_volume(s, spec.model),
}


@pytest.mark.parametrize("name", sorted(BALL_MEASURES))
@pytest.mark.parametrize("s", [0.0, -0.1, 0.6])
def test_sup_radius_guard(rand25, name, s):
    # every ball measurement refuses a radius the unit torus does not embed
    with pytest.raises(EmbeddedBallError):
        BALL_MEASURES[name](rand25, (0, 0), s)


@pytest.mark.parametrize("name", sorted(BALL_SUPS))
def test_per_center_radius_guard(rand25, name):
    # with one radius per center each radius is checked, the error naming
    # the first bad one, and the radii must match the centers one to one
    centers = np.array([[0.1, 0.2], [0.5, 0.5], [0.7, 0.3]])
    with pytest.raises(EmbeddedBallError, match="radius 0.6 "):
        BALL_SUPS[name](rand25, centers, np.array([0.1, 0.6, 0.2]))
    with pytest.raises(ValueError, match="2 radii for 3 centers"):
        BALL_SUPS[name](rand25, centers, np.array([0.1, 0.2]))


# (dim, m, s, sup): small balls on T^2 and T^3 for every ball sup, and
# balls of radius 0.3 whose eight windows (about 15k cells each) hold more
# cells than the torus's first level (40k), so that a batch reads its first
# level from the torus table while a single call evaluates its own cells
BATCH_CASES = ([(*case, name) for case in ((2, 1105, 0.02), (3, 50, 0.03))
                for name in sorted(BALL_SUPS)]
               + [(2, 1105, 0.3, "psi2"), (2, 1105, 0.3, "lifted")])


@pytest.mark.parametrize("dim,m,s,name", BATCH_CASES)
def test_batch_sups_equal_single_calls(name, dim, m, s, monkeypatch):
    # a ball's sup does not depend on the balls that share its lockstep
    # scan: a cover scanned whole, shuffled and split in two, and in
    # first-level groups of one or two balls (levels and the torus table
    # built in several chunks) gives every ball its own single-center value
    # bit for bit, whichever route evaluated its first level (index rows of
    # its window, or a box read from the torus table); the groups of one
    # scan share a single polish
    sup = BALL_SUPS[name]
    spec = random_eigenfunction(m, TorusModel(dim), 4)
    centers = generate_cover(0.25, spec.model).centers[:8]
    calls = {"pattern_search": 0, "_window_cells": 0, "_torus_level": 0,
             "boxes": 0}

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args):
            calls[attr] += 1
            return inner(*args)
        return wrapper

    for fn in calls:
        owner = scan._Search if fn == "boxes" else scan
        monkeypatch.setattr(owner, fn, counted(owner, fn))
    single = np.array([sup(spec, c, s, 1e-2) for c in centers])
    assert calls["_torus_level"] == calls["boxes"] == 0
    assert np.array_equal(sup(spec, centers, s, 1e-2), single)
    shared = int(s == 0.3)
    assert calls["_torus_level"] == shared
    order = np.random.default_rng(dim).permutation(len(centers))
    parts = np.split(centers[order], [3])
    assert np.array_equal(
        np.concatenate([sup(spec, part, s, 1e-2) for part in parts]),
        single[order])
    assert calls["_torus_level"] == 3 * shared
    obj = scan.SpectralObjective(spec, centers[0], 0.0, 1.0)
    domain = scan.RadialDomain(0.0, s)
    count = int(scan._first_counts(obj, domain)[0])
    size = int(domain.window(obj.centers, count)[1][0])
    # two windows' children per group: four groups of two balls
    monkeypatch.setattr(spectrum, "PHASE_BLOCK", 2 * size**dim * 2**dim)
    for fn in calls:
        calls[fn] = 0
    assert np.array_equal(sup(spec, centers, s, 1e-2), single)
    groups = calls["boxes"] if shared else calls["_window_cells"]
    assert calls["pattern_search"] == 1 and groups >= 4
    assert calls["_torus_level"] == shared


# (dim, m, radii, blocks): radii on both sides of 2 h0, below which a
# ball's first level is finer than ceil(1/h0) cells per axis, and
# PHASE_BLOCK values small enough that, over the runs, first levels run in
# several groups, the survivors of several groups descend as one pool, and
# levels split at ball boundaries
MIXED_CASES = [(2, 1105, (0.004, 0.02, 0.03), (64, 1024)),
               (3, 50, (0.03, 0.08), (4096, 8192))]


@pytest.mark.parametrize("name", sorted(BALL_SUPS))
@pytest.mark.parametrize("dim,m,radii,blocks", MIXED_CASES)
def test_mixed_radius_batches_equal_single_calls(name, dim, m, radii, blocks,
                                                 monkeypatch):
    # one scan of centers x radii gives every ball its own single-center
    # value bit for bit: whole, shuffled and split in two, and under small
    # PHASE_BLOCKs, where groups, pools and depth-first splits all occur
    sup = BALL_SUPS[name]
    spec = random_eigenfunction(m, TorusModel(dim), 4)
    # seven cover centers: with six, no lifted descent on T^2 grows past
    # its pool, so no PHASE_BLOCK splits a level
    centers = np.tile(generate_cover(0.25, spec.model).centers[:7],
                      (len(radii), 1))
    s = np.repeat(radii, 7)
    single = np.array([sup(spec, c, r, 1e-2) for c, r in zip(centers, s)])
    seen = {"levels": set(), "groups": 0, "pools": 0, "splits": 0}
    window_cells, merge, split = scan._window_cells, scan._merge, scan._split
    boxes = scan._Search.boxes

    # a first-level group is read by either route
    def counted_window(balls, lows, sizes, count, rho):
        seen["levels"].add(count)
        seen["groups"] += 1
        return window_cells(balls, lows, sizes, count, rho)

    def counted_boxes(search, table, balls, lows, sizes, count, rho):
        seen["levels"].add(count)
        seen["groups"] += 1
        return boxes(search, table, balls, lows, sizes, count, rho)

    def counted_merge(parts):
        seen["pools"] += len(parts) > 1
        return merge(parts)

    def counted_split(cells):
        parts = split(cells)
        seen["splits"] += len(parts) > 1
        return parts

    monkeypatch.setattr(scan, "_window_cells", counted_window)
    monkeypatch.setattr(scan._Search, "boxes", counted_boxes)
    monkeypatch.setattr(scan, "_merge", counted_merge)
    monkeypatch.setattr(scan, "_split", counted_split)
    assert np.array_equal(sup(spec, centers, s, 1e-2), single)
    assert len(seen["levels"]) == 2
    order = np.random.default_rng(dim).permutation(len(s))
    parts = np.split(order, [len(s) // 3])
    assert np.array_equal(
        np.concatenate([sup(spec, centers[p], s[p], 1e-2) for p in parts]),
        single[order])
    seen.update(groups=0, pools=0, splits=0)
    for block in blocks:
        monkeypatch.setattr(spectrum, "PHASE_BLOCK", block)
        assert np.array_equal(sup(spec, centers, s, 1e-2), single)
    assert seen["groups"] > 2 * len(blocks)
    assert seen["pools"] and seen["splits"]


# (dim, m, sup, radii): windows of two sizes on one first level, which a
# batch of balls alternating between the radii holds more cells of than
# the level, so that the batch reads it as boxes of the torus table while
# a single call evaluates its own cells
BOX_CASES = [(2, 1105, "psi2", (0.3, 0.25)), (2, 1105, "lifted", (0.25, 0.2)),
             (3, 50, "psi2", (0.3, 0.25)), (3, 50, "lifted", (0.25, 0.2))]


@pytest.mark.parametrize("dim,m,name,radii", BOX_CASES)
def test_box_reads_with_mixed_window_sizes(dim, m, name, radii, monkeypatch):
    # first-level groups whose balls alternate window sizes read their boxes
    # run by run, in ball order: whole, shuffled and split in two, every
    # ball gets its own single-center value bit for bit
    sup = BALL_SUPS[name]
    spec = random_eigenfunction(m, TorusModel(dim), 4)
    centers = np.repeat(generate_cover(0.25, spec.model).centers[:4], 2,
                        axis=0)
    s = np.tile(radii, 4)
    single = np.array([sup(spec, c, r, 1e-2) for c, r in zip(centers, s)])
    obj = scan.SpectralObjective(spec, centers, 0.0, 1.0)
    domain = scan.RadialDomain(0.0, s)
    counts = scan._first_counts(obj, domain)
    assert len(np.unique(counts)) == 1
    sizes = domain.window(obj.centers, int(counts[0]), np.arange(len(s)))[1]
    assert len(np.unique(sizes)) == 2
    mixed, boxes = [], scan._Search.boxes

    def spy(search, table, balls, lows, sizes, count, rho):
        mixed.append(len(np.unique(sizes)) > 1)
        return boxes(search, table, balls, lows, sizes, count, rho)

    monkeypatch.setattr(scan._Search, "boxes", spy)
    # four windows' children per group: two of each size
    monkeypatch.setattr(spectrum, "PHASE_BLOCK",
                        int(np.sum(sizes[:4]**dim)) << dim)
    assert np.array_equal(sup(spec, centers, s, 1e-2), single)
    order = np.random.default_rng(dim).permutation(len(s))
    parts = np.split(order, [3])
    assert np.array_equal(
        np.concatenate([sup(spec, centers[p], s[p], 1e-2) for p in parts]),
        single[order])
    assert any(mixed)


def test_boundary_maxima_in_a_batch(sin1):
    # 2 sin^2(2 pi x) over B_s(c) is 2 where [c_x - s, c_x + s] holds a
    # crest x = 1/4 + k/2, else the larger endpoint value: most of these
    # balls take their max on the sphere, where the polish must reach it
    # from the best cell near it
    centers = np.array([[0.02, 0.3], [0.33, 0.81], [0.47, 0.5],
                        [0.61, 0.07], [0.9, 0.66]])
    for s in (1 / 8, 1 / 16, 0.03):
        lo, hi = centers[:, 0] - s, centers[:, 0] + s
        crest = np.floor(2 * hi - 0.5) >= np.ceil(2 * lo - 0.5)
        ends = 2 * np.maximum(np.sin(2 * np.pi * lo)**2,
                              np.sin(2 * np.pi * hi)**2)
        exact = np.where(crest, 2.0, ends)
        assert np.count_nonzero(~crest) >= 3
        got = sup_on_ball(sin1, centers, s, 1e-3)
        assert np.max(np.abs(got / exact - 1)) <= 1e-9


def test_batch_budget_error_names_the_ball(rand100, monkeypatch):
    # in a batch, the ball that runs out of NODE_BUDGET is named by its
    # center and radius, its own when every ball has one
    centers = np.array([[0.2, 0.4], [0.65, 0.15], [0.9, 0.55]])
    for s in (0.1, np.array([0.05, 0.2, 0.03])):
        radii = np.broadcast_to(s, len(centers))
        nodes = [scan.certified_max(
            scan.SpectralObjective(rand100, c, 0.0, 1.0),
            scan.RadialDomain(0.0, r), 1e-6).nodes
            for c, r in zip(centers, radii)]
        heavy = int(np.argmax(nodes))
        monkeypatch.setattr(scan, "NODE_BUDGET", sorted(nodes)[1])
        with pytest.raises(BudgetError) as err:
            sup_on_ball(rand100, centers, s, 1e-6)
        monkeypatch.undo()
        name = "center ({:g}, {:g})".format(*centers[heavy])
        assert name in str(err.value)
        assert f"radius {radii[heavy]:g} " in str(err.value)


def test_partition_mass_sums_to_norm(rand100):
    from nodalscope.spectrum import evaluate_grid

    vals = evaluate_grid(rand100, 512)
    assert abs((vals**2).mean() - 1.0) < 1e-10


def test_mean_below_max(rand25):
    rng = np.random.default_rng(4)
    ev = MassEvaluator(rand25)
    for _ in range(5):
        c = rng.random(2)
        r = rng.uniform(0.05, 0.4)
        sup_sq = sup_on_ball(rand25, c, r)
        mass = ev.mass(c, r)
        vol = ball_volume(r, rand25.model)
        assert sup_sq * vol >= mass * (1 - 1e-6)
        assert 0 <= mass <= 1 + 1e-9


def test_l2_disjoint_additivity():
    # disjoint balls: masses add to the union integral (constant field)
    def const(points):
        return np.ones(len(points))

    m1 = l2_on_ball(None, (0.2, 0.2), 0.1, tol=1e-5, field=const)
    m2 = l2_on_ball(None, (0.7, 0.7), 0.15, tol=1e-5, field=const)
    union = math.pi * (0.1**2 + 0.15**2)
    assert m1 + m2 == pytest.approx(union, rel=1e-5)


def test_l2_refinement_convergence(rand25):
    # tightening tol (finer grid) moves the value by less than tol
    val3 = l2_on_ball(rand25, (0.3, 0.6), 0.2, tol=1e-3)
    val4 = l2_on_ball(rand25, (0.3, 0.6), 0.2, tol=2.5e-4)
    assert abs(val3 - val4) < 1e-3 * val4


def test_q_examples(sin1):
    assert q_on_ball(sin1, (0, 0), 0.5) == pytest.approx(
        8 * math.pi**2, rel=1e-6
    )
    expected = 4 * math.pi**2 * (1 + math.cos(0.4 * math.pi) ** 2)
    assert q_on_ball(sin1, (0.25, 0), 0.05) == pytest.approx(
        expected, rel=1e-6
    )


def test_q_dominates_amplitude_pointwise(rand25):
    from nodalscope.scan import SpectralObjective

    rng = np.random.default_rng(5)
    obj = SpectralObjective(rand25, np.zeros(2), 1.0, 0.5 * rand25.lam)
    pts = rng.random((500, 2))
    q = obj.values(pts, 0)
    psi = np.atleast_1d(evaluate(rand25, pts))
    assert np.all(q >= 0.5 * rand25.lam * psi**2 - 1e-12)


def test_sup_global_single_mode(sin1):
    assert sup_global(sin1) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("dim,m,N", [(3, 50, 64), (2, 32045, 1024)])
def test_sup_global_completes_torus_wide(dim, m, N):
    # torus-wide scans at the default tol finish within NODE_BUDGET: at
    # least the largest psi^2 on a dense grid (less tol), at most ||c||_1^2
    spec = random_eigenfunction(m, TorusModel(dim), 0)
    value = sup_global(spec)
    dense = float(np.max(evaluate_grid(spec, N) ** 2))
    assert dense / (1 + DEFAULT_TOL) <= value <= spec.coeff_l1() ** 2
