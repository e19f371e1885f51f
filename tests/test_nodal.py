import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalscope import nodal, spectrum
from nodalscope.certify import SCHEMA_VERSION
from nodalscope.cli import main
from nodalscope.errors import ResolutionError, ScaleRangeError
from nodalscope.geometry import (
    TorusModel,
    generate_cover,
    min_image,
    wrap_point,
)
from nodalscope.nodal import (
    RESIDUAL_TOL,
    ZERO_TOL,
    SingularPoint,
    count_singular_in_balls,
    extract_nodal,
    find_singular_points,
    vanishing_order,
)
from nodalscope.spectrum import (
    axis_phases,
    enumerate_lattice,
    evaluate_grid,
    lattice_phases,
    mode_spec,
    mode_sum,
    mode_weights,
    point_phases,
    random_eigenfunction,
    translate,
)


def _translated_product(k, l, tau):
    """2 sin(2 pi k x) sin(2 pi l y) moved by tau."""
    base = mode_spec([((k, -l), 1.0, 0.0), ((k, l), -1.0, 0.0)],
                     TorusModel(2))
    return translate(base, tau)


def _odd_m25():
    """Sine-only m = 25 mode with sum_j b_j k_j = 0: psi is odd with zero
    gradient at the origin, and psi(x + (1/2, 1/2)) = -psi(x) since every k
    has k1 + k2 odd, so (0, 0) and (1/2, 1/2) are zeros of order 3."""
    k = np.array(enumerate_lattice(25, 2), dtype=float)
    b = np.random.default_rng(0).standard_normal(len(k))
    b -= k @ np.linalg.solve(k.T @ k, k.T @ b)
    b /= math.sqrt(0.5 * float(b @ b))
    return mode_spec([(tuple(int(c) for c in kk), 0.0, float(bb))
                      for kk, bb in zip(k, b)], TorusModel(2))


def _even_m25():
    """Cosine-only m = 25 mode with sum_j a_j = 0 and sum_j a_j k_j k_j^T = 0:
    psi is even, so its odd derivatives vanish at the origin, and psi and
    its Hessian vanish there too, a zero of order 4."""
    k = np.array(enumerate_lattice(25, 2), dtype=float)
    # sum a k_2^2 = 25 sum a - sum a k_1^2 needs no row of its own
    rows = np.stack([np.ones(len(k)), k[:, 0] ** 2, k[:, 0] * k[:, 1]])
    a = np.random.default_rng(0).standard_normal(len(k))
    a -= rows.T @ np.linalg.solve(rows @ rows.T, rows @ a)
    a /= math.sqrt(0.5 * float(a @ a))
    return mode_spec([(tuple(int(c) for c in kk), float(aa), 0.0)
                      for kk, aa in zip(k, a)], TorusModel(2))


def _sin_cube():
    """sqrt(8) sin(2 pi x) sin(2 pi y) sin(2 pi z) on T^3, as its four
    |k|^2 = 3 modes: a zero of order 3 at the origin."""
    return mode_spec([((1, -1, -1), 0.0, -0.5 ** 0.5),
                      ((1, -1, 1), 0.0, 0.5 ** 0.5),
                      ((1, 1, -1), 0.0, 0.5 ** 0.5),
                      ((1, 1, 1), 0.0, -0.5 ** 0.5)], TorusModel(3))


def _deepest_even_zero(m, dim):
    """Cosine-only mode at m with D^j psi(0) = 0 for every j below the
    largest possible order, and that order.

    With b = 0, psi is even and its odd derivatives vanish at the origin;
    its even ones vanish when (K K^T)^(entrywise j) a = 0. Stacking these
    Gram powers (scaled by m^-j) for even j = 0, 2, ... until their common
    null space is empty, a in the last nonempty one gives a zero of order
    J, the first even j not stacked.
    """
    k = np.array(enumerate_lattice(m, dim), dtype=float)
    cosines = k @ k.T / m
    rows, gram = [np.ones_like(cosines)], cosines * cosines
    space = scipy.linalg.null_space(rows[0])
    while True:
        deeper = scipy.linalg.null_space(np.vstack(rows + [gram]))
        if deeper.shape[1] == 0:
            break
        rows.append(gram)
        space, gram = deeper, gram * cosines * cosines
    a = space[:, 0] / math.sqrt(0.5 * float(space[:, 0] @ space[:, 0]))
    spec = mode_spec([(tuple(int(c) for c in kk), float(aa), 0.0)
                      for kk, aa in zip(k, a)], TorusModel(dim))
    return spec, 2 * len(rows)


def _stitch_reference(segments, edge_ids):
    """Segment-by-segment walk over the endpoint partners: chains start at
    the lowest unused segment and run from its first endpoint."""
    order = np.argsort(edge_ids, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]] = order[1::2]
    partner[order[1::2]] = order[0::2]
    partner = partner.tolist()
    points = np.mod(segments.reshape(-1, 2), 1.0)
    used = bytearray(len(segments))
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = 1
        path = [2 * start]
        tip = 2 * start + 1
        while True:
            path.append(tip)
            nxt = partner[tip]
            if used[nxt >> 1]:
                break
            used[nxt >> 1] = 1
            tip = nxt ^ 1
        chains.append(points[path])
    return chains


def test_single_mode_two_circles(sin1):
    ns = extract_nodal(sin1, 512)
    assert ns.length == pytest.approx(2.0, rel=1e-3)
    assert len(ns.polylines) == 2
    # the circles are the lines x = 0 and x = 1/2
    for chain in ns.polylines:
        xs = chain[:, 0]
        assert np.allclose(xs, xs[0], atol=1e-9)
        assert min(abs(xs[0] - 0.0), abs(xs[0] - 0.5), abs(xs[0] - 1.0)) < 1e-9


def test_product_mode_grid_lines(product_spec):
    # crossing cells truncate ~(2-sqrt2)h per adjacent cell; 0.1% needs
    # N >= ~1200 (see the convergence test below for the documented rate)
    ns = extract_nodal(product_spec, 2048)
    assert ns.length == pytest.approx(4.0, rel=1e-3)


def test_resolution_guard(rand25):
    with pytest.raises(ResolutionError):
        extract_nodal(rand25, 32)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_sin_family_lengths(sin_k, k):
    ns = extract_nodal(sin_k(k), 512)
    assert ns.length == pytest.approx(2.0 * k, rel=1e-3)


def test_length_eigenvalue_ratio_sin_family(sin_k):
    for k in (1, 4, 16):
        spec = sin_k(k)
        ns = extract_nodal(spec, 1024)
        assert ns.length / math.sqrt(spec.lam) == pytest.approx(
            1 / math.pi, rel=0.01
        )


def test_random_length_self_convergence(rand25):
    coarse = extract_nodal(rand25, 512).length
    fine = extract_nodal(rand25, 1024).length
    assert abs(fine - coarse) / fine < 5e-3


def test_on_node_zeros_nudged_alike():
    # psi vanishes on whole grid lines, where the grid sum leaves rounding
    # noise of either sign (6112 nodes, none exactly 0); nudged to +, each
    # of the 16 negative cells of the 8 x 4 pattern is one closed polyline
    ns = extract_nodal(_translated_product(4, 2, (3 / 512, 5 / 512)), 512)
    assert len(ns.polylines) == 16


KAC_RICE = 1.0 / (2.0 * math.sqrt(2.0))  # E[length] / sqrt(lambda)


@pytest.mark.parametrize("m", [325, 1105])
def test_kac_rice_mean_length(t2, m):
    # Gaussian arithmetic random waves have E[length] = sqrt(lambda)/(2 sqrt 2)
    # for every m (Rudnick-Wigman 2008). Seeds 0-15 at N = 1024, fixed up
    # front. The gate is 4 sample standard errors plus marching squares'
    # second-order error, a relative (h sqrt(lambda))^2 with h = 1/N: chords
    # cut arcs of curvature ~sqrt(lambda) by (kappa l)^2 / 24, l <= sqrt(2) h,
    # and interpolated edge points move by ~h^2 |psi''| / (8 |grad psi|).
    # The variance depends on the angular spread of the lattice points
    # (Krishnapur-Kurlberg-Wigman 2013), so it is printed, not gated.
    N = 1024
    specs = [random_eigenfunction(m, t2, seed) for seed in range(16)]
    ratios = np.array([extract_nodal(spec, N).length for spec in specs])
    ratios /= math.sqrt(specs[0].lam)
    n, mean, s = len(ratios), float(ratios.mean()), float(ratios.std(ddof=1))
    allowance = (2 * math.pi * math.sqrt(m) / N) ** 2 * KAC_RICE
    print(f"Kac-Rice m={m}: mean length/sqrt(lambda) {mean:.6f} vs "
          f"{KAC_RICE:.6f}, sample variance {s * s:.3e} (n={n}, observed)")
    assert abs(mean - KAC_RICE) <= 4 * s / math.sqrt(n) + allowance


# random waves, and a product mode whose zero lines run through grid nodes
_GRID_SHIFTED = {
    "wave325": (random_eigenfunction(325, TorusModel(2), 0), 256),
    "wave1105": (random_eigenfunction(1105, TorusModel(2), 5), 512),
    "product42": (_translated_product(4, 2, (3 / 512, 5 / 512)), 512),
}


@given(st.sampled_from(sorted(_GRID_SHIFTED)), st.integers(0, 511),
       st.integers(0, 511))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_nodal_translation_on_grid(spec_id, i, j):
    # tau = (i, j) / N, a grid shift up to a period, permutes the grid
    # values: the same segments and polylines, and the length to rounding
    # (worst measured 5.8e-16 relative)
    spec, N = _GRID_SHIFTED[spec_id]
    ref = extract_nodal(spec, N)
    moved = extract_nodal(translate(spec, np.array([i, j]) / N), N)
    assert len(moved.segments) == len(ref.segments)
    assert len(moved.polylines) == len(ref.polylines)
    assert moved.length == pytest.approx(ref.length, rel=1e-12, abs=0)


@pytest.mark.parametrize("spec_id", ["wave325", "wave1105", "wave5525",
                                     "product_4_2"])
def test_stitch_matches_reference_walk(monkeypatch, spec_id):
    # the ruling-set chain ranking gives the loop walker's chains: same
    # count, same order, same vertices bit for bit
    spec, N = {
        "wave325": (random_eigenfunction(325, TorusModel(2), 0), 256),
        "wave1105": (random_eigenfunction(1105, TorusModel(2), 5), 512),
        "wave5525": (random_eigenfunction(5525, TorusModel(2), 2), 1024),
        "product_4_2": (_translated_product(4, 2, (3 / 512, 5 / 512)), 512),
    }[spec_id]
    seen = []
    stitch = nodal._stitch

    def spy(segments, edge_ids):
        seen.append((segments, edge_ids.copy()))
        return stitch(segments, edge_ids)

    monkeypatch.setattr(nodal, "_stitch", spy)
    chains = extract_nodal(spec, N).polylines
    ref = _stitch_reference(*seen[0])
    assert len(chains) == len(ref)
    for got, want in zip(chains, ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_stitch_empty():
    no_segments = np.empty((0, 4))
    no_ids = np.empty(0, dtype=np.int32)
    assert nodal._stitch(no_segments, no_ids) == []
    assert _stitch_reference(no_segments, no_ids) == []


def _traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_extract_memory_peak(t2):
    # the grid (8.4 MB), int32 index temporaries released once read, and
    # the result (4.6 MB); int64 temporaries held into the stitch read
    # 53 MB
    peak = _traced_peak_mb(extract_nodal, random_eigenfunction(1105, t2, 5),
                           1024)
    assert peak < 25.0
    # m = 5525, 212,468 segments: the peak is the grid beside both endpoint
    # values, int32 (S, 2) node coordinates and uint8 axes (20.996 MB; three
    # fancy-index gathers with int8 edge offsets read 24.40 MB)
    peak = _traced_peak_mb(extract_nodal, random_eigenfunction(5525, t2, 2),
                           1024)
    assert peak < 21.0


def test_singular_memory_peak(t2):
    # the gradient grid (16.8 MB) and the gate's masks set the peak, the psi
    # grid (8.4 MB) released before them; Newton runs once both are gone,
    # in blocks of spectrum.PHASE_BLOCK starts x modes (about 4.7 MB)
    peak = _traced_peak_mb(find_singular_points,
                           random_eigenfunction(5525, t2, 7), 1024)
    assert peak < 24.0


@pytest.mark.parametrize("m,N", [(325, 256), (1105, 1024), (5525, 1024)])
def test_random_wave_nodes_above_zero_tol(t2, m, N):
    # the smallest |psi| on these grids is >= 2e-8 ||c||_1, six orders
    # above the rounding-level threshold: the nudge leaves waves alone
    for seed in range(3):
        spec = random_eigenfunction(m, t2, seed)
        vals = evaluate_grid(spec, N)
        assert np.abs(vals).min() > ZERO_TOL * spec.coeff_l1()


def test_product_singular_points(product_spec):
    pts = find_singular_points(product_spec, 512)
    assert len(pts) == 4
    expected = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
    for p in pts:
        assert p.residual < 1e-8
        assert p.vanishing_order == 2
        assert any(
            np.linalg.norm(min_image(p.location - np.array(e))) < 1e-9
            for e in expected
        )


def test_single_mode_no_singulars(sin1):
    assert find_singular_points(sin1, 512) == []


def test_singular_resolution_stability(product_spec):
    a = find_singular_points(product_spec, 512)
    b = find_singular_points(product_spec, 1024)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.linalg.norm(min_image(pa.location - pb.location)) < 1e-6


@pytest.mark.parametrize("k, l", [(3, 4), (4, 2)])
def test_singular_order_stable_under_ulp_moves(k, l):
    # the crossings sit on shared grid lines (on grid nodes for (4, 2)),
    # so sorting by float location would order them by rounding noise
    N = 512
    tau = np.array([3.0, 5.0]) / N
    runs = [find_singular_points(_translated_product(k, l, tau + eps), N)
            for eps in (0.0, 1e-15, -1e-15)]
    assert len(runs[0]) == 4 * k * l
    for pts in runs[1:]:
        assert len(pts) == len(runs[0])
        for p, q in zip(runs[0], pts):
            assert np.linalg.norm(min_image(p.location - q.location)) < 1e-9


def _sin1():
    return mode_spec([((1, 0), 0.0, math.sqrt(2))], TorusModel(2))


def _product():
    return mode_spec([((1, -1), 1.0, 0.0), ((1, 1), -1.0, 0.0)],
                     TorusModel(2))


# (id, spec, a zero, its order)
_ZEROS = [
    ("sin1", _sin1, (0.0, 0.31), 1),
    ("product", _product, (0.0, 0.0), 2),
    ("odd25", _odd_m25, (0.0, 0.0), 3),
    ("even25", _even_m25, (0.0, 0.0), 4),
    ("sincube", _sin_cube, (0.0, 0.0, 0.0), 3),
]


@pytest.mark.parametrize("make, x, order", [
    pytest.param(_sin1, (0.25, 0.1), 0, id="nonzero"),
    *(pytest.param(make, x, order, id=name)
      for name, make, x, order in _ZEROS),
    # 1e-7 off the zero on every axis, each lower-order tensor stays below
    # ORDER_TOL of its bound
    *(pytest.param(make, np.add(x, 1e-7), order, id=f"{name}-offset")
      for name, make, x, order in _ZEROS),
])
def test_vanishing_orders(make, x, order):
    assert vanishing_order(make(), x) == order


@pytest.mark.parametrize("m,dim,order", [(1105, 2, 16), (5525, 2, 24),
                                         (50, 3, 10), (101, 3, 14)])
def test_high_vanishing_orders(monkeypatch, m, dim, order):
    # designed zeros far above the orders of random members, at the origin
    # and moved off it; the Gram form's rounding (measured below
    # 6e-9 ||c||_1) stays a decade under the threshold, so a ten times
    # smaller ORDER_TOL reads the same orders
    spec, designed = _deepest_even_zero(m, dim)
    assert designed == order
    tau = np.full(dim, 0.3141)
    moved = translate(spec, tau)
    for tol in (nodal.ORDER_TOL, nodal.ORDER_TOL / 10):
        monkeypatch.setattr(nodal, "ORDER_TOL", tol)
        assert vanishing_order(spec, np.zeros(dim)) == order
        assert vanishing_order(moved, tau) == order


def test_count_singular_in_balls(product_spec):
    pts = find_singular_points(product_spec, 512)
    lam = product_spec.lam
    assert count_singular_in_balls([], 0.25, lam, [(0, 0)]) == [0]
    # lambda enters only through the radius sqrt(r) lambda^{-1/4}: r = 1/4
    # and lambda = 625 give radius 0.1, below this spec's lambda^{-1/2}
    assert math.sqrt(0.25) * 625**-0.25 == pytest.approx(0.1, rel=1e-12)
    assert count_singular_in_balls(pts, 0.25, 625.0, [(0, 0)]) == [1]
    # default radius sqrt(r) lambda^{-1/4} = 0.1677...
    radius = math.sqrt(0.25) * lam**-0.25
    assert radius == pytest.approx(0.16777, rel=1e-3)
    assert count_singular_in_balls(pts, 0.25, lam, [(0, 0)]) == [1]
    with pytest.raises(ScaleRangeError):
        count_singular_in_balls(pts, 1e-4, lam, [(0, 0)])


def test_count_singular_matches_brute_force():
    # the periodic cell-list search (geometry.pairs_within) against the
    # all-pairs min-image loop, with points and centers on both sides of the
    # seams and orders 1 to 4
    rng = np.random.default_rng(12)
    seam = np.array([[0.999, 0.5], [0.001, 0.5], [0.5, 0.9995], [0.0, 0.0],
                     [0.9999, 0.0001], [1.0 - 1e-17, 0.3]])
    locs = np.vstack([seam, rng.random((60, 2))])
    pts = [SingularPoint(location=loc, vanishing_order=int(o), residual=0.0)
           for loc, o in zip(locs, rng.integers(1, 5, len(locs)))]
    centers = np.vstack([[[0.0, 0.5], [0.998, 0.999], [1.0, 0.0],
                          [-0.01, 0.52]], rng.random((30, 2))])
    lam = 4 * math.pi**2 * 25

    def brute(radius):
        return [sum(p.vanishing_order - 1 for p in pts
                    if np.linalg.norm(min_image(p.location - c)) <= radius)
                for c in centers]

    default = math.sqrt(0.25) * lam**-0.25
    got = count_singular_in_balls(pts, 0.25, lam, centers)
    assert got == brute(default)
    assert all(type(c) is int for c in got)
    # the points are synthetic, so lambda is free: r = 1/2 and
    # lambda = r^2 / radius^4 give each radius, and r >= lambda^(-1/2)
    for target in (0.01, 0.2, 0.45):
        r, lam = 0.5, 0.25 / target**4
        radius = math.sqrt(r) * lam**-0.25
        assert radius == pytest.approx(target, rel=1e-12)
        assert count_singular_in_balls(pts, r, lam, centers) == brute(radius)


def _greedy_merge_reference(x, h):
    """Keep mask by the greedy rule over all-pairs min-image distances:
    over the sorted pairs (a, b), a < b, within h, drop b while a is kept."""
    keep = np.ones(len(x), dtype=bool)
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            d = min_image(x[a] - x[b])
            if keep[a] and float(np.sum(d * d)) <= h * h:
                keep[b] = False
    return keep


def test_singular_merge_matches_greedy_brute_force():
    # chains and clusters straddling both seams and the corner, grid-line
    # neighbours exactly h apart (chains of three keep both ends), and
    # random points
    h = 1 / 512
    rng = np.random.default_rng(4)
    corner = np.array([[0.0, 0.0], [1 - h / 2, 0.0], [0.0, 1 - h / 3],
                       [1 - h / 4, 1 - h / 4], [h / 2, h / 2]])
    seams = np.array([[0.0, 0.4], [1 - h, 0.4], [1 - 2 * h, 0.4],
                      [0.7, 1 - h / 2], [0.7, h / 3], [0.7 + h / 2, 0.0]])
    lines = np.array([[0.25, 0.5], [0.25 + h, 0.5], [0.25 + 2 * h, 0.5],
                      [0.125, 0.75], [0.125, 0.75 + h]])
    cloud = wrap_point(rng.random((8, 2)) + rng.normal(0, h, (40, 8, 2)))
    x = np.vstack([corner, seams, lines, rng.random((60, 2)),
                   cloud.reshape(-1, 2)])
    order = rng.permutation(len(x))
    for pts in (x, x[order]):
        keep = nodal._merge_close(pts, h)
        assert np.array_equal(keep, _greedy_merge_reference(pts, h))
    keep = nodal._merge_close(lines, h)
    assert keep.tolist() == [True, False, True, True, False]


def test_zero_distance_from_cover_centers(sin_k, rand25):
    # every tested ball of radius ~pi/sqrt(lambda) contains a zero: the
    # max center-to-nodal-set distance, scaled by sqrt(lambda), stays small
    for spec in (sin_k(4), rand25):
        ns = extract_nodal(spec, 512)
        verts = np.vstack([c for c in ns.polylines])
        centers = generate_cover(0.25, spec.model).centers
        d = min_image(centers[:, None, :] - verts[None, :, :])
        dists = np.sqrt((d**2).sum(-1)).min(axis=1)
        constant = dists.max() * math.sqrt(spec.lam)
        assert constant <= math.pi


def test_segments_csv(tmp_path, product_spec):
    # the CLI writes the segments CSV: a schema comment line, the header
    # row, then one row per extracted segment
    spec_path = tmp_path / "product.json"
    spec_path.write_text(spectrum.spec_to_json(product_spec))
    assert main(["--out", str(tmp_path), "nodal", "--spec", str(spec_path),
                 "--grid", "512"]) == 0
    ns = extract_nodal(product_spec, 512)
    path = tmp_path / "nodal_segments_m=2,seed=None,dim=2_N512.csv"
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# schema_version={SCHEMA_VERSION} config=")
    assert lines[1] == "x1,y1,x2,y2"
    assert len(lines) == 2 + len(ns.segments)


@pytest.mark.parametrize("spec_id", ["wave1105", "product34"])
def test_extraction_structure(spec_id):
    # one segment per sign-change grid edge (nudged nodes count as
    # positive), each segment in exactly one polyline, every polyline closed
    if spec_id == "wave1105":
        spec = random_eigenfunction(1105, TorusModel(2), 5)
    else:
        spec = _translated_product(3, 4, (0.0137, 0.0291))
    N = 512
    ns = extract_nodal(spec, N)
    pos = evaluate_grid(spec, N) >= 0.0
    crossings = sum(int(np.count_nonzero(pos != np.roll(pos, -1, axis=a)))
                    for a in (0, 1))
    assert len(ns.segments) == crossings
    assert sum(len(chain) - 1 for chain in ns.polylines) == len(ns.segments)
    for chain in ns.polylines:
        assert len(chain) >= 3
        assert np.linalg.norm(min_image(chain[-1] - chain[0])) < 1e-12


def test_packed_codes_decode_to_tables():
    # each (pattern, center sign, slot) code holds the edges _SEGMENTS and
    # _SADDLES list, as _EDGE_BASE rows, and _pair_table's orientation
    _, count, orient = nodal._pair_table()
    for pat in range(16):
        for pos in range(2):
            if pat in nodal._SADDLES:
                pairs = nodal._SADDLES[pat][pos]
            else:
                pairs = nodal._SEGMENTS.get(pat, [])
            assert nodal._N_PAIRS[pat] == count[pat] == len(pairs)
            for slot, edges in enumerate(pairs):
                code = int(nodal._CODES[pat, pos, slot])
                for end, e in enumerate(edges):
                    bits = code >> 3 * end
                    assert (bits & 1, bits >> 1 & 1, bits >> 2 & 1) \
                        == tuple(nodal._EDGE_BASE[e])
                assert code >> 6 == orient[pat, pos, slot]
    assert nodal._CODES.dtype == np.uint8


def test_order_three_zeros_found():
    # grad psi vanishes to second order there, so Newton stalls once
    # |grad psi| ~ |x - x0|^2 reaches rounding: locations hold to ~1e-9
    pts = find_singular_points(_odd_m25(), 256)
    assert len(pts) == 2
    for p, expected in zip(pts, [(0.0, 0.0), (0.5, 0.5)]):
        assert np.linalg.norm(min_image(p.location - np.array(expected))) \
            < 1e-7
        assert p.vanishing_order == 3
        assert p.residual < 1e-8


def test_off_node_crossings_found():
    # the 48 crossings of 2 sin(6 pi x) sin(8 pi y), none on a grid node
    tau = np.array([0.0137, 0.0291])
    pts = find_singular_points(_translated_product(3, 4, tau), 512)
    assert len(pts) == 48
    expected = np.array([(i / 6, j / 8) for i in range(6)
                         for j in range(8)]) + tau
    for p in pts:
        assert p.vanishing_order == 2
        assert p.residual < 1e-8
        d = np.linalg.norm(min_image(expected - p.location), axis=-1)
        assert d.min() < 1e-9


def _reference_newton(spec, cells, N):
    """The plain Newton loop on grad psi: every start runs until its step
    drops below 1e-13, its Hessian is singular or NEWTON_ITERATIONS steps
    pass, the first step from the cell-center table phases, then one
    residual pass over every end point."""
    weights = mode_weights(spec, 2)
    coords = (np.arange(N) + 0.5) * (1.0 / N)
    phases = lattice_phases([axis_phases(spec, coords, a) for a in range(2)],
                            cells)
    x = coords[cells]
    active = np.arange(len(x))
    for _ in range(nodal.NEWTON_ITERATIONS):
        if not len(active):
            break
        if phases is None:
            phases = point_phases(spec, x[active])
        d = mode_sum(phases, weights)
        phases = None
        gx, gy, hxx, hxy, hyy = d[:, 1], d[:, 2], d[:, 3], d[:, 4], d[:, 6]
        det = hxx * hyy - hxy * hxy
        ok = det != 0.0
        step = np.stack([hxy * gy - hyy * gx, hxy * gx - hxx * gy],
                        axis=-1)[ok]
        step /= det[ok, None]
        moved = active[ok]
        x[moved] = wrap_point(x[moved] + step)
        active = moved[np.linalg.norm(step, axis=-1) >= 1e-13]
    d = mode_sum(point_phases(spec, x), weights[:, :3])
    return x, np.maximum(np.abs(d[:, 0]), np.linalg.norm(d[:, 1:], axis=-1))


def _newton_runs(monkeypatch, spec, N):
    """find_singular_points(spec, N) with the cells and results of its
    Newton run."""
    runs = []
    inner = nodal._newton_singular

    def recorded(spec, cells, N):
        out = inner(spec, cells, N)
        runs.append((cells,) + out)
        return out

    monkeypatch.setattr(nodal, "_newton_singular", recorded)
    points = find_singular_points(spec, N)
    assert len(runs) == 1
    return points, runs[0]


_SOUNDNESS_SPECS = (
    [(f"wave_{m}_{seed}", lambda m=m, seed=seed: random_eigenfunction(
        m, TorusModel(2), seed), N)
     for m, N in ((325, 256), (1105, 512), (5525, 1024)) for seed in range(3)]
    + [("product_3_4", lambda: _translated_product(3, 4, (0.0137, 0.0291)),
        512),
       ("product_4_2", lambda: _translated_product(4, 2, (3 / 512, 5 / 512)),
        512),
       ("odd_m25", _odd_m25, 256)])


@pytest.mark.parametrize("name, make, N", _SOUNDNESS_SPECS,
                         ids=[c[0] for c in _SOUNDNESS_SPECS])
def test_newton_certificate_is_sound(monkeypatch, name, make, N):
    # every start the certificate keeps ends where the plain loop ends, bit
    # for bit, and every start it drops ends above RESIDUAL_TOL when the
    # plain loop runs it on
    spec = make()
    _, (cells, x, resid, dropped) = _newton_runs(monkeypatch, spec, N)
    ref_x, ref_resid = _reference_newton(spec, cells, N)
    kept = ~dropped
    assert np.array_equal(x[kept], ref_x[kept])
    assert np.array_equal(resid[kept], ref_resid[kept])
    assert np.all(ref_resid[dropped] >= RESIDUAL_TOL)
    assert np.array_equal(resid < RESIDUAL_TOL, ref_resid < RESIDUAL_TOL)
    if name.startswith("wave"):
        assert np.count_nonzero(dropped) > 0.9 * len(cells)


_BLOCK_SPECS = [
    ("product_3_4", lambda: _translated_product(3, 4, (0.0137, 0.0291)), 512),
    ("wave_325", lambda: random_eigenfunction(325, TorusModel(2), 1), 256),
    ("odd_m25", _odd_m25, 256)]


@pytest.mark.parametrize("name, make, N", _BLOCK_SPECS,
                         ids=[c[0] for c in _BLOCK_SPECS])
def test_newton_blocks_do_not_change_points(monkeypatch, name, make, N):
    # each Newton row is computed alone: blocks of 1, 7 and
    # PHASE_BLOCK // modes starts give the same points, and no phase call
    # takes more rows than one block
    spec = make()
    rows = {"point_phases": 0, "lattice_phases": 0}

    def counted(attr):
        inner = getattr(nodal, attr)

        def wrapper(*args):
            rows[attr] = max(rows[attr], len(args[1]))
            return inner(*args)
        return wrapper

    for fn in rows:
        monkeypatch.setattr(nodal, fn, counted(fn))
    runs = []
    for block in (1, 7, spectrum.PHASE_BLOCK // spec.n_modes):
        monkeypatch.setattr(spectrum, "PHASE_BLOCK", block * spec.n_modes)
        rows.update(point_phases=0, lattice_phases=0)
        runs.append(find_singular_points(spec, N))
        assert 0 < rows["lattice_phases"] <= block
        assert rows["point_phases"] <= block
    for run in runs[1:]:
        assert len(run) == len(runs[0])
        for p, q in zip(run, runs[0]):
            assert np.array_equal(p.location, q.location)
            assert p.vanishing_order == q.vanishing_order
            assert p.residual == q.residual


def test_singular_search_logs_newton_outcomes(monkeypatch, caplog, t2):
    # one info line splits the starts into accepted, dropped by the
    # certificate and ended above RESIDUAL_TOL
    caplog.set_level(logging.INFO, logger="nodalscope.nodal")
    points, (cells, _, resid, dropped) = _newton_runs(
        monkeypatch, random_eigenfunction(1105, t2, 2), 512)
    [record] = [r for r in caplog.records if "singular search" in r.message]
    n_cells, accepted, n_dropped, above = record.args
    assert n_cells == len(cells) > 0
    assert accepted == np.count_nonzero(resid < RESIDUAL_TOL) == len(points)
    assert n_dropped == np.count_nonzero(dropped) > 0
    assert above == n_cells - accepted - n_dropped


def _start_cells_reference(gate, grads):
    """The gate as the AND of four single-mask dilations, one for each sign
    of each gradient component."""
    for grad in grads:
        gate = gate & nodal._dilate(grad > 0.0) & nodal._dilate(grad < 0.0)
    return np.argwhere(gate)


@pytest.mark.parametrize("name, make, N", _SOUNDNESS_SPECS,
                         ids=[c[0] for c in _SOUNDNESS_SPECS])
def test_start_cells_match_four_dilations(monkeypatch, name, make, N):
    # the one-pass gate of find_singular_points, on its own psi gate and
    # gradient grids, gives the reference's cells, and Newton starts there
    seen = []
    inner = nodal._start_cells

    def recorded(gate, grads):
        grads = list(grads)
        cells = inner(gate.copy(), grads)
        seen.append((gate, grads, cells))
        return cells

    monkeypatch.setattr(nodal, "_start_cells", recorded)
    _, (newton_cells, *_) = _newton_runs(monkeypatch, make(), N)
    [(gate, grads, cells)] = seen
    ref = _start_cells_reference(gate, grads)
    assert cells.dtype == ref.dtype and cells.shape == ref.shape
    assert np.array_equal(cells, ref)
    assert newton_cells is cells


@pytest.mark.parametrize("N", [4, 5, 8, 13])
def test_start_cells_match_four_dilations_on_sign_grids(N):
    # sparse signs (zeros and -0.0 count as neither) and signs only on the
    # seam rows and columns, where the dilation wraps around the torus
    rng = np.random.default_rng(N)
    values = np.array([-1.0, -0.0, 0.0, 1.0])
    seam = np.zeros((N, N), dtype=bool)
    seam[[0, -1, -2], :] = seam[:, [0, -1, -2]] = True
    for trial in range(60):
        grads = [values[rng.choice(4, (N, N), p=[0.1, 0.2, 0.6, 0.1])]
                 for _ in range(2)]
        if trial % 2:
            grads = [np.where(seam, g, 0.0) for g in grads]
        gate = rng.random((N, N)) < 0.7
        cells = nodal._start_cells(gate.copy(), grads)
        ref = _start_cells_reference(gate, grads)
        assert cells.dtype == ref.dtype and cells.shape == ref.shape
        assert np.array_equal(cells, ref)
