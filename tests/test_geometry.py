import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalscope import geometry
from nodalscope.errors import CoverRadiusError, EmbeddedBallError
from nodalscope.geometry import (
    TorusModel,
    ball_volume,
    generate_cover,
    geodesic_distance,
    min_image,
    overlap_multiplicity,
    pairs_within,
    wrap_point,
)


def test_model_validation():
    with pytest.raises(ValueError):
        TorusModel(4)


def test_distance_examples(t2):
    assert geodesic_distance((0, 0), (0, 0), t2) == 0.0
    assert geodesic_distance((0, 0), (0.9, 0), t2) == pytest.approx(0.1)
    assert geodesic_distance((0, 0), (0.5, 0.5), t2) == pytest.approx(
        math.sqrt(0.5)
    )


def test_distance_symmetry_exact(t2):
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.random(2), rng.random(2)
        assert geodesic_distance(a, b, t2) == geodesic_distance(b, a, t2)


def _sq_dist_rational(a, b):
    total = Fraction(0)
    for x, y in zip(a, b):
        d = abs(x - y)
        d = min(d, 1 - d)
        total += d * d
    return total


rational = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(st.tuples(rational, rational), st.tuples(rational, rational),
       st.tuples(rational, rational))
@settings(max_examples=200, deadline=None)
def test_triangle_inequality_exact_rationals(a, b, c):
    # d_ac <= d_ab + d_bc checked in exact arithmetic on the squares:
    # equivalent to (d_ac^2 - d_ab^2 - d_bc^2)^2 <= 4 d_ab^2 d_bc^2
    # whenever the left inner term is positive.
    ab = _sq_dist_rational(a, b)
    bc = _sq_dist_rational(b, c)
    ac = _sq_dist_rational(a, c)
    gap = ac - ab - bc
    if gap <= 0:
        return
    assert gap * gap <= 4 * ab * bc


def test_ball_volume(t2, t3):
    assert ball_volume(0.1, t2) == pytest.approx(math.pi * 0.01)
    assert ball_volume(0.5, t2) == pytest.approx(0.7853981633974483)
    assert ball_volume(0.1, t3) == pytest.approx(0.0041887902047863905)
    with pytest.raises(EmbeddedBallError):
        ball_volume(0.6, t2)
    with pytest.raises(EmbeddedBallError):
        ball_volume(0.0, t2)


def test_cover_counts(t2):
    assert len(generate_cover(0.25, t2)) == 36
    cov = generate_cover(0.125, t2)
    assert len(cov) == 144
    assert 144 <= (2 * math.sqrt(2)) ** 2 * 0.125 ** -2
    with pytest.raises(CoverRadiusError):
        generate_cover(0.5, t2)
    with pytest.raises(CoverRadiusError):
        generate_cover(0.0, t2)


def test_cover_property_brute_force(t2):
    # every random point within r of some center (oracle: direct distances)
    from scipy.spatial import cKDTree

    r = 0.25
    cov = generate_cover(r, t2)
    rng = np.random.default_rng(42)
    pts = rng.random((1_000_000, 2))
    tree = cKDTree(cov.centers, boxsize=1.0)
    dists, _ = tree.query(pts, k=1)
    assert dists.max() <= r


def test_cover_property_dim3(t3):
    from scipy.spatial import cKDTree

    r = 0.25
    cov = generate_cover(r, t3)
    rng = np.random.default_rng(43)
    pts = rng.random((200_000, 3))
    tree = cKDTree(cov.centers, boxsize=1.0)
    dists, _ = tree.query(pts, k=1)
    assert dists.max() <= r


def test_overlap_multiplicity_scale_invariance(t2):
    m8 = generate_cover(0.125, t2).overlap_bound
    m16 = generate_cover(0.0625, t2).overlap_bound
    assert m8 == m16
    # geometric packing bound (4 sqrt(2) + 1)^2 for doubled balls
    assert m8 <= 43


# overlap_bound of generate_cover(2^-j, TorusModel(n)) as the cover stored it
# when it measured the overlap at construction, keyed by (n, j)
STORED_OVERLAP = {(2, 2): 32, (2, 3): 32, (2, 4): 32, (2, 5): 28,
                  (3, 2): 286, (3, 3): 191, (3, 4): 191, (3, 5): 186}


@pytest.mark.parametrize("dim, j", sorted(STORED_OVERLAP))
def test_overlap_measured_on_first_read(monkeypatch, dim, j):
    calls = []

    def spy(cover):
        calls.append(cover.radius)
        return overlap_multiplicity(cover)

    monkeypatch.setattr(geometry, "overlap_multiplicity", spy)
    geometry._cached_cover.cache_clear()  # no cover read by an earlier test
    cover = generate_cover(2.0**-j, TorusModel(dim))
    assert calls == []
    assert cover.overlap_bound == STORED_OVERLAP[dim, j]
    assert calls == [2.0**-j]
    assert cover.overlap_bound == STORED_OVERLAP[dim, j]
    assert calls == [2.0**-j]


def _kdtree_overlap(cover, n):
    """The multiplicity as a periodic k-d tree counts it: every probe of
    one grid cell queried at radius 2r."""
    from scipy.spatial import cKDTree

    tree = cKDTree(cover.centers, boxsize=1.0)
    K = cover.grid_axis_count
    c = math.ceil(512 / K)
    P = K * c
    rest = geometry.index_box(c, n - 1) / P
    best = 0
    for i in range(c):
        probes = np.column_stack([np.full(len(rest), i / P), rest])
        counts = tree.query_ball_point(probes, 2.0 * cover.radius,
                                       return_length=True)
        best = max(best, int(counts.max()))
    return best


@pytest.mark.parametrize("dim, j", sorted(STORED_OVERLAP))
def test_overlap_matches_kdtree(dim, j):
    # the exact integer count (open balls) against a periodic k-d tree's
    # float count
    cover = generate_cover(2.0**-j, TorusModel(dim))
    assert overlap_multiplicity(cover) == _kdtree_overlap(cover, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_every_cover_is_its_grid(dim):
    # overlap_multiplicity counts residues of the K^n grid only, so every
    # cover the package builds must be that grid
    model = TorusModel(dim)
    for r in [2.0**-j for j in range(2, 7)] + [0.2, 0.1, 0.07, 1 / 12]:
        cover = generate_cover(r, model)
        K = cover.grid_axis_count
        assert isinstance(K, int)
        assert len(cover) == K**dim
        assert np.array_equal(cover.centers, geometry.index_box(K, dim) / K)


def test_overlap_counts_open_balls():
    # at n = 3, r = 1/32 probes sit exactly 2r from centers: closed balls
    # would count 192 of them at once, the stored bound is 186
    cover = generate_cover(1 / 32, TorusModel(3))
    K = cover.grid_axis_count
    P = K * math.ceil(512 / K)
    assert 2 * P / 32 == int(2 * P / 32)  # 2r lies on the probe grid
    assert overlap_multiplicity(cover) == 186
    closed = geometry.CoverSet(radius=np.nextafter(1 / 32, 1.0),
                               centers=cover.centers, grid_axis_count=K)
    assert overlap_multiplicity(closed) == 192


def _brute_pairs(points, queries, radius):
    d = min_image(queries[:, None, :] - points[None, :, :])
    q, p = np.nonzero(np.sum(d * d, axis=-1) <= radius * radius)
    return sorted(zip(q.tolist(), p.tolist()))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("radius", [1 / 512, 0.013, 0.1, 0.3, 0.45])
def test_pairs_within_matches_brute_force(dim, radius):
    # random sets plus points on the seams and on cell boundaries; radii
    # from 1023 cells per axis down to one cell
    rng = np.random.default_rng(dim)
    edge = np.array([0.0, 1 / 3, 0.5, 1 - 1e-16, 1 - radius, radius])
    points = np.vstack([rng.random((300, dim)),
                        rng.choice(edge, (40, dim))])
    queries = np.vstack([rng.random((50, dim)), rng.choice(edge, (20, dim))])
    q, p = pairs_within(points, queries, radius)
    got = sorted(zip(q.tolist(), p.tolist()))
    assert len(set(got)) == len(got)
    assert got == _brute_pairs(points, queries, radius)


def test_pairs_within_exact_distance():
    # grid-line neighbours exactly h apart, across both seams too, are pairs
    h = 1 / 512
    pts = np.array([[0.25, 0.5], [0.25 + h, 0.5], [0.0, 0.75], [1 - h, 0.75],
                    [0.5, 0.0], [0.5, 1 - h], [0.5, 1 - 2 * h]])
    q, p = pairs_within(pts, pts, h)
    pairs = {(a, b) for a, b in zip(q.tolist(), p.tolist()) if a < b}
    assert pairs == {(0, 1), (2, 3), (4, 5), (5, 6)}


def test_cardinality_bound_dyadic_sweep(t2, t3):
    for model, n in ((t2, 2), (t3, 3)):
        c0 = (2 * math.sqrt(n)) ** n
        for j in range(2, 6):
            r = 2.0 ** -j
            cov = generate_cover(r, model)
            assert len(cov) * r ** n <= c0 + 1e-9


def test_wrap_point():
    assert np.allclose(wrap_point((1.25, -0.25)), [0.25, 0.75])
    # np.mod alone rounds tiny negatives up to 1.0, outside [0, 1)
    tiny = [-1e-17, -5e-324, -2.0**-54, -1e-300]
    assert np.all(wrap_point(tiny) == 0.0)
    assert wrap_point(-1e-17) == 0.0
    below_one = np.nextafter(1.0, 0.0)
    assert wrap_point(below_one) == below_one
    assert wrap_point(-2.0**-53) == 1.0 - 2.0**-53
