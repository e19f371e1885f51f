import itertools
import math

import numpy as np
import pytest

from nodalscope.errors import NoModesError
from nodalscope.spectrum import (
    EigenfunctionSpec,
    enumerate_lattice,
    evaluate,
    evaluate_gradient,
    evaluate_grid,
    laplacian_residual,
    mode_spec,
    random_eigenfunction,
    spec_from_json,
    spec_to_json,
    translate,
)


def brute_force_lattice(m, n):
    """Independent re-enumeration: every signed point, canonical filter."""
    kmax = int(math.isqrt(m))
    reps = set()
    for k in itertools.product(range(-kmax, kmax + 1), repeat=n):
        if sum(c * c for c in k) == m:
            first = next(c for c in k if c != 0)
            if first > 0:
                reps.add(k)
    return sorted(reps)


def test_enumerate_lattice_small():
    assert enumerate_lattice(1, 2) == [(0, 1), (1, 0)]
    assert len(enumerate_lattice(25, 2)) == 6
    assert enumerate_lattice(3, 2) == []


@pytest.mark.parametrize("m", [1, 2, 5, 25, 100, 325])
def test_enumerate_lattice_oracle(m):
    assert enumerate_lattice(m, 2) == brute_force_lattice(m, 2)


def test_enumerate_lattice_dim3():
    assert enumerate_lattice(3, 3) == brute_force_lattice(3, 3)
    assert enumerate_lattice(7, 3) == []  # 7 not a sum of three squares


def _brute_force_lattices(m_end, n):
    """The box loop enumerate_lattice once ran for each m, run once over
    the box of the largest m below m_end: every signed point in
    lexicographic order, the canonical ones filed under their |k|^2."""
    kmax = math.isqrt(m_end - 1)
    by_m = [[] for _ in range(m_end)]
    for k in itertools.product(range(-kmax, kmax + 1), repeat=n):
        m = sum(c * c for c in k)
        if 0 < m < m_end and next(c for c in k if c != 0) > 0:
            by_m[m].append(k)
    return by_m


@pytest.mark.parametrize("n, m_end", [(2, 3000), (3, 400)])
def test_enumerate_lattice_matches_box_loop(n, m_end):
    # the same list in the same order for every m below m_end, empty ones
    # (m not a sum of n squares) and m = 0 included
    for m, reps in enumerate(_brute_force_lattices(m_end, n)):
        assert enumerate_lattice(m, n) == reps
    assert enumerate_lattice(-5, n) == []


def test_random_eigenfunction_determinism(t2):
    a = random_eigenfunction(25, t2, 7)
    b = random_eigenfunction(25, t2, 7)
    assert spec_to_json(a) == spec_to_json(b)


def test_random_eigenfunction_normalization(t2):
    for seed in range(5):
        spec = random_eigenfunction(100, t2, seed)
        norm = 0.5 * float(np.sum(spec.a**2 + spec.b**2))
        assert abs(norm - 1.0) < 1e-14


def test_random_eigenfunction_no_modes(t2):
    with pytest.raises(NoModesError):
        random_eigenfunction(3, t2, 0)


def test_lambda_derived(t2, rand25):
    assert rand25.lam == 4 * math.pi**2 * 25
    # lambda never stored in serialized form
    assert "lambda" not in spec_to_json(rand25)
    assert "lam" not in spec_to_json(rand25)


def test_evaluate_examples(sin1):
    assert evaluate(sin1, (0.25, 0)) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert evaluate(sin1, (0.0, 0.7)) == pytest.approx(0.0, abs=1e-15)


def test_evaluate_matches_direct_sum(rand25):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.random(2)
        direct = sum(
            a * math.cos(2 * math.pi * (k @ x))
            + b * math.sin(2 * math.pi * (k @ x))
            for k, a, b in zip(rand25.k, rand25.a, rand25.b)
        )
        assert evaluate(rand25, x) == pytest.approx(direct, abs=1e-13)


def test_gradient_examples(sin1):
    g = evaluate_gradient(sin1, (0.0, 0.0))
    assert g[0] == pytest.approx(2 * math.sqrt(2) * math.pi)
    assert g[1] == 0.0


def test_gradient_finite_difference(rand25):
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(10):
        x = rng.random(2)
        g = evaluate_gradient(rand25, x)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (evaluate(rand25, x + e) - evaluate(rand25, x - e)) / (2 * h)
            assert g[d] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_laplacian_residual_bound(sin1):
    resid = laplacian_residual(sin1, (0.3, 0.3), 1e-3)
    assert resid < 4 * math.pi**2 * (2 * math.pi * 1e-3) ** 2 * 2


def test_laplacian_residual_second_order(rand25):
    x = (0.3, 0.3)
    r1 = laplacian_residual(rand25, x, 1e-3)
    r2 = laplacian_residual(rand25, x, 5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)


def test_laplacian_residual_h_range(sin1):
    with pytest.raises(ValueError):
        laplacian_residual(sin1, (0, 0), 0.5)


def test_eigen_equation_seeded_points(rand100):
    rng = np.random.default_rng(9)
    h = 1e-4
    lam = rand100.lam
    # fourth-derivative Taylor bound with the coefficient-l1 amplitude
    amp = rand100.coeff_l1()
    bound = 2 * (h**2 / 12) * (2 * math.pi) ** 4 * 100**2 * amp * 2
    for _ in range(100):
        assert laplacian_residual(rand100, rng.random(2), h) < bound


def test_parseval_grid(rand25, rand100):
    for spec in (rand25, rand100):
        vals = evaluate_grid(spec, 512)
        assert abs((vals**2).mean() - 1.0) < 1e-12


def test_translation_equivariance(rand25):
    tau = np.array([0.3, 0.17])
    shifted = translate(rand25, tau)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.random(2)
        assert evaluate(shifted, x) == pytest.approx(
            evaluate(rand25, x - tau), abs=1e-12
        )


def test_serialization_round_trip(rand25):
    text = spec_to_json(rand25)
    back = spec_from_json(text)
    assert spec_to_json(back) == text
    assert back.lam == rand25.lam


def test_mode_spec_norm_validation(t2):
    assert mode_spec([((1, 0), 1.0, 1.0)], t2).n_modes == 1  # norm = 1, valid
    with pytest.raises(ValueError):
        mode_spec([((1, 0), 2.0, 0.0)], t2)


def test_mode_mismatch_rejected(t2):
    with pytest.raises(ValueError):
        EigenfunctionSpec(model=t2, m=2, k=np.array([[1, 0]]),
                          a=np.array([0.0]), b=np.array([math.sqrt(2)]))


def test_gradient_vanishes_at_refined_max(rand25):
    from nodalscope.spectrum import evaluate_hessian

    grid = evaluate_grid(rand25, 64)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    x = np.array([i / 64, j / 64])
    for _ in range(50):
        g = evaluate_gradient(rand25, x)
        step = np.linalg.solve(evaluate_hessian(rand25, x), -g)
        x = (x + step) % 1.0
        if np.linalg.norm(step) < 1e-14:
            break
    assert np.linalg.norm(evaluate_gradient(rand25, x)) < 1e-8


@pytest.mark.parametrize("dim,m,N", [(2, 1105, 256), (3, 50, 24)])
def test_grids_match_pointwise(dim, m, N):
    # every node of the one-GEMM grids against the pointwise closed forms,
    # to 1e-12 ||c||_1 (2 pi sqrt(m))^j for the j-th derivative
    from nodalscope.geometry import TorusModel
    from nodalscope.spectrum import evaluate_gradient_grid

    spec = random_eigenfunction(m, TorusModel(dim), 11)
    axes = np.meshgrid(*([np.arange(N) / N] * dim), indexing="ij")
    nodes = np.stack(axes, axis=-1)
    scale = spec.coeff_l1()
    freq = 2 * math.pi * math.sqrt(m)
    vals = evaluate_grid(spec, N)
    assert vals.shape == (N,) * dim
    assert np.max(np.abs(vals - evaluate(spec, nodes))) <= 1e-12 * scale
    grad = evaluate_gradient_grid(spec, N)
    assert grad.shape == (N,) * dim + (dim,)
    assert np.max(np.abs(grad - evaluate_gradient(spec, nodes))) \
        <= 1e-12 * scale * freq


def test_hessian_batch_matches_single_points(rand100):
    from nodalscope.spectrum import evaluate_hessian

    xs = np.random.default_rng(4).random((5, 3, 2))
    batch = evaluate_hessian(rand100, xs)
    assert batch.shape == (5, 3, 2, 2)
    for idx in np.ndindex(5, 3):
        single = evaluate_hessian(rand100, xs[idx])
        assert single.shape == (2, 2)
        assert np.allclose(batch[idx], single, rtol=0, atol=1e-9)
        assert np.allclose(single, single.T, rtol=0, atol=1e-9)
