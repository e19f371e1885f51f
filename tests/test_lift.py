import math
from itertools import product

import numpy as np
import pytest

from nodalscope import lift
from nodalscope.errors import LiftOverflowError, ScaleRangeError
from nodalscope.fields import lifted_sup_on_ball
from nodalscope.geometry import TorusModel
from nodalscope.lift import (
    cube_doubling_index,
    harmonicity_residual,
    lift_evaluate,
)
from nodalscope.scan import LiftedSquared
from nodalscope.spectrum import evaluate, laplacian_residual, random_eigenfunction


def test_lift_examples(sin1):
    assert lift_evaluate(sin1, (0.33, 0.7), 0.0) == pytest.approx(
        evaluate(sin1, (0.33, 0.7))
    )
    assert lift_evaluate(sin1, (0.25, 0), 0.1) == pytest.approx(
        math.sqrt(2) * math.exp(0.2 * math.pi)
    )
    # psi zero stays zero for all t
    for t in (0.0, 0.3, -0.5):
        assert lift_evaluate(sin1, (0.0, 0.2), t) == pytest.approx(
            0.0, abs=1e-12
        )


def test_lift_guards(t2):
    # overflow needs t sqrt(lambda) > 700 with |t| <= 1: sqrt(lambda) > 700
    big = random_eigenfunction(12500, t2, 0)
    assert math.sqrt(big.lam) > 700
    with pytest.raises(LiftOverflowError):
        lift_evaluate(big, (0.1, 0.1), 0.9999)
    with pytest.raises(ScaleRangeError):
        lift_evaluate(big, (0.1, 0.1), 1.5)


def test_lifted_scan_overflow_raises(t2):
    # the lifted sup on B_s carries exp(2 s sqrt(lambda)), 801 at m = 65000
    # and s = 1/4: past the guard lift_evaluate uses, the lifted scan and
    # the cube index raise instead of returning inf
    big = random_eigenfunction(65000, t2, 0)
    s_max = lift.EXP_GUARD / (2.0 * math.sqrt(big.lam))
    LiftedSquared(big, (0.5, 0.5), s_max * (1 - 1e-9))
    with pytest.raises(LiftOverflowError):
        lifted_sup_on_ball(big, (0.5, 0.5), s_max * (1 + 1e-9))
    with pytest.raises(LiftOverflowError):
        cube_doubling_index(big, (0.5, 0.5), 0.125)


def test_harmonicity_residual_bound(sin1):
    h = 1e-3
    resid = harmonicity_residual(sin1, (0.3, 0.3), 0.05, h)
    H = lift_evaluate(sin1, (0.3, 0.3), 0.05)
    assert resid / abs(H) < 0.02


def test_harmonicity_second_order(rand25):
    x, t = (0.3, 0.3), 0.02
    r1 = harmonicity_residual(rand25, x, t, 1e-3)
    r2 = harmonicity_residual(rand25, x, t, 5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)


def test_residual_t0_consistency(rand25):
    # at t=0 the lift stencil is the eigen-equation stencil plus the
    # discrete t-part (2 cosh(h sqrt(lambda)) - 2)/h^2 ~ lambda + O(h^2)
    x = (0.41, 0.13)
    h = 1e-4
    lam = rand25.lam
    lift_r = harmonicity_residual(rand25, x, 0.0, h)
    lap_r = laplacian_residual(rand25, x, h)
    slack = (h**2 * lam**2 / 6) * abs(evaluate(rand25, x)) + 1e-9
    assert abs(lift_r - lap_r) <= lap_r + slack


def test_cube_index_nonnegative_and_t_growth(sin1, monkeypatch):
    # at a psi max the t-direction alone forces N >= 2 s sqrt(lambda) - o(1)
    monkeypatch.setattr(lift, "PAIR_BUDGET", 300)
    ci = cube_doubling_index(sin1, (0.25, 0.0), 0.05)
    assert ci.n_value >= 0.0
    s = 0.05
    assert ci.n_value >= 2 * s * math.sqrt(sin1.lam) - 0.2


def test_cube_index_monotone_in_r(rand25, monkeypatch):
    monkeypatch.setattr(lift, "PAIR_BUDGET", 200)
    small = cube_doubling_index(rand25, (0.3, 0.6), 0.05)
    large = cube_doubling_index(rand25, (0.3, 0.6), 0.1)
    assert large.n_value >= small.n_value - 0.1


def test_cube_budget_flag(rand25, monkeypatch):
    monkeypatch.setattr(lift, "PAIR_BUDGET", 3)
    ci = cube_doubling_index(rand25, (0.2, 0.2), 0.1)
    assert ci.budget_exhausted
    assert ci.pairs_scanned <= 3
    assert ci.n_value >= 0.0


def test_cube_guards(rand25):
    with pytest.raises(ScaleRangeError):
        cube_doubling_index(rand25, (0, 0), 0.3)


def test_chain_consistency(sin1, rand25):
    # scanned N is controlled by the t-factor plus the amplitude doubling:
    # N <= 10 r sqrt(lambda) + 4 * max scanned psi index + slack
    from nodalscope.doubling import scan_doubling

    for spec in (sin1, rand25):
        r = 0.1
        ci = cube_doubling_index(spec, (0.4, 0.7), r)
        records = scan_doubling(
            spec, r, centers=np.array([[0.4, 0.7]]), tol=1e-2
        )
        max_psi_idx = max(rec.index_sup for rec in records)
        assert ci.n_value <= 10 * r * math.sqrt(spec.lam) + 4 * max_psi_idx \
            + 0.5


@pytest.mark.parametrize("dim, r, n_balls", [
    (2, 0.125, 70), (2, 0.1, 70), (3, 0.125, 64)])
def test_cube_scans_once_per_x_offset_and_scale(dim, r, n_balls,
                                                monkeypatch):
    # a ball's log sup ratio does not depend on its t-offset, so the 150
    # pairs (PAIR_BUDGET) of the cube scan each (x-offset, radius) ball
    # once, against 2 per pair without sharing across t, all in one lockstep
    # scan of 15 radii. The rule: grid point u in {0..8}^(dim+1) at offset
    # (2u - 8) r/9, ring k = max|u - 4|, scales r(9 - 2k)/(9 2^j) down to
    # r/64, pairs in (k, u) order; a pair needs its ball and the double.
    spec = random_eigenfunction(25 if dim == 2 else 50, TorusModel(dim), 7)
    center = (0.3, 0.6, 0.45)[:dim]

    def radius(k, j):
        return r * (9 - 2 * k) / (9 * 2**j)

    pairs = []
    for u in sorted(product(range(9), repeat=dim + 1),
                    key=lambda u: (max(abs(v - 4) for v in u), u)):
        k = max(abs(v - 4) for v in u)
        pairs += [(u[:dim], k, j) for j in range(8)
                  if 64 * (9 - 2 * k) >= 9 * 2**j]
    expected = {
        (tuple(c + (2 * v - 8) * r / 9 for c, v in zip(center, x)),
         radius(k, jj))
        for x, k, j in pairs[:150] for jj in (j - 1, j)
    }
    radii = {radius(k, j) for k in range(5) for j in range(-1, 8)}

    balls, scans = [], []

    def recorded(spec, x_centers, s, tol):
        balls.extend(zip(map(tuple, x_centers), s))
        scans.append(set(s))
        return np.array(s)

    monkeypatch.setattr(lift, "lifted_sup_on_ball", recorded)
    ci = cube_doubling_index(spec, center, r)
    assert ci.pairs_scanned == lift.PAIR_BUDGET == 150
    assert ci.budget_exhausted
    assert len(balls) == len(set(balls)) == n_balls
    assert set(balls) == expected
    assert len(scans) == 1 and len(scans[0]) == 15
    assert scans[0] <= radii
    # every pair's double is twice its ball: each ratio is log 2
    assert ci.n_value == math.log(2.0)
