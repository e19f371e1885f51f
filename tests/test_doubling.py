import math

import numpy as np
import pytest

from nodalscope.certify import DYADIC_RADII
from nodalscope.doubling import (
    DoublingRecord,
    default_scale_sweep,
    doubling_index_sup,
    fit_growth_constant,
    lower_bound_check,
    q_growth_ratio,
    scan_doubling,
)
from nodalscope.errors import ScaleRangeError
from nodalscope.fields import MassEvaluator, l2_on_ball, sup_on_ball
from nodalscope.spectrum import random_eigenfunction


def test_index_sup_at_max_center(sin1):
    # both sups equal 2 at the global max
    assert doubling_index_sup(sin1, (0.25, 0.25), 0.05) == pytest.approx(
        0.0, abs=1e-9
    )


def test_index_sup_closed_form(sin1):
    # sup over B_{1/4}(0,0) = 2, over B_{1/8}(0,0) = 1
    idx = doubling_index_sup(sin1, (0, 0), 0.125)
    assert idx == pytest.approx(math.log(2.0), rel=1e-6)


def test_index_sup_small_scale_limit(sin1):
    # simple zero: |psi|^2 quadratic, ratio -> 4
    idx = doubling_index_sup(sin1, (0, 0), 1e-3, tol=1e-4)
    assert idx == pytest.approx(math.log(4.0), rel=0.01)


def test_index_sup_scale_guard(sin1):
    with pytest.raises(ScaleRangeError):
        doubling_index_sup(sin1, (0, 0), 0.3)


def test_index_l2_constant_field(t2):
    # log(vol(2 delta)/vol(delta)) = n log 2 for the constant test field
    def const(points):
        return np.ones(len(points))

    delta = 0.07
    num = l2_on_ball(None, (0.4, 0.4), 2 * delta, tol=1e-6, field=const)
    den = l2_on_ball(None, (0.4, 0.4), delta, tol=1e-6, field=const)
    assert math.log(num / den) == pytest.approx(2 * math.log(2), abs=1e-4)


def _index_l2(ev, x, delta):
    """log of the L^2-mass doubling ratio from closed-form ball masses."""
    return math.log(ev.mass(x, 2 * delta) / ev.mass(x, delta))


def test_index_l2_at_flat_max(sin1):
    idx = _index_l2(MassEvaluator(sin1), (0.25, 0.25), 0.02)
    assert idx == pytest.approx(2 * math.log(2), abs=0.02)


def test_index_l2_vs_sup_slack(rand100):
    # mean-vs-max comparison: index_l2 <= isup(d) + isup(d/2) + n log 2 + C;
    # measured worst C ~ 0.05, asserted with slack 0.5
    rng = np.random.default_rng(1)
    ev = MassEvaluator(rand100)
    for _ in range(30):
        x = rng.random(2)
        d = 10 ** rng.uniform(-2, -0.7)
        il2 = _index_l2(ev, x, d)
        bound = (
            doubling_index_sup(rand100, x, d)
            + doubling_index_sup(rand100, x, d / 2)
            + 2 * math.log(2) + 0.5
        )
        assert il2 <= bound


def test_q_growth_examples(sin1):
    # q max at x=0 inside both balls: ratio exactly 1
    assert q_growth_ratio(sin1, (0, 0), 0.05) == pytest.approx(1.0, rel=1e-6)
    # ratio >= 1 always (monotone balls)
    assert q_growth_ratio(sin1, (0.25, 0), 0.05) >= 1.0


def test_q_growth_guards(sin1):
    with pytest.raises(ScaleRangeError):
        q_growth_ratio(sin1, (0, 0), 0.2)  # 4s > 1/2


def _rec(idx, scale=0.01, r=0.25, lam=100.0):
    return DoublingRecord(center=np.zeros(2), scale=scale, index_sup=idx,
                          context_r=r, lam=lam)


def test_fit_growth_constant():
    assert fit_growth_constant([_rec(0.0), _rec(0.0)], 0.25, 100.0) == 0.0
    c = fit_growth_constant([_rec(1.3863)], 1.0, 100.0)
    assert c == pytest.approx(0.13863)
    with pytest.raises(ValueError):
        fit_growth_constant([], 0.25, 100.0)
    with pytest.raises(ScaleRangeError):
        fit_growth_constant([_rec(1.0, scale=3.0)], 0.25, 100.0)


def test_lower_bound_trivial_cases(sin1):
    # RHS <= 1 and sup at a max-point ball = 2
    assert lower_bound_check(sin1, (0.25, 0.25), 0.05, 0.25, c=5.0)
    with pytest.raises(ScaleRangeError):
        lower_bound_check(sin1, (0, 0), 0.2, 0.25, c=1.0)


def test_telescoping_identity(rand25):
    x = (0.31, 0.47)
    delta = 0.02
    tol = 1e-4
    steps = 3
    total = sum(
        doubling_index_sup(rand25, x, delta * 2**j, tol) for j in range(steps)
    )
    direct = math.log(
        sup_on_ball(rand25, x, delta * 2**steps, tol)
        / sup_on_ball(rand25, x, delta, tol)
    )
    assert total == pytest.approx(direct, abs=steps * 2 * tol + 1e-6)


def test_rescaling_invariance_plumbing(rand25):
    # dyadic context radius: (delta/r)*r is exact in floats, so the
    # scale-aware query path must return bit-identical indices
    x = (0.2, 0.9)
    r = 0.25
    delta = 0.0375
    rescaled = (delta / r) * r
    assert rescaled == delta
    a = doubling_index_sup(rand25, x, delta)
    b = doubling_index_sup(rand25, x, rescaled)
    assert a == b


@pytest.mark.parametrize("m", [25, 1105, 32045])
@pytest.mark.parametrize("r", DYADIC_RADII)
def test_default_scale_sweep(m, r):
    # exactly lambda^(-1/2) 2^j with 2 delta <= 1/2 and delta < 10 r, and
    # ScaleRangeError when no delta qualifies
    lam = 4 * math.pi**2 * m
    rule = [d for d in (lam**-0.5 * 2**j for j in range(64))
            if 2 * d <= 0.5 and d < 10 * r]
    if rule:
        assert default_scale_sweep(lam, r) == rule
    else:
        with pytest.raises(ScaleRangeError):
            default_scale_sweep(lam, r)


def test_default_scale_sweep_empty():
    # at m = 25 the smallest scale lambda^(-1/2) = 0.032 is above 10 r
    with pytest.raises(ScaleRangeError):
        default_scale_sweep(4 * math.pi**2 * 25, 0.001)


def test_scan_doubling_and_csv(rand25):
    # the records CSV is written by the CLI: test_cli.py checks it
    centers = np.array([[0.1, 0.1], [0.6, 0.3]])
    records = scan_doubling(rand25, 0.25, centers=centers, tol=1e-2)
    assert len(records) == 2 * len(default_scale_sweep(rand25.lam, 0.25))
    assert all(rec.index_sup >= -1e-2 for rec in records)
    c_star = fit_growth_constant(records, 0.25, rand25.lam)
    assert c_star >= 0


def test_scan_doubling_records_are_log_ratios_of_ball_sups(t2):
    # each record's index is exactly the log ratio of its two balls' sups
    # as single-center calls give them, although the scan takes every ball
    # of one radius in one lockstep batch
    spec = random_eigenfunction(1105, t2, 0)
    records = scan_doubling(spec, 0.25, tol=1e-2)
    picks = np.random.default_rng(0).choice(len(records), 12, replace=False)
    for rec in (records[i] for i in picks):
        num = sup_on_ball(spec, rec.center, 2.0 * rec.scale, 1e-2)
        den = sup_on_ball(spec, rec.center, rec.scale, 1e-2)
        assert rec.index_sup == math.log(num / den)
