"""Self-tests of the benchmark's checks: each accepts the program's current
output and rejects a deliberately wrong one.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
from nodalscope import certify, fields, geometry, nodal, spectrum  # noqa: E402

MODEL = geometry.TorusModel(2)
TOL = 1e-2


def _field(spec):
    return O.Field.from_payload(json.loads(spectrum.spec_to_json(spec)))


def _product(k, l, tau):
    base = spectrum.mode_spec([((k, -l), 1.0, 0.0), ((k, l), -1.0, 0.0)], MODEL)
    return spectrum.translate(base, tau)


@pytest.fixture(scope="module")
def wave():
    return spectrum.random_eigenfunction(325, MODEL, 3)


def test_own_evaluation_matches_closed_forms(wave):
    f = _field(wave)
    pts = np.random.default_rng(0).random((50, 2))
    v, g = f.values_and_gradients(pts)
    assert np.allclose(v, spectrum.evaluate(wave, pts), atol=1e-12)
    assert np.allclose(g, spectrum.evaluate_gradient(wave, pts), atol=1e-9)
    assert np.allclose(f.grid(64), spectrum.evaluate_grid(wave, 64), atol=1e-12)
    assert f.l2_norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_mass_quadrature_matches_closed_form(wave):
    centers = geometry.generate_cover(0.125, MODEL).centers[:20]
    ev = fields.MassEvaluator(wave)
    for rho in (0.0625, 0.5):
        own = O.ball_masses(_field(wave), centers, rho)
        assert np.allclose(own, ev.mass_many(centers, rho), rtol=0, atol=1e-12)


def test_certificate_oracle(wave):
    r = 0.25
    cert = certify.certify_equidistribution(wave, r)
    centers = geometry.generate_cover(r / 2, MODEL).centers
    f = _field(wave)
    args = (f, centers, r, cert.k1, cert.k2)
    assert O.check_certificate(*args, cert.min_ratio, cert.max_ratio,
                               cert.passed) == []
    assert O.check_certificate(*args, cert.min_ratio, cert.max_ratio,
                               not cert.passed)
    assert O.check_certificate(*args, cert.min_ratio * (1 + 1e-6),
                               cert.max_ratio, cert.passed)


def test_fails_everywhere_oracle():
    # at m = 25 some seeds certify and most do not; both verdicts must match
    lam = 4 * math.pi**2 * 25
    radii = [0.25 / 2**j for j in range(8) if lam ** -0.5 <= 0.25 / 2**j]
    covers = {r: geometry.generate_cover(r / 2, MODEL).centers for r in radii}
    for seed in range(12):
        spec = spectrum.random_eigenfunction(25, MODEL, seed)
        problems = O.fails_everywhere(_field(spec), covers, 0.5 * math.pi,
                                      2 * math.pi)
        assert (problems == []) == (certify.largest_admissible_r(spec) is None)


def test_sup_oracle(wave):
    f = _field(wave)
    rng = np.random.default_rng(1)
    for s in (1 / (2 * math.pi * math.sqrt(325)), 0.1, 0.4):
        c = rng.random(2)
        sup = fields.sup_on_ball(wave, c, s, TOL)
        est = O.ball_sup_estimate(f, c, s)
        assert O.check_ball_sup(sup, est, TOL) == []
        assert O.check_ball_sup(sup * (1 - 2 * TOL), est, TOL)


def test_length_oracle(wave):
    N = 256
    length = nodal.extract_nodal(wave, N).length
    ref = O.nodal_length(_field(wave), N)
    assert O.nodal_length(_field(wave), 2 * N) == pytest.approx(ref, rel=1e-4)
    assert O.check_length(length, ref, 325, N) == []
    assert O.check_length(1.01 * length, ref, 325, N)


def test_product_length_oracle():
    spec = _product(3, 4, (0.0137, 0.0291))
    ns = nodal.extract_nodal(spec, 512)
    assert O.check_product_length(ns.length, 3, 4, 512) == []
    assert O.check_product_length(1.01 * ns.length, 3, 4, 512)
    assert O.check_polylines_closed(ns.polylines) == []
    assert O.check_polylines_closed([ns.polylines[0][:-1]])


def test_kac_rice_oracle():
    ratios, allow = [], []
    for seed in range(8):
        spec = spectrum.random_eigenfunction(325, MODEL, seed)
        ratios.append(nodal.extract_nodal(spec, 256).length / math.sqrt(spec.lam))
        allow.append(O.length_allowance(325, 256))
    assert O.check_kac_rice(ratios, allow) == []
    assert O.check_kac_rice([1.05 * x for x in ratios], allow)


def test_singular_oracle():
    h = 1 / 512
    tau = (3 * h, 5 * h)
    found = nodal.find_singular_points(_product(4, 2, tau), 512)
    points = [(p.location, p.vanishing_order) for p in found]
    expected = O.product_crossings(4, 2, tau)
    assert O.check_singular_set(points, expected, h) == ([], [])
    missing, wrong = O.check_singular_set(points[1:], expected, h)
    assert missing and not wrong
    moved = [(points[0][0] + 2 * h, points[0][1])] + points[1:]
    assert O.check_singular_set(moved, expected, h)[1]
    reordered = [(points[0][0], 3)] + points[1:]
    assert O.check_singular_set(reordered, expected, h)[1]
    radius = 0.5 * (4 * math.pi**2 * 20) ** -0.25
    centers = np.random.default_rng(2).random((10, 2))
    got = nodal.count_singular_in_balls(found, 0.25, 4 * math.pi**2 * 20,
                                        centers)
    assert O.singular_counts(points, centers, radius) == got


def test_report_oracle():
    spec = spectrum.random_eigenfunction(100, MODEL, 0)
    cert = certify.certify_equidistribution(spec, 0.25)
    assert cert.passed
    config = certify.ReportConfig(c3=0.7, c4=0.1)
    rep = certify.build_report(
        cert, {"nodal_length": 22.0, "max_vanishing_order": 2,
               "max_singular_count": 1},
        {"c_star": 0.4, "max_index": 1.2}, {"n_value": 3.5}, config,
        meta_extra={"m": 100, "seed": 0})
    payload = json.loads(certify.report_to_json(rep))
    assert O.check_report(payload, 100) == []
    flipped = json.loads(json.dumps(payload))
    flipped["verdicts"]["eq3_order_bound"] = not flipped["verdicts"][
        "eq3_order_bound"]
    assert O.check_report(flipped, 100)
    moved = json.loads(json.dumps(payload))
    moved["predicted"]["eq4"] *= 1.001
    assert O.check_report(moved, 100)
