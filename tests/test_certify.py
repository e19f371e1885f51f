import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nodalscope.certify import (
    DYADIC_RADII,
    SCHEMA_VERSION,
    EquidistCertificate,
    ReportConfig,
    build_report,
    calibrate_length_constant,
    certify_equidistribution,
    default_k1,
    default_k2,
    lambda_threshold,
    largest_admissible_r,
    report_from_json,
    report_to_json,
)
from nodalscope.errors import HypothesisFailedError, ScaleRangeError
from nodalscope.fields import MassEvaluator
from nodalscope.geometry import generate_cover
from nodalscope.spectrum import random_eigenfunction


def quad_mass_sin(k: int, cx: float, rho: float) -> float:
    """1-D quadrature oracle: mass of 2 sin^2(2 pi k x) over a disk."""

    def strip(x):
        return 2 * math.sin(2 * math.pi * k * x) ** 2 * 2 * math.sqrt(
            max(rho**2 - (x - cx) ** 2, 0.0)
        )

    val, _ = quad(strip, cx - rho, cx + rho, limit=200)
    return val


def test_defaults(t2, t3):
    assert default_k1(t2) == pytest.approx(math.pi / 2)
    assert default_k2(t2) == pytest.approx(2 * math.pi)
    assert default_k1(t3) == pytest.approx(2 * math.pi / 3)


def test_single_mode_fails_everywhere(sin1):
    lam_scale = sin1.lam ** -0.5
    for r in (0.25, 0.22, 0.18, 0.16):
        assert r >= lam_scale
        cert = certify_equidistribution(sin1, r)
        assert not cert.passed
        assert cert.min_ratio < cert.k1


def test_single_mode_min_ratio_vs_quad_oracle(sin1):
    r = 0.25
    cert = certify_equidistribution(sin1, r)
    # worst centers sit on the nodal lines {x=0} and {x=1/2}
    oracle = quad_mass_sin(1, 0.0, r / 2) / (r / 2) ** 2
    assert cert.min_ratio == pytest.approx(oracle, abs=1e-3)


def test_scale_range_guards(sin1, rand100):
    with pytest.raises(ScaleRangeError):
        certify_equidistribution(sin1, 0.05)  # below lambda^{-1/2}
    with pytest.raises(ScaleRangeError):
        certify_equidistribution(rand100, 0.3)  # above 1/4


@pytest.mark.parametrize("k1, k2", [(0.0, 8.0), (-5.0, 1e300),
                                    (8.0, 8.0), (9.0, 8.0)])
def test_threshold_order_guard(rand100, k1, k2):
    # without 0 < K1 < K2 a certificate could pass vacuously
    with pytest.raises(ScaleRangeError):
        certify_equidistribution(rand100, 0.25, k1=k1, k2=k2)


def test_seeded_m325_passes(t2):
    spec = random_eigenfunction(325, t2, 0)
    cert = certify_equidistribution(spec, 0.2, k1=1.0, k2=8.0)
    assert cert.passed
    assert cert.k1 <= cert.min_ratio
    assert cert.max_ratio <= cert.k2


def test_certificate_soundness_spot_check(t2):
    # pass implies the two-sided bound for every ball B_r(x) with the
    # adjusted constants (K1/2^n, 2^n K2), via the containment argument
    spec = random_eigenfunction(325, t2, 0)
    r = 0.2
    cert = certify_equidistribution(spec, r)
    assert cert.passed
    ev = MassEvaluator(spec)
    rng = np.random.default_rng(17)
    xs = rng.random((1000, 2))
    masses = ev.mass_many(xs, r)
    n = 2
    lo = cert.k1 / 2**n * r**n
    hi = 2**n * cert.k2 * r**n
    assert np.all(masses >= lo - 1e-12)
    assert np.all(masses <= hi + 1e-12)


def test_monotone_in_thresholds(t2):
    spec = random_eigenfunction(100, t2, 1)
    base = certify_equidistribution(spec, 0.25)
    stricter = certify_equidistribution(
        spec, 0.25, k1=base.k1 * 1.5, k2=base.k2 / 1.5
    )
    if not base.passed:
        assert not stricter.passed
    # ratios are threshold-independent measurements
    assert stricter.min_ratio == base.min_ratio
    assert stricter.max_ratio == base.max_ratio


def test_largest_admissible_r(sin1, t2):
    assert largest_admissible_r(sin1) is None
    spec = random_eigenfunction(1105, t2, 0)
    r = largest_admissible_r(spec)
    assert r == 0.25
    # raising K1 can only shrink (or keep) the admissible radius
    strict = [q for q in DYADIC_RADII if q >= spec.lam ** -0.5
              and certify_equidistribution(spec, q,
                                           k1=default_k1(t2) * 1.4).passed]
    assert all(q <= r for q in strict)


def test_lambda_threshold_sin_family(t2, sin_k):
    family = [sin_k(k) for k in range(1, 17)]
    J = lambda_threshold(family, 0.25)
    # oracle: run the same sandwich on 1-D quadrature masses
    cover = generate_cover(0.125, t2)
    k1, k2 = default_k1(t2), default_k2(t2)
    xs = np.unique(cover.centers[:, 0])
    J_oracle = None
    for idx, k in enumerate(range(1, 17)):
        lo = min(quad_mass_sin(k, cx, 0.125) / 0.125**2 for cx in xs)
        hi = max(quad_mass_sin(k, cx, 0.5) / 0.5**2 for cx in xs)
        ok = k1 <= lo and hi <= k2
        if ok and J_oracle is None:
            J_oracle = idx
        if not ok:
            J_oracle = None
    assert J == J_oracle
    assert J == 1  # k = 2 onward


def test_lambda_threshold_all_pass(t2):
    family = [random_eigenfunction(m, t2, 0) for m in (100, 325, 1105)]
    assert lambda_threshold(family, 0.25) == 0


def test_lambda_threshold_requires_order(t2):
    family = [random_eigenfunction(m, t2, 0) for m in (325, 100)]
    with pytest.raises(ValueError):
        lambda_threshold(family, 0.25)


def _passing_certificate(r=0.25, lam=4 * math.pi**2 * 16, dim=2):
    return EquidistCertificate(
        spec_id="forced", r=r, k1=1.0, k2=8.0, min_ratio=3.0, max_ratio=3.2,
        passed=True, centers_used=144, lam=lam, dim=dim,
    )


def test_report_refuses_failed_certificate(sin1):
    cert = certify_equidistribution(sin1, 0.25)
    with pytest.raises(HypothesisFailedError):
        build_report(cert, {}, {"c_star": 0.0}, {}, ReportConfig())


def test_report_degenerate_zeros_pass():
    cert = _passing_certificate()
    cfg = ReportConfig(c3=1.0, c4=0.0)
    rep = build_report(
        cert,
        {"nodal_length": 0.0, "max_vanishing_order": 0,
         "max_singular_count": 0},
        {"c_star": 0.0, "max_index": 0.0},
        {"n_value": 0.0},
        cfg,
    )
    assert all(
        v is True or v == "formula_only" or all(v.values())
        for v in rep.verdicts.values()
    )


def test_report_sin_family_calibration(sin_k):
    # calibrate the length curve at k=4 with beta=0, predict k=8 and 16:
    # prediction = 8 (k/4)^{3/2} = k^{3/2} >= 2k for k >= 4
    beta = 0.0
    r = 0.25
    spec4 = sin_k(4)
    c3 = calibrate_length_constant(8.0, r, spec4.lam, beta)
    cfg = ReportConfig(beta=beta, c3=c3, c3_provenance="calibrated at k=4")
    for k, length in ((8, 16.0), (16, 32.0)):
        spec = sin_k(k)
        cert = _passing_certificate(r=r, lam=spec.lam)
        rep = build_report(
            cert,
            {"nodal_length": length, "max_vanishing_order": 1,
             "max_singular_count": 0},
            {"c_star": 0.5, "max_index": 1.0},
            {},
            cfg,
        )
        assert rep.verdicts["eq4_length_bound"] is True
        assert rep.predicted["eq4"] == pytest.approx(k ** 1.5, rel=1e-12)


def test_report_round_trip():
    cert = _passing_certificate()
    cfg = ReportConfig(c3=0.7, c4=0.1)
    rep = build_report(
        cert,
        {"nodal_length": 5.0, "max_vanishing_order": 1,
         "max_singular_count": 0},
        {"c_star": 0.4, "max_index": 1.2},
        {"n_value": 3.0},
        cfg,
    )
    text = report_to_json(rep)
    again = report_to_json(report_from_json(text))
    assert text == again
    payload = json.loads(text)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["config_hash"]
    for name in ("c2", "c3", "c4", "alpha", "beta", "kappa"):
        assert "provenance" in payload["constants"][name]


def test_scaling_law_interval(t2):
    # certified members: nodal length / sqrt(lambda) in a fixed band around
    # the sin-family value 1/pi
    from nodalscope.nodal import extract_nodal

    for m, seed in ((100, 0), (325, 0)):
        spec = random_eigenfunction(m, t2, seed)
        assert certify_equidistribution(spec, 0.25).passed
        ns = extract_nodal(spec, 512)
        ratio = ns.length / math.sqrt(spec.lam)
        assert 0.5 / math.pi <= ratio <= 4.0 / math.pi
