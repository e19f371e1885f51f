import math
import tracemalloc
from dataclasses import asdict, replace

import pytest

from nodalscope.certify import (
    EquidistCertificate,
    ReportConfig,
    config_hash,
    largest_admissible_r,
)
from nodalscope import certify, harness
from nodalscope.geometry import generate_cover, member_cover
from nodalscope.harness import (
    EnsembleMember,
    certified_member,
    member_nodal_stats,
    run_family_report,
)
from nodalscope.nodal import count_singular_in_balls, find_singular_points
from nodalscope.spectrum import random_eigenfunction, translate


def test_certified_member(sin1, t2):
    assert certified_member(sin1) is None
    spec = random_eigenfunction(100, t2, 0)
    member = certified_member(spec)
    assert member.spec is spec
    assert member.r == largest_admissible_r(spec)
    assert member.certificate.passed and member.certificate.r == member.r


def test_member_certified_once(t2, monkeypatch):
    # a member costs exactly the certify_equidistribution calls of its
    # radius walk, down from 1/4 to the radius that passes (or all of the
    # grid's radii at or above lambda^(-1/2) when none does): its
    # certificate is the passing one, not a second computation
    inner = certify.certify_equidistribution
    radii = []

    def spy(spec, r, *args):
        radii.append(r)
        return inner(spec, r, *args)

    monkeypatch.setattr(certify, "certify_equidistribution", spy)
    for spec, passes in ((random_eigenfunction(100, t2, 0), True),
                         (random_eigenfunction(1105, t2, 1), True),
                         (random_eigenfunction(25, t2, 0), False)):
        walk = [r for r in certify.DYADIC_RADII if r >= spec.lam ** -0.5]
        radii.clear()
        member = certified_member(spec)
        assert (member is not None) == passes
        if member is None:
            assert radii == walk and len(walk) == 3
        else:
            assert radii == walk[:walk.index(member.r) + 1]
            assert member.certificate.r == radii[-1]


def _measured_member(spec, length, count):
    cert = EquidistCertificate(
        spec_id="forced", r=0.25, k1=1.0, k2=8.0, min_ratio=3.0,
        max_ratio=3.2, passed=True, centers_used=144, lam=spec.lam, dim=2,
    )
    return EnsembleMember(spec=spec, r=0.25, certificate=cert, c_star=0.5,
                          nodal_length=length, max_singular_count=count)


def test_family_report_leaves_config_unchanged(t2):
    # c3/c4 are calibrated on a copy; the reports carry the hash of the
    # config as the caller gave it
    members = {m: [_measured_member(random_eigenfunction(m, t2, 0), length,
                                    count)]
               for m, length, count in ((100, 20.0, 1), (325, 40.0, 0))}
    config = ReportConfig(beta=0.02, kappa=2.0)
    given = replace(config)
    reports = run_family_report(members, config)
    assert config == given
    assert {rep.config_digest for rep in reports} == {
        config_hash(asdict(given))}
    lam = members[100][0].spec.lam
    for rep in reports:
        assert rep.constants["c3"] == {
            "value": pytest.approx(20.0 / (0.25 ** 0.46 * lam ** 0.73),
                                   rel=1e-12),
            "provenance": "calibrated at m=100",
        }
        assert rep.constants["c4"]["value"] == pytest.approx(
            1.0 / (0.25 * math.sqrt(lam)), rel=1e-12)


def test_member_nodal_stats_counts_singular_points(product_spec):
    # 2 sin(2 pi x) sin(2 pi y), moved off the grid lines: its four
    # order-2 zeros give the per-ball counts over the r cover
    spec = translate(product_spec, (0.1234, 0.3456))
    member = _measured_member(spec, None, 0)
    member_nodal_stats(member)
    points = find_singular_points(spec, 512)
    counts = count_singular_in_balls(
        points, member.r, spec.lam,
        generate_cover(member.r, spec.model).centers)
    assert member.max_vanishing_order == 2
    assert member.max_singular_count == max(counts) > 0
    assert member.nodal_length > 0


def test_member_nodal_stats_doubles_grid(t2, monkeypatch):
    # 512 is below 4 nyquist_resolution(5525) = 608: the grid doubles once
    grids = []
    extract = harness.extract_nodal

    def spy(spec, N):
        grids.append(N)
        return extract(spec, N)

    monkeypatch.setattr(harness, "extract_nodal", spy)
    member = _measured_member(random_eigenfunction(5525, t2, 0), None, 0)
    member_nodal_stats(member)
    assert grids == [1024]


@pytest.mark.parametrize("measure", [harness.member_doubling,
                                     harness.member_lift_index])
def test_scan_memory_peak(t2, measure):
    # each measurement is one lockstep scan over all its balls; its pooled
    # descents and split levels hold at most spectrum.PHASE_BLOCK cells a
    # level, so the traced peak stays small on the first m = 1105
    # acceptance member (about 4.7 and 3.4 MiB; 10 MiB with unbounded pools)
    member = certified_member(random_eigenfunction(1105, t2, 0))
    member_cover(member.r, t2)  # the cached cover is not the scan's
    tracemalloc.start()
    try:
        measure(member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
