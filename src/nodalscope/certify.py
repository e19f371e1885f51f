"""Equidistribution certificates and the conditional bounds report.

A certificate tests the two-sided sandwich over an r/2-cover: for every
center x_i, mass(B_{r/2}(x_i))/(r/2)^n >= K1 and mass(B_{2r}(x_i))/(2r)^n
<= K2. Containment B_{r/2}(x_i) in B_r(x) in B_{2r}(x_i) for x near x_i then
gives the two-sided mass bound for every ball B_r(x) on the torus, with
constants (K1/2^n, 2^n K2). The report joins a passing certificate with
measured nodal/doubling/lift statistics and evaluates the predicted growth
curves with fitted or configured constants; it refuses to run on a failed
certificate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import HypothesisFailedError, ScaleRangeError
from .fields import MassEvaluator
from .geometry import TorusModel, euclidean_ball_volume, generate_cover
from .spectrum import EigenfunctionSpec

__all__ = [
    "EquidistCertificate",
    "BoundsReport",
    "ReportConfig",
    "default_k1",
    "default_k2",
    "certify_equidistribution",
    "largest_admissible_r",
    "lambda_threshold",
    "build_report",
    "calibrate_length_constant",
    "report_to_json",
    "report_from_json",
]

SCHEMA_VERSION = 2
DYADIC_RADII = tuple(0.25 / 2**j for j in range(8))  # largest_admissible_r
ALPHA_GRID = (0.51, 0.6, 0.7, 0.8, 0.9, 1.0)  # eq2 exponents, all > 1/2


def default_k1(model: TorusModel) -> float:
    return 0.5 * euclidean_ball_volume(1.0, model.dim)


def default_k2(model: TorusModel) -> float:
    return 2.0 * euclidean_ball_volume(1.0, model.dim)


@dataclass
class EquidistCertificate:
    spec_id: str
    r: float
    k1: float
    k2: float
    min_ratio: float      # min over centers of mass(B_{r/2})/(r/2)^n
    max_ratio: float      # max over centers of mass(B_{2r})/(2r)^n
    passed: bool
    centers_used: int
    lam: float
    dim: int


def _spec_id(spec: EigenfunctionSpec) -> str:
    return f"m={spec.m},seed={spec.seed},dim={spec.model.dim}"


def certify_equidistribution(spec: EigenfunctionSpec, r: float,
                             k1: float | None = None,
                             k2: float | None = None
                             ) -> EquidistCertificate:
    """Two-sided mass sandwich over the r/2-cover; masses are closed form.

    Ratios are normalized by each tested ball's own radius power, so a
    perfectly equidistributed field scores the unit-ball volume on both
    sides. Raises ScaleRangeError unless 0 < K1 < K2, without which a
    certificate could pass vacuously.
    """
    model = spec.model
    n = model.dim
    if k1 is None:
        k1 = default_k1(model)
    if k2 is None:
        k2 = default_k2(model)
    if not 0.0 < k1 < k2:
        raise ScaleRangeError(f"need 0 < K1 < K2, got K1 = {k1}, K2 = {k2}")
    lam_scale = spec.lam ** -0.5
    if r < lam_scale:
        raise ScaleRangeError(
            f"r = {r} below lambda^(-1/2) = {lam_scale:.4g}"
        )
    if r > 0.25:
        raise ScaleRangeError(f"r = {r} above 1/4")
    cover = generate_cover(r / 2.0, model)
    ev = MassEvaluator(spec)
    lo_masses = ev.mass_many(cover.centers, r / 2.0)
    hi_masses = ev.mass_many(cover.centers, 2.0 * r)
    min_ratio = float(np.min(lo_masses)) / (r / 2.0) ** n
    max_ratio = float(np.max(hi_masses)) / (2.0 * r) ** n
    passed = (k1 <= min_ratio) and (max_ratio <= k2)
    return EquidistCertificate(
        spec_id=_spec_id(spec), r=r, k1=k1, k2=k2, min_ratio=min_ratio,
        max_ratio=max_ratio, passed=passed, centers_used=len(cover.centers),
        lam=spec.lam, dim=n,
    )


def largest_admissible_r(spec: EigenfunctionSpec) -> float | None:
    """Largest of DYADIC_RADII at or above lambda^(-1/2) whose certificate
    passes at the default thresholds; None when all fail."""
    for r in (r for r in DYADIC_RADII if r >= spec.lam ** -0.5):
        if certify_equidistribution(spec, r).passed:
            return r
    return None


def lambda_threshold(family: list[EigenfunctionSpec], r: float
                     ) -> int | None:
    """Least index J with every member at index >= J certifying at r and the
    default thresholds.

    The family must be ordered by ascending eigenvalue; None when even the
    last member fails.
    """
    lams = [spec.lam for spec in family]
    if lams != sorted(lams):
        raise ValueError("family must be ordered by ascending eigenvalue")
    J: int | None = None
    for idx, spec in enumerate(family):
        try:
            ok = certify_equidistribution(spec, r).passed
        except ScaleRangeError:
            ok = False
        if ok:
            if J is None:
                J = idx
        else:
            J = None
    return J


@dataclass
class ReportConfig:
    beta: float = 0.01
    kappa: float = 1.0
    c3: float | None = None         # length-curve constant, calibrated
    c4: float | None = None         # singular-count constant, fitted
    c3_provenance: str = "config"
    c4_provenance: str = "config"


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class BoundsReport:
    meta: dict
    measured: dict
    predicted: dict
    constants: dict
    verdicts: dict
    schema_version: int = SCHEMA_VERSION
    config_digest: str = ""


def calibrate_length_constant(length: float, r: float, lam: float,
                              beta: float) -> float:
    """c3 making the length curve tight at one (length, r, lambda) point."""
    return length / (r ** (0.5 - 2.0 * beta) * lam ** (0.75 - beta))


def build_report(certificate: EquidistCertificate, nodal_stats: dict,
                 doubling_stats: dict, lift_stats: dict,
                 config: ReportConfig,
                 meta_extra: dict | None = None) -> BoundsReport:
    """Join measurements with the predicted curves; conditional on the
    certificate.

    nodal_stats: nodal_length, max_vanishing_order, max_singular_count.
    doubling_stats: c_star, max_index. lift_stats: n_value.
    The growth predictions are conditional on the certificate, enforced
    structurally: a failed certificate raises HypothesisFailedError.
    """
    if not certificate.passed:
        raise HypothesisFailedError(
            f"certificate for {certificate.spec_id} failed "
            f"(min_ratio={certificate.min_ratio:.4g}, "
            f"max_ratio={certificate.max_ratio:.4g})"
        )
    n = certificate.dim
    r = certificate.r
    lam = certificate.lam
    root = r * math.sqrt(lam)
    c2 = doubling_stats["c_star"]
    c3 = config.c3
    c4 = config.c4 if config.c4 is not None else 0.0
    n_lift = lift_stats.get("n_value")
    c0 = (2.0 * math.sqrt(n)) ** n

    eq2 = []
    if n_lift is not None:
        for alpha in ALPHA_GRID:
            value = config.kappa * c0 * n_lift ** (2.0 * alpha) / r
            eq2.append({"alpha": alpha, "value": value})
    eq3 = c2 * root
    eq4 = None
    if c3 is not None:
        eq4 = c3 * r ** (0.5 - 2.0 * config.beta) * lam ** (
            0.75 - config.beta
        )
    eq5 = c4 * root

    length = nodal_stats.get("nodal_length")
    max_order = nodal_stats.get("max_vanishing_order", 0)
    max_count = nodal_stats.get("max_singular_count", 0)

    verdicts = {
        "eq3_order_bound": bool(max_order <= eq3),
        "eq5_singular_bound": bool(max_count <= eq5 + 1e-12),
    }
    if eq4 is not None and length is not None:
        verdicts["eq4_length_bound"] = bool(length <= eq4)
    if eq2 and length is not None and n == 2:
        verdicts["eq2_length_bound"] = {
            f"alpha={entry['alpha']}": bool(length <= entry["value"])
            for entry in eq2
        }
    elif eq2:
        verdicts["eq2_length_bound"] = "formula_only"

    meta = {
        "lambda": lam,
        "r": r,
        "K1": certificate.k1,
        "K2": certificate.k2,
        "spec_id": certificate.spec_id,
    }
    if meta_extra:
        meta.update(meta_extra)
    constants = {
        "c2": {"value": c2, "provenance": "fitted"},
        "c3": {"value": c3, "provenance": config.c3_provenance},
        "c4": {"value": c4, "provenance": config.c4_provenance},
        "alpha": {"value": list(ALPHA_GRID), "provenance": "config"},
        "beta": {"value": config.beta, "provenance": "config"},
        "kappa": {"value": config.kappa, "provenance": "config"},
    }
    return BoundsReport(
        meta=meta,
        measured={
            "nodal_length": length,
            "max_vanishing_order": max_order,
            "max_singular_count": max_count,
            "c_star": doubling_stats.get("c_star"),
            "max_index": doubling_stats.get("max_index"),
            "N_lift": n_lift,
        },
        predicted={"eq2": eq2, "eq3": eq3, "eq4": eq4, "eq5": eq5},
        constants=constants,
        verdicts=verdicts,
        config_digest=config_hash(asdict(config)),
    )


def report_to_json(report: BoundsReport) -> str:
    payload = {
        "schema_version": report.schema_version,
        "config_hash": report.config_digest,
        "meta": report.meta,
        "measured": report.measured,
        "predicted": report.predicted,
        "constants": report.constants,
        "verdicts": report.verdicts,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def report_from_json(text: str) -> BoundsReport:
    payload = json.loads(text)
    return BoundsReport(
        meta=payload["meta"],
        measured=payload["measured"],
        predicted=payload["predicted"],
        constants=payload["constants"],
        verdicts=payload["verdicts"],
        schema_version=payload["schema_version"],
        config_digest=payload["config_hash"],
    )
