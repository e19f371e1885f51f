"""Ensemble and family pipelines: certified seeds, fitted constants, reports.

Builds the measurement chains the reports and the verification suite share:
collect seeds whose random eigenfunctions certify at the default thresholds
(scanning seeds in ascending order, recording the pass fraction), run the
doubling scan at the certified radius, fit growth constants, measure nodal
and lift statistics, and assemble per-member bounds reports with constants
calibrated on the smallest certified eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .certify import (
    BoundsReport,
    EquidistCertificate,
    ReportConfig,
    _admissible,
    build_report,
    calibrate_length_constant,
    config_hash,
)
from .doubling import DoublingRecord, fit_growth_constant, scan_doubling
from .fields import ENSEMBLE_SUP_TOL, gradient_sup_global, sup_global
from .geometry import TorusModel, member_cover
from .lift import CubeIndex, cube_doubling_index
from .nodal import (
    count_singular_in_balls,
    extract_nodal,
    find_singular_points,
    member_resolution,
)
from .spectrum import EigenfunctionSpec, random_eigenfunction

__all__ = [
    "EnsembleMember",
    "certified_member",
    "collect_certified_members",
    "member_doubling",
    "member_nodal_stats",
    "member_lift_index",
    "run_family_report",
    "gradient_amplitude_ratio",
]

MAX_SEED = 4000
MEMBERS_PER_M = 8  # certified seeds collect_certified_members returns


@dataclass
class EnsembleMember:
    spec: EigenfunctionSpec
    r: float
    certificate: EquidistCertificate
    records: list[DoublingRecord] = field(default_factory=list)
    c_star: float | None = None
    nodal_length: float | None = None
    max_vanishing_order: int = 1
    max_singular_count: int = 0
    lift_index: CubeIndex | None = None


def certified_member(spec: EigenfunctionSpec) -> EnsembleMember | None:
    """The spec with its certificate at the largest admissible radius, the
    one the radius walk passed; None when no radius certifies at the
    default thresholds."""
    found = _admissible(spec)
    if found is None:
        return None
    return EnsembleMember(spec=spec, r=found[0], certificate=found[1])


def collect_certified_members(m: int, model: TorusModel):
    """First MEMBERS_PER_M seeds (ascending) whose spec certifies at the
    default thresholds and radius grid; pass fraction too.

    Returns (members, pass_fraction) where pass_fraction is over the seeds
    scanned before the quota filled.
    """
    members = []
    for seed in range(MAX_SEED):
        member = certified_member(random_eigenfunction(m, model, seed))
        if member is not None:
            members.append(member)
            if len(members) == MEMBERS_PER_M:
                return members, len(members) / (seed + 1)
    raise RuntimeError(
        f"only {len(members)}/{MEMBERS_PER_M} certified seeds for m={m} "
        f"within {MAX_SEED} seeds")


def member_doubling(member: EnsembleMember) -> None:
    """Doubling scan on the cover grid at the certified radius; fits c*."""
    spec = member.spec
    member.records = scan_doubling(spec, member.r, tol=ENSEMBLE_SUP_TOL)
    member.c_star = fit_growth_constant(member.records, member.r, spec.lam)


def member_nodal_stats(member: EnsembleMember) -> None:
    """Nodal length, max vanishing order, max per-ball singular count, on
    the grid nodal.member_resolution and the balls geometry.member_cover."""
    spec = member.spec
    N = member_resolution(spec.m)
    ns = extract_nodal(spec, N)
    member.nodal_length = ns.length
    points = find_singular_points(spec, N)
    member.max_vanishing_order = max(
        [p.vanishing_order for p in points], default=1
    )
    member.max_singular_count = max(count_singular_in_balls(
        points, member.r, spec.lam, member_cover(member.r, spec.model).centers))


def member_lift_index(member: EnsembleMember) -> None:
    """Cube doubling index at the certified radius capped to the cube range."""
    spec = member.spec
    r_cube = min(member.r, 0.125)
    member.lift_index = cube_doubling_index(
        spec, np.full(spec.model.dim, 0.5), r_cube)


def gradient_amplitude_ratio(spec: EigenfunctionSpec) -> float:
    """sup|grad psi| / (sqrt(lambda) sup|psi|) over the torus."""
    gs = math.sqrt(gradient_sup_global(spec))
    ps = math.sqrt(sup_global(spec))
    return gs / (math.sqrt(spec.lam) * ps)


def run_family_report(members_by_m: dict[int, list[EnsembleMember]],
                      config: ReportConfig | None = None,
                      pass_fractions: dict[int, float] | None = None,
                      ) -> list[BoundsReport]:
    """Per-member bounds reports with c3/c4 calibrated at the smallest m.

    Members must already carry doubling and nodal measurements. c3 is set to
    the largest calibration constant among smallest-m members (so the curve
    is tight there and a falsifiable prediction above); c4 likewise from
    singular counts (zero when the ensembles have none). The constants go
    into a copy of `config`; every report carries the hash of `config` as
    given, so it names the inputs and not the calibrated values.
    """
    if config is None:
        config = ReportConfig()
    digest = config_hash(asdict(config))
    ms = sorted(members_by_m)
    calibrated = replace(
        config,
        c3=max(calibrate_length_constant(mb.nodal_length, mb.r, mb.spec.lam,
                                         config.beta)
               for mb in members_by_m[ms[0]]),
        c3_provenance=f"calibrated at m={ms[0]}",
        c4=max(mb.max_singular_count / (mb.r * math.sqrt(mb.spec.lam))
               for mlist in members_by_m.values() for mb in mlist),
        c4_provenance="fitted (max over ensembles)",
    )

    reports = []
    for m in ms:
        for mb in members_by_m[m]:
            lift_stats = {}
            if mb.lift_index is not None:
                lift_stats["n_value"] = mb.lift_index.n_value
            meta = {"m": m, "seed": mb.spec.seed}
            if pass_fractions and m in pass_fractions:
                meta["certification_pass_fraction"] = pass_fractions[m]
            reports.append(replace(build_report(
                mb.certificate,
                {
                    "nodal_length": mb.nodal_length,
                    "max_vanishing_order": mb.max_vanishing_order,
                    "max_singular_count": mb.max_singular_count,
                },
                {
                    "c_star": mb.c_star,
                    "max_index": max(
                        (rec.index_sup for rec in mb.records), default=0.0
                    ),
                },
                lift_stats,
                calibrated,
                meta_extra=meta,
            ), config_digest=digest))
    return reports
