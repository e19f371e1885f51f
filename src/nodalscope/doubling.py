"""Doubling indices and growth ratios of eigenfunctions.

The central quantity is N(B_s(x)) = log(sup_{B_2s}|psi|^2 / sup_{B_s}|psi|^2);
its scaled maximum c* = max N/(r sqrt(lambda)) over a scan is the smallest
constant making the refined growth inequality hold on the sample. Also here:
the 4s/s growth ratio of the auxiliary density q and the iterated
lower-bound check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBallError, ScaleRangeError
from .fields import DEFAULT_TOL, q_on_ball, sup_on_ball
from .geometry import member_cover
from .spectrum import EigenfunctionSpec

__all__ = [
    "DoublingRecord",
    "doubling_index_sup",
    "q_growth_ratio",
    "fit_growth_constant",
    "lower_bound_check",
    "scan_doubling",
    "default_scale_sweep",
]

logger = logging.getLogger(__name__)

_DENOM_FLOOR = 1e-300


@dataclass
class DoublingRecord:
    center: np.ndarray
    scale: float                 # delta
    index_sup: float
    context_r: float
    lam: float


def _log_ratio(num: float, den: float) -> float:
    if den < _DENOM_FLOOR:
        raise DegenerateBallError(
            f"denominator {den} below {_DENOM_FLOOR}; tolerance misuse "
            "(psi cannot vanish on a ball)"
        )
    return math.log(num / den)


def doubling_index_sup(spec: EigenfunctionSpec, x, delta: float,
                       tol: float = DEFAULT_TOL) -> float:
    """log(sup_{B_2delta}|psi|^2 / sup_{B_delta}|psi|^2); >= 0 up to tol.
    Raises EmbeddedBallError (a ScaleRangeError) unless 0 < 2 delta <= 1/2."""
    num = sup_on_ball(spec, x, 2.0 * delta, tol)
    den = sup_on_ball(spec, x, delta, tol)
    return _log_ratio(num, den)


def q_growth_ratio(spec: EigenfunctionSpec, x, s: float,
                   tol: float = DEFAULT_TOL) -> float:
    """sup_{B_4s} q / sup_{B_s} q (the 4s/s ratio, not a log).

    The growth estimate's range is s > lambda^(-1/2); smaller scales are
    allowed (the ratio is still well defined) but logged, since the
    exponential bound is only claimed above the wavelength. Raises
    EmbeddedBallError (a ScaleRangeError) unless 0 < 4 s <= 1/2.
    """
    num = q_on_ball(spec, x, 4.0 * s, tol)
    if s <= spec.lam ** -0.5:
        logger.info(
            "q growth ratio at s=%.4g below lambda^(-1/2)=%.4g: outside the "
            "growth-bound range", s, spec.lam ** -0.5,
        )
    den = q_on_ball(spec, x, s, tol)
    if den < _DENOM_FLOOR:
        raise DegenerateBallError(f"q denominator {den} degenerate")
    return num / den


def fit_growth_constant(records: list[DoublingRecord], r: float,
                        lam: float) -> float:
    """c* = max over records of index_sup/(r sqrt(lambda)).

    The smallest constant making the sup doubling inequality hold on the
    sample; records must all have scale < 10 r.
    """
    if not records:
        raise ValueError("no doubling records to fit")
    bad = [rec for rec in records if rec.scale >= 10.0 * r]
    if bad:
        raise ScaleRangeError(
            f"{len(bad)} records have scale >= 10 r = {10 * r}"
        )
    denom = r * math.sqrt(lam)
    return max(0.0, max(rec.index_sup / denom for rec in records))


def lower_bound_check(spec: EigenfunctionSpec, x, delta: float, r: float,
                      c: float, tol: float = DEFAULT_TOL) -> bool:
    """sup_{B_delta}|psi|^2 >= (r/delta)^(-c r sqrt(lambda))?"""
    if not 0.0 < delta < r / 2.0:
        raise ScaleRangeError(f"need delta in (0, r/2), got {delta}")
    sup = sup_on_ball(spec, x, delta, tol)
    rhs = (r / delta) ** (-c * r * math.sqrt(spec.lam))
    return sup >= rhs


def default_scale_sweep(lam: float, r: float) -> list[float]:
    """Dyadic deltas lambda^(-1/2) 2^j with 2 delta <= 1/2 and delta < 10 r.

    Raises ScaleRangeError when no delta qualifies.
    """
    out = []
    d = lam ** -0.5
    while 2.0 * d <= 0.5 and d < 10.0 * r:
        out.append(d)
        d *= 2.0
    if not out:
        raise ScaleRangeError(
            f"no scale of the sweep has 2 delta <= 1/2 and delta below "
            f"10 r = {10 * r:.4g}")
    return out


def scan_doubling(spec: EigenfunctionSpec, r: float,
                  centers: np.ndarray | None = None,
                  tol: float = DEFAULT_TOL) -> list[DoublingRecord]:
    """Doubling records over a center grid and the default scale sweep.

    Every ball is measured in one lockstep scan over centers x radii, and
    the dyadic chain shares radii (the double ball at one scale is the base
    ball at the next), so D scales take D + 1 radii per center. Raises
    ScaleRangeError unless 0 < r <= 1/4, the radii certify accepts, or when
    the sweep is empty, before the cover is built.
    """
    if not 0.0 < r <= 0.25:
        raise ScaleRangeError(f"need 0 < r <= 1/4, got {r}")
    model = spec.model
    deltas = default_scale_sweep(spec.lam, r)
    if centers is None:
        centers = member_cover(r, model).centers
    centers = np.asarray(centers, dtype=float).reshape(-1, model.dim)
    radii = sorted({s for d in deltas for s in (d, 2.0 * d)})
    values = sup_on_ball(spec, np.tile(centers, (len(radii), 1)),
                         np.repeat(radii, len(centers)), tol)
    sups = dict(zip(radii, values.reshape(len(radii), len(centers))))
    return [
        DoublingRecord(
            center=np.array(center), scale=delta,
            index_sup=_log_ratio(sups[2.0 * delta][i], sups[delta][i]),
            context_r=r, lam=spec.lam,
        )
        for i, center in enumerate(centers) for delta in deltas
    ]
