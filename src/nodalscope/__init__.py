"""Nodal sets, doubling indices, and small-scale equidistribution of exact
Laplacian eigenfunctions on flat tori."""

from .certify import (
    BoundsReport,
    EquidistCertificate,
    ReportConfig,
    build_report,
    certify_equidistribution,
    lambda_threshold,
    largest_admissible_r,
)
from .doubling import (
    DoublingRecord,
    doubling_index_sup,
    fit_growth_constant,
    lower_bound_check,
    q_growth_ratio,
    scan_doubling,
)
from .errors import (
    BudgetError,
    DegenerateBallError,
    EmbeddedBallError,
    HypothesisFailedError,
    LiftOverflowError,
    NodalscopeError,
    NoModesError,
    ResolutionError,
    ScaleRangeError,
    SpecError,
)
from .fields import MassEvaluator, l2_on_ball, q_on_ball, sup_on_ball
from .geometry import (
    CoverSet,
    TorusModel,
    ball_volume,
    generate_cover,
    geodesic_distance,
    overlap_multiplicity,
)
from .lift import (
    CubeIndex,
    cube_doubling_index,
    harmonicity_residual,
    lift_evaluate,
)
from .nodal import (
    NodalSet,
    SingularPoint,
    count_singular_in_balls,
    extract_nodal,
    find_singular_points,
    vanishing_order,
)
from .spectrum import (
    EigenfunctionSpec,
    enumerate_lattice,
    evaluate,
    evaluate_gradient,
    laplacian_residual,
    mode_spec,
    random_eigenfunction,
    spec_from_json,
    spec_to_json,
    translate,
)

__version__ = "0.1.0"
