"""Exception types shared across the package."""


class NodalscopeError(Exception):
    """Base class for all package-specific errors."""


class ScaleRangeError(NodalscopeError):
    """A scale parameter is outside its admissible range."""


class EmbeddedBallError(ScaleRangeError):
    """Ball radius exceeds the embedded-ball range (r > 1/2 on the unit torus)."""


class CoverRadiusError(ScaleRangeError):
    """Cover radius outside the admissible range (0, 1/4]."""


class SpecError(NodalscopeError, ValueError):
    """An eigenfunction spec is malformed: not spec JSON, bad mode array,
    |k|^2 != m, non-finite coefficients, repeated modes, a wrong norm, or a
    seed that is not an integer >= 0."""


class DimensionError(NodalscopeError, ValueError):
    """A computation is defined in another torus dimension than the spec's."""


class ManifestError(NodalscopeError, ValueError):
    """A report manifest is not JSON, has no list of spec paths, or has a
    beta or kappa that is not a finite real number (a bool, string or null
    is refused too). It is raised before any certificate is computed."""


class NoModesError(NodalscopeError):
    """The requested squared norm has no lattice representations."""

    def __init__(self, m, dim):
        self.m = m
        self.dim = dim
        super().__init__(f"no lattice modes with |k|^2 = {m} in dimension {dim}")


class ResolutionError(NodalscopeError):
    """Grid resolution below the Nyquist requirement."""

    def __init__(self, n_given, n_required):
        self.n_given = n_given
        self.n_required = n_required
        super().__init__(
            f"grid resolution {n_given} below required minimum {n_required}"
        )


class BudgetError(NodalscopeError):
    """A certified scan cannot meet the requested tolerance within budget."""


class DegenerateBallError(NodalscopeError):
    """A sup/mass denominator collapsed to (numerical) zero."""


class LiftOverflowError(NodalscopeError):
    """Harmonic-lift exponent t*sqrt(lambda) would overflow."""


class HypothesisFailedError(NodalscopeError):
    """Report requested on a failed equidistribution certificate."""
