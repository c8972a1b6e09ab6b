"""Exception types shared across the package."""


class FallToCenterError(ValueError):
    """The attractive 1/r^2 term is too strong: the indicial discriminant is
    negative and no normalizable ground state exists."""


class NotNormalizableError(ValueError):
    """The state cannot be normalized: the indicial root fails the gate
    2k + 3 - N > 0, or the normalization constant zeta exceeds the double
    range."""


class NoBoundStatesError(ValueError):
    """The 1/r coefficient is not attractive (B >= 0), so the quantization
    condition has no solutions with positive decay rate."""


class CancellationError(ValueError):
    """A series evaluation would lose more accuracy to cancellation between
    its terms than its guard allows."""


class GridResolutionError(ValueError):
    """A sampling grid is too coarse for the requested finite-difference
    operation."""


class LadderAlgebraError(ValueError):
    """A ladder-coefficient radicand went negative; the (k, N) pair violates
    the algebra's positivity domain."""
