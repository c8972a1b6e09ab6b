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


class GridResolutionError(ValueError):
    """A grid cannot carry the requested finite-difference operation: it is
    too coarse for the stencil, or its matrix entries leave the double
    range."""


class LadderAlgebraError(ValueError):
    """A ladder-coefficient radicand went negative; the (k, N) pair violates
    the algebra's positivity domain."""
