"""Exception types shared across the package."""


class FallToCenterError(ValueError):
    """The attractive 1/r^2 term is too strong: the indicial discriminant is
    negative and no normalizable ground state exists."""


class NotNormalizableError(ValueError):
    """The state cannot be normalized in double precision: the
    normalization constant zeta lies outside the normal double range."""


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


class UnitsRangeError(ValueError):
    """The units put a closed-form quantity outside the double range: mass
    and hbar so extreme that hbar^2 / 2M is not a normal double, or that
    beta = -2 m B / hbar^2, the indicial discriminant or the energy cannot
    be represented."""
