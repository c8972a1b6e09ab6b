"""Closed-form bound-state machinery.

Chain of derived quantities for V = A/r^2 + B/r + C in N spatial dimensions:

    nu(nu+1) = l(l+N-2) + 2 m A / hbar^2        centrifugal strength
    k        = positive root of k^2 - (N-2) k - nu(nu+1) = 0
    beta     = -2 m B / hbar^2                   (> 0 for binding)
    eps      = beta / (2n + 2k + 3 - N)          inverse decay length
    E        = C - (m / 2 hbar^2) (B / (n + k + (3-N)/2))^2

The k_+ branch is always selected; it controls the small-r power of the
eigenfunction and hence normalizability.
"""

import math
import sys
from dataclasses import dataclass

from .errors import (FallToCenterError, NoBoundStatesError,
                     NotNormalizableError, UnitsRangeError)
from .potentials import PotentialParams
from .specfun import radial_norm_constant


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial number n >= 0, orbital number ell >= 0, dimension dim >= 2."""
    n: int
    ell: int
    dim: int

    def __post_init__(self):
        if self.n < 0 or self.ell < 0:
            raise ValueError("quantum numbers n and ell must be >= 0")
        if self.dim < 2:
            raise ValueError("spatial dimension must be >= 2 (hyperspherical "
                             "separation does not apply to N = 1)")


@dataclass(frozen=True)
class BoundState:
    """Derived quantities of one bound level.

    alpha = 2k + 2 - N is the Laguerre order of the eigenfunction; zeta is
    the unit-normalization constant (corrected form).
    """
    params: PotentialParams
    q: QuantumNumbers
    k: float
    beta: float
    eps: float
    energy: float
    alpha: float
    zeta: float


# With every factor 0 or within [_LO, _HI] in magnitude, each partial
# product of the formulas below (at most six factor powers) stays in the
# normal double range, so they are evaluated as written.
_LO, _HI = 2.0 ** -170, 2.0 ** 170


def _out_of_range(params: PotentialParams, what: str) -> UnitsRangeError:
    return UnitsRangeError(f"{what} for mass = {params.mass:g}, "
                           f"hbar = {params.hbar:g}")


def _frexp_product(params: PotentialParams, name: str, *factors) -> float:
    """prod(x ** p for x, p in factors) for factors outside [_LO, _HI].

    There hbar**2 or eps**2 alone may leave the double range although the
    product does not, so the product is formed from frexp mantissas and
    exponents.  A product above the double range raises UnitsRangeError
    naming ``name``; one below it rounds to a subnormal or zero.
    """
    mant, exp = 1.0, 0
    for x, p in factors:
        m, e = math.frexp(x)
        mant *= m**p
        exp += e * p
    try:
        return math.ldexp(mant, exp)
    except OverflowError:
        raise _out_of_range(params, f"{name} leaves the double range") from None


def centrifugal_strength(params: PotentialParams, ell: int, dim: int) -> float:
    """nu(nu+1): angular barrier plus the scaled 1/r^2 coefficient."""
    if dim < 2:
        raise ValueError("spatial dimension must be >= 2")
    m, h, a = params.mass, params.hbar, params.A
    if _LO <= m <= _HI and _LO <= h <= _HI and (not a or _LO <= abs(a) <= _HI):
        scaled = 2.0 * m * a / h**2
    else:
        scaled = _frexp_product(params, "2 m A / hbar^2",
                                (2.0, 1), (m, 1), (a, 1), (h, -2))
    return ell * (ell + dim - 2) + scaled


def indicial_root(params: PotentialParams, ell: int, dim: int) -> float:
    """Positive root k of k^2 - (N-2) k - nu(nu+1) = 0.

    Raises FallToCenterError when the discriminant is negative (over-
    attractive 1/r^2 term), UnitsRangeError when it leaves the double
    range, and NotNormalizableError if the root fails 2k + 3 - N > 0.  A
    zero discriminant is accepted: it is the borderline fall-to-center case
    k = (N-2)/2, whose state is still normalizable.
    """
    nu = centrifugal_strength(params, ell, dim)
    disc = (dim - 2.0) ** 2 + 4.0 * nu
    if not math.isfinite(disc):
        raise _out_of_range(params, "the indicial discriminant leaves the "
                            f"double range at ell={ell}, N={dim}")
    if disc < 0.0:
        raise FallToCenterError(
            f"indicial discriminant {disc:.6g} < 0 for ell={ell}, N={dim}: "
            "the attractive 1/r^2 term admits no ground state")
    k = 0.5 * ((dim - 2.0) + math.sqrt(disc))
    if 2.0 * k + 3.0 - dim <= 0.0:
        # unreachable for the k_+ branch (2k + 3 - N = 1 + sqrt(disc) >= 1);
        # kept as a defensive guard on the contract
        raise NotNormalizableError(
            f"k = {k:.6g} fails the normalizability gate for N = {dim}")
    return k


def binding_rate(params: PotentialParams) -> float:
    """beta = -2 m B / hbar^2; positive exactly when the potential binds.

    UnitsRangeError when an attractive B gives a beta outside the normal
    double range, where no decay length is representable.
    """
    m, h, b = params.mass, params.hbar, params.B
    name = "beta = -2 m B / hbar^2"
    if _LO <= m <= _HI and _LO <= h <= _HI and (not b or _LO <= abs(b) <= _HI):
        beta = -2.0 * m * b / h**2
    else:
        beta = _frexp_product(params, name, (-2.0, 1), (m, 1), (b, 1), (h, -2))
    if b < 0.0 and beta < sys.float_info.min:
        raise _out_of_range(params, f"{name} = {beta:g} is below the normal "
                            "double range")
    return beta


def _closed_form(params: PotentialParams, q: QuantumNumbers):
    """(beta, k, eps, energy) of one level, binding gate applied.

    Kept apart from bound_state so that energy, decay_rate and
    spectrum_table do not compute zeta, whose exponential overflows for
    large m/hbar^2 and ell long before the energy does.
    """
    beta = binding_rate(params)
    if beta <= 0.0:
        raise NoBoundStatesError(
            f"B = {params.B:.6g} is not attractive; no bound spectrum")
    k = indicial_root(params, q.ell, q.dim)
    eps = beta / (2.0 * q.n + 2.0 * k + 3.0 - q.dim)
    m, h = params.mass, params.hbar
    if _LO <= m <= _HI and _LO <= h <= _HI and _LO <= eps <= _HI:
        e = params.C - h**2 * eps**2 / (2.0 * m)
    else:
        e = params.C - _frexp_product(params, "hbar^2 eps^2 / 2 m", (h, 2),
                                      (eps, 2), (2.0, -1), (m, -1))
    if not math.isfinite(e):
        raise _out_of_range(params, "the energy C - hbar^2 eps^2 / 2 m "
                            "leaves the double range")
    return beta, k, eps, e


def decay_rate(params: PotentialParams, q: QuantumNumbers) -> float:
    """Inverse decay length eps = beta / (2n + 2k + 3 - N)."""
    return _closed_form(params, q)[2]


def energy(params: PotentialParams, q: QuantumNumbers) -> float:
    """Bound-state energy E = C - (m / 2 hbar^2) (B / (n + k + (3-N)/2))^2."""
    return _closed_form(params, q)[3]


def bound_state(params: PotentialParams, q: QuantumNumbers) -> BoundState:
    """Assemble the full derived tuple for one level, gates applied."""
    beta, k, eps, e = _closed_form(params, q)
    alpha = 2.0 * k + 2.0 - q.dim
    zeta = radial_norm_constant(2.0 * eps, q.n, alpha)
    return BoundState(params=params, q=q, k=k, beta=beta, eps=eps,
                      energy=e, alpha=alpha, zeta=zeta)


_STATUS = {
    FallToCenterError: "fall-to-center",
    NotNormalizableError: "not-normalizable",
    NoBoundStatesError: "no-bound-states",
}


@dataclass(frozen=True)
class SpectrumRow:
    """One (n, ell, N) channel entry; invalid channels carry their error kind
    in ``status`` instead of being dropped."""
    q: QuantumNumbers
    k: float | None
    eps: float | None
    energy: float | None
    status: str
    detail: str = ""


def spectrum_table(params: PotentialParams, n_max: int, ell_max: int,
                   dim: int) -> list[SpectrumRow]:
    """Rows for every n <= n_max, ell <= ell_max at fixed dimension."""
    if n_max < 0 or ell_max < 0:
        raise ValueError("n_max and ell_max must be >= 0")
    rows = []
    for ell in range(ell_max + 1):
        for n in range(n_max + 1):
            q = QuantumNumbers(n=n, ell=ell, dim=dim)
            try:
                _, k, eps, e = _closed_form(params, q)
            except (FallToCenterError, NotNormalizableError,
                    NoBoundStatesError) as exc:
                rows.append(SpectrumRow(q=q, k=None, eps=None, energy=None,
                                        status=_STATUS[type(exc)],
                                        detail=str(exc)))
            else:
                rows.append(SpectrumRow(q=q, k=k, eps=eps, energy=e,
                                        status="ok"))
    return rows
