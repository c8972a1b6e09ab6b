"""Closed-form bound-state machinery.

Chain of derived quantities for V = A/r^2 + B/r + C in N spatial dimensions:

    K        = hbar^2 / 2M                       params.kinetic, the units
    nu(nu+1) = l(l+N-2) + A / K                  centrifugal strength
    k        = positive root of k^2 - (N-2) k - nu(nu+1) = 0
    beta     = -B / K                            (> 0 for binding)
    eps      = beta / (2n + 2k + 3 - N)          inverse decay length
    E        = C - K eps^2 = C - (m / 2 hbar^2) (B / (n + k + (3-N)/2))^2

The k_+ branch is always selected; it controls the small-r power of the
eigenfunction and hence normalizability.  beta and k depend on (ell, N)
alone, so spectrum_table derives them once per ell, eps and E per level.
"""

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (FallToCenterError, NoBoundStatesError,
                     NotNormalizableError, UnitsRangeError)
from .potentials import PotentialParams
from .specfun import radial_norm_constant


def _whole(name: str, value) -> int:
    """value as an int; ValueError naming it unless it is an integer
    (operator.index takes ints and numpy ints, never 1.5 or 3.0)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"quantum number {name} must be an integer, "
                         f"not {value!r}") from None


def _check_dim(dim):
    if _whole("dim", dim) < 2:
        raise ValueError("spatial dimension must be >= 2 (hyperspherical "
                         "separation does not apply to N = 1)")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial number n >= 0, orbital number ell >= 0, dimension dim >= 2."""
    n: int
    ell: int
    dim: int

    def __post_init__(self):
        if _whole("n", self.n) < 0 or _whole("ell", self.ell) < 0:
            raise ValueError("quantum numbers n and ell must be >= 0")
        _check_dim(self.dim)


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


def _out_of_range(params: PotentialParams, what: str) -> UnitsRangeError:
    return UnitsRangeError(f"{what} for mass = {params.mass:g}, "
                           f"hbar = {params.hbar:g}")


def centrifugal_strength(params: PotentialParams, ell: int, dim: int) -> float:
    """nu(nu+1): angular barrier plus the scaled 1/r^2 coefficient A/K."""
    _check_dim(dim)
    return ell * (ell + dim - 2) + params.A / params.kinetic


def indicial_root(params: PotentialParams, ell: int, dim: int) -> float:
    """Positive root k of k^2 - (N-2) k - nu(nu+1) = 0.

    Raises FallToCenterError when the discriminant is negative (over-
    attractive 1/r^2 term), -inf included, and UnitsRangeError when it is
    +inf or NaN.  The root always passes the normalizability gate
    2k + 3 - N > 0, since 2k + 3 - N = 1 + sqrt(disc) >= 1.  A zero
    discriminant is accepted: it is the borderline fall-to-center case
    k = (N-2)/2, whose state is still normalizable.
    """
    nu = centrifugal_strength(params, ell, dim)
    disc = (dim - 2.0) ** 2 + 4.0 * nu
    if disc < 0.0:
        raise FallToCenterError(
            f"indicial discriminant {disc:.6g} < 0 for ell={ell}, N={dim}: "
            "the attractive 1/r^2 term admits no ground state")
    if not math.isfinite(disc):
        raise _out_of_range(params, "the indicial discriminant leaves the "
                            f"double range at ell={ell}, N={dim}")
    return 0.5 * ((dim - 2.0) + math.sqrt(disc))


def binding_rate(params: PotentialParams) -> float:
    """beta = -B/K = -2 m B / hbar^2; positive exactly when the potential
    binds.

    UnitsRangeError when beta overflows, or when an attractive B gives a
    beta below the normal double range, where no decay length is
    representable.
    """
    beta = -params.B / params.kinetic
    if math.isinf(beta) or (params.B < 0.0 and beta < sys.float_info.min):
        raise _out_of_range(params, f"beta = -2 m B / hbar^2 = {beta:g} is "
                            "outside the normal double range")
    return beta


def _channel(params: PotentialParams, ell: int, dim: int):
    """(beta, k) of one (ell, N) channel, binding gate applied.

    The indicial root is taken before the binding gate: an over-critical
    1/r^2 term makes the Hamiltonian unbounded below whatever B is, so such
    a channel is fall-to-center even when B >= 0, a discriminant of -inf
    included.  A discriminant of +inf refuses only a binding channel; with
    B >= 0 the binding gate's label stands.
    """
    beta = binding_rate(params)
    try:
        k = indicial_root(params, ell, dim)
    except UnitsRangeError:
        if beta > 0.0:
            raise
    if beta <= 0.0:
        raise NoBoundStatesError(
            f"B = {params.B:.6g} is not attractive; no bound spectrum")
    return beta, k


def _level(params: PotentialParams, beta: float, k: float, n: int, dim: int):
    """(eps, energy) of level n from its channel's (beta, k)."""
    eps = beta / (2.0 * n + 2.0 * k + 3.0 - dim)
    # K eps = -B / D stays within |B|; only the last product can overflow
    e = params.C - params.kinetic * eps * eps
    if not math.isfinite(e):
        raise _out_of_range(params, "the energy C - hbar^2 eps^2 / 2 m "
                            "leaves the double range")
    return eps, e


def energy(params: PotentialParams, q: QuantumNumbers) -> float:
    """Bound-state energy E = C - K eps^2, without zeta, whose exponential
    overflows for large m/hbar^2 and ell long before the energy does."""
    beta, k = _channel(params, q.ell, q.dim)
    return _level(params, beta, k, q.n, q.dim)[1]


def bound_state(params: PotentialParams, q: QuantumNumbers) -> BoundState:
    """Assemble the full derived tuple for one level, gates applied."""
    beta, k = _channel(params, q.ell, q.dim)
    eps, e = _level(params, beta, k, q.n, q.dim)
    alpha = 2.0 * k + 2.0 - q.dim
    zeta = radial_norm_constant(2.0 * eps, q.n, alpha)
    return BoundState(params=params, q=q, k=k, beta=beta, eps=eps,
                      energy=e, alpha=alpha, zeta=zeta)


_STATUS = {
    FallToCenterError: "fall-to-center",
    NotNormalizableError: "not-normalizable",
    NoBoundStatesError: "no-bound-states",
}


class SpectrumRow(NamedTuple):
    """One (n, ell, N) channel entry; invalid channels carry their error kind
    in ``status`` instead of being dropped.  The first seven fields are the
    level table's columns, in the order it writes them."""
    dim: int
    ell: int
    n: int
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
    # refused up front: a repulsive channel would otherwise fill its rows
    # with no-bound-states before any dimension check ran
    _check_dim(dim)
    ns = range(n_max + 1)
    rows = []
    for ell in range(ell_max + 1):
        try:
            beta, k = _channel(params, ell, dim)
        except tuple(_STATUS) as exc:
            status, detail = _STATUS[type(exc)], str(exc)
            rows += [SpectrumRow(dim, ell, n, None, None, None, status, detail)
                     for n in ns]
        else:
            rows += [SpectrumRow(dim, ell, n, k, *_level(params, beta, k, n, dim),
                                 "ok")
                     for n in ns]
    return rows
