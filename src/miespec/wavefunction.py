"""Radial eigenfunctions: evaluation, normalization, overlaps, ODE residual.

One evaluator, _ln_y_form, produces every closed-form value of R: the
Laguerre form eta y^{k+2-N} e^{-y/2} L_n^alpha(y) in the dimensionless
variable y = 2 eps r, in log space (log magnitude plus tracked sign)
because the envelope spans hundreds of orders of magnitude across a
verification grid.  eval_radial, eval_y_form, norm_check, overlap,
node_count and the ladder images and fits all go through it.  Its
reference is the paper's confluent series 1F1(-n, alpha+1, y), evaluated
by mpmath at 50 digits in the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError
from .potentials import PotentialParams
from .spectrum import BoundState, binding_rate, centrifugal_strength
from .specfun import (_laguerre_pair, _laguerre_zeros, default_quadrature_order,
                      gauss_laguerre, ln_gamma, radial_norm_constant)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] with r_min > 0."""
    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if self.r_min <= 0.0:
            raise ValueError("r_min must be positive (the ODE is singular at 0)")
        if self.r_max <= self.r_min:
            raise ValueError("r_max must exceed r_min")
        if self.count < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.count)


@dataclass(frozen=True)
class SampledFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.count:
            raise ValueError("one value per grid node required")


# -- evaluation ------------------------------------------------------------

def ln_eta(state: BoundState, convention: str = "paper") -> float:
    """log of the y-form prefactor eta under a normalization convention.

    "paper":                eta = zeta (2 eps)^{-(k+2-N)} n! G(a+1)/G(n+a+1)
    "y-orthonormal":        unit norm in the measure y^{N-1} dy
    "laguerre-orthonormal": unit norm in the measure y^{N-2} dy
    """
    n, alpha = state.q.n, state.alpha
    p = state.k + 2.0 - state.q.dim
    if convention == "paper":
        return (math.log(state.zeta) - p * math.log(2.0 * state.eps)
                + (ln_gamma(n + 1.0) + ln_gamma(alpha + 1.0)
                   - ln_gamma(n + alpha + 1.0)))
    if convention == "y-orthonormal":
        return -0.5 * (ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0)
                       + math.log(2.0 * n + alpha + 1.0))
    if convention == "laguerre-orthonormal":
        return -0.5 * (ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0))
    raise ValueError(f"unknown normalization convention {convention!r}")


def _ln_y_form(state: BoundState, y: np.ndarray, ln_pref, poly=None):
    """(ln|.|, sign) of e^{ln_pref} y^{k+2-N} e^{-y/2} P(y) at y > 0.

    The one evaluator behind every closed-form value of R.  P is L_n^alpha
    unless the caller passes the values of another polynomial; ln_pref may
    be an array, which carries the recurrence's log scale of such values.
    """
    if poly is None:
        _, poly, ln_s = _laguerre_pair(state.q.n, state.alpha, y)
        ln_pref = ln_pref + ln_s
    p = state.k + 2.0 - state.q.dim
    with np.errstate(divide="ignore"):
        ln_abs = ln_pref + p * np.log(y) - 0.5 * y + np.log(np.abs(poly))
    return ln_abs, np.sign(poly)


def _signed_exp(ln_abs, sign):
    out = sign * np.exp(ln_abs)
    return out if out.ndim else float(out)


def eval_radial(state: BoundState, r):
    """Normalized radial eigenfunction R(r), eval_y_form at y = 2 eps r;
    scalar or array argument."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    return eval_y_form(state, 2.0 * state.eps * r)


def eval_y_form(state: BoundState, y, convention: str = "paper"):
    """y-form eigenfunction eta y^{k+2-N} e^{-y/2} L_n^alpha(y) at y > 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("y must be positive")
    return _signed_exp(*_ln_y_form(state, y, ln_eta(state, convention)))


def sample_radial(state: BoundState, grid: RadialGrid) -> SampledFunction:
    return SampledFunction(grid=grid, values=eval_radial(state, grid.nodes()))


# -- normalization and overlaps --------------------------------------------

def norm_constant(state: BoundState, paper_literal: bool = False) -> float:
    """Unit-normalization constant zeta.

    The default is the corrected form with the bare factor (2n+alpha+1) in
    the denominator; ``paper_literal`` swaps in Gamma(2n+alpha+2) instead,
    which demonstrably fails norm_check for n >= 1 (diagnostic only).
    """
    return radial_norm_constant(2.0 * state.eps, state.q.n, state.alpha,
                                paper_literal=paper_literal)


def norm_check(state: BoundState) -> float:
    """Integral of |R|^2 r^{N-1} dr by generalized Gauss-Laguerre; expect 1.

    This is overlap(state, state, "r").  Uses the state's own zeta, so a
    tampered constant scales the result quadratically.
    """
    return overlap(state, state, "r")


def _require_same_channel(a: BoundState, b: BoundState):
    if (a.q.ell, a.q.dim) != (b.q.ell, b.q.dim):
        raise ValueError("overlap requires matching (ell, N)")
    if abs(a.k - b.k) > 1e-12 * max(1.0, abs(a.k)):
        raise ValueError("overlap requires matching indicial root k")


def overlap(a: BoundState, b: BoundState, space: str = "r") -> float:
    """Overlap of two states of the same channel.

    space="r": the physical integral R_a R_b r^{N-1} dr, each state at its
    own decay rate.  Distinct levels of one Hamiltonian are orthogonal here.
    space="y": both states as functions of the shared dimensionless variable
    y with measure y^{N-1} dy.  This is generally NOT orthogonal; it is
    reported for comparison with the Laguerre-measure picture.
    """
    _require_same_channel(a, b)
    # y_a = c_a t, y_b = c_b t, measure (u t)^{N-1} u dt: the integrand is a
    # polynomial of degree n_a + n_b times the rule's weight t^{alpha+1} e^{-t}
    if space == "r":
        if a.params != b.params:
            raise ValueError("r-space overlap requires one shared potential")
        u = 1.0 / (a.eps + b.eps)
        c_a, c_b = 2.0 * a.eps * u, 2.0 * b.eps * u
    elif space == "y":
        u = c_a = c_b = 1.0
    else:
        raise ValueError(f"unknown overlap space {space!r}")
    rule = gauss_laguerre(default_quadrature_order(max(a.q.n, b.q.n)),
                          a.alpha + 1.0)
    t = rule.nodes
    la, sa = _ln_y_form(a, c_a * t, ln_eta(a))
    lb, sb = _ln_y_form(b, c_b * t, ln_eta(b))
    ln_g = (la + lb + (a.q.dim - 1.0) * np.log(u * t) + math.log(u)
            - (a.alpha + 1.0) * np.log(t) + t + rule.ln_weights)
    return float(np.sum(sa * sb * np.exp(ln_g)))


# -- ODE residual -----------------------------------------------------------

def _interior_d1(values, grid: RadialGrid):
    """(nodes, grid, dv/dx) on the interior, by the 4th-order central stencil."""
    if grid.count < 7:
        raise GridResolutionError("need at least 7 nodes for the 4th-order stencil")
    v = np.asarray(values, dtype=float)
    x = grid.nodes()[2:-2]
    d1 = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * grid.spacing)
    inner = RadialGrid(r_min=float(x[0]), r_max=float(x[-1]), count=len(x))
    return x, inner, d1


def _residual_terms(values: np.ndarray, grid: RadialGrid,
                    params: PotentialParams, ell: int, dim: int,
                    energy: float):
    """(interior grid, five terms of the radial ODE there), 4th-order stencils."""
    r, inner, d1 = _interior_d1(values, grid)
    h = grid.spacing
    eps2 = 2.0 * params.mass * (params.C - energy) / params.hbar**2
    if h * h * abs(eps2) > 0.1:
        raise GridResolutionError(
            f"grid spacing {h:.4g} cannot resolve the decay scale")
    v = np.asarray(values, dtype=float)
    d2 = (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (12.0 * h * h)
    nu = centrifugal_strength(params, ell, dim)
    beta = binding_rate(params)
    terms = (d2,
             (dim - 1.0) / r * d1,
             -nu / r**2 * v[2:-2],
             -eps2 * v[2:-2],
             beta / r * v[2:-2])
    return inner, terms


def ode_residual_samples(values, grid: RadialGrid, params: PotentialParams,
                         ell: int, dim: int, energy: float) -> SampledFunction:
    """Pointwise radial-ODE residual of arbitrary samples at trial energy."""
    inner, terms = _residual_terms(values, grid, params, ell, dim, energy)
    return SampledFunction(grid=inner, values=sum(terms))


def ode_residual(state: BoundState, grid: RadialGrid) -> SampledFunction:
    """Pointwise residual of the closed-form eigenfunction on the grid."""
    values = eval_radial(state, grid.nodes())
    return ode_residual_samples(values, grid, state.params, state.q.ell,
                                state.q.dim, state.energy)


def ode_residual_relative(state: BoundState, grid: RadialGrid) -> float:
    """max |residual| over the max magnitude of the five ODE terms."""
    values = eval_radial(state, grid.nodes())
    _, terms = _residual_terms(values, grid, state.params, state.q.ell,
                               state.q.dim, state.energy)
    residual = np.max(np.abs(sum(terms)))
    scale = max(np.max(np.abs(t)) for t in terms)
    return float(residual / scale) if scale > 0.0 else 0.0


# -- qualitative structure ---------------------------------------------------

def node_count(state: BoundState) -> int:
    """Number of interior sign changes of R on (0, inf).

    R has the sign of L_n^alpha(y), read once below its smallest zero, once
    between each pair of neighbouring zeros and once past the largest, so
    an envelope that underflows cannot hide a node.
    """
    zeros = _laguerre_zeros(state.q.n, state.alpha)
    edges = np.concatenate(([0.0], zeros,
                            [2.0 * zeros.max(initial=state.alpha + 1.0)]))
    sign = _ln_y_form(state, 0.5 * (edges[:-1] + edges[1:]), 0.0)[1]
    return int(np.count_nonzero(np.diff(sign[sign != 0.0])))
