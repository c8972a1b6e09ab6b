"""Radial eigenfunctions: evaluation, normalization, overlaps, ODE residual.

One evaluator, _ln_y_form, produces every closed-form value of R: the
Laguerre form eta y^{k+2-N} e^{-y/2} L_n^alpha(y) in the dimensionless
variable y = 2 eps r, in log space (log magnitude plus tracked sign)
because the envelope spans hundreds of orders of magnitude across a
verification grid.  eval_radial, eval_y_form, norm_check, overlap,
node_count and the ladder fits all go through it.  Its reference is the
paper's confluent series 1F1(-n, alpha+1, y), evaluated by mpmath at 50
digits in the tests.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError
from .potentials import PotentialParams
from .spectrum import BoundState, binding_rate, centrifugal_strength
from .specfun import (QuadratureRule, _laguerre_pair, _laguerre_zeros,
                      default_quadrature_order, gauss_laguerre,
                      radial_norm_constant)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] with 0 < r_min < r_max < inf."""
    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not self.r_min > 0.0:
            raise ValueError("r_min must be positive (the ODE is singular at 0)")
        if not self.r_min < self.r_max < math.inf:
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
                + (math.lgamma(n + 1.0) + math.lgamma(alpha + 1.0)
                   - math.lgamma(n + alpha + 1.0)))
    if convention == "y-orthonormal":
        return -0.5 * (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
                       + math.log(2.0 * n + alpha + 1.0))
    if convention == "laguerre-orthonormal":
        return -0.5 * (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
    raise ValueError(f"unknown normalization convention {convention!r}")


def _ln_y_form(state: BoundState, y: np.ndarray, ln_pref, poly=None,
               ln_y=None):
    """(ln|.|, sign) of e^{ln_pref} y^{k+2-N} e^{-y/2} P(y) at y > 0.

    The one evaluator behind every closed-form value of R.  P is L_n^alpha
    unless the caller passes the values of another polynomial; ln_pref may
    be an array, which carries the recurrence's log scale of such values.
    A stack of polynomials, one per row, shares one envelope; row i of
    each returned array is bit-equal to a call with row i alone.  ln_y,
    when given, is np.log(y), formed once by a caller that reads it too.
    """
    if poly is None:
        _, poly, ln_s = _laguerre_pair(state.q.n, state.alpha, y)
        ln_pref = ln_pref + ln_s
    p = state.k + 2.0 - state.q.dim
    with np.errstate(divide="ignore"):
        # summed left to right: the envelope once, then each row of P
        ln_abs = (ln_pref + p * (np.log(y) if ln_y is None else ln_y) - 0.5 * y
                  + np.log(np.abs(poly)))
    return ln_abs, np.sign(poly)


def _signed_exp(ln_abs, sign):
    out = sign * np.exp(ln_abs)
    return out if out.ndim else float(out)


def eval_radial(state: BoundState, r):
    """Normalized radial eigenfunction R(r), eval_y_form at y = 2 eps r;
    scalar or array argument.  A y past the double range is the largest
    double, where R is 0."""
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < np.inf)):  # NaN fails both
        raise ValueError("radius must be positive and finite")
    with np.errstate(over="ignore"):
        y = np.minimum(2.0 * state.eps * r, sys.float_info.max)
    return eval_y_form(state, y)


def eval_y_form(state: BoundState, y):
    """y-form eigenfunction eta y^{k+2-N} e^{-y/2} L_n^alpha(y) at y > 0."""
    y = np.asarray(y, dtype=float)
    if not np.all((y > 0.0) & (y < np.inf)):
        raise ValueError("y must be positive and finite")
    return _signed_exp(*_ln_y_form(state, y, ln_eta(state)))


# -- normalization and overlaps --------------------------------------------

def norm_constant(state: BoundState, paper_literal: bool = False) -> float:
    """Unit-normalization constant zeta.

    The default is the corrected form with the bare factor (2n+alpha+1) in
    the denominator; ``paper_literal`` swaps in Gamma(2n+alpha+2) instead,
    which demonstrably fails norm_check for n >= 1 (diagnostic only).
    """
    return radial_norm_constant(2.0 * state.eps, state.q.n, state.alpha,
                                paper_literal=paper_literal)


def norm_check(state: BoundState, rule: QuadratureRule | None = None) -> float:
    """Integral of |R|^2 r^{N-1} dr by generalized Gauss-Laguerre; expect 1.

    This is overlap(state, state, "r", rule), which evaluates the state
    once.  Uses the state's own zeta, so a tampered constant scales the
    result quadratically.
    """
    return overlap(state, state, "r", rule)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 * max(1.0, abs(x))


def _require_same_channel(a: BoundState, b: BoundState):
    if (a.q.ell, a.q.dim) != (b.q.ell, b.q.dim):
        raise ValueError("overlap requires matching (ell, N)")
    if not _close(a.k, b.k):
        raise ValueError("overlap requires matching indicial root k")


def overlap(a: BoundState, b: BoundState, space: str = "r",
            rule: QuadratureRule | None = None) -> float:
    """Overlap of two states of the same channel.

    space="r": the physical integral R_a R_b r^{N-1} dr, each state at its
    own decay rate.  Distinct levels of one Hamiltonian are orthogonal here.
    space="y": both states as functions of the shared dimensionless variable
    y with measure y^{N-1} dy.  This is generally NOT orthogonal; it is
    reported for comparison with the Laguerre-measure picture.

    rule, when given, is a prebuilt gauss_laguerre rule for the weight
    x^{alpha+1} e^{-x}, shared by a caller that integrates many states of
    one channel; it must carry at least the n + 2 nodes this call would
    build.  Without it the call builds exactly that rule.
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
    order = default_quadrature_order(max(a.q.n, b.q.n))
    if rule is None:
        rule = gauss_laguerre(order, a.alpha + 1.0)
    elif not _close(a.alpha + 1.0, rule.alpha):
        raise ValueError(f"rule weight exponent {rule.alpha!r} is not the "
                         f"channel's alpha + 1 = {a.alpha + 1.0!r}")
    elif rule.order < order:
        raise ValueError(f"a {rule.order}-node rule under-resolves level "
                         f"{max(a.q.n, b.q.n)}; it needs {order} nodes")
    t = rule.nodes
    la, sa = _ln_y_form(a, c_a * t, ln_eta(a))
    lb, sb = (la, sa) if b is a else _ln_y_form(b, c_b * t, ln_eta(b))
    ln_g = (la + lb + (a.q.dim - 1.0) * np.log(u * t) + math.log(u)
            - rule.alpha * np.log(t) + t + rule.ln_weights)
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
    """(interior grid, five terms of the radial ODE there), 4th-order stencils.

    GridResolutionError when the squared spacing is below the normal double
    range or a term is not finite, rather than a non-finite residual."""
    r, inner, d1 = _interior_d1(values, grid)
    h = grid.spacing
    if h * h < sys.float_info.min:
        raise GridResolutionError(
            f"grid spacing {h:.4g} squared underflows the double range")
    eps2 = (params.C - energy) / params.kinetic
    if h * h * abs(eps2) > 0.1:
        raise GridResolutionError(
            f"grid spacing {h:.4g} cannot resolve the decay scale")
    v = np.asarray(values, dtype=float)
    nu = centrifugal_strength(params, ell, dim)
    beta = binding_rate(params)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (12.0 * h * h)
        terms = (d2,
                 (dim - 1.0) / r * d1,
                 -nu / r**2 * v[2:-2],
                 -eps2 * v[2:-2],
                 beta / r * v[2:-2])
    if not all(np.all(np.isfinite(t)) for t in terms):
        raise GridResolutionError(
            "ODE residual terms must be finite; the grid or the samples "
            "leave the double range")
    return inner, terms


def ode_residual_samples(values, grid: RadialGrid, params: PotentialParams,
                         ell: int, dim: int, energy: float) -> SampledFunction:
    """Pointwise radial-ODE residual of arbitrary samples at trial energy."""
    inner, terms = _residual_terms(values, grid, params, ell, dim, energy)
    return SampledFunction(grid=inner, values=sum(terms))


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
