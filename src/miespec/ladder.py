"""SU(1,1) ladder structure of the bound spectrum.

Two pictures are implemented and compared:

* the abstract coefficient algebra (closed-form lowering/raising
  coefficients, commutators, Casimir) on a truncated basis, and
* the first-order differential operators acting on sampled eigenfunctions
  of the dimensionless variable y, fitted against the neighboring state.

The fitted proportionality constant is the ground truth for the
differential picture; the closed-form coefficients are reported next to it
under several normalization conventions instead of being asserted equal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError, LadderAlgebraError
from .spectrum import BoundState, QuantumNumbers, bound_state
from .specfun import laguerre_deriv
from .wavefunction import (RadialGrid, SampledFunction, _ln_y_form,
                           eval_y_form, ln_eta)

_CONVENTIONS = ("paper", "y-orthonormal", "laguerre-orthonormal")


def bargmann_index(k: float, dim: int) -> float:
    """J = k + (3 - N)/2; labels the discrete-series representation."""
    return k + 0.5 * (3.0 - dim)


def casimir_eigenvalue(k: float, dim: int) -> float:
    j = bargmann_index(k, dim)
    return j * (j - 1.0)


def _guard_domain(n: int, k: float, dim: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if 2.0 * n + 2.0 * k + 3.0 - dim <= 0.0:
        raise LadderAlgebraError(
            f"2n + 2k + 3 - N = {2 * n + 2 * k + 3 - dim:.6g} <= 0: outside "
            "the algebra's positivity domain")


def _safe_sqrt(radicand: float, what: str) -> float:
    if radicand < 0.0:
        raise LadderAlgebraError(f"negative radicand {radicand:.6g} in {what}")
    return math.sqrt(radicand)


def lowering_coefficient(n: int, k: float, dim: int) -> float:
    """Coefficient on R_{n-1} when the annihilation operator hits R_n."""
    _guard_domain(n, k, dim)
    num = n * (n + 2.0 * k + 2.0 - dim) * (2.0 * n + 1.0 + 2.0 * k - dim)
    return _safe_sqrt(num / (2.0 * n + 2.0 * k + 3.0 - dim), "lowering coefficient")


def raising_coefficient(n: int, k: float, dim: int) -> float:
    """Coefficient on R_{n+1} when the creation operator hits R_n."""
    _guard_domain(n, k, dim)
    num = (n + 1.0) * (n + 2.0 * k + 3.0 - dim) * (2.0 * n + 2.0 * k + 5.0 - dim)
    return _safe_sqrt(num / (2.0 * n + 2.0 * k + 3.0 - dim), "raising coefficient")


def commutator_eigenvalue(n: int, k: float, dim: int) -> float:
    """Eigenvalue of [L_-, L_+] on R_n: 2n + 2k - N + 3 = 2 (n + J)."""
    _guard_domain(n, k, dim)
    return 2.0 * n + 2.0 * k - dim + 3.0


@dataclass(frozen=True)
class LadderCoeffs:
    """Closed-form ladder data of one basis state."""
    n: int
    k: float
    dim: int
    lowering: float
    raising: float
    commutator: float
    bargmann_j: float


def ladder_coeffs(n: int, k: float, dim: int) -> LadderCoeffs:
    return LadderCoeffs(n=n, k=k, dim=dim,
                        lowering=lowering_coefficient(n, k, dim),
                        raising=raising_coefficient(n, k, dim),
                        commutator=commutator_eigenvalue(n, k, dim),
                        bargmann_j=bargmann_index(k, dim))


# -- truncated-basis matrices -------------------------------------------------

def ladder_matrices(k: float, dim: int, n_max: int):
    """(L_minus, L_plus, L_zero) on the basis {R_0 .. R_n_max}.

    L_plus maps the top state out of the basis, so commutator identities are
    only exact on columns n <= n_max - 1.
    """
    size = n_max + 1
    lm = np.zeros((size, size))
    lp = np.zeros((size, size))
    for n in range(1, size):
        lm[n - 1, n] = lowering_coefficient(n, k, dim)
    for n in range(size - 1):
        lp[n + 1, n] = raising_coefficient(n, k, dim)
    lz = np.diag([n + bargmann_index(k, dim) for n in range(size)])
    return lm, lp, lz


def _interior_residual(mat: np.ndarray, n_max: int) -> float:
    """Max magnitude over columns untouched by truncation."""
    return float(np.max(np.abs(mat[:, : n_max]))) if n_max > 0 else 0.0


def commutator_check(k: float, dim: int, n_max: int) -> dict:
    """Verify the SU(1,1) commutators in both pictures; returns a report.

    Violations appear as report entries, never as exceptions.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        plus_minus = raising_coefficient(n, k, dim) * lowering_coefficient(n + 1, k, dim)
        minus_plus = 0.0
        if n >= 1:
            minus_plus = lowering_coefficient(n, k, dim) * raising_coefficient(n - 1, k, dim)
        expected = commutator_eigenvalue(n, k, dim)
        residual = abs(plus_minus - minus_plus - expected) / max(1.0, abs(expected))
        worst = max(worst, residual)
        rows.append({"n": n, "product_difference": plus_minus - minus_plus,
                     "expected": expected, "residual": residual})

    lm, lp, lz = ladder_matrices(k, dim, n_max)
    scale = max(1.0, float(np.max(np.abs(lp))), float(np.max(np.abs(lz))))
    la, ls = lp + lm, lp - lm
    mats = {
        "minus_plus_is_two_zero": (lm @ lp - lp @ lm) - 2.0 * lz,
        "zero_plus_is_plus": (lz @ lp - lp @ lz) - lp,
        "minus_zero_is_minus": (lm @ lz - lz @ lm) - lm,
        "zero_sum_is_diff": (lz @ la - la @ lz) - ls,
        "zero_diff_is_sum": (lz @ ls - ls @ lz) - la,
    }
    matrix_residuals = {name: _interior_residual(m, n_max) / scale
                        for name, m in mats.items()}
    worst_matrix = max(matrix_residuals.values())
    return {
        "k": k, "dim": dim, "n_max": n_max,
        "bargmann_j": bargmann_index(k, dim),
        "rows": rows,
        "max_coefficient_residual": worst,
        "matrix_residuals": matrix_residuals,
        "max_matrix_residual": worst_matrix,
        "passed": worst <= 1e-12 and worst_matrix <= 1e-12,
    }


def casimir_check(k: float, dim: int, n_max: int) -> dict:
    """Both Casimir orderings against J(J-1) on the truncated basis."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    j = bargmann_index(k, dim)
    target = casimir_eigenvalue(k, dim)
    lm, lp, lz = ladder_matrices(k, dim, n_max)
    first = lz @ (lz - np.eye(n_max + 1)) - lp @ lm
    second = lz @ (lz + np.eye(n_max + 1)) - lm @ lp
    scale = max(1.0, abs(target))
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        r1 = float(abs(first[n, n] - target)) / scale
        rows.append({"n": n, "ordering": "L0(L0-1) - L+L-",
                     "value": float(first[n, n]), "residual": r1})
        worst = max(worst, r1)
        if n < n_max:  # second ordering needs R_{n+1} inside the basis
            r2 = float(abs(second[n, n] - target)) / scale
            rows.append({"n": n, "ordering": "L0(L0+1) - L-L+",
                         "value": float(second[n, n]), "residual": r2})
            worst = max(worst, r2)
    return {"k": k, "dim": dim, "n_max": n_max, "bargmann_j": j,
            "eigenvalue": target, "rows": rows, "max_residual": worst,
            "passed": worst <= 1e-12}


# -- differential realization -------------------------------------------------

@dataclass(frozen=True)
class LadderFit:
    """Least-squares comparison of an operator image against a target state.

    fitted is the proportionality constant in the paper normalization;
    by_convention rescales it analytically to the other eta conventions.
    closed_form is the printed coefficient; derived is the constant obtained
    by direct substitution of the Laguerre recurrence.
    """
    fitted: float
    residual: float
    closed_form: float
    derived: float
    by_convention: dict


def default_y_grid(state: BoundState, count: int = 4001) -> RadialGrid:
    """Uniform y-grid covering the state and its ladder neighbors."""
    y_max = 4.0 * (state.q.n + max(state.k, 1.0)) + 40.0
    return RadialGrid(r_min=y_max / count, r_max=y_max, count=count)


def _sibling(state: BoundState, n: int) -> BoundState:
    return bound_state(state.params,
                       QuantumNumbers(n=n, ell=state.q.ell, dim=state.q.dim))


def _half_weight(y: np.ndarray, dim: int) -> np.ndarray:
    # sqrt of the y^{N-1} measure; tames the y^{k+2-N} prefactor near 0
    return y ** (0.5 * (dim - 1.0))


def _fit_proportionality(y, result, target, dim):
    w = _half_weight(y, dim)
    wr, wt = w * result, w * target
    c = float(np.dot(wr, wt) / np.dot(wt, wt))
    residual = float(np.max(np.abs(wr - c * wt)) / np.max(np.abs(c * wt)))
    return c, residual


def _convention_rescale(c_paper: float, state: BoundState, other: BoundState) -> dict:
    out = {}
    for conv in _CONVENTIONS:
        shift = (ln_eta(state, conv) - ln_eta(state, "paper")
                 - ln_eta(other, conv) + ln_eta(other, "paper"))
        out[conv] = c_paper * math.exp(shift)
    return out


def _ladder_image(values, y_dvalues, y, n: int, k: float, dim: int,
                  step: int):
    """(step y d/dy - y/2 + number term) on samples; step -1 lowers, +1 raises.

    y_dvalues holds y dR/dy at the same nodes; n is the basis index read by
    the number term (k + n + 2 - N lowering, n + k + 1 raising).
    """
    number = k + n + 2.0 - dim if step < 0 else n + k + 1.0
    return step * y_dvalues - 0.5 * y * values + number * values


def _apply_ladder(state: BoundState, grid_y: RadialGrid, step: int):
    """Operator image of R_n(y) fitted against R_{n+step}(y).

    y dR/dy is analytic (no finite differences): the y-form evaluator with
    P = y dL_n^alpha/dy = -y L_{n-1}^{alpha+1}.
    """
    n, k, dim = state.q.n, state.k, state.q.dim
    y = grid_y.nodes()
    r_n = eval_y_form(state, y)
    ln_abs, sign = _ln_y_form(state, y, ln_eta(state, "paper"),
                              y * laguerre_deriv(n, state.alpha, y))
    y_d = (k + 2.0 - dim) * r_n - 0.5 * y * r_n + sign * np.exp(ln_abs)
    result = _ladder_image(r_n, y_d, y, n, k, dim, step)
    sampled = SampledFunction(grid=grid_y, values=result)
    if step < 0:
        closed_form, weight = lowering_coefficient(n, k, dim), n + state.alpha
    else:
        closed_form, weight = raising_coefficient(n, k, dim), n + 1.0

    if n + step < 0:
        w = _half_weight(y, dim)
        residual = float(np.max(np.abs(w * result)) / np.max(np.abs(w * r_n)))
        fit = LadderFit(fitted=0.0, residual=residual, closed_form=closed_form,
                        derived=0.0,
                        by_convention={c: 0.0 for c in _CONVENTIONS})
        return sampled, fit

    target_state = _sibling(state, n + step)
    target = eval_y_form(target_state, y)
    c, residual = _fit_proportionality(y, result, target, dim)
    derived = weight * math.exp(ln_eta(state, "paper")
                                - ln_eta(target_state, "paper"))
    fit = LadderFit(fitted=c, residual=residual, closed_form=closed_form,
                    derived=derived,
                    by_convention=_convention_rescale(c, state, target_state))
    return sampled, fit


def apply_lowering(state: BoundState, grid_y: RadialGrid):
    """(-y d/dy - y/2 + k + n + 2 - N) R_n(y), fitted against R_{n-1}(y).

    For n = 0 the result is the annihilation check: fitted constant 0 and
    the residual measured against the state itself.
    """
    return _apply_ladder(state, grid_y, -1)


def apply_raising(state: BoundState, grid_y: RadialGrid):
    """(y d/dy - y/2 + n + k + 1) R_n(y), fitted against R_{n+1}(y)."""
    return _apply_ladder(state, grid_y, +1)


def apply_ladder_sampled(values, grid_y: RadialGrid, n_index: int, k: float,
                         dim: int, direction: str) -> SampledFunction:
    """Ladder operator on raw samples, derivative by 4th-order differences.

    ``n_index`` is the basis index read by the operator's number term.  Used
    for composition checks where the input is itself an operator image.
    """
    steps = {"lower": -1, "raise": +1}
    if direction not in steps:
        raise ValueError(f"unknown ladder direction {direction!r}")
    if grid_y.count < 7:
        raise GridResolutionError("need at least 7 nodes for the 4th-order stencil")
    v = np.asarray(values, dtype=float)
    y = grid_y.nodes()[2:-2]
    h = grid_y.spacing
    d1 = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    core = v[2:-2]
    out = _ladder_image(core, y * d1, y, n_index, k, dim, steps[direction])
    inner = RadialGrid(r_min=float(y[0]), r_max=float(y[-1]), count=len(y))
    return SampledFunction(grid=inner, values=out)
