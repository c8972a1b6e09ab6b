"""SU(1,1) ladder structure of the bound spectrum.

Two pictures are implemented and compared:

* the abstract coefficient algebra (closed-form lowering/raising
  coefficients, commutators, Casimir) on a truncated basis, and
* the first-order differential operators acting on the eigenfunctions of
  the dimensionless variable y, fitted against the neighboring state.  The
  image and the target share the factor y^{k+2-N} e^{-y/2}, so both are
  carried in log space from one Laguerre recurrence pass per state (L_{n-1}
  and L_n, one more step to L_{n+1}) and meet in plain doubles only after
  one common shift.

The fitted proportionality constant is the ground truth for the
differential picture; the closed-form coefficients are reported next to it
under several normalization conventions instead of being asserted equal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LadderAlgebraError
from .spectrum import BoundState, QuantumNumbers, bound_state
from .specfun import _laguerre_pair
from .wavefunction import (RadialGrid, SampledFunction, _interior_d1,
                           _ln_y_form, ln_eta)

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


def _weighted_pair(image, target):
    """image and target, each a (ln|.|, polynomial) pair whose ln|.| already
    holds ln_w, the log of the square root of the y^{N-1} measure, as plain
    doubles scaled by the one shift that puts the target's peak at 1.
    copysign takes the polynomial's sign as np.sign(poly) * exp(.) would,
    bit for bit except a -0.0 for a -0.0 value, which no dot product or max
    reads."""
    shift = np.max(target[0])
    return [np.copysign(np.exp(ln_abs - shift), poly)
            for ln_abs, poly in (image, target)]


def _convention_rescale(c_paper: float, state: BoundState, other: BoundState) -> dict:
    out = {}
    for conv in _CONVENTIONS:
        shift = (ln_eta(state, conv) - ln_eta(state, "paper")
                 - ln_eta(other, conv) + ln_eta(other, "paper"))
        out[conv] = c_paper * math.exp(shift)
    return out


def _ladder_image(values, y_dvalues, y, n: int, k: float, dim: int,
                  step: int):
    """(step y d/dy - y/2 + number term) on values; step -1 lowers, +1 raises.

    values and y_dvalues hold R and y dR/dy at the same nodes, or both
    divided by one common factor; n is the basis index read by the number
    term (k + n + 2 - N lowering, n + k + 1 raising).
    """
    number = k + n + 2.0 - dim if step < 0 else n + k + 1.0
    return step * y_dvalues - 0.5 * y * values + number * values


def ladder_fits(state: BoundState, grid_y: RadialGrid):
    """(lowering, raising) LadderFits of R_n on grid_y, one recurrence pass.

    R_n, y dR_n/dy, both images and both neighbours share the factor
    eta y^{k+2-N} e^{-y/2}, so each is that factor times a polynomial from
    one recurrence pass to n: L_{n-1} and L_n, L_{n+1} by one more step,
    and y dL_n/dy = n L_n - (n+alpha) L_{n-1} (no finite differences).
    Images and targets are compared without eta, which eta_n / eta_{n+step}
    multiplies back into the fitted constant.  ln y, the shared envelope
    and the measure's weight are formed once per pass.  For n = 0 the
    lowering fit is the annihilation check: fitted constant 0 and the
    residual measured against the state itself.
    """
    n, k, dim, alpha = state.q.n, state.k, state.q.dim, state.alpha
    y = grid_y.nodes()
    prev, cur, ln_s = _laguerre_pair(n, alpha, y)
    half_y = 0.5 * y
    half_y_cur = half_y * cur
    y_d = (k + 2.0 - dim - half_y + n) * cur - (n + alpha) * prev
    # rows: lowering image, its target, raising image, its target; each
    # image is _ladder_image's, bit for bit (-y_d and y_d are step * y_d)
    polys = np.empty((4, y.size))
    polys[0] = -y_d - half_y_cur + (k + n + 2.0 - dim) * cur
    polys[1] = cur if n == 0 else prev
    polys[2] = y_d - half_y_cur + (n + k + 1.0) * cur
    polys[3] = ((2 * n + alpha + 1 - y) * cur - (n + alpha) * prev) / (n + 1)
    ln_y = np.log(y)
    ln_abs, _ = _ln_y_form(state, y, ln_s, polys, ln_y)
    ln_abs += 0.5 * (dim - 1.0) * ln_y  # the measure's weight, on every row
    out = []
    for row, step, coefficient, weight in (
            (0, -1, lowering_coefficient, n + alpha),
            (2, +1, raising_coefficient, n + 1.0)):
        closed_form = coefficient(n, k, dim)
        wr, wt = _weighted_pair((ln_abs[row], polys[row]),
                                (ln_abs[row + 1], polys[row + 1]))
        if n + step < 0:  # annihilation: measured against R_n itself
            residual = float(np.max(np.abs(wr)) / np.max(np.abs(wt)))
            out.append(LadderFit(
                fitted=0.0, residual=residual, closed_form=closed_form,
                derived=0.0, by_convention={c: 0.0 for c in _CONVENTIONS}))
            continue
        target = bound_state(state.params, QuantumNumbers(
            n=n + step, ell=state.q.ell, dim=dim))
        c = float(np.dot(wr, wt) / np.dot(wt, wt))
        c_wt = c * wt
        residual = float(np.max(np.abs(wr - c_wt)) / np.max(np.abs(c_wt)))
        ratio = math.exp(ln_eta(state) - ln_eta(target))
        out.append(LadderFit(
            fitted=c * ratio, residual=residual, closed_form=closed_form,
            derived=weight * ratio,
            by_convention=_convention_rescale(c * ratio, state, target)))
    return tuple(out)


def apply_ladder_sampled(values, grid_y: RadialGrid, n_index: int, k: float,
                         dim: int, direction: str) -> SampledFunction:
    """Ladder operator on raw samples, derivative by 4th-order differences.

    ``n_index`` is the basis index read by the operator's number term.  Used
    for composition checks where the input is itself an operator image.
    """
    steps = {"lower": -1, "raise": +1}
    if direction not in steps:
        raise ValueError(f"unknown ladder direction {direction!r}")
    y, inner, d1 = _interior_d1(values, grid_y)
    core = np.asarray(values, dtype=float)[2:-2]
    out = _ladder_image(core, y * d1, y, n_index, k, dim, steps[direction])
    return SampledFunction(grid=inner, values=out)
