"""Special-function kernel.

Log-gamma, associated Laguerre polynomials, the polynomial confluent
hypergeometric series, and generalized Gauss-Laguerre quadrature rules.
Everything here is a pure function; ``QuadratureRule`` is immutable.
One recurrence with a running log scale (Gil, Segura and Temme, Numerical
Methods for Special Functions, SIAM 2007, ch. 4) is the only loop over the
Laguerre degree: values, quadrature nodes and weights all read its output.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizableError

_LN_DBL_MAX = math.log(sys.float_info.max)
_LN_DBL_MIN = math.log(sys.float_info.min)  # the smallest normal double
_BIG = 2.0**500


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        # math.lgamma answers for negative non-integers; the domain here is x > 0
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _laguerre_pair(n: int, alpha: float, x):
    """(L_{n-1}, L_n, ln s): the values times e^{ln s} are L^alpha(x).

    Forward recurrence (j+1) L_{j+1} = (2j + alpha + 1 - x) L_j
    - (j + alpha) L_{j-1} from L_{-1} = 0; an element past 2^500 is divided
    by 2^500, found by one max and one min per step.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    ln_s = np.zeros_like(x)
    for j in range(n):
        prev, cur = cur, ((2 * j + alpha + 1 - x) * cur - (j + alpha) * prev) / (j + 1)
        if cur.max(initial=0.0) > _BIG or cur.min(initial=0.0) < -_BIG:
            scale = np.where(np.abs(cur) > _BIG, _BIG, 1.0)
            prev, cur, ln_s = prev / scale, cur / scale, ln_s + np.log(scale)
    return prev, cur, ln_s


def laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial L_n^alpha(x), +-inf past the double
    range; accepts scalars or arrays."""
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    _, cur, ln_s = _laguerre_pair(n, alpha, x)
    with np.errstate(over="ignore"):
        out = cur * np.exp(ln_s)
    return out if out.ndim else float(out)


def laguerre_deriv(n: int, alpha: float, x):
    """d/dx L_n^alpha(x) = -L_{n-1}^{alpha+1}(x)."""
    if n == 0:
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x) if x.ndim else 0.0
    out = laguerre(n - 1, alpha + 1.0, x)
    return -out


def kummer_poly(n: int, b: float, x):
    """Confluent hypergeometric 1F1(-n, b, x), summed over its n+1 terms.

    Satisfies the Laguerre bridge
    1F1(-n, alpha+1, x) = n! Gamma(alpha+1) / Gamma(n+alpha+1) * L_n^alpha(x).
    """
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if b <= 0.0:
        raise ValueError("second parameter b must be positive")
    x = np.asarray(x, dtype=float)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(n):
        term = term * ((j - n) * x) / ((b + j) * (j + 1))
        total = total + term
    return total if total.ndim else float(total)


def radial_norm_constant(two_eps: float, n: int, alpha: float,
                         paper_literal: bool = False) -> float:
    """Normalization constant of the bound radial eigenfunctions.

    Corrected form (the default):
        (2 eps)^{(alpha+2)/2} / Gamma(alpha+1)
            * sqrt( Gamma(n+alpha+1) / (n! (2n+alpha+1)) )
    With ``paper_literal`` the bare factor (2n+alpha+1) is replaced by
    Gamma(2n+alpha+2); that variant fails unit normalization for n >= 1 and
    is exposed only as a diagnostic.  Raises NotNormalizableError when the
    constant lies outside the normal double range.
    """
    if two_eps <= 0.0:
        raise ValueError("two_eps must be positive")
    if paper_literal:
        last = ln_gamma(2 * n + alpha + 2.0)
    else:
        last = math.log(2 * n + alpha + 1.0)
    ln_zeta = (0.5 * (alpha + 2.0) * math.log(two_eps) - ln_gamma(alpha + 1.0)
               + 0.5 * (ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0) - last))
    if not _LN_DBL_MIN <= ln_zeta <= _LN_DBL_MAX:
        raise NotNormalizableError(
            f"normalization constant is outside the normal double range: "
            f"ln zeta = {ln_zeta:.6g} not in [{_LN_DBL_MIN:.6g}, {_LN_DBL_MAX:.6g}]")
    return math.exp(ln_zeta)


@dataclass(frozen=True)
class QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight x^alpha e^{-x} on (0, inf).

    Weights are stored as logarithms: the tail weights of large rules underflow.
    """
    nodes: np.ndarray
    ln_weights: np.ndarray
    order: int
    alpha: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.ln_weights)

    def integrate(self, f) -> float:
        values = f(self.nodes)  # summed as e^(ln w + ln|f|): w alone may overflow
        with np.errstate(divide="ignore"):  # f = 0 adds e^-inf = 0
            return float(np.sum(np.sign(values) * np.exp(
                self.ln_weights + np.log(np.abs(values)))))


def _laguerre_zeros(m: int, alpha: float) -> np.ndarray:
    """The m zeros of L_m^alpha in ascending order (none for m = 0).

    Eigenvalues of the Jacobi matrix (numpy's dense symmetric eigensolver),
    polished by two Newton steps with x L_m' = m L_m - (m+alpha) L_{m-1}.
    """
    i = np.arange(m, dtype=float)
    jac_off = np.sqrt((i[:-1] + 1.0) * (i[:-1] + 1.0 + alpha))
    nodes = np.linalg.eigvalsh(np.diag(2.0 * i + alpha + 1.0)
                               + np.diag(jac_off, 1) + np.diag(jac_off, -1))
    for _ in range(2):
        prev, cur, _ = _laguerre_pair(m, alpha, nodes)
        nodes = nodes - nodes * cur / (m * cur - (m + alpha) * prev)
    # written positively so that NaN nodes fail the check
    if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
        raise RuntimeError("Laguerre zeros are not sorted positive")
    return nodes


def gauss_laguerre(m: int, alpha: float = 0.0) -> QuadratureRule:
    """m-point generalized Gauss-Laguerre rule, exact through degree 2m-1.

    Nodes are the zeros of L_m^alpha from _laguerre_zeros; log weights come
    from the closed formula
    w_j = Gamma(m+alpha+1) x_j / (m! (m+alpha)^2 L_{m-1}^alpha(x_j)^2).
    The Golub-Welsch weights (squared first eigenvector components) are not
    used: they carry only absolute accuracy and lose the tiny tail weights,
    which the high-n normalization integrals depend on.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    nodes = _laguerre_zeros(m, alpha)
    prev, _, ln_s = _laguerre_pair(m, alpha, nodes)
    ln_weights = (ln_gamma(m + alpha + 1.0) - ln_gamma(m + 1.0)
                  - 2.0 * math.log(m + alpha) + np.log(nodes)
                  - 2.0 * (np.log(np.abs(prev)) + ln_s))
    ln_mu0 = ln_gamma(alpha + 1.0)
    if not abs(float(np.exp(ln_weights - ln_mu0).sum()) - 1.0) <= 1e-10:
        raise RuntimeError("Gauss-Laguerre weights fail the zeroth moment")
    return QuadratureRule(nodes=nodes, ln_weights=ln_weights, order=m,
                          alpha=alpha)


def default_quadrature_order(n_max: int) -> int:
    """Node count for overlaps of states up to n_max: their integrands are
    polynomials of degree <= 2 n_max times the weight, exact here."""
    return n_max + 2
