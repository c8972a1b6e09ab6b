"""Special-function kernel.

Log-gamma, associated Laguerre polynomials, the polynomial confluent
hypergeometric series, and generalized Gauss-Laguerre quadrature rules.
Everything here is a pure function; ``QuadratureRule`` is immutable.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizableError

_LN_DBL_MAX = math.log(sys.float_info.max)


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        # math.lgamma answers for negative non-integers; the domain here is x > 0
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial L_n^alpha(x).

    Forward three-term recurrence in the degree,
    (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1},
    stable for the moderate degrees used here.  Accepts scalars or arrays.
    """
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


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
    constant exceeds the double range.
    """
    if two_eps <= 0.0:
        raise ValueError("two_eps must be positive")
    if paper_literal:
        last = ln_gamma(2 * n + alpha + 2.0)
    else:
        last = math.log(2 * n + alpha + 1.0)
    ln_zeta = (0.5 * (alpha + 2.0) * math.log(two_eps) - ln_gamma(alpha + 1.0)
               + 0.5 * (ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0) - last))
    if ln_zeta > _LN_DBL_MAX:
        raise NotNormalizableError(
            f"normalization constant exceeds the double range: "
            f"ln zeta = {ln_zeta:.6g} > {_LN_DBL_MAX:.6g}")
    return math.exp(ln_zeta)


@dataclass(frozen=True)
class QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight x^alpha e^{-x} on (0, inf)."""
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    alpha: float

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_laguerre(m: int, alpha: float = 0.0) -> QuadratureRule:
    """m-point generalized Gauss-Laguerre rule, exact through degree 2m-1.

    Nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    recurrence (numpy's dense symmetric eigensolver, polished with two Newton
    steps on L_m^alpha); weights come from the Christoffel-Darboux identity
    w_j = 1 / sum_k p_k(x_j)^2 with p_k the orthonormal polynomials.  The
    Golub-Welsch weights (squared first eigenvector components) are not
    used: they lose the relative accuracy of the tiny tail weights, which
    the high-n normalization integrals depend on.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")

    i = np.arange(m, dtype=float)
    jac_diag = 2.0 * i + alpha + 1.0
    jac_off = np.sqrt((i[:-1] + 1.0) * (i[:-1] + 1.0 + alpha))
    nodes = np.linalg.eigvalsh(np.diag(jac_diag) + np.diag(jac_off, 1)
                               + np.diag(jac_off, -1))

    for _ in range(2):  # Newton polish on the polynomial roots
        val = laguerre(m, alpha, nodes)
        der = laguerre_deriv(m, alpha, nodes)
        nodes = nodes - val / der

    # orthonormal recurrence p_{k+1} = ((x - a_k) p_k - b_k p_{k-1}) / b_{k+1}
    mu0 = math.exp(ln_gamma(alpha + 1.0))
    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / math.sqrt(mu0))
    total = p_cur**2
    for k in range(m - 1):
        b_next = math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        b_prev = math.sqrt(k * (k + alpha)) if k > 0 else 0.0
        p_prev, p_cur = p_cur, ((nodes - jac_diag[k]) * p_cur - b_prev * p_prev) / b_next
        total += p_cur**2
    weights = 1.0 / total

    # written positively so that NaN nodes or weights fail the checks
    if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
        raise RuntimeError("Gauss-Laguerre nodes are not sorted positive")
    if not abs(float(weights.sum()) / mu0 - 1.0) <= 1e-10:
        raise RuntimeError("Gauss-Laguerre weights fail the zeroth moment")
    return QuadratureRule(nodes=nodes, weights=weights, order=m, alpha=alpha)


def default_quadrature_order(n_max: int) -> int:
    """Node count used for normalization integrals of states up to n_max."""
    return 4 * (n_max + 1) + 20
