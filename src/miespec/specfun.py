"""Special-function kernel.

Associated Laguerre polynomials, the normalization constant of the radial
eigenfunctions, and generalized Gauss-Laguerre quadrature rules.
Everything here is a pure function; ``QuadratureRule`` is immutable.
One recurrence with a running log scale (Gil, Segura and Temme, Numerical
Methods for Special Functions, SIAM 2007, ch. 4) is the only loop over the
Laguerre degree: values, quadrature nodes and weights all read its output,
and a quadrature rule takes one pass of it.
It tests its values against the scale's threshold at each step only where
Szego's bound on |L_n^alpha| cannot rule a rescale out.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizableError

_LN_DBL_MAX = math.log(sys.float_info.max)
_LN_DBL_MIN = math.log(sys.float_info.min)  # the smallest normal double
_BIG = 2.0**500
_LN_UNCHECKED = 400.0 * math.log(2.0)  # 2^100 under _BIG covers the rounding
_FAR = 2.0**400  # past it, one step's factor x can carry _BIG past the range


def _stays_below_big(n: int, alpha: float, x: np.ndarray) -> bool:
    """True when no L_j^alpha(x), j <= n, can pass 2^400.

    Szego's bound |L_j^alpha(x)| <= C(j+alpha, j) e^{x/2} for alpha >= 0,
    and <= 2 e^{x/2} for -1 < alpha < 0, at x >= 0 (Abramowitz and Stegun
    22.14.13-14; DLMF 18.14.8) grows with j.  An empty x, a negative, NaN
    or infinite element, and alpha past 1e12 (where the lgamma difference
    cancels to more than 1e-2) give False.
    """
    if not (x.size and -1.0 < alpha <= 1e12 and x.min() >= 0.0):
        return False
    ln_c = (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
            - math.lgamma(alpha + 1.0)) if alpha >= 0.0 else math.log(2.0)
    return bool(ln_c + 0.5 * x.max() < _LN_UNCHECKED)


def _laguerre_pair(n: int, alpha: float, x):
    """(L_{n-1}, L_n, ln s): the values times e^{ln s} are L^alpha(x).

    Forward recurrence (j+1) L_{j+1} = (2j + alpha + 1 - x) L_j
    - (j + alpha) L_{j-1} from L_{-1} = 0; an element past 2^500 is divided
    by 2^500.  One max and one min per step look for such elements, unless
    _stays_below_big rules them out for the whole call.  At a finite |x|
    past 2^400 that would not keep the next step in range, so there the
    pair is scaled into [0.5, 1) after every step.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros(x.shape)
    cur = np.ones(x.shape)
    spare = np.empty(x.shape)
    ln_s = np.zeros(x.shape)
    checked = not _stays_below_big(n, alpha, x)
    far = np.isfinite(x) & (np.abs(x) > _FAR) if checked else None
    for j in range(n):
        # ((2j + alpha + 1 - x) cur - (j + alpha) prev) / (j + 1) in place,
        # in that order; prev's buffer is free after it, and is the next spare
        np.subtract(2 * j + alpha + 1, x, out=spare)
        spare *= cur
        prev *= j + alpha
        spare -= prev
        spare /= j + 1
        prev, cur, spare = cur, spare, prev
        if checked and (cur.max(initial=0.0) > _BIG or cur.min(initial=0.0) < -_BIG):
            scale = np.where(np.abs(cur) > _BIG, _BIG, 1.0)
            prev, cur, ln_s = prev / scale, cur / scale, ln_s + np.log(scale)
        if far is not None and far.any():
            e = np.where(far, np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1], 0)
            prev, cur, ln_s = np.ldexp(prev, -e), np.ldexp(cur, -e), ln_s + e * math.log(2.0)
    return prev, cur, ln_s


def laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial L_n^alpha(x), +-inf past the double
    range; accepts scalars or arrays."""
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if not alpha > -1.0:
        raise ValueError("alpha must exceed -1")
    if n >= 1 and not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    _, cur, ln_s = _laguerre_pair(n, alpha, x)
    with np.errstate(over="ignore"):
        out = cur * np.exp(ln_s)
    return out if out.ndim else float(out)


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
    if not two_eps > 0.0:
        raise ValueError("two_eps must be positive")
    if not alpha > -1.0:
        raise ValueError("alpha must exceed -1")
    if paper_literal:
        last = math.lgamma(2 * n + alpha + 2.0)
    else:
        last = math.log(2 * n + alpha + 1.0)
    ln_zeta = (0.5 * (alpha + 2.0) * math.log(two_eps) - math.lgamma(alpha + 1.0)
               + 0.5 * (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0) - last))
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


def _laguerre_zeros(m: int, alpha: float):
    """(nodes, L_{m-1}, ln s): the m zeros of L_m^alpha in ascending order
    (none for m = 0), and L_{m-1}^alpha at them times e^{ln s}.

    Eigenvalues x0 of the Jacobi matrix (numpy's dense symmetric
    eigensolver, which reads only its lower triangle), polished by one
    Newton step with x L_m' = m L_m - (m+alpha) L_{m-1}.  The one recurrence
    pass at x0 gives P = L_{m-1} and C = L_m there; P moves to the polished
    node x1 = x0 + delta by one Taylor step with
    x L_{m-1}' = (x - m - alpha) L_{m-1} + m L_m, in the same scale:
    P + delta ((x0 - m - alpha) P + m C) / x0.  delta is the eigensolver's
    rounding, so the O(delta^2) remainder sits below the recurrence's own
    rounding.  Against mpmath at 40 digits (alpha in {1, 7.5, 40}, m in
    {5, 23, 64, 120}) the worst node is within 3.4e-14 relative and the
    worst ln weight within 2.9e-13 (1.7e-11 with a second pass at x1), and
    a second Newton step moves nodes by ulps only.
    """
    i = np.arange(m, dtype=float)
    jacobi = np.diag(2.0 * i + alpha + 1.0)
    # the subdiagonal only: eigvalsh reads the lower triangle
    jacobi.flat[m::m + 1] =np.sqrt((i[:-1] + 1.0) * (i[:-1] + 1.0 + alpha))
    x0 = np.linalg.eigvalsh(jacobi)
    prev, cur, ln_s = _laguerre_pair(m, alpha, x0)
    delta = -x0 * cur / (m * cur - (m + alpha) * prev)
    nodes = x0 + delta
    # written positively so that NaN nodes fail the check
    if not np.all(np.diff(nodes, prepend=0.0) > 0.0):
        raise RuntimeError("Laguerre zeros are not sorted positive")
    prev = prev + delta * ((x0 - m - alpha) * prev + m * cur) / x0
    return nodes, prev, ln_s


def gauss_laguerre(m: int, alpha: float = 0.0) -> QuadratureRule:
    """m-point generalized Gauss-Laguerre rule, exact through degree 2m-1.

    Nodes and L_{m-1}^alpha at them come from _laguerre_zeros, one
    recurrence pass per rule; log weights from the closed formula
    w_j = Gamma(m+alpha+1) x_j / (m! (m+alpha)^2 L_{m-1}^alpha(x_j)^2).
    The Golub-Welsch weights (squared first eigenvector components) are not
    used: they carry only absolute accuracy and lose the tiny tail weights,
    which the high-n normalization integrals depend on.
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if not alpha > -1.0:
        raise ValueError("alpha must exceed -1")
    nodes, prev, ln_s = _laguerre_zeros(m, alpha)
    def ln_w(ln_top):  # ln w_j with ln_top for ln Gamma(m+alpha+1)
        return (ln_top - math.lgamma(m + 1.0) - 2.0 * math.log(m + alpha)
                + np.log(nodes) - 2.0 * (np.log(np.abs(prev)) + ln_s))
    # the check reads w_j / Gamma(alpha+1), whose ln Gamma(m+alpha+1) -
    # ln Gamma(alpha+1) is summed as ln(alpha+1) + ... + ln(alpha+m): the
    # difference of the two lgammas cancels to about 1e-10 at alpha = 1e5
    ln_rel = ln_w(math.fsum(math.log(alpha + j) for j in range(1, m + 1)))
    if not abs(float(np.exp(ln_rel).sum()) - 1.0) <= 1e-10:
        raise RuntimeError("Gauss-Laguerre weights fail the zeroth moment")
    return QuadratureRule(nodes=nodes, ln_weights=ln_w(math.lgamma(m + alpha + 1.0)),
                          order=m, alpha=alpha)


def default_quadrature_order(n_max: int) -> int:
    """Node count for overlaps of states up to n_max: their integrands are
    polynomials of degree <= 2 n_max times the weight, exact here."""
    return n_max + 2
