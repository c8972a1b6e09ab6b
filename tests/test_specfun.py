"""Special-function kernel: reference values, identities, quadrature."""

import math

import numpy as np
import pytest

from miespec import specfun
from miespec.specfun import (default_quadrature_order, gauss_laguerre,
                             kummer_poly, laguerre, laguerre_deriv, ln_gamma)


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_five_is_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_gamma_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_against_libm_over_range(self):
        # math.lgamma is the independent reference
        for x in np.logspace(-3, 4, 500):
            assert ln_gamma(float(x)) == pytest.approx(
                math.lgamma(float(x)), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


def laguerre_direct(n, alpha, x):
    """Monomial-basis evaluation, independent of the recurrence."""
    total = 0.0
    for j in range(n + 1):
        ln_binom = (ln_gamma(n + alpha + 1.0) - ln_gamma(alpha + j + 1.0)
                    - ln_gamma(n - j + 1.0))
        total += (-1.0) ** j * math.exp(ln_binom) * x**j / math.factorial(j)
    return total


class TestLaguerre:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.37])
    @pytest.mark.parametrize("x", [0.0, 0.3, 7.0])
    def test_degree_zero(self, alpha, x):
        assert laguerre(0, alpha, x) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_degree_two_series(self):
        # (a+1)(a+2)/2 - (a+2) x + x^2/2 at a = x = 1
        assert laguerre(2, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.37])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_recurrence_matches_monomial_basis(self, n, alpha, x):
        assert laguerre(n, alpha, x) == pytest.approx(
            laguerre_direct(n, alpha, x), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_derivative_identity_vs_central_difference(self, n):
        alpha, step = 1.3, 1e-6
        for x in (0.5, 2.0, 9.0):
            fd = (laguerre(n, alpha, x + step) - laguerre(n, alpha, x - step)) / (2 * step)
            assert laguerre_deriv(n, alpha, x) == pytest.approx(fd, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        x = np.array([0.1, 1.0, 4.0])
        vec = laguerre(3, 0.5, x)
        assert vec == pytest.approx([laguerre(3, 0.5, v) for v in x], rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)


class TestKummerPoly:
    @pytest.mark.parametrize("b,x", [(1.0, 0.5), (3.5, 2.0)])
    def test_degree_zero(self, b, x):
        assert kummer_poly(0, b, x) == 1.0

    def test_degree_two_value(self):
        # 1 - x + x^2/6 at x = 1
        assert kummer_poly(2, 2.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_zero_at_x_equals_b(self):
        assert kummer_poly(1, 3.0, 3.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.37])
    def test_laguerre_bridge(self, n, alpha):
        for x in (0.2, 1.0, 6.0):
            bridge = math.exp(ln_gamma(n + 1.0) + ln_gamma(alpha + 1.0)
                              - ln_gamma(n + alpha + 1.0)) * laguerre(n, alpha, x)
            assert kummer_poly(n, alpha + 1.0, x) == pytest.approx(
                bridge, rel=1e-12, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kummer_poly(2, 0.0, 1.0)


class TestGaussLaguerre:
    def test_one_point_rule(self):
        rule = gauss_laguerre(1, 0.0)
        assert rule.nodes == pytest.approx([1.0], rel=1e-13)
        assert rule.weights == pytest.approx([1.0], rel=1e-13)

    def test_two_point_nodes(self):
        rule = gauss_laguerre(2, 0.0)
        assert rule.nodes == pytest.approx(
            [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-13)

    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (4, 0.0), (9, 0.5),
                                         (24, 1.0), (44, 3.7)])
    def test_weight_sum_is_zeroth_moment(self, m, alpha):
        rule = gauss_laguerre(m, alpha)
        assert float(rule.weights.sum()) == pytest.approx(
            math.exp(ln_gamma(alpha + 1.0)), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.3])
    def test_polynomial_exactness(self, alpha):
        m = 6
        rule = gauss_laguerre(m, alpha)
        mu0 = math.exp(ln_gamma(alpha + 1.0))
        for j in range(2 * m):
            got = rule.integrate(lambda x: x**j) / mu0
            want = math.exp(ln_gamma(alpha + 1.0 + j) - ln_gamma(alpha + 1.0))
            assert got * mu0 == pytest.approx(want * mu0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 2.37])
    def test_laguerre_orthogonality(self, alpha):
        n_top = 6
        rule = gauss_laguerre(default_quadrature_order(n_top), alpha)
        norms = [math.exp(ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0))
                 for n in range(n_top + 1)]
        for n in range(n_top + 1):
            for m in range(n, n_top + 1):
                integral = rule.integrate(
                    lambda x: laguerre(n, alpha, x) * laguerre(m, alpha, x))
                scale = math.sqrt(norms[n] * norms[m])
                want = norms[n] if n == m else 0.0
                assert abs(integral - want) / scale < 1e-10

    def test_node_monotonicity_large_rule(self):
        rule = gauss_laguerre(64, 0.25)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes[0] > 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre(3, -1.5)


def test_gauss_laguerre_rejects_nan_nodes_and_weights(monkeypatch):
    # a NaN node (and with it a NaN weight) must fail the checks, which are
    # written positively for that reason
    eigvalsh = np.linalg.eigvalsh

    def with_nan_node(a):
        nodes = eigvalsh(a)
        nodes[-1] = np.nan
        return nodes

    monkeypatch.setattr(specfun.np.linalg, "eigvalsh", with_nan_node)
    with pytest.raises(RuntimeError):
        gauss_laguerre(12, 1.7)


@pytest.mark.parametrize("m,alpha", [(380, 1.7), (600, 6.4)])
def test_gauss_laguerre_large_orders_are_valid_rules(m, alpha):
    # L_{m-1}^alpha passes the double range at the largest nodes here
    rule = gauss_laguerre(m, alpha)
    assert rule.nodes[0] > 0.0 and np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(np.isfinite(rule.ln_weights))
    moment = np.exp(rule.ln_weights - ln_gamma(alpha + 1.0)).sum()
    assert abs(moment - 1.0) <= 1e-10
