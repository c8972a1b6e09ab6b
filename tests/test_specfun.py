"""Special-function kernel: reference values, identities, quadrature."""

import math

import mpmath
import numpy as np
import pytest

from miespec import specfun
from miespec.ladder import default_y_grid
from miespec.potentials import coulomb
from miespec.specfun import (_laguerre_pair, default_quadrature_order,
                             gauss_laguerre, laguerre, radial_norm_constant)
from miespec.spectrum import QuantumNumbers, bound_state
from miespec.wavefunction import eval_radial, norm_check, overlap


def laguerre_direct(n, alpha, x):
    """Monomial-basis evaluation, independent of the recurrence."""
    total = 0.0
    for j in range(n + 1):
        ln_binom = (math.lgamma(n + alpha + 1.0) - math.lgamma(alpha + j + 1.0)
                    - math.lgamma(n - j + 1.0))
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
            # d/dx L_n^alpha = -L_{n-1}^{alpha+1}
            assert -laguerre(n - 1, alpha + 1.0, x) == pytest.approx(fd, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        x = np.array([0.1, 1.0, 4.0])
        vec = laguerre(3, 0.5, x)
        assert vec == pytest.approx([laguerre(3, 0.5, v) for v in x], rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            laguerre(5, math.nan, 1.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                laguerre(5, 0.5, bad)
            with pytest.raises(ValueError, match="finite"):
                laguerre(5, 0.5, np.array([1.0, bad]))
            assert laguerre(0, 0.5, bad) == 1.0  # L_0 = 1 everywhere


class TestKummerPoly:
    """The paper's Kummer polynomial 1F1(-n; alpha+1; x) through the
    Laguerre bridge n! Gamma(alpha+1) / Gamma(n+alpha+1) L_n^alpha(x).
    Each error is relative to the largest |1F1| sampled for that n."""

    @pytest.mark.parametrize("b,x", [(1.0, 0.5), (3.5, 2.0)])
    def test_degree_zero(self, b, x):
        assert laguerre(0, b - 1.0, x) == 1.0  # the bridge factor is 1

    def test_degree_two_value(self):
        # 1F1(-2; 2; x) = 1 - x + x^2/6 is 1/6 at x = 1; the factor is 1/3
        assert laguerre(2, 1.0, 1.0) / 3.0 == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_zero_at_x_equals_b(self):
        # 1F1(-1; 3; x) = 1 - x/3; the factor is 1/3
        assert laguerre(1, 2.0, 3.0) / 3.0 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.37])
    def test_laguerre_bridge(self, n, alpha):
        xs = np.array([0.2, 1.0, 6.0])
        bridge = math.exp(math.lgamma(n + 1.0) + math.lgamma(alpha + 1.0)
                          - math.lgamma(n + alpha + 1.0)) * laguerre(n, alpha, xs)
        with mpmath.workdps(50):  # zeroprec: 1F1(-1; 1; 1) is exactly 0
            want = np.array([float(mpmath.hyp1f1(-n, alpha + 1.0, x, zeroprec=400))
                             for x in xs])
        assert np.max(np.abs(bridge - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,alpha,x", [(30, 0.5, 40.0), (50, 2.0, 100.0),
                                           (150, 0.0, 300.0)])
    def test_laguerre_bridge_at_high_degree(self, n, alpha, x):
        # the term-by-term series cancels here: summed in doubles it gives
        # 6.9e22 for 1F1(-50; 3; 100) = 4.3e16 and 1.7e115 for
        # 1F1(-150; 1; 300) = -4.5e63
        bridge = math.exp(math.lgamma(n + 1.0) + math.lgamma(alpha + 1.0)
                          - math.lgamma(n + alpha + 1.0)) * laguerre(n, alpha, x)
        with mpmath.workdps(50):
            want = float(mpmath.hyp1f1(-n, alpha + 1.0, x))
        assert abs(bridge - want) <= 1e-12 * abs(want)


class TestRadialNormConstant:
    @pytest.mark.parametrize("two_eps,alpha", [(1.0, -1.5), (1.0, -1.0),
                                               (0.0, 1.0), (1.0, math.nan),
                                               (math.nan, 1.0)])
    def test_preconditions(self, two_eps, alpha):
        # named as the argument at fault, not as an ln zeta out of range
        with pytest.raises(ValueError, match="alpha must|two_eps must"):
            radial_norm_constant(two_eps, 2, alpha)


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
            math.exp(math.lgamma(alpha + 1.0)), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.3])
    def test_polynomial_exactness(self, alpha):
        m = 6
        rule = gauss_laguerre(m, alpha)
        mu0 = math.exp(math.lgamma(alpha + 1.0))
        for j in range(2 * m):
            got = rule.integrate(lambda x: x**j) / mu0
            want = math.exp(math.lgamma(alpha + 1.0 + j) - math.lgamma(alpha + 1.0))
            assert got * mu0 == pytest.approx(want * mu0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 2.37])
    def test_laguerre_orthogonality(self, alpha):
        n_top = 6
        rule = gauss_laguerre(default_quadrature_order(n_top), alpha)
        norms = [math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
                 for n in range(n_top + 1)]
        for n in range(n_top + 1):
            for m in range(n, n_top + 1):
                integral = rule.integrate(
                    lambda x: laguerre(n, alpha, x) * laguerre(m, alpha, x))
                scale = math.sqrt(norms[n] * norms[m])
                want = norms[n] if n == m else 0.0
                assert abs(integral - want) / scale < 1e-10

    def test_integrate_where_the_weights_overflow(self):
        # Gamma(201) passes the double range, so the weights themselves
        # are inf; the integral of x^200 e^-x 1e-300 x^2 is not
        rule = gauss_laguerre(10, 200.0)
        want = math.exp(math.lgamma(203.0) - 300.0 * math.log(10.0))
        got = rule.integrate(lambda x: 1e-300 * x**2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_node_monotonicity_large_rule(self):
        rule = gauss_laguerre(64, 0.25)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes[0] > 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre(3, -1.5)
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            gauss_laguerre(5, math.nan)


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
    moment = np.exp(rule.ln_weights - math.lgamma(alpha + 1.0)).sum()
    assert abs(moment - 1.0) <= 1e-10


def rule_errors_against_mpmath(m, alpha, dps, steps):
    """(relative node error, absolute ln-weight error) of each node of
    gauss_laguerre(m, alpha): mpmath's zero is `steps` Newton steps on L_m
    from the node, at `dps` digits, and its ln weight the closed formula."""
    rule = gauss_laguerre(m, alpha)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        for x, ln_w in zip(rule.nodes, rule.ln_weights):
            t = mpmath.mpf(x)
            for _ in range(steps):  # L_m' = -L_{m-1}^{alpha+1}
                t += mpmath.laguerre(m, a, t) / mpmath.laguerre(m - 1, a + 1, t)
            want = mpmath.log(mpmath.gamma(m + a + 1) * t / (
                mpmath.factorial(m) * (m + a) ** 2
                * mpmath.laguerre(m - 1, a, t) ** 2))
            yield abs(x / t - 1), abs(ln_w - want)


@pytest.mark.parametrize("m", [2, 22])
@pytest.mark.parametrize("alpha", [1e5, 1e6, 6.3e6])
def test_gauss_laguerre_at_large_alpha_matches_mpmath(alpha, m):
    # the zeroth-moment check reads the weights relative to Gamma(alpha+1);
    # measured: nodes within 7.4e-17, and ln weights within 1.3 ulp of
    # ln Gamma(alpha+1), which the stored absolute weights carry
    for node_err, ln_w_err in rule_errors_against_mpmath(m, alpha, 50, 6):
        assert node_err <= 1e-15
        assert ln_w_err <= 4.0 * math.ulp(math.lgamma(alpha + 1.0))


@pytest.mark.parametrize("m", [5, 23, 64])
@pytest.mark.parametrize("alpha", [1.0, 7.5])
def test_gauss_laguerre_at_verify_orders_matches_mpmath(alpha, m):
    # the alpha and m that verify's rules and the n <= 20 norms and overlaps
    # reach, and past them.  Measured: nodes within 2.0e-14 relative and ln
    # weights within 4.2e-12 (1.4e-14 and 4.2e-12 with a second Newton
    # step), both set by the recurrence's own rounding
    for node_err, ln_w_err in rule_errors_against_mpmath(m, alpha, 40, 3):
        assert node_err <= 1e-13
        assert ln_w_err <= 2e-11


def test_gauss_laguerre_takes_two_recurrence_passes(monkeypatch):
    # one Newton step on the eigensolver's nodes, then L_{m-1} for the
    # weights at exactly the nodes returned
    calls = []

    def counting(n, alpha, x, pair=specfun._laguerre_pair):
        calls.append(n)
        return pair(n, alpha, x)

    monkeypatch.setattr(specfun, "_laguerre_pair", counting)
    for m, alpha in [(1, 0.0), (12, 1.7), (64, 7.5)]:
        calls.clear()
        gauss_laguerre(m, alpha)
        assert calls == [m, m]


# -- the recurrence's single overflow test ---------------------------------

def laguerre_pair_checked(n, alpha, x):
    """The recurrence with its max/min test for 2^500 at every step: the
    reference that the unchecked path must match bit for bit."""
    x = np.asarray(x, dtype=float)
    prev, cur, ln_s = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for j in range(n):
        prev, cur = cur, ((2 * j + alpha + 1 - x) * cur - (j + alpha) * prev) / (j + 1)
        if cur.max(initial=0.0) > specfun._BIG or cur.min(initial=0.0) < -specfun._BIG:
            scale = np.where(np.abs(cur) > specfun._BIG, specfun._BIG, 1.0)
            prev, cur, ln_s = prev / scale, cur / scale, ln_s + np.log(scale)
    return prev, cur, ln_s


def assert_matches_checked(n, alpha, x):
    with np.errstate(all="ignore"):
        got, want = _laguerre_pair(n, alpha, x), laguerre_pair_checked(n, alpha, x)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True), (n, alpha)


@pytest.mark.parametrize("seed", range(8))
def test_unchecked_path_is_bit_identical(seed):
    # n <= 400, alpha in (-1, 1e4] (log-uniform above 0), x in [0, 1.6e3]
    rng = np.random.default_rng(2100 + seed)
    unchecked = 0
    for _ in range(40):
        n = int(rng.integers(0, 401))
        alpha = (-float(rng.uniform(0.0, 1.0)) if rng.random() < 0.2
                 else math.expm1(rng.uniform(0.0, math.log1p(1e4))))
        x = rng.uniform(0.0, math.exp(rng.uniform(math.log(1e-3), math.log(1.6e3))),
                        size=int(rng.integers(1, 30)))
        assert_matches_checked(n, alpha, x)
        unchecked += specfun._stays_below_big(n, alpha, x)
    assert 0 < unchecked < 40  # both paths are taken


@pytest.mark.parametrize("n,alpha,x", [
    (30, 0.5, [-50.0, -1.0, 0.0, 2.0]),
    (30, 0.5, [1.0, math.nan]),
    (30, 0.5, [1.0, math.inf]),
    (30, 0.5, [-math.inf]),
    (30, 0.5, []),
    # the binomial alone passes 2^500 (ln C = 541) while x/2 stays below 1
    (150, 2000.0, np.linspace(0.0, 1.0, 7)),
    (400, 1e4, np.linspace(0.0, 1.0, 7)),
    (20, 1e20, [0.0, 1.0]),
], ids=["negative", "nan", "inf", "minus-inf", "empty", "binomial", "overflow",
        "huge-alpha"])
def test_checked_path_cases(n, alpha, x):
    assert not specfun._stays_below_big(n, alpha, np.asarray(x, dtype=float))
    assert_matches_checked(n, alpha, x)


def test_rescale_at_step_n_takes_the_checked_path():
    # alpha = 201: elements at the peak of R pass 2^500 at step n = 157
    state = bound_state(coulomb(-129.0), QuantumNumbers(157, 100, 3))
    y = default_y_grid(state).nodes()
    assert not specfun._stays_below_big(157, state.alpha, y)
    assert np.any(_laguerre_pair(157, state.alpha, y)[2] != 0.0)
    assert_matches_checked(157, state.alpha, y)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_arguments_past_2_400_keep_a_finite_log_scale(n):
    # one step multiplies by about x, which would carry an element from
    # 2^500 past the double range; L_n itself may still be representable
    x = np.array([-1e300, 3e120, 1e150, 7e200, 1e300, 1.7e308])
    prev, cur, ln_s = _laguerre_pair(n, 0.5, x)
    assert np.all(np.isfinite(cur)) and np.all(np.isfinite(ln_s))
    with mpmath.workdps(50):
        want = [mpmath.laguerre(n, 0.5, mpmath.mpf(v)) for v in x]
    for c, s, w in zip(cur, ln_s, want):
        assert np.sign(c) == mpmath.sign(w)
        ln_want = float(mpmath.log(abs(w)))
        assert abs(math.log(abs(c)) + s - ln_want) <= 1e-13 * abs(ln_want)
    if n == 2:
        # e^{ln s} with ln s near 350 carries about 6e-14 of its rounding
        assert laguerre(n, 0.5, 1e150) == pytest.approx(float(want[2]), rel=2e-13)


def test_norm_and_overlap_nodes_take_the_unchecked_path(monkeypatch, hydrogen,
                                                        kratzer):
    # every recurrence behind norm_check, overlap and eval_radial (at the
    # extent `miespec wavefunction` samples by default) for n <= 20
    seen = []

    def recording(n, alpha, x, test=specfun._stays_below_big):
        seen.append(test(n, alpha, x))
        return seen[-1]

    monkeypatch.setattr(specfun, "_stays_below_big", recording)
    for params in (hydrogen, kratzer):
        for dim in (2, 3, 5):
            for ell in range(3):
                for n in range(21):
                    state = bound_state(params, QuantumNumbers(n, ell, dim))
                    upper = bound_state(params, QuantumNumbers(n + 1, ell, dim))
                    norm_check(state)
                    overlap(state, upper, "r")
                    r_max = (2.0 * n + 2.0 * state.k + 16.0) / state.eps
                    eval_radial(state, np.linspace(r_max / 2001, r_max, 2001))
    assert len(seen) > 378 and all(seen)


def laguerre_pair_out_of_place(n, alpha, x):
    """The textbook recurrence, a new array per step, with the 2^500 test
    where Szego's bound cannot rule it out and the [0.5, 1) scaling past
    |x| = 2^400: the reference the in-place steps must match bit for bit."""
    x = np.asarray(x, dtype=float)
    prev, cur, ln_s = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    checked = not specfun._stays_below_big(n, alpha, x)
    far = np.isfinite(x) & (np.abs(x) > specfun._FAR) if checked else None
    for j in range(n):
        prev, cur = cur, ((2 * j + alpha + 1 - x) * cur - (j + alpha) * prev) / (j + 1)
        if checked and (cur.max(initial=0.0) > specfun._BIG
                        or cur.min(initial=0.0) < -specfun._BIG):
            scale = np.where(np.abs(cur) > specfun._BIG, specfun._BIG, 1.0)
            prev, cur, ln_s = prev / scale, cur / scale, ln_s + np.log(scale)
        if far is not None and far.any():
            e = np.where(far, np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1], 0)
            prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
            ln_s = ln_s + e * math.log(2.0)
    return prev, cur, ln_s


@pytest.mark.parametrize("n,alpha,x,path", [
    (40, 2.5, np.linspace(0.0, 90.0, 4001), "unchecked"),
    (150, 2000.0, np.linspace(0.0, 1.0, 4001), "rescale"),
    (5, 0.5, [-1e300, 3e120, 1e150, 7e200, 1e300, 1.7e308], "far"),
], ids=["unchecked", "rescale-2^500", "past-2^400"])
def test_in_place_recurrence_is_the_out_of_place_one(n, alpha, x, path):
    x = np.asarray(x, dtype=float)
    assert specfun._stays_below_big(n, alpha, x) == (path == "unchecked")
    got = _laguerre_pair(n, alpha, x)
    want = laguerre_pair_out_of_place(n, alpha, x)
    assert np.any(got[2] != 0.0) == (path != "unchecked")
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the rotation hands back three distinct buffers, none of them x
    for i, a in enumerate(got):
        assert not np.shares_memory(a, x)
        assert not any(np.shares_memory(a, b) for b in got[i + 1:])
