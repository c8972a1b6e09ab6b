"""SU(1,1) coefficient algebra and the differential ladder realization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from miespec.errors import LadderAlgebraError
from miespec.ladder import (_ladder_image, _weighted_pair,
                            apply_ladder_sampled, bargmann_index,
                            casimir_check, casimir_eigenvalue,
                            commutator_check, commutator_eigenvalue,
                            default_y_grid, ladder_fits, ladder_matrices,
                            lowering_coefficient, raising_coefficient)
from miespec.potentials import coulomb, kratzer_fues
from miespec.specfun import _laguerre_pair, laguerre
from miespec.spectrum import QuantumNumbers, bound_state, indicial_root
from miespec.wavefunction import _ln_y_form, eval_y_form, ln_eta

k_values = st.floats(min_value=0.3, max_value=8.0, allow_nan=False)
dims = st.integers(min_value=2, max_value=6)


class TestCoefficients:
    @pytest.mark.parametrize("k,dim", [(1.0, 3), (2.5, 4), (0.7, 2)])
    def test_lowering_kills_ground_state(self, k, dim):
        assert lowering_coefficient(0, k, dim) == 0.0

    def test_hydrogen_channel_values(self):
        assert lowering_coefficient(1, 1.0, 3) == pytest.approx(1.0, rel=1e-14)
        assert lowering_coefficient(2, 1.0, 3) == pytest.approx(2.0, rel=1e-14)
        assert raising_coefficient(0, 1.0, 3) == pytest.approx(2.0, rel=1e-14)
        assert raising_coefficient(1, 1.0, 3) == pytest.approx(3.0, rel=1e-14)

    @given(k=k_values, dim=dims, n=st.integers(min_value=1, max_value=12))
    def test_product_identity(self, k, dim, n):
        assume(2.0 * k + 3.0 - dim >= 0.5)  # valid channels satisfy this
        got = raising_coefficient(n - 1, k, dim) * lowering_coefficient(n, k, dim)
        want = n * (n + 2.0 * k + 2.0 - dim)
        assert got == pytest.approx(want, rel=1e-12)

    def test_commutator_row_example(self):
        got = (raising_coefficient(1, 1.0, 3) * lowering_coefficient(2, 1.0, 3)
               - lowering_coefficient(1, 1.0, 3) * raising_coefficient(0, 1.0, 3))
        assert got == pytest.approx(4.0, rel=1e-14)
        assert commutator_eigenvalue(1, 1.0, 3) == 4.0

    def test_boundary_row(self):
        for k, dim in ((1.0, 3), (3.2, 5)):
            got = raising_coefficient(0, k, dim) * lowering_coefficient(1, k, dim)
            assert got == pytest.approx(2.0 * k - dim + 3.0, rel=1e-13)

    def test_negative_radicand_reported(self):
        # n + alpha = -0.5 while the other factors stay positive
        with pytest.raises(LadderAlgebraError):
            lowering_coefficient(2, 0.75, 6)

    def test_domain_guard(self):
        with pytest.raises(LadderAlgebraError):
            raising_coefficient(0, 0.0, 3)

    def test_coeffs_bundle(self):
        # hydrogen's N=3, ell=0 channel at n = 2
        j = bargmann_index(1.0, 3)
        assert lowering_coefficient(2, 1.0, 3) == pytest.approx(2.0)
        assert raising_coefficient(2, 1.0, 3) == pytest.approx(4.0)
        assert commutator_eigenvalue(2, 1.0, 3) == pytest.approx(2.0 * (2 + j))
        assert j == 1.0


class TestAlgebraChecks:
    def channels(self):
        out = []
        for dim in (2, 3, 4, 5, 6):
            for ell in (0, 1, 2):
                out.append((float(ell + dim - 2), dim))
        for d0 in (1.0, 5.0):
            params = kratzer_fues(d0, 1.0)
            for dim in (2, 3, 4, 5, 6):
                for ell in (0, 1, 2):
                    out.append((indicial_root(params, ell, dim), dim))
        return out

    def test_commutator_check_across_real_channels(self):
        for k, dim in self.channels():
            report = commutator_check(k, dim, 10)
            assert report["passed"], (k, dim, report)
            assert report["max_coefficient_residual"] <= 1e-12
            assert report["max_matrix_residual"] <= 1e-12

    def test_casimir_check_across_real_channels(self):
        for k, dim in self.channels():
            report = casimir_check(k, dim, 10)
            assert report["passed"], (k, dim, report)

    def test_casimir_examples(self):
        assert casimir_eigenvalue(1.0, 3) == 0.0  # J = 1
        for ell in range(4):
            k = float(ell + 1)  # hydrogen k = ell + 1
            assert bargmann_index(k, 3) == ell + 1.0
            assert casimir_eigenvalue(k, 3) == pytest.approx(ell * (ell + 1.0))

    @given(k=k_values, dim=dims, n=st.integers(min_value=0, max_value=15))
    def test_casimir_identity_algebraic(self, k, dim, n):
        j = bargmann_index(k, dim)
        got = (n + j) * (n + j - 1.0) - n * (n + 2.0 * j - 1.0)
        assert got == pytest.approx(j * (j - 1.0), rel=1e-12, abs=1e-12)

    def test_matrix_shapes_and_truncation(self):
        lm, lp, lz = ladder_matrices(1.0, 3, 4)
        assert lm.shape == lp.shape == lz.shape == (5, 5)
        assert lm[3, 4] == lowering_coefficient(4, 1.0, 3)
        assert lp[4, 3] == raising_coefficient(3, 1.0, 3)
        # top column feels the truncation: [L-, L+] fails only there
        comm = lm @ lp - lp @ lm - 2.0 * lz
        assert abs(comm[4, 4]) > 1.0
        assert np.max(np.abs(comm[:, :4])) <= 1e-12


def test_laguerre_lowering_recurrence():
    # x dL/dx = n L_n - (n + alpha) L_{n-1}, the raw lowering ingredient,
    # with dL_n^alpha/dx = -L_{n-1}^{alpha+1}
    for n in range(1, 7):
        for alpha in (0.4, 1.0, 3.7):
            x = np.linspace(0.05, 30.0, 301)
            lhs = -x * laguerre(n - 1, alpha + 1.0, x)
            rhs = n * laguerre(n, alpha, x) - (n + alpha) * laguerre(n - 1, alpha, x)
            scale = np.max(np.abs(rhs)) or 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


class TestDifferentialRealization:
    def states(self, params, dim, n):
        return bound_state(params, QuantumNumbers(n, 0, dim))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lowering_proportionality(self, hydrogen, kratzer, n):
        for params in (hydrogen, kratzer):
            state = self.states(params, 3, n)
            fit = ladder_fits(state, default_y_grid(state))[0]
            assert fit.residual <= 1e-9
            # the fitted constant reproduces the recurrence-derived one
            assert fit.fitted == pytest.approx(fit.derived, rel=1e-12)

    @pytest.mark.parametrize("n", range(6))
    def test_raising_proportionality(self, hydrogen, kratzer, n):
        for params in (hydrogen, kratzer):
            state = self.states(params, 3, n)
            fit = ladder_fits(state, default_y_grid(state))[1]
            assert fit.residual <= 1e-9
            assert fit.fitted == pytest.approx(fit.derived, rel=1e-12)

    def test_y_orthonormal_convention_matches_closed_form(self, hydrogen, kratzer):
        # with states normalized in the y^{N-1} measure the fitted constants
        # equal the printed closed-form coefficients exactly
        for params in (hydrogen, kratzer):
            for dim in (3, 5):
                for n in (1, 2, 4):
                    state = self.states(params, dim, n)
                    for fit in ladder_fits(state, default_y_grid(state)):
                        assert fit.by_convention["y-orthonormal"] == pytest.approx(
                            fit.closed_form, rel=1e-10)

    def test_paper_convention_disagrees_with_closed_form(self, hydrogen):
        # the recorded discrepancy of the source's printed coefficients
        state = self.states(hydrogen, 3, 1)
        fit = ladder_fits(state, default_y_grid(state))[0]
        assert fit.fitted == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-10)
        assert abs(fit.fitted - fit.closed_form) > 0.5

    def test_annihilation_of_ground_state(self, hydrogen):
        state = self.states(hydrogen, 3, 0)
        grid = default_y_grid(state)
        fit = ladder_fits(state, grid)[0]
        assert fit.fitted == 0.0
        assert fit.residual <= 1e-12
        assert np.max(np.abs(_image(state, grid, -1))) <= 1e-12

    def test_raising_constant_dimension_independence(self, hydrogen):
        # (ell=1, N=3) and (ell=0, N=5) share J = 2 and therefore the same
        # y-orthonormal ladder constants
        s3 = bound_state(hydrogen, QuantumNumbers(2, 1, 3))
        s5 = bound_state(hydrogen, QuantumNumbers(2, 0, 5))
        assert bargmann_index(s3.k, 3) == bargmann_index(s5.k, 5)
        f3 = ladder_fits(s3, default_y_grid(s3))[1]
        f5 = ladder_fits(s5, default_y_grid(s5))[1]
        assert f3.by_convention["y-orthonormal"] == pytest.approx(
            f5.by_convention["y-orthonormal"], rel=1e-12)

    def test_composition_returns_multiple_of_input(self, hydrogen):
        state = self.states(hydrogen, 3, 2)
        grid = default_y_grid(state, count=8001)
        # L+ R_n is fitted R_{n+1}; L- then acts on those samples
        fit = ladder_fits(state, grid)[1]
        above = bound_state(hydrogen, QuantumNumbers(3, 0, 3))
        raised = fit.fitted * eval_y_form(above, grid.nodes())
        lowered = apply_ladder_sampled(raised, grid, state.q.n + 1,
                                       state.k, state.q.dim, "lower")
        y = lowered.grid.nodes()
        target = eval_y_form(state, y)
        w = y ** (0.5 * (state.q.dim - 1.0))
        wr, wt = w * lowered.values, w * target
        c = float(wr @ wt / (wt @ wt))
        residual = float(np.max(np.abs(wr - c * wt)) / np.max(np.abs(c * wt)))
        assert residual <= 1e-8
        # L- L+ eigenvalue (n+1)(n+alpha+1) is normalization independent
        n, alpha = state.q.n, state.alpha
        assert c == pytest.approx((n + 1.0) * (n + alpha + 1.0), rel=1e-9)

    def test_fit_reproducibility(self, kratzer):
        state = self.states(kratzer, 3, 3)
        grid = default_y_grid(state)
        fits = [ladder_fits(state, grid)[0].fitted for _ in range(3)]
        assert fits[0] == fits[1] == fits[2]


def _image(state, grid, step):
    """Samples of the lowering (step -1) or raising (+1) image of R_n in the
    paper normalization, from the ladder's recurrence pass to n."""
    n, k, dim, alpha = state.q.n, state.k, state.q.dim, state.alpha
    y = grid.nodes()
    prev, cur, ln_s = _laguerre_pair(n, alpha, y)
    y_d = (k + 2.0 - dim - 0.5 * y + n) * cur - (n + alpha) * prev
    poly = _ladder_image(cur, y_d, y, n, k, dim, step)
    ln_abs, sign = _ln_y_form(state, y, ln_s, poly)
    return sign * np.exp(ln_abs + ln_eta(state))


def _fit_on_own_recurrence(state, grid, step):
    """(fitted, residual) of the operator image against R_{n+step} from the
    neighbour's own eval_y_form, whose recurrence pass is its own."""
    y = grid.nodes()
    image = _image(state, grid, step)
    neighbour = bound_state(state.params, QuantumNumbers(
        state.q.n + step, state.q.ell, state.q.dim))
    w = y ** (0.5 * (state.q.dim - 1.0))
    wr, wt = w * image, w * eval_y_form(neighbour, y)
    c = float(wr @ wt / (wt @ wt))
    return c, float(np.max(np.abs(wr - c * wt)) / np.max(np.abs(c * wt)))


@pytest.mark.parametrize("params,ell,dim,n", [
    *[pytest.param(kratzer_fues(50.0, 1.0), 0, 7, n, id=f"kratzer-fues-n{n}")
      for n in (0, 1, 2, 7, 40, 150)],
    pytest.param(coulomb(-1.0), 2, 3, 5, id="coulomb-n5"),
    # alpha = 201: elements at the peak of R pass 2^500 at step n = 157
    # itself, so the shared pass's L_{n-1} carries a scale there that a
    # pass to n - 1 would not
    pytest.param(coulomb(-129.0), 100, 3, 157, id="rescale-at-step-n"),
])
def test_shared_pass_matches_neighbours_from_their_own_recurrence(params, ell,
                                                                  dim, n):
    state = bound_state(params, QuantumNumbers(n, ell, dim))
    grid = default_y_grid(state)
    fits = ladder_fits(state, grid)
    if n == 157:
        y = grid.nodes()
        ln_s = _laguerre_pair(n, state.alpha, y)[2]
        assert np.any(ln_s != 0.0)
        assert np.any(ln_s != _laguerre_pair(n - 1, state.alpha, y)[2])
    for step, fit in zip((-1, +1), fits):
        assert fit.residual <= 1e-9
        if n + step < 0:  # the annihilation branch has no neighbour
            assert fit.fitted == 0.0
            continue
        fitted, residual = _fit_on_own_recurrence(state, grid, step)
        assert fit.fitted == pytest.approx(fitted, rel=1e-12, abs=0.0)
        assert residual <= 1e-9


def test_a_stack_of_polynomials_is_bit_equal_to_one_call_each():
    # the ladder pass sends its four polynomials through one _ln_y_form call
    state = bound_state(kratzer_fues(5.0, 1.0), QuantumNumbers(4, 1, 3))
    y = default_y_grid(state).nodes()
    prev, cur, ln_s = _laguerre_pair(4, state.alpha, y)
    zero = y - y[7]  # an exact zero: ln|.| is -inf and the sign 0
    polys = np.stack((cur, prev, zero, -cur))
    ln_y = np.log(y)
    ln_abs, sign = _ln_y_form(state, y, ln_s, polys)
    shared = _ln_y_form(state, y, ln_s, polys, ln_y)
    assert np.array_equal(shared[0], ln_abs) and np.array_equal(shared[1], sign)
    for row, poly in enumerate(polys):
        one = _ln_y_form(state, y, ln_s, poly)
        assert np.array_equal(ln_abs[row], one[0])
        assert np.array_equal(sign[row], one[1])
    assert ln_abs[2, 7] == -np.inf and sign[2, 7] == 0.0
    # copysign gives the values that np.sign(poly) * exp(.) gives
    ln_w = 0.5 * (state.q.dim - 1.0) * ln_y
    pairs = [(ln_abs[2], zero), (ln_abs[3], -cur)]
    shift = np.max(ln_abs[3] + ln_w)
    want = [np.sign(poly) * np.exp(ln + ln_w - shift) for ln, poly in pairs]
    got = _weighted_pair(ln_w, *pairs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0][7] == 0.0
