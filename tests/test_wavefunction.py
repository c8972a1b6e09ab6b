"""Eigenfunction evaluation, normalization, overlaps, ODE residual, nodes."""

import dataclasses
import math

import numpy as np
import pytest

from miespec.errors import GridResolutionError, NotNormalizableError
from miespec.potentials import PotentialParams, coulomb, kratzer_fues
from miespec.specfun import default_quadrature_order, gauss_laguerre
from miespec.spectrum import QuantumNumbers, bound_state
from miespec.wavefunction import (RadialGrid, SampledFunction, eval_radial,
                                  eval_y_form, node_count, norm_check,
                                  norm_constant, ode_residual_relative,
                                  ode_residual_samples, overlap)


def make_state(params, n, ell, dim):
    return bound_state(params, QuantumNumbers(n, ell, dim))


@pytest.mark.parametrize("n", [2, 5, 20])
def test_eval_radial_underflows_to_zero_at_large_finite_r(hydrogen, n):
    # the Laguerre recurrence at y = 2 eps r up to 1e307 once overflowed to
    # -inf or nan; R underflows there
    state = make_state(hydrogen, n, 0, 3)
    values = eval_radial(state, np.logspace(100, 308, 53))
    assert np.all(values == 0.0)


def test_eval_radial_is_zero_where_y_overflows():
    # y = 2 eps r = 4e308 is past the double range; it was refused with an
    # overflow warning where R is simply 0
    state = make_state(coulomb(-2.0), 0, 0, 3)
    assert eval_radial(state, 1e308) == 0.0
    values = eval_radial(state, np.array([1.0, 1e308]))
    assert values[0] > 0.0 and values[1] == 0.0


class TestNormConstant:
    def test_hydrogen_ground_state(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        assert norm_constant(state) == pytest.approx(2.0, rel=1e-12)
        assert state.zeta == pytest.approx(2.0, rel=1e-12)

    def test_positive_everywhere(self, kratzer):
        for dim in (2, 3, 5):
            for n in range(6):
                assert norm_constant(make_state(kratzer, n, 1, dim)) > 0.0

    def test_paper_literal_agrees_only_for_unit_gamma(self, hydrogen):
        # hydrogen ground state has alpha = 1, where Gamma(2n+alpha+2) and
        # the bare (2n+alpha+1) coincide; from n = 1 on they do not
        s0 = make_state(hydrogen, 0, 0, 3)
        assert norm_constant(s0, paper_literal=True) == pytest.approx(
            norm_constant(s0), rel=1e-12)
        s1 = make_state(hydrogen, 1, 0, 3)
        ratio = norm_constant(s1, paper_literal=True) / norm_constant(s1)
        assert ratio == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)


class TestEvalRadial:
    def test_hydrogen_ground_closed_form(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        assert eval_radial(state, 1.0) == pytest.approx(2.0 * math.exp(-1.0),
                                                        rel=1e-13)
        r = np.linspace(0.1, 10.0, 50)
        assert eval_radial(state, r) == pytest.approx(2.0 * np.exp(-r), rel=1e-12)

    def test_first_excited_zero_location(self, kratzer):
        state = make_state(kratzer, 1, 0, 3)
        r_zero = (state.alpha + 1.0) / (2.0 * state.eps)
        assert eval_radial(state, r_zero) == pytest.approx(0.0, abs=1e-12)
        assert eval_radial(state, 0.9 * r_zero) * eval_radial(state, 1.1 * r_zero) < 0.0

    def test_vanishes_at_origin_for_positive_power(self, kratzer):
        state = make_state(kratzer, 0, 0, 3)  # k + 2 - N = 2.7 > 0
        assert abs(eval_radial(state, 1e-8)) < 1e-20

    def test_radius_domain_error(self, hydrogen):
        with pytest.raises(ValueError):
            eval_radial(make_state(hydrogen, 0, 0, 3), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_refused(self, hydrogen, bad):
        # a NaN sample must not come back silently among good ones
        state = make_state(hydrogen, 2, 0, 3)
        for evaluate in (eval_radial, eval_y_form):
            with pytest.raises(ValueError, match="finite"):
                evaluate(state, bad)
            with pytest.raises(ValueError, match="finite"):
                evaluate(state, np.array([0.5, bad, 2.0]))


class TestNormCheck:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_unit_norm(self, hydrogen, kratzer, dim, n):
        for params in (hydrogen, kratzer):
            state = make_state(params, n, 0, dim)
            assert norm_check(state) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unit_norm_and_adjacent_orthogonality_to_n20(self, hydrogen,
                                                          kratzer, dim):
        # the Kummer series loses ~1e-7 of the norm to cancellation by n = 20
        for params in (hydrogen, kratzer):
            for ell in range(3):
                states = [make_state(params, n, ell, dim) for n in range(22)]
                for a, b in zip(states, states[1:]):
                    assert norm_check(a) == pytest.approx(1.0, abs=1e-10)
                    assert overlap(a, b, "r") == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [100, 150, 200])
    @pytest.mark.parametrize("ell", [0, 2])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_high_n_norm_overlaps_and_finite_values(self, hydrogen, kratzer,
                                                    dim, ell, n):
        # L_n^alpha passes the double range here while R only underflows,
        # and the largest quadrature nodes carry weights below it
        for params in (hydrogen, kratzer):
            state = make_state(params, n, ell, dim)
            assert abs(norm_check(state) - 1.0) <= 1e-10
            assert abs(overlap(state, make_state(params, n + 1, ell, dim),
                               "r")) <= 1e-10
            # int R^2 y^{N-1} dy = (2 eps)^N by the substitution y = 2 eps r
            assert overlap(state, state, "y") == pytest.approx(
                (2.0 * state.eps) ** dim, rel=1e-10)
            y = np.array([20.0 * n, 60.0 * n])
            assert np.all(np.isfinite(eval_radial(state, y / (2.0 * state.eps))))

    def test_smallest_normal_constant_still_normalizes(self, hydrogen):
        # zeta is about 5e-302 here, just above the smallest normal double
        assert norm_check(make_state(hydrogen, 0, 86, 3)) == pytest.approx(
            1.0, abs=1e-10)

    @pytest.mark.parametrize("ell", [88, 90, 200])
    def test_constant_below_the_normal_range_is_refused(self, hydrogen, ell):
        # a subnormal zeta (ell = 88, 90) has lost digits; from ell = 92 on
        # it is 0.0
        with pytest.raises(NotNormalizableError, match="ln zeta"):
            make_state(hydrogen, 0, ell, 3)

    @pytest.mark.parametrize("n", range(21))
    def test_equals_an_overlap_of_two_distinct_states(self, hydrogen, kratzer,
                                                      n):
        # overlap evaluates a state passed twice once; a copy of it takes
        # the path of two states
        for params in (hydrogen, kratzer):
            state = make_state(params, n, 1, 3)
            assert norm_check(state) == overlap(
                state, dataclasses.replace(state), "r")

    def test_doubled_constant_scales_quadratically(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        tampered = dataclasses.replace(state, zeta=2.0 * state.zeta)
        assert norm_check(tampered) == pytest.approx(4.0, abs=1e-9)

    def test_paper_literal_variant_fails_for_excited_states(self, kratzer):
        for n in (1, 3):
            state = make_state(kratzer, n, 0, 3)
            tampered = dataclasses.replace(
                state, zeta=norm_constant(state, paper_literal=True))
            assert abs(norm_check(tampered) - 1.0) > 1e-2


class TestOverlap:
    def test_r_space_orthonormality(self, hydrogen, kratzer):
        for params in (hydrogen, kratzer):
            for dim in (2, 3, 5):
                states = [make_state(params, n, 1, dim) for n in range(5)]
                for i, a in enumerate(states):
                    for b in states[i:]:
                        want = 1.0 if a.q.n == b.q.n else 0.0
                        assert overlap(a, b, "r") == pytest.approx(want, abs=1e-10)

    def test_y_space_adjacent_overlap_value(self, hydrogen):
        # shared-y overlap in the y^{N-1} measure is NOT zero; for the
        # hydrogen (ell=0, N=3) channel the 0-1 value is exactly -sqrt(2)
        a = make_state(hydrogen, 0, 0, 3)
        b = make_state(hydrogen, 1, 0, 3)
        assert overlap(a, b, "y") == pytest.approx(-math.sqrt(2.0), rel=1e-12)

    def test_mismatched_channels_rejected(self, hydrogen):
        with pytest.raises(ValueError):
            overlap(make_state(hydrogen, 0, 0, 3), make_state(hydrogen, 0, 1, 3))
        with pytest.raises(ValueError):
            overlap(make_state(hydrogen, 0, 0, 3),
                    make_state(kratzer_fues(5.0, 1.0), 0, 0, 3), "r")

    def test_unknown_space(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        with pytest.raises(ValueError):
            overlap(state, state, "q")


class TestSharedRule:
    """One prebuilt rule per channel, as verify passes to norm_check and
    overlap; its n_max + 2 nodes are exact for every level up to n_max."""

    @staticmethod
    def channel_rule(states):
        return gauss_laguerre(default_quadrature_order(len(states) - 1),
                              states[0].alpha + 1.0)

    @pytest.mark.parametrize("n_max", [3, 10, 20])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_agrees_with_the_rule_of_each_call(self, hydrogen, kratzer, dim,
                                               n_max):
        for params in (hydrogen, kratzer):
            for ell in range(3):
                states = [make_state(params, n, ell, dim)
                          for n in range(n_max + 1)]
                rule = self.channel_rule(states)
                for s in states:
                    assert abs(norm_check(s, rule) - norm_check(s)) <= 1e-13
                for a, b in zip(states, states[1:]):
                    assert abs(overlap(a, b, "r", rule)
                               - overlap(a, b, "r")) <= 1e-13

    @pytest.mark.parametrize("n", [0, 3, 20])
    def test_the_rule_a_call_would_build_gives_the_same_bits(self, kratzer, n):
        state = make_state(kratzer, n, 1, 5)
        rule = gauss_laguerre(n + 2, state.alpha + 1.0)
        assert norm_check(state, rule) == norm_check(state)

    def test_a_rule_for_another_weight_is_refused(self, kratzer):
        state = make_state(kratzer, 1, 1, 3)
        with pytest.raises(ValueError, match="alpha"):
            norm_check(state, gauss_laguerre(3, state.alpha))
        other = make_state(kratzer, 0, 1, 3)
        with pytest.raises(ValueError, match="alpha"):
            overlap(other, state, "r", gauss_laguerre(3, state.alpha + 1.5))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_a_rule_one_node_short_is_refused(self, hydrogen, n):
        state = make_state(hydrogen, n, 0, 3)
        short = gauss_laguerre(default_quadrature_order(n) - 1,
                               state.alpha + 1.0)
        with pytest.raises(ValueError, match="nodes"):
            norm_check(state, short)
        if n:
            with pytest.raises(ValueError, match="nodes"):
                overlap(make_state(hydrogen, 0, 0, 3), state, "r", short)

    def test_doubled_constant_still_reads_four(self, kratzer):
        states = [make_state(kratzer, n, 2, 3) for n in range(4)]
        rule = self.channel_rule(states)
        tampered = dataclasses.replace(states[1], zeta=2.0 * states[1].zeta)
        assert norm_check(tampered, rule) == pytest.approx(4.0, abs=1e-9)


class TestOdeResidual:
    def test_hydrogen_ground_reference_grid(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        grid = RadialGrid(0.1, 20.0, 2000)
        assert ode_residual_relative(state, grid) <= 1e-6

    def test_fourth_order_refinement(self, kratzer):
        state = make_state(kratzer, 1, 0, 3)
        coarse = ode_residual_relative(state, RadialGrid(0.1, 8.0, 500))
        fine = ode_residual_relative(state, RadialGrid(0.1, 8.0, 1000))
        assert coarse / fine == pytest.approx(16.0, rel=0.4)

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_noninteger_k_channels(self, kratzer, dim):
        state = make_state(kratzer, 2, 1, dim)
        r_top = (2.0 * state.q.n + 2.0 * state.k + 14.0) / (2.0 * state.eps)
        grid = RadialGrid(r_top / 200.0, r_top, 3000)
        assert ode_residual_relative(state, grid) <= 1e-6

    def test_zero_samples_zero_residual(self, hydrogen):
        grid = RadialGrid(0.5, 10.0, 101)
        res = ode_residual_samples(np.zeros(101), grid, hydrogen, 0, 3, -0.5)
        assert np.all(res.values == 0.0)
        assert res.grid.count == 97

    def test_coarse_grid_rejected(self, kratzer):
        state = make_state(kratzer, 0, 0, 3)  # eps ~ 2.7
        with pytest.raises(GridResolutionError):
            ode_residual_relative(state, RadialGrid(0.1, 30.0, 100))

    def test_underflowing_spacing_squared_is_refused(self, hydrogen):
        # 12 h^2 underflows to 0, which would make the residual nan
        grid = RadialGrid(1e-300, 1e-299, 11)
        with pytest.raises(GridResolutionError, match="squared underflows"):
            ode_residual_samples(np.ones(11), grid, hydrogen, 0, 3, -0.5)

    def test_a_term_past_the_double_range_is_refused(self, hydrogen):
        # nu / r^2 times 1e307 overflows near r = 1e-3
        grid = RadialGrid(1e-3, 1.0, 101)
        with pytest.raises(GridResolutionError, match="must be finite"):
            ode_residual_samples(np.full(101, 1e307), grid, hydrogen, 1, 3,
                                 -0.125)

    def test_interior_grid_alignment(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        grid = RadialGrid(0.1, 20.0, 2000)
        nodes = grid.nodes()
        res = ode_residual_samples(eval_radial(state, nodes), grid, hydrogen,
                                   0, 3, state.energy)
        assert res.grid.count == grid.count - 4
        assert res.grid.nodes()[0] == pytest.approx(nodes[2])
        assert res.grid.nodes()[-1] == pytest.approx(nodes[-3])


class TestNodeCount:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_radial_quantum_number(self, hydrogen, kratzer, n):
        assert node_count(make_state(hydrogen, n, 0, 3)) == n
        assert node_count(make_state(kratzer, n, 2, 4)) == n


class TestGridTypes:
    def test_radial_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            RadialGrid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            RadialGrid(0.1, 1.0, 2)
        # NaN fails every comparison, so each check is written to fail on it
        for r_min, r_max, match in ((math.nan, 1.0, "r_min"),
                                    (1.0, math.nan, "r_max"),
                                    (1.0, math.inf, "r_max"),
                                    (-math.inf, 1.0, "r_min"),
                                    (math.inf, math.inf, "r_max")):
            with pytest.raises(ValueError, match=match):
                RadialGrid(r_min, r_max, 5)

    def test_sampled_function_length_gate(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        grid = RadialGrid(0.1, 5.0, 64)
        sampled = SampledFunction(grid=grid, values=eval_radial(state, grid.nodes()))
        assert len(sampled.values) == 64
        with pytest.raises(ValueError):
            SampledFunction(grid=grid, values=np.zeros(3))
