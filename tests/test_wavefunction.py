"""Eigenfunction evaluation, normalization, overlaps, ODE residual, nodes."""

import dataclasses
import math

import numpy as np
import pytest

from miespec.errors import GridResolutionError, NotNormalizableError
from miespec.potentials import PotentialParams, coulomb, kratzer_fues
from miespec.spectrum import QuantumNumbers, bound_state
from miespec.wavefunction import (RadialGrid, eval_radial, eval_y_form,
                                  node_count, norm_check, norm_constant,
                                  ode_residual, ode_residual_relative,
                                  ode_residual_samples, overlap, sample_radial)


def make_state(params, n, ell, dim):
    return bound_state(params, QuantumNumbers(n, ell, dim))


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
            ode_residual(state, RadialGrid(0.1, 30.0, 100))

    def test_interior_grid_alignment(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        grid = RadialGrid(0.1, 20.0, 2000)
        res = ode_residual(state, grid)
        nodes = grid.nodes()
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

    def test_sampled_function_length_gate(self, hydrogen):
        state = make_state(hydrogen, 0, 0, 3)
        grid = RadialGrid(0.1, 5.0, 64)
        sampled = sample_radial(state, grid)
        assert len(sampled.values) == 64
        from miespec.wavefunction import SampledFunction
        with pytest.raises(ValueError):
            SampledFunction(grid=grid, values=np.zeros(3))
