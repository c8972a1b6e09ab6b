"""Finite-difference oracle: stencils, eigensolver, bound-state solves."""

import math

import numpy as np
import pytest

from miespec import oracle
from miespec.errors import GridResolutionError
from miespec.oracle import (Tridiagonal, build_tridiagonal,
                            build_tridiagonal_radial, cell_grid, count_below,
                            default_grid, effective_potential, eigen_lowest,
                            order_fit, solve_bound_states)
from miespec.potentials import PotentialParams, coulomb
from miespec.spectrum import QuantumNumbers, bound_state, energy
from miespec.wavefunction import RadialGrid, eval_radial


def exact_energies(params, ell, dim, count):
    return [energy(params, QuantumNumbers(n, ell, dim)) for n in range(count)]


def order_study(potential, ell, dim, exact_energy, r_domain, h,
                factors=(4, 2, 1)):
    """order_fit of level 0 on solve_grids' rungs over [0, r_domain] in x,
    the finest of spacing h."""
    grid = cell_grid(r_domain, round(r_domain / h))
    levels = oracle.solve_grids(potential, ell, dim, grid,
                                [(f, 1) for f in factors])
    return order_fit(levels, 0, exact_energy)


def u_order_study(potential, ell, dim, exact_energy, r_domain, h):
    """order_fit of level 0 of the u stencil, the negative control, on cell
    grids over [0, r_domain] in r of spacings 4h, 2h and h."""
    cells = round(r_domain / h)
    grids = [cell_grid(r_domain, round(cells / f)) for f in (4, 2, 1)]
    levels = [eigen_lowest(build_tridiagonal(g, potential, ell, dim), 1)
              for g in grids]
    return order_fit(levels, 0, exact_energy)


class TestEffectivePotential:
    def test_three_dim_s_wave_is_bare(self):
        free = PotentialParams(0.0, 0.0, 0.0)
        assert effective_potential(free, 0, 3, 1.0) == 0.0

    def test_five_dim_barrier_value(self):
        # (N-1)(N-3)/4 = 2, scaled by hbar^2/2M = 1/2
        free = PotentialParams(0.0, 0.0, 0.0)
        assert effective_potential(free, 0, 5, 1.0) == pytest.approx(1.0)

    def test_reduces_to_centrifugal_plus_potential(self, kratzer):
        r = 1.7
        got = effective_potential(kratzer, 2, 4, r)
        want = (kratzer.A / r**2 + kratzer.B / r
                + 0.5 * (2 * (2 + 2) + 3.0 * 1.0 / 4.0) / r**2)
        assert got == pytest.approx(want, rel=1e-14)

    def test_closed_form_u_satisfies_reduced_equation(self, hydrogen):
        # u = r^{(N-1)/2} R solves -(1/2) u'' + V_eff u = E u
        state = bound_state(hydrogen, QuantumNumbers(0, 1, 3))
        r = np.linspace(0.5, 25.0, 4001)
        h = r[1] - r[0]
        u = r * eval_radial(state, r)
        upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        mid = r[1:-1]
        lhs = -0.5 * upp + effective_potential(hydrogen, 1, 3, mid) * u[1:-1]
        residual = lhs - state.energy * u[1:-1]
        assert np.max(np.abs(residual)) <= 1e-4 * np.max(np.abs(u))

    def test_radius_gate(self, hydrogen):
        with pytest.raises(ValueError):
            effective_potential(hydrogen, 0, 3, 0.0)

    def test_nan_radius_is_refused(self, hydrogen):
        with pytest.raises(ValueError):
            effective_potential(hydrogen, 0, 3, math.nan)


class TestBuildTridiagonal:
    def test_stencil_entries(self):
        free = PotentialParams(0.0, 0.0, 0.0)
        grid = RadialGrid(1.0, 3.0, 3)  # h = 1
        tri = build_tridiagonal(grid, free, 0, 5)
        r = grid.nodes()
        assert tri.offdiag == pytest.approx([-0.5, -0.5])
        assert tri.diag == pytest.approx(1.0 + 0.5 * 2.0 / r**2)

    def test_symmetric_by_construction(self, kratzer):
        grid = RadialGrid(0.05, 20.0, 400)
        tri = build_tridiagonal(grid, kratzer, 1, 3)
        assert tri.size == 400
        assert np.all(tri.offdiag == tri.offdiag[0])

    def test_free_box_limit(self):
        # N=3, ell=0, V=0: walls one spacing outside [h, L] give a box of
        # width L + h; ground level -> pi^2 hbar^2 / (2 M width^2)
        free = PotentialParams(0.0, 0.0, 0.0)
        errors = []
        for m in (400, 800):
            length = 1.0
            h = length / (m + 1)
            grid = RadialGrid(h, length * m / (m + 1), m)
            tri = build_tridiagonal(grid, free, 0, 3)
            e0 = eigen_lowest(tri, 1)[0]
            errors.append(abs(e0 - math.pi**2 / 2.0))
        assert errors[0] < 1e-3
        assert errors[1] < errors[0] / 3.5


class TestEigenLowest:
    def test_three_by_three_analytic(self):
        tri = Tridiagonal(diag=np.array([2.0, 2.0, 2.0]),
                          offdiag=np.array([-1.0, -1.0]))
        got = eigen_lowest(tri, 3, tol=1e-13)
        want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        assert got == pytest.approx(want, abs=1e-10)

    def test_single_entry(self):
        tri = Tridiagonal(diag=np.array([4.2]), offdiag=np.zeros(0))
        assert eigen_lowest(tri, 1) == pytest.approx([4.2], abs=1e-12)

    def test_against_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 6, 8):
            for _ in range(5):
                d = rng.normal(size=m)
                e = rng.normal(size=m - 1)
                # leading principal minor recurrence gives det(T - x I)
                polys = [np.array([1.0]), np.array([d[0], -1.0])]
                for i in range(1, m):
                    grow = np.zeros(len(polys[-1]) + 1)
                    grow[:-1] += d[i] * polys[-1]
                    grow[1:] += -polys[-1]
                    grow[: len(polys[-2])] -= e[i - 1] ** 2 * polys[-2]
                    polys.append(grow)
                roots = np.sort(np.roots(polys[-1][::-1]).real)
                tri = Tridiagonal(diag=d, offdiag=e)
                got = eigen_lowest(tri, m, tol=1e-13)
                assert got == pytest.approx(roots, abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Tridiagonal(diag=np.array([1.0, np.nan]), offdiag=np.array([0.5]))


class TestSolveBoundStates:
    def test_hydrogen_reference(self, hydrogen):
        got = solve_bound_states(hydrogen, 0, 3)
        want = exact_energies(hydrogen, 0, 3, 4)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert abs(g - w) <= max(5e-5, 5e-5 * abs(w))

    def test_kratzer_reference(self, kratzer):
        got = solve_bound_states(kratzer, 0, 3)
        want = exact_energies(kratzer, 0, 3, 4)
        assert abs(got[0] - (-3.6492)) < 1e-4
        for g, w in zip(got, want):
            assert abs(g - w) <= max(5e-5, 5e-5 * abs(w))

    def test_critical_two_dim_channel(self, hydrogen):
        # ell = 0, N = 2 has the limit-circle -1/(4 r^2) reduced coupling;
        # the conservative radial scheme still converges cleanly
        got = solve_bound_states(hydrogen, 0, 2)
        want = exact_energies(hydrogen, 0, 2, 4)
        for g, w in zip(got, want):
            assert abs(g - w) <= max(5e-5, 5e-5 * abs(w))

    def test_u_scheme_on_regular_channel(self, hydrogen):
        # the u stencil's own uniform-r grid, with the spacing and outer node
        # of this channel's uniform-r cells: r in [h, 108 - h/2], h = 0.01
        u_grid = RadialGrid(0.01, 107.995, 10800)
        got = eigen_lowest(build_tridiagonal(u_grid, hydrogen, 0, 3), 4)
        want = exact_energies(hydrogen, 0, 3, 4)
        for g, w in zip(got, want):
            assert abs(g - w) <= max(5e-5, 5e-5 * abs(w))

    @pytest.mark.parametrize("count", [4, 6, 8, 10])
    def test_default_grid_is_sized_for_count_levels(self, hydrogen, count):
        # a grid sized for 4 levels whatever the count returned 7 of 8, the
        # 7th 2.6% off; 4 levels keep the n_max = 3 grid
        got = solve_bound_states(hydrogen, 0, 3, count=count)
        grid = default_grid(hydrogen, 0, 3, n_max=count - 1)
        assert np.array_equal(got, solve_bound_states(hydrogen, 0, 3, grid,
                                                      count=count))
        want = exact_energies(hydrogen, 0, 3, count)
        assert len(got) == count
        for g, w in zip(got, want):
            assert abs(g - w) <= max(5e-5, 5e-5 * abs(w))

    def test_a_grid_off_the_origin_is_refused(self, hydrogen):
        # its first face sits at x = 0.99: its level 0 read -0.184, where the
        # origin-anchored coarse rungs of the same ladder read -0.5000031
        grid = RadialGrid(1.0, 10.0, 400)
        with pytest.raises(ValueError, match="cell_grid"):
            build_tridiagonal_radial(grid, hydrogen, 0, 3)
        with pytest.raises(ValueError, match="cell_grid"):
            solve_bound_states(hydrogen, 0, 3, grid)
        with pytest.raises(ValueError, match="cell_grid"):
            oracle.solve_grids(hydrogen, 0, 3, grid, [(4, 1), (2, 1), (1, 1)])

    def test_box_artifacts_filtered(self, hydrogen):
        # tiny domain, r in [0, 14]: only the ground state fits below
        # V_eff(r_max)
        grid = cell_grid(math.sqrt(14.0), 2000)
        got = solve_bound_states(hydrogen, 0, 3, grid)
        assert 1 <= len(got) < 4
        assert got[0] == pytest.approx(-0.5, abs=1e-3)


class TestSturmCensus:
    def test_count_below_offset_bounds_fitting_levels(self, kratzer):
        ell, dim = 0, 3
        grid = default_grid(kratzer, ell, dim, n_max=3)
        tri = build_tridiagonal_radial(grid, kratzer, ell, dim)
        fitting = 0
        for n in range(12):
            state = bound_state(kratzer, QuantumNumbers(n, ell, dim))
            edge = abs(eval_radial(state, grid.r_max))
            peak = abs(eval_radial(state, (state.k + 2 - dim + 1) / state.eps))
            if edge <= 1e-8 * peak:
                fitting += 1
        assert count_below(tri, 0.0) >= fitting

    def test_count_matches_bisection(self, hydrogen):
        grid = default_grid(hydrogen, 0, 3)
        tri = build_tridiagonal_radial(grid, hydrogen, 0, 3)
        levels = eigen_lowest(tri, 6)
        mid = 0.5 * (levels[3] + levels[4])
        assert count_below(tri, mid) == 4


class TestConvergenceStudy:
    def test_hydrogen_second_order(self, hydrogen):
        # N=2, ell=0: the critical channel, second order on the x-grid
        grid = default_grid(hydrogen, 0, 2)
        h = grid.spacing
        report = order_study(hydrogen, 0, 2, -2.0, grid.r_max + 0.5 * h, h)
        assert report["status"] == "ok" and report["passed"]
        assert report["order"] == pytest.approx(2.0, abs=0.2)

    def test_u_scheme_is_the_negative_control(self, hydrogen):
        # the u'' stencil on the critical -1/(4 r^2) channel (N=2, ell=0):
        # the error grows under refinement (23, 57, 160), where the radial
        # scheme fits order 2.00 on the same spacings
        critical = u_order_study(hydrogen, 0, 2, -2.0, 40.0, 0.01)
        errors = critical["errors"]
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert min(errors) > 1.0
        assert critical["status"] == "inconclusive"
        assert not critical["passed"]
        # a regular channel (N=3, ell=1) converges at second order
        e0 = energy(hydrogen, QuantumNumbers(0, 1, 3))
        regular = u_order_study(hydrogen, 1, 3, e0, 60.0, 0.01)
        assert regular["status"] == "ok" and regular["passed"]
        assert regular["order"] == pytest.approx(2.0, abs=0.2)

    def test_kratzer_second_order(self, kratzer):
        e0 = energy(kratzer, QuantumNumbers(0, 0, 3))
        report = order_study(kratzer, 0, 3, e0, 24.0, 0.005)
        assert report["status"] == "ok" and report["passed"]
        assert report["order"] == pytest.approx(2.0, abs=0.2)

    def test_rounding_floor_is_inconclusive(self, hydrogen):
        # the (ell=0, N=3) ground state is the Gaussian e^{-x^2}, nearly
        # exact in this scheme; x in [0, 10] is r in [0, 100]
        report = order_study(hydrogen, 0, 3, -0.5, 10.0, 0.005)
        assert report["status"] == "inconclusive"
        assert "floor" in report["reason"]
        assert report["passed"]

    def test_five_spacings_solve_each_grid_once(self, hydrogen, monkeypatch):
        # the rungs hold the scout's factor 8: no grid is solved twice
        sizes = []
        solve = oracle.eigen_lowest

        def recorded(tri, *args, **kwargs):
            sizes.append(tri.size)
            return solve(tri, *args, **kwargs)
        monkeypatch.setattr(oracle, "eigen_lowest", recorded)
        report = order_study(hydrogen, 0, 2, -2.0, 8.0, 0.01,
                             factors=(16, 8, 4, 2, 1))
        assert sizes == [50, 100, 200, 400, 800]
        assert report["status"] == "ok" and report["passed"]

    def test_a_repeated_spacing_predicts_without_dividing_by_zero(self, hydrogen):
        grid = cell_grid(8.0, 800)
        rungs = [(4, 1), (4, 1), (2, 1), (1, 1)]
        levels = oracle.solve_grids(hydrogen, 0, 2, grid, rungs)
        assert abs(levels[0][0] - levels[1][0]) <= oracle._TOL
        cold = solve_bound_states(hydrogen, 0, 2, grid, count=1)
        assert abs(levels[-1][0] - cold[0]) <= oracle._TOL


# errors of level 0 on the rungs, coarse to fine, against E = -1; None is a
# grid whose level 0 lies above its bound-state ceiling.  One rung holds no
# order to read: a status of None is order_fit's ValueError
@pytest.mark.parametrize("errors,status,passed", [
    ((4e-4, 1e-4, 2.5e-5), "ok", True),          # order 2
    ((3.6e-4, 1e-4, 2.77e-5), "ok", True),        # order 1.85
    ((4.75e-4, 1e-4, 2.1e-5), "ok", False),       # order 2.25
    ((2e-4, 1e-4, 5e-5), "ok", False),            # order 1
    ((1e-6, 1e-8, 1e-10), "inconclusive", True),  # at the rounding floor
    ((1e-5, 2e-5, 1.5e-5), "inconclusive", False),  # non-monotone
    ((None, 1e-4, 2.5e-5), "inconclusive", False),  # above the ceiling
    ((1e-2,), None, None),                        # one rung
    ((0.0,), None, None),                         # one rung, exact
], ids=["in-band", "low-in-band", "above-band", "below-band", "floor",
        "non-monotone", "ceiling", "one-rung", "one-rung-exact"])
def test_order_fit_carries_the_order_gate(errors, status, passed):
    levels = [np.array([] if e is None else [-1.0 + e]) for e in errors]
    if status is None:
        with pytest.raises(ValueError, match="two or more"):
            order_fit(levels, 0, -1.0)
        return
    report = order_fit(levels, 0, -1.0)
    assert report["status"] == status
    assert report["passed"] is passed


class TestExtremeGrids:
    def test_far_grid_keeps_every_coupling(self):
        # mass 1e-100 puts the Bohr radius at 1e100 and the nodes at
        # x ~ 1e50; r^{N-1} weights multiplied out overflowed there and
        # left every off-diagonal -0.0
        light = coulomb(-1.0, mass=1e-100)
        for dim in (2, 3, 5):
            tri = build_tridiagonal_radial(default_grid(light, 0, dim),
                                           light, 0, dim)
            assert np.all(np.isfinite(tri.offdiag))
            assert np.all(tri.offdiag < 0.0)

    def test_underflowing_spacing_squared_is_a_grid_error(self, hydrogen):
        # h * h underflows to 0 in float arithmetic: no ZeroDivisionError,
        # from the solver or from the builder called directly
        grid = cell_grid(1e-170, 1000)
        with pytest.raises(GridResolutionError, match="underflows"):
            solve_bound_states(hydrogen, 0, 3, grid, count=1)
        with pytest.raises(GridResolutionError, match="underflows"):
            build_tridiagonal_radial(grid, hydrogen, 0, 3)

    def test_subnormal_coupling_squares_are_refused(self):
        # hbar 1e100: off-diagonals near 1e-189, whose squares the Sturm
        # counts would read as 0, a diagonal matrix with no bound level;
        # refused by the solver and by the builder called directly
        heavy = coulomb(-1.0, hbar=1e100)
        with pytest.raises(GridResolutionError, match="squares"):
            solve_bound_states(heavy, 0, 3)
        with pytest.raises(GridResolutionError, match="squares"):
            build_tridiagonal_radial(default_grid(heavy, 0, 3), heavy, 0, 3)

    @pytest.mark.parametrize("potential", [
        coulomb(-3e-308),
    ], ids=["coulomb-domain-inf"])
    def test_a_domain_or_spacing_out_of_range_is_refused(self, potential):
        with pytest.raises(GridResolutionError, match="sizes to (0|inf) cells"):
            default_grid(potential, 0, 3)

    @pytest.mark.parametrize("refine", [1e-3, 1e4])
    def test_cell_counts_outside_the_bounds_are_refused(self, hydrogen, refine):
        # 1,386 cells at refine 1; no silent clamp to [64, 400000]
        with pytest.raises(GridResolutionError, match="sizes to"):
            default_grid(hydrogen, 1, 3, refine=refine)


class TestInterdimensionalDegeneracyFd:
    @pytest.mark.parametrize("ell,dim", [(0, 4), (1, 4), (0, 5)])
    def test_fd_respects_degeneracy(self, kratzer, ell, dim):
        a = solve_bound_states(kratzer, ell, dim)
        b = solve_bound_states(kratzer, ell + 1, dim - 2)
        for x, y in zip(a[:3], b[:3]):
            assert abs(x - y) <= 2.0 * max(5e-5, 5e-5 * abs(x))


class TestConfigTypes:
    def test_solve_arguments_are_validated(self, hydrogen):
        grid = cell_grid(10.0, 1000)
        with pytest.raises(ValueError, match="count must be in"):
            solve_bound_states(hydrogen, 0, 3, grid, count=0)
        with pytest.raises(ValueError, match="count must be in"):
            solve_bound_states(hydrogen, 0, 3, grid, count=2000)
        # a custom ladder: no rung, or a factor that is not positive and
        # finite, names the rungs instead of dividing by zero
        for rungs in ([], [(0, 1)], [(4, 1), (-2, 1)], [(math.inf, 1)],
                      [(math.nan, 1)]):
            with pytest.raises(ValueError, match="rungs must be"):
                oracle.solve_grids(hydrogen, 0, 3, grid, rungs)

    def test_a_potential_is_read_only_through_the_protocol(self):
        # value, at_infinity and kinetic are all the oracle reads
        class Stub:
            kinetic = 0.5
            at_infinity = 0.0

            def value(self, r):
                return -1.0 / r

        grid = cell_grid(math.sqrt(60.0), 1500)
        got = solve_bound_states(Stub(), 0, 3, grid)
        want = solve_bound_states(coulomb(-1.0), 0, 3, grid)
        assert len(got) == 4 and np.array_equal(got, want)

    def test_cell_grid_geometry(self):
        grid = cell_grid(10.0, 1000)
        assert grid.r_min == pytest.approx(grid.spacing / 2.0, rel=1e-12)
        assert grid.r_max == pytest.approx(10.0 - grid.spacing / 2.0, rel=1e-12)

    def test_default_grid_requires_attraction(self):
        with pytest.raises(ValueError):
            default_grid(PotentialParams(0.0, 1.0, 0.0), 0, 3)

    def test_default_grid_refuses_a_negative_level_count(self, hydrogen):
        # n_max = -1 once divided by 2 n_max + 2k + 3 - N = 0
        with pytest.raises(ValueError, match="n_max >= 0"):
            default_grid(hydrogen, 0, 3, n_max=-1)
        with pytest.raises(ValueError, match="n_max >= 0"):
            solve_bound_states(hydrogen, 0, 3, count=0)

    @pytest.mark.parametrize("refine", [0.0, -1.0, math.nan])
    def test_default_grid_refuses_a_refine_not_above_zero(self, hydrogen,
                                                          refine):
        with pytest.raises(ValueError, match="refinement factor"):
            default_grid(hydrogen, 0, 3, refine=refine)
