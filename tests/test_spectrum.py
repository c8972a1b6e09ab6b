"""Closed-form spectrum: indicial root, decay rate, energies, gating."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miespec.errors import FallToCenterError, NoBoundStatesError, UnitsRangeError
from miespec.potentials import PotentialParams, coulomb, kratzer_fues, modified_kratzer
from miespec.spectrum import (QuantumNumbers, bound_state, centrifugal_strength,
                              decay_rate, energy, indicial_root, spectrum_table)


class TestCentrifugalStrength:
    def test_s_wave_three_dimensions(self):
        assert centrifugal_strength(coulomb(-1.0), 0, 3) == 0.0

    def test_pure_angular_part(self):
        assert centrifugal_strength(coulomb(-1.0), 2, 3) == 6.0

    def test_with_inverse_square_coefficient(self):
        assert centrifugal_strength(PotentialParams(5.0, -1.0, 0.0), 0, 3) == 10.0


class TestIndicialRoot:
    def test_hydrogen_value(self):
        assert indicial_root(coulomb(-1.0), 0, 3) == pytest.approx(1.0, rel=1e-14)

    def test_a_zero_closed_form(self):
        for dim in range(2, 13):
            for ell in range(11):
                if dim == 2 and ell == 0:
                    continue  # borderline zero-discriminant case, tested below
                k = indicial_root(coulomb(-1.0), ell, dim)
                assert k == pytest.approx(ell + dim - 2.0, rel=1e-12, abs=1e-12)

    def test_kratzer_k_value(self):
        k = indicial_root(kratzer_fues(5.0, 1.0), 0, 3)
        assert k == pytest.approx((1.0 + math.sqrt(41.0)) / 2.0, rel=1e-14)
        assert k * k - k - 10.0 == pytest.approx(0.0, abs=1e-12)

    @given(a=st.floats(min_value=0.0, max_value=40.0),
           ell=st.integers(min_value=0, max_value=8),
           dim=st.integers(min_value=2, max_value=9))
    def test_quadratic_residual(self, a, ell, dim):
        params = PotentialParams(a, -1.0, 0.0)
        nu = centrifugal_strength(params, ell, dim)
        if (dim - 2.0) ** 2 + 4.0 * nu == 0.0:
            return
        k = indicial_root(params, ell, dim)
        assert abs(k * k - (dim - 2.0) * k - nu) <= 1e-10 * max(1.0, nu)

    def test_fall_to_center(self):
        with pytest.raises(FallToCenterError):
            indicial_root(PotentialParams(-1.0, -2.0, 0.0), 0, 3)

    def test_borderline_discriminant_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = indicial_root(coulomb(-1.0), 0, 2)
        assert k == 0.0  # relaxed to k >= 0: the state is normalizable


class TestDecayRate:
    def test_hydrogen_ground(self):
        assert decay_rate(coulomb(-1.0), QuantumNumbers(0, 0, 3)) == pytest.approx(1.0)

    def test_hydrogen_first_excited(self):
        assert decay_rate(coulomb(-1.0), QuantumNumbers(1, 0, 3)) == pytest.approx(0.5)

    def test_kratzer_ground(self):
        params = kratzer_fues(5.0, 1.0)
        k = indicial_root(params, 0, 3)
        got = decay_rate(params, QuantumNumbers(0, 0, 3))
        assert got == pytest.approx(20.0 / (2.0 * k), rel=1e-13)
        assert got == pytest.approx(2.7016, abs=5e-5)

    @pytest.mark.parametrize("B", [0.0, 0.5, 2.0])
    def test_non_attractive_gate(self, B):
        with pytest.raises(NoBoundStatesError):
            decay_rate(PotentialParams(0.0, B, 0.0), QuantumNumbers(0, 0, 3))


class TestEnergy:
    def test_hydrogen_series(self):
        params = coulomb(-1.0)
        for n in range(4):
            for ell in range(3):
                want = -0.5 / (n + ell + 1.0) ** 2
                got = energy(params, QuantumNumbers(n, ell, 3))
                assert got == pytest.approx(want, rel=1e-13)

    def test_kratzer_ground_value(self):
        got = energy(kratzer_fues(5.0, 1.0), QuantumNumbers(0, 0, 3))
        want = -50.0 / ((21.0 + math.sqrt(41.0)) / 2.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(-3.6492, abs=5e-5)

    def test_energy_approaches_offset_from_below(self):
        params = modified_kratzer(2.0, 1.0)  # C = 2
        values = [energy(params, QuantumNumbers(n, 0, 3)) for n in range(40)]
        assert all(v < params.C for v in values)
        assert np.all(np.diff(values) > 0.0)
        assert params.C - values[-1] < 0.01

    def test_consistency_with_decay_rate(self):
        for params in (coulomb(-1.0), kratzer_fues(5.0, 1.0),
                       PotentialParams(2.0, -3.0, 1.5, mass=1.7, hbar=0.8)):
            for dim in (2, 3, 5):
                for n in (0, 2):
                    q = QuantumNumbers(n, 1, dim)
                    eps = decay_rate(params, q)
                    via_eps = params.C - params.hbar**2 * eps**2 / (2.0 * params.mass)
                    assert energy(params, q) == pytest.approx(via_eps, rel=1e-12)

    def test_monotone_in_n_and_ell(self):
        params = kratzer_fues(5.0, 1.0)
        for ell in range(3):
            e_n = [energy(params, QuantumNumbers(n, ell, 3)) for n in range(6)]
            assert np.all(np.diff(e_n) > 0.0)
        for n in range(3):
            e_l = [energy(params, QuantumNumbers(n, ell, 3)) for ell in range(6)]
            assert np.all(np.diff(e_l) > 0.0)

    def test_hydrogen_reduction_formula(self):
        # E = -m B^2 / (2 hbar^2 (n + l + 1)^2) whenever A = C = 0, N = 3
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            B = -float(rng.uniform(0.1, 3.0))
            mass = float(rng.uniform(0.3, 3.0))
            hbar = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(0, 6))
            ell = int(rng.integers(0, 5))
            got = energy(coulomb(B, mass, hbar), QuantumNumbers(n, ell, 3))
            want = -mass * B * B / (2.0 * hbar**2 * (n + ell + 1.0) ** 2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_finite_where_the_norm_constant_overflows(self):
        # zeta = e^{~2600} here; energy and decay_rate must not need it
        params = coulomb(-1.0, mass=1e12)
        q = QuantumNumbers(0, 200, 3)
        assert energy(params, q) == pytest.approx(-1e12 / (2.0 * 201.0**2),
                                                  rel=1e-12)
        assert decay_rate(params, q) == pytest.approx(2e12 / 402.0, rel=1e-12)


class TestInterdimensionalDegeneracy:
    @pytest.mark.parametrize("dim", [4, 5, 6, 8, 12])
    def test_closed_form(self, dim):
        for params in (coulomb(-1.0), kratzer_fues(5.0, 1.0)):
            for n in range(4):
                for ell in range(3):
                    a = energy(params, QuantumNumbers(n, ell, dim))
                    b = energy(params, QuantumNumbers(n, ell + 1, dim - 2))
                    assert a == pytest.approx(b, rel=1e-12)


class TestBoundState:
    def test_invariants(self):
        for params in (coulomb(-1.0), kratzer_fues(5.0, 1.0)):
            for dim in (2, 3, 5):
                for n in (0, 3):
                    state = bound_state(params, QuantumNumbers(n, 1, dim))
                    assert state.k >= 0.0
                    assert 2.0 * state.k + 3.0 - dim > 0.0
                    assert state.eps > 0.0
                    assert state.energy < params.C
                    assert state.zeta > 0.0
                    assert state.alpha == pytest.approx(2 * state.k + 2 - dim)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            QuantumNumbers(0, 0, 1)


class TestSpectrumTable:
    def test_hydrogen_accidental_degeneracy(self):
        rows = spectrum_table(coulomb(-1.0), n_max=1, ell_max=1, dim=3)
        assert len(rows) == 4
        by_q = {(r.q.n, r.q.ell): r for r in rows}
        assert by_q[(0, 1)].energy == pytest.approx(-0.125, rel=1e-13)
        assert by_q[(1, 0)].energy == pytest.approx(-0.125, rel=1e-13)
        assert all(r.status == "ok" for r in rows)

    def test_repulsive_tail_flagged_not_dropped(self):
        rows = spectrum_table(PotentialParams(0.0, 1.0, 0.0), 2, 1, 3)
        assert len(rows) == 6
        assert all(r.status == "no-bound-states" for r in rows)
        assert all(r.energy is None for r in rows)

    def test_paper_literal_modified_kratzer_has_no_bound_rows(self):
        params = modified_kratzer(1.0, 1.0, convention="paper-literal")
        rows = spectrum_table(params, 1, 1, 3)
        assert all(r.status == "no-bound-states" for r in rows)

    def test_fall_to_center_rows(self):
        rows = spectrum_table(PotentialParams(-1.0, -2.0, 0.0), 0, 1, 3)
        by_ell = {r.q.ell: r for r in rows}
        assert by_ell[0].status == "fall-to-center"
        assert by_ell[1].status == "ok"  # barrier rescues ell = 1

    def test_dimension_shift_relates_tables(self):
        # E(n, ell, N=5) = E(n, ell+1, N=3): the spectrum depends on
        # (ell, N) only through 2 ell + N - 2
        low = spectrum_table(kratzer_fues(5.0, 1.0), 2, 3, 3)
        high = spectrum_table(kratzer_fues(5.0, 1.0), 2, 2, 5)
        for row in high:
            partner = next(r for r in low
                           if (r.q.n, r.q.ell) == (row.q.n, row.q.ell + 1))
            assert partner.energy == pytest.approx(row.energy, rel=1e-12)

    def test_negative_ranges_rejected(self):
        with pytest.raises(ValueError):
            spectrum_table(coulomb(-1.0), -1, 0, 3)


# -- units across the double range --------------------------------------------

def mp_energy(params, q):
    """E = C - 2 m B^2 / (hbar^2 D^2), D = 2n + 2k + 3 - N, at 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        m, hbar = mpmath.mpf(params.mass), mpmath.mpf(params.hbar)
        nu = q.ell * (q.ell + q.dim - 2) + 2 * m * mpmath.mpf(params.A) / hbar**2
        k = ((q.dim - 2) + mpmath.sqrt((q.dim - 2) ** 2 + 4 * nu)) / 2
        d = 2 * q.n + 2 * k + 3 - q.dim
        return float(params.C - 2 * m * mpmath.mpf(params.B) ** 2 / (hbar * d) ** 2)


@pytest.mark.parametrize("mass,hbar", [
    (1e300, 1.0), (1e-300, 1.0), (1.0, 1e150), (1.0, 1e-100), (1e200, 1e100),
    (1e-250, 1e-100), (1e55, 1.0), (1.0, 1e60)])
@pytest.mark.parametrize("make", [lambda m, h: coulomb(-1.0, mass=m, hbar=h),
                                  lambda m, h: kratzer_fues(5.0, 1.0, m, h)],
                         ids=["coulomb", "kratzer-fues"])
def test_energy_where_a_factor_leaves_the_double_range(make, mass, hbar):
    # hbar^2, eps^2 or 2 m would over- or underflow on the way
    params = make(mass, hbar)
    for q in (QuantumNumbers(0, 0, 3), QuantumNumbers(3, 2, 5)):
        assert energy(params, q) == pytest.approx(mp_energy(params, q),
                                                  rel=1e-13, abs=0.0)


@pytest.mark.parametrize("params,name", [
    (coulomb(-1.0, hbar=1e200), "beta = -2 m B / hbar"),
    (coulomb(-1.0, mass=1e300, hbar=1e-300), "beta = -2 m B / hbar"),
    (coulomb(-1.0, hbar=1e-200), "beta = -2 m B / hbar"),
    (PotentialParams(1.0, -1e-100, 0.0, mass=1e300, hbar=1e-10),
     "2 m A / hbar"),
    (PotentialParams(5e7, -1.0, 0.0, mass=1e300), "indicial discriminant"),
    (PotentialParams(0.0, -1.0, -1.7e308, mass=5e307), "energy"),
], ids=["beta-under", "beta-over", "beta-over-small-hbar", "two-m-a",
        "discriminant", "energy"])
def test_units_out_of_the_double_range_are_refused(params, name):
    with pytest.raises(UnitsRangeError, match=name):
        energy(params, QuantumNumbers(0, 0, 3))


@given(st.floats(1e-10, 1e10), st.floats(1e-5, 1e5),
       st.floats(-1e5, -1e-5), st.floats(0.0, 1e10))
def test_ordinary_units_keep_the_formulas_as_written(mass, hbar, B, A):
    # every factor (mass, hbar, A, B, eps) within 2^-170..2^170: the
    # range-safe products must not move a single bit
    params = PotentialParams(A, B, 0.5, mass=mass, hbar=hbar)
    q = QuantumNumbers(1, 1, 4)
    nu = q.ell * (q.ell + q.dim - 2) + 2.0 * mass * A / hbar**2
    beta = -2.0 * mass * B / hbar**2
    k = 0.5 * ((q.dim - 2.0) + math.sqrt((q.dim - 2.0) ** 2 + 4.0 * nu))
    eps = beta / (2.0 * q.n + 2.0 * k + 3.0 - q.dim)
    assert centrifugal_strength(params, q.ell, q.dim) == nu
    assert energy(params, q) == 0.5 - hbar**2 * eps**2 / (2.0 * mass)
