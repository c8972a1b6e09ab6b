"""Closed-form spectrum: indicial root, decay rate, energies, gating."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miespec.cli import main
from miespec.errors import FallToCenterError, NoBoundStatesError, UnitsRangeError
from miespec.potentials import PotentialParams, coulomb, kratzer_fues, modified_kratzer
from miespec.spectrum import (_STATUS, QuantumNumbers, _channel, _level,
                              binding_rate, bound_state, centrifugal_strength,
                              energy, indicial_root, spectrum_table)


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
    # eps as a spectrum_table row reports it; the last row is (n_max, ell_max)
    def test_hydrogen_ground(self):
        assert spectrum_table(coulomb(-1.0), 0, 0, 3)[-1].eps == pytest.approx(1.0)

    def test_hydrogen_first_excited(self):
        assert spectrum_table(coulomb(-1.0), 1, 0, 3)[-1].eps == pytest.approx(0.5)

    def test_kratzer_ground(self):
        params = kratzer_fues(5.0, 1.0)
        k = indicial_root(params, 0, 3)
        got = spectrum_table(params, 0, 0, 3)[-1].eps
        assert got == pytest.approx(20.0 / (2.0 * k), rel=1e-13)
        assert got == pytest.approx(2.7016, abs=5e-5)

    @pytest.mark.parametrize("B", [0.0, 0.5, 2.0])
    def test_non_attractive_gate(self, B):
        row, = spectrum_table(PotentialParams(0.0, B, 0.0), 0, 0, 3)
        assert (row.status, row.eps) == ("no-bound-states", None)
        with pytest.raises(NoBoundStatesError):
            energy(PotentialParams(0.0, B, 0.0), QuantumNumbers(0, 0, 3))


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
                    eps = spectrum_table(params, n, 1, dim)[-1].eps
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
        # zeta = e^{~2600} here; energy and the table's eps must not need it
        params = coulomb(-1.0, mass=1e12)
        q = QuantumNumbers(0, 200, 3)
        assert energy(params, q) == pytest.approx(-1e12 / (2.0 * 201.0**2),
                                                  rel=1e-12)
        row = spectrum_table(params, 0, 200, 3)[-1]
        assert (row.dim, row.ell, row.n, row.status) == (q.dim, q.ell, q.n, "ok")
        assert row.eps == pytest.approx(2e12 / 402.0, rel=1e-12)


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

    @pytest.mark.parametrize("n,ell,dim,name", [
        (1.5, 0, 3, "n"), (0, 0.5, 3, "ell"), (0, 0, 3.0, "dim")])
    def test_non_integral_quantum_numbers_rejected(self, n, ell, dim, name):
        # QuantumNumbers(1.5, 0, 3) once gave hydrogen a level at -0.08
        with pytest.raises(ValueError, match=f"quantum number {name} must be "
                                             "an integer"):
            QuantumNumbers(n, ell, dim)

    def test_numpy_integers_accepted(self):
        q = QuantumNumbers(np.int64(1), np.int32(0), np.int64(3))
        assert bound_state(coulomb(-1.0), q).energy == pytest.approx(
            -0.125, rel=1e-13)


class TestSpectrumTable:
    def test_hydrogen_accidental_degeneracy(self):
        rows = spectrum_table(coulomb(-1.0), n_max=1, ell_max=1, dim=3)
        assert len(rows) == 4
        by_q = {(r.n, r.ell): r for r in rows}
        assert by_q[(0, 1)].energy == pytest.approx(-0.125, rel=1e-13)
        assert by_q[(1, 0)].energy == pytest.approx(-0.125, rel=1e-13)
        assert all(r.status == "ok" for r in rows)

    def test_repulsive_tail_flagged_not_dropped(self):
        rows = spectrum_table(PotentialParams(0.0, 1.0, 0.0), 2, 1, 3)
        assert len(rows) == 6
        assert all(r.status == "no-bound-states" for r in rows)
        assert all(r.energy is None for r in rows)

    def test_paper_literal_modified_kratzer_has_no_bound_rows(self):
        # B = +2 > 0 binds nothing, but A = -1 makes ell = 0's indicial
        # discriminant -7: that channel falls to the center whatever B is
        params = modified_kratzer(1.0, 1.0, convention="paper-literal")
        rows = spectrum_table(params, 1, 1, 3)
        assert [(r.ell, r.status) for r in rows] == [
            (0, "fall-to-center"), (0, "fall-to-center"),
            (1, "no-bound-states"), (1, "no-bound-states")]
        assert all(r.energy is None for r in rows)

    @pytest.mark.parametrize("B", [0.0, 1.0])
    def test_an_over_critical_channel_falls_to_center_whatever_b_is(self, B):
        # A = -1 at N = 3: disc -7 at ell = 0, disc 1 at ell = 1
        params = PotentialParams(-1.0, B, 0.0)
        with pytest.raises(FallToCenterError):
            energy(params, QuantumNumbers(0, 0, 3))
        with pytest.raises(NoBoundStatesError):
            energy(params, QuantumNumbers(0, 1, 3))

    def test_a_repulsive_discriminant_past_the_double_range_binds_nothing(self):
        # A / K = 2e320 overflows the discriminant: with B > 0 that is a
        # channel without bound states, not a units error
        params = PotentialParams(1e300, 1.0, 0.0, hbar=1e-10)
        row, = spectrum_table(params, 0, 0, 3)
        assert row.status == "no-bound-states"
        with pytest.raises(UnitsRangeError, match="indicial discriminant"):
            energy(PotentialParams(1e300, -1.0, 0.0, hbar=1e-10),
                   QuantumNumbers(0, 0, 3))

    @pytest.mark.parametrize("B", [-1.0, 1.0], ids=["attractive", "repulsive"])
    def test_an_attractive_discriminant_past_the_double_range_falls_to_center(self, B):
        # A / K = -2e320: a discriminant of -inf is over-critical whatever
        # B is, not a units error and not a channel without bound states
        params = PotentialParams(-1e300, B, 0.0, hbar=1e-10)
        with pytest.raises(FallToCenterError, match="-inf < 0"):
            energy(params, QuantumNumbers(0, 0, 3))
        row, = spectrum_table(params, 0, 0, 3)
        assert row.status == "fall-to-center"

    def test_fall_to_center_rows(self):
        rows = spectrum_table(PotentialParams(-1.0, -2.0, 0.0), 0, 1, 3)
        by_ell = {r.ell: r for r in rows}
        assert by_ell[0].status == "fall-to-center"
        assert by_ell[1].status == "ok"  # barrier rescues ell = 1

    def test_dimension_shift_relates_tables(self):
        # E(n, ell, N=5) = E(n, ell+1, N=3): the spectrum depends on
        # (ell, N) only through 2 ell + N - 2
        low = spectrum_table(kratzer_fues(5.0, 1.0), 2, 3, 3)
        high = spectrum_table(kratzer_fues(5.0, 1.0), 2, 2, 5)
        for row in high:
            partner = next(r for r in low
                           if (r.n, r.ell) == (row.n, row.ell + 1))
            assert partner.energy == pytest.approx(row.energy, rel=1e-12)

    def test_negative_ranges_rejected(self):
        with pytest.raises(ValueError):
            spectrum_table(coulomb(-1.0), -1, 0, 3)

    @pytest.mark.parametrize("B", [-1.0, 1.0], ids=["attractive", "repulsive"])
    def test_dimension_one_rejected(self, B):
        # a repulsive tail would fill every row with no-bound-states first
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            spectrum_table(PotentialParams(0.0, B, 0.0), 0, 0, 1)


def _rows_one_level_at_a_time(params, n_max, ell_max, dim):
    """spectrum_table's rows with the channel derived again for every row,
    as (dim, ell, n, k, eps, energy, status, detail)."""
    out = []
    for ell in range(ell_max + 1):
        for n in range(n_max + 1):
            q = QuantumNumbers(n, ell, dim)
            try:
                beta, k = _channel(params, ell, dim)
                eps, e = _level(params, beta, k, n, dim)
            except tuple(_STATUS) as exc:
                out.append((q.dim, q.ell, q.n, None, None, None,
                            _STATUS[type(exc)], str(exc)))
            else:
                out.append((q.dim, q.ell, q.n, k, eps, e, "ok", ""))
    return out


@pytest.mark.parametrize("params,dim,statuses", [
    (PotentialParams(-0.3, -1.0, 0.0), 2, {"fall-to-center", "ok"}),
    (PotentialParams(-0.3, -1.0, 0.0), 3, {"fall-to-center", "ok"}),
    (PotentialParams(0.0, 1.0, 0.0), 3, {"no-bound-states"}),
    (coulomb(-1.0, mass=1e300), 3, {"ok"}),
    (coulomb(-1.0, mass=1e300), 5, {"ok"}),
    (kratzer_fues(5.0, 1.0), 4, {"ok"}),
], ids=["fall-to-center-N2", "fall-to-center-N3", "repulsive", "mass-N3",
        "mass-N5", "kratzer-fues"])
def test_a_table_derives_each_row_as_a_single_level_would(params, dim, statuses):
    # the table derives beta and k once per ell; every row must still be
    # what its own channel derivation, or that derivation's exception, gives
    rows = spectrum_table(params, 6, 3, dim)
    got = [(r.dim, r.ell, r.n, r.k, r.eps, r.energy, r.status, r.detail)
           for r in rows]
    assert got == _rows_one_level_at_a_time(params, 6, 3, dim)
    assert {r.status for r in rows} == statuses


@pytest.mark.parametrize("params", [
    coulomb(-1e300, mass=1e300),
    PotentialParams(5e7, -1.0, 0.0, mass=1e300),
    PotentialParams(0.0, -1e154, -1.7e308),
], ids=["beta", "discriminant", "energy"])
def test_a_table_raises_the_units_error_of_its_first_row(params):
    with pytest.raises(UnitsRangeError) as row:
        _rows_one_level_at_a_time(params, 2, 1, 3)
    with pytest.raises(UnitsRangeError) as table:
        spectrum_table(params, 2, 1, 3)
    assert str(table.value) == str(row.value)


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


# Exit codes of `miespec spectrum` and of `miespec verify --fast --n-max 0
# --ell-max 0 --dims 3` over the unit box: one string per mass, one digit
# per hbar.  They are the codes of the range-safe unit products that
# hbar^2 / 2M replaced.
UNIT_MASSES = ("1e-300", "1e-100", "1e-30", "1", "1e30", "1e100", "1e300")
UNIT_HBARS = ("1e-100", "1e-30", "1", "1e30", "1e100")
SPECTRUM_CODES = ("00033", "00000", "00000", "00000", "00000", "00000", "33000")
UNIT_BOX = {
    ("coulomb", "spectrum"): SPECTRUM_CODES,
    ("kratzer-fues", "spectrum"): SPECTRUM_CODES,
    ("coulomb", "verify"): ("03333", "00033", "30003", "30003", "30003",
                            "33000", "33330"),
    ("kratzer-fues", "verify"): ("03333", "30033", "33003", "33003", "33303",
                                 "33330", "33333"),
}
UNIT_PRESETS = {
    "coulomb": (["--preset", "coulomb", "--B=-1"],
                lambda m, h: coulomb(-1.0, mass=m, hbar=h)),
    "kratzer-fues": (["--preset", "kratzer-fues", "--d0", "5", "--r0", "1"],
                     lambda m, h: kratzer_fues(5.0, 1.0, m, h)),
}


@pytest.mark.parametrize("preset,command", sorted(UNIT_BOX))
def test_the_unit_box_keeps_its_exit_codes_and_energies(tmp_path, capsys,
                                                        preset, command):
    flags, make = UNIT_PRESETS[preset]
    argv = {"spectrum": ["spectrum", "--format", "json"],
            "verify": ["verify", "--fast", "--n-max", "0", "--ell-max", "0",
                       "--dims", "3"]}[command]
    out = tmp_path / "out.json"
    for mass, codes in zip(UNIT_MASSES, UNIT_BOX[preset, command]):
        for hbar, code in zip(UNIT_HBARS, codes):
            where = (mass, hbar)
            got = main([*argv, *flags, "--mass", mass, "--hbar", hbar,
                        "--out", str(out)])
            err = capsys.readouterr().err
            assert got == int(code) and "Traceback" not in err, (where, err)
            if got:
                continue
            data = json.loads(out.read_text())
            if command == "spectrum":
                levels = [(QuantumNumbers(r["n"], r["ell"], r["dim"]),
                           r["energy"]) for r in data["rows"]]
            else:
                levels = [(QuantumNumbers(n, c["ell"], c["dim"]), e)
                          for c in data["channels"]
                          for n, e in enumerate(c["closed_form"])]
            params = make(float(mass), float(hbar))
            for q, e in levels:
                assert e == pytest.approx(mp_energy(params, q), rel=1e-13,
                                          abs=0.0), (where, q)


@pytest.mark.parametrize("params,name", [
    (coulomb(-1.0, hbar=1e200), r"hbar\^2 / 2M"),
    (coulomb(-1.0, mass=1e300, hbar=1e-300), r"hbar\^2 / 2M"),
    (PotentialParams(0.0, -1e-300, 0.0, mass=1e-10),
     "beta = -2 m B / hbar\\^2 = 2e-310 is outside"),
    (coulomb(-1e300, mass=1e300), "beta = -2 m B / hbar\\^2 = inf is outside"),
    (coulomb(-1e20, mass=1e-10, hbar=1e-150),
     "beta = -2 m B / hbar\\^2 = inf is outside"),
    (PotentialParams(1e300, -1.0, 0.0, mass=1e10), "indicial discriminant"),
    (PotentialParams(5e7, -1.0, 0.0, mass=1e300), "indicial discriminant"),
    (PotentialParams(0.0, -1e154, -1.7e308), "energy"),
], ids=["kinetic-over", "kinetic-under", "beta-under", "beta-over",
        "beta-over-small-hbar", "two-m-a", "discriminant", "energy"])
def test_units_out_of_the_double_range_are_refused(params, name):
    # every refusal branch: hbar^2 / 2M itself, beta above or below the
    # normal range, a 2 m A / hbar^2 or discriminant past it, the energy
    with pytest.raises(UnitsRangeError, match=name):
        energy(params, QuantumNumbers(0, 0, 3))


@given(st.integers(-33, 33), st.integers(-16, 16),
       st.floats(-1e5, -1e-5), st.floats(0.0, 1e10))
def test_power_of_two_units_keep_the_formulas_exact(mass_exp, hbar_exp, B, A):
    # hbar^2 / 2M is then a power of two, so the formulas as written in
    # mass and hbar (with eps * eps for eps**2) must not move a single bit
    mass, hbar = 2.0**mass_exp, 2.0**hbar_exp
    params = PotentialParams(A, B, 0.5, mass=mass, hbar=hbar)
    q = QuantumNumbers(1, 1, 4)
    nu = q.ell * (q.ell + q.dim - 2) + 2.0 * mass * A / hbar**2
    beta = -2.0 * mass * B / hbar**2
    k = 0.5 * ((q.dim - 2.0) + math.sqrt((q.dim - 2.0) ** 2 + 4.0 * nu))
    eps = beta / (2.0 * q.n + 2.0 * k + 3.0 - q.dim)
    assert centrifugal_strength(params, q.ell, q.dim) == nu
    assert binding_rate(params) == beta
    assert energy(params, q) == 0.5 - hbar**2 * (eps * eps) / (2.0 * mass)


@given(st.floats(1e-10, 1e10), st.floats(1e-5, 1e5),
       st.floats(-1e5, -1e-5), st.floats(0.0, 1e10))
def test_ordinary_units_agree_with_mpmath(mass, hbar, B, A):
    # measured on 1e5 draws over these ranges: at most 7.7e-16 of the
    # larger of |C| and |C - E|
    params = PotentialParams(A, B, 0.5, mass=mass, hbar=hbar)
    q = QuantumNumbers(1, 1, 4)
    want = mp_energy(params, q)
    assert abs(energy(params, q) - want) <= 2e-15 * max(0.5, abs(0.5 - want))
