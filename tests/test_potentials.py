"""Potential family, presets, and their parameter maps."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from miespec.potentials import (PotentialParams, coulomb, kratzer_fues,
                                modified_kratzer)

positive = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def test_constant_potential():
    assert PotentialParams(0.0, 0.0, 5.0).value(2.0) == 5.0


def test_direct_arithmetic():
    assert PotentialParams(1.0, -2.0, 0.0).value(1.0) == -1.0


def test_kratzer_minimum_depth():
    params = kratzer_fues(5.0, 1.0)
    assert params.value(1.0) == pytest.approx(-5.0, rel=1e-14)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_radius_domain_error(r):
    with pytest.raises(ValueError):
        PotentialParams(0.0, -1.0, 0.0).value(r)


def test_value_at_an_infinite_radius_is_the_offset():
    assert PotentialParams(1.0, -2.0, 0.75).value(math.inf) == 0.75


def test_value_at_infinity():
    assert PotentialParams(1.0, -2.0, 0.75).at_infinity == 0.75


class TestPresetMaps:
    def test_kratzer_unit_parameters(self):
        params = kratzer_fues(1.0, 1.0)
        assert (params.A, params.B, params.C) == (1.0, -2.0, 0.0)

    def test_kratzer_arithmetic(self):
        params = kratzer_fues(5.0, 2.0)
        assert (params.A, params.B, params.C) == (20.0, -20.0, 0.0)

    @given(d0=positive, r0=positive)
    def test_kratzer_always_attractive(self, d0, r0):
        assert kratzer_fues(d0, r0).B < 0.0

    def test_modified_paper_literal_map(self):
        params = modified_kratzer(1.0, 1.0, convention="paper-literal")
        assert (params.A, params.B, params.C) == (-1.0, 2.0, -1.0)
        assert params.value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_modified_standard_map(self):
        params = modified_kratzer(1.0, 1.0)
        assert (params.A, params.B, params.C) == (1.0, -2.0, 1.0)
        assert params.value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_modified_conventions_differ_in_binding(self):
        assert modified_kratzer(1.0, 1.0).B < 0.0
        assert modified_kratzer(1.0, 1.0, convention="paper-literal").B > 0.0

    def test_standard_form_is_nonnegative(self):
        params = modified_kratzer(2.0, 1.5)
        r = np.linspace(0.05, 30.0, 400)
        values = params.value(r)
        assert np.all(values >= 0.0)
        assert params.value(1.5) == pytest.approx(0.0, abs=1e-12)
        away = np.abs(r - 1.5) > 0.05
        assert np.all(values[away] > 0.0)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            modified_kratzer(1.0, 1.0, convention="mystery")

    def test_coulomb_map(self):
        params = coulomb(-1.0)
        assert (params.A, params.B, params.C) == (0.0, -1.0, 0.0)
        assert params.value(2.0) == -0.5

    @pytest.mark.parametrize("d0,r0", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_preset_parameter_gates(self, d0, r0):
        with pytest.raises(ValueError):
            kratzer_fues(d0, r0)
        with pytest.raises(ValueError):
            modified_kratzer(d0, r0)

    def test_units_gate(self):
        with pytest.raises(ValueError):
            PotentialParams(0.0, -1.0, 0.0, mass=0.0)
        with pytest.raises(ValueError):
            PotentialParams(0.0, -1.0, 0.0, hbar=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: PotentialParams(NAN, -1.0, 0.0),
    lambda: PotentialParams(0.0, -INF, 0.0),
    lambda: PotentialParams(0.0, -1.0, 0.0, mass=NAN),
    lambda: PotentialParams(0.0, -1.0, 0.0, hbar=INF),
    lambda: kratzer_fues(NAN, 1.0),
    lambda: kratzer_fues(1.0, INF),
    lambda: modified_kratzer(1.0, NAN),
    lambda: coulomb(NAN),
    lambda: coulomb(-1.0, hbar=NAN),
], ids=["A-nan", "B-inf", "mass-nan", "hbar-inf", "kratzer-d0-nan",
        "kratzer-r0-inf",
        "modified-r0-nan", "coulomb-B-nan", "coulomb-hbar-nan"])
def test_a_non_finite_parameter_is_refused(make):
    # each check is written so that NaN fails it, as no comparison with
    # NaN is true
    with pytest.raises(ValueError):
        make()
