"""Eigenfunction values against mpmath at 50 digits, the one reference for
the closed-form evaluator: the paper's confluent series
1F1(-n, alpha+1, y), independent of the library's Laguerre recurrence and
of its normalization constant."""

import mpmath
import numpy as np
import pytest

from miespec.potentials import coulomb, kratzer_fues
from miespec.spectrum import QuantumNumbers, bound_state
from miespec.wavefunction import eval_radial

POTENTIALS = {"kratzer-fues(5,1)": kratzer_fues(5.0, 1.0),
              "coulomb(-1)": coulomb(-1.0)}


def reference_radial(state, r):
    """zeta r^{k+2-N} e^{-eps r} 1F1(-n, alpha+1, 2 eps r), zeta in closed form."""
    n, dim = state.q.n, state.q.dim
    with mpmath.workdps(50):
        eps, alpha, k = (mpmath.mpf(v) for v in (state.eps, state.alpha, state.k))
        zeta = ((2 * eps) ** ((alpha + 2) / 2) / mpmath.gamma(alpha + 1)
                * mpmath.sqrt(mpmath.gamma(n + alpha + 1)
                              / (mpmath.factorial(n) * (2 * n + alpha + 1))))
        return np.array([float(zeta * x ** (k + 2 - dim) * mpmath.exp(-eps * x)
                               * mpmath.hyp1f1(-n, alpha + 1, 2 * eps * x))
                         for x in map(mpmath.mpf, r)])


@pytest.mark.parametrize("n", [0, 2, 5, 20, 50, 100, 200])
@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_default_eval_radial_matches_mpmath(name, dim, ell, n):
    # the alternating Kummer series missed this by 1e-7 of the peak at
    # n = 20 and by 1e7 at n = 50
    state = bound_state(POTENTIALS[name], QuantumNumbers(n, ell, dim))
    # past the last Laguerre zero (below 4n + 2 alpha + 2) the envelope decays
    y_max = 4.0 * n + 2.0 * state.alpha + 40.0
    r = np.linspace(y_max / 50.0, y_max, 50) / (2.0 * state.eps)
    want = reference_radial(state, r)
    got = eval_radial(state, r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
