"""Node counts and ladder fits over a wide box of inputs.

The box spans mass over twelve decades, hbar over six, n to 40, ell to 50
and N to 60.  bound_state refuses part of it as not normalizable; every
state it returns must have n nodes and ladder images that fit their
neighbours to 1e-9, with numpy overflow, invalid values and division by
zero raised as errors.
"""

import itertools

import numpy as np
import pytest

from miespec.errors import NotNormalizableError
from miespec.ladder import apply_lowering, apply_raising, default_y_grid
from miespec.potentials import coulomb, kratzer_fues
from miespec.spectrum import QuantumNumbers, bound_state
from miespec.wavefunction import node_count

POTENTIALS = {
    "coulomb(-1)": lambda mass, hbar: coulomb(-1.0, mass, hbar),
    "kratzer-fues(5,1)": lambda mass, hbar: kratzer_fues(5.0, 1.0, mass, hbar),
}
MASSES = (1e-6, 1e-2, 1.0, 1e2, 1e6)
BOX = tuple(itertools.product((1e-3, 1.0, 1e3), (0, 5, 40), (0, 7, 50),
                              (2, 3, 11, 60)))


def box_states(name, mass):
    """The state of each (hbar, n, ell, N) in the box, None where refused."""
    states = []
    for hbar, n, ell, dim in BOX:
        try:
            states.append(bound_state(POTENTIALS[name](mass, hbar),
                                      QuantumNumbers(n, ell, dim)))
        except NotNormalizableError:
            states.append(None)
    return states


def test_the_box_refuses_only_what_cannot_be_normalized():
    states = [s for name in POTENTIALS for mass in MASSES
              for s in box_states(name, mass)]
    assert len(states) == 1080
    assert sum(s is None for s in states) == 310


@pytest.mark.parametrize("mass", MASSES)
@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_nodes_and_ladder_fits_hold_on_every_bound_state(name, mass):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for state in box_states(name, mass):
            if state is None:
                continue
            where = (state.q, state.params.hbar)
            assert node_count(state) == state.q.n, where
            grid = default_y_grid(state)
            if state.q.n >= 1:
                assert apply_lowering(state, grid)[1].residual <= 1e-9, where
            assert apply_raising(state, grid)[1].residual <= 1e-9, where
