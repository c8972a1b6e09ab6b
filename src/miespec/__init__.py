"""Bound states of Mie-type potentials in N spatial dimensions.

Closed-form energies and normalized radial eigenfunctions, the SU(1,1)
ladder structure of the spectrum, and an independent finite-difference
eigenvalue oracle that verifies all of it numerically.
"""

from .errors import (FallToCenterError, GridResolutionError,
                     LadderAlgebraError, NoBoundStatesError,
                     NotNormalizableError)
from .ladder import (LadderCoeffs, apply_lowering, apply_raising,
                     bargmann_index, casimir_check, casimir_eigenvalue,
                     commutator_check, commutator_eigenvalue, ladder_coeffs,
                     ladder_matrices, lowering_coefficient,
                     raising_coefficient)
from .oracle import (OracleConfig, Tridiagonal, build_tridiagonal,
                     build_tridiagonal_radial, cell_grid, convergence_study,
                     count_below, default_grid, effective_potential,
                     eigen_lowest, solve_bound_states)
from .potentials import (MiePreset, PotentialParams, coulomb,
                         eval_mie_general, eval_potential, kratzer_fues,
                         modified_kratzer)
from .specfun import (QuadratureRule, gauss_laguerre, kummer_poly, laguerre,
                      laguerre_deriv, ln_gamma)
from .spectrum import (BoundState, QuantumNumbers, SpectrumRow, bound_state,
                       centrifugal_strength, decay_rate, energy,
                       indicial_root, spectrum_table)
from .wavefunction import (RadialGrid, SampledFunction, eval_radial,
                           eval_y_form, node_count, norm_check, norm_constant,
                           ode_residual, ode_residual_relative, overlap,
                           sample_radial)

__version__ = "0.1.0"
