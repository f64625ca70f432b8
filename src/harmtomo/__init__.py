"""Frequency-domain identification of squared slowness and acoustic
nonlinearity from two amplitude-modulated sources, with the relaxation time
as a regularization parameter."""

from .eigenbasis import (DomainSpec, EigenBasis, build_interval_basis,
                         build_rectangle_basis, interval_eigenvalues, project,
                         synthesize, trace_right_inverse)
from .fields import MaterialField, ModelParams, NormSpec
from .forward import (harmonic_symbol, nonlinear_model, observe,
                      solve_linear_harmonics, solve_multiharmonic)
from .poles import (PoleSet, build_pole_set, characteristic_roots,
                    pole_asymptotic, select_pole, verify_bounds)
from .reconstruct import (LinearizedData, LinearizedInput, ReconstructionResult,
                          assemble_fields, linearized_forward, recover_coefficients,
                          reconstruct, solve_states_from_coeffs)
from .sources import (PulseSpec, ReferenceState, SourcePair, amplitude_modulate,
                      build_reference_state, design_delta_pulse, evaluate_mtilde,
                      invert_mtilde, psi_recursion)
from .norms import (bochner_norm, j_bound, rho_t, x_norm, ymod_norm, yobs_norm,
                    ytilde_obs_norm)
from .quasirev import (NoisyData, TauConstants, add_noise, choose_tau,
                       compute_cbar, compute_ctilde, run_sweep, smooth_data)

__version__ = "0.1.0"
