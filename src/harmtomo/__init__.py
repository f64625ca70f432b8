"""Frequency-domain identification of squared slowness and acoustic
nonlinearity from two amplitude-modulated sources, with the relaxation time
as a regularization parameter."""

from .eigenbasis import (DomainSpec, EigenBasis, build_interval_basis,
                         build_rectangle_basis, project, synthesize, trace_right_inverse)
from .fields import MaterialField, ModelParams, NormSpec
from .forward import harmonic_symbol, nonlinear_model, observe, solve_multiharmonic
from .poles import (PoleSet, asymptotic_poles, build_pole_set, characteristic_roots,
                    verify_bounds)
from .reconstruct import (LinearizedData, LinearizedInput, ReconstructionResult,
                          assemble_fields, linearized_forward, reconstruct,
                          solve_states_from_coeffs)
from .sources import (PulseSpec, ReferenceState, SourcePair, amplitude_modulate,
                      build_reference_state, design_delta_pulse, invert_mtilde)
from .norms import bochner_norm, rho_t, x_norm, ymod_norm, yobs_norm, ytilde_obs_norm
from .quasirev import (NoisyData, add_noise, choose_tau, compute_cbar, compute_ctilde,
                       run_sweep, smooth_data)

__version__ = "0.1.0"
