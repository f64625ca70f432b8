"""Frequency-domain identification of squared slowness and acoustic
nonlinearity from two amplitude-modulated sources, with the relaxation time
as a regularization parameter."""

from .eigenbasis import (DomainSpec, EigenBasis, build_basis, project, synthesize,
                         trace_right_inverse)
from .fields import ModelParams, NormSpec
from .forward import harmonic_symbol, nonlinear_model, observe, solve_multiharmonic
from .poles import (PoleSet, asymptotic_poles, build_pole_set, characteristic_roots,
                    verify_bounds)
from .reconstruct import (LinearizedData, LinearizedInput, ReconstructionResult,
                          assemble_fields, linearized_forward, reconstruct,
                          solve_states_from_coeffs)
from .sources import SourcePair, amplitude_modulate, design_delta_pulse, invert_mtilde
from .norms import bochner_norm, image_norms, pole_table, rho_t, x_norm, ytilde_obs_norm
from .quasirev import compute_cbar, compute_ctilde, run_sweep, smooth_data, smoothing_gains

__version__ = "0.1.0"
