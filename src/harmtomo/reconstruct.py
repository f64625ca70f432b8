"""Linearized forward map and its inversion from trace data.

At the separable reference state the linearized model decouples per basis
mode j into

    (vartheta(o_m) + Theta(o_m) lam_j) b_m^j + o_m^2 (M_m a^j - r_m^j) = 0,

so trace data admit a meromorphic continuation in the frequency variable o
whose poles sit at the characteristic roots.  The inversion needs no pole: it
solves the truncated system for the coefficient pairs a^j = (a_sigma, a_eta)
directly from the traces (`fit_coefficients`), and the states follow
componentwise from the pairs (`solve_states_from_coeffs`).

The linearized map, the fit and the state formula take leading batch axes on
their data, (..., 2, M, J) for model residues and states and (..., J, 2) for
coefficient pairs, and map a batch of draws in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, synthesize
from .errors import IllConditionedFitError, VanishingDivisorError
from .fields import ModelParams
from .forward import _nonresonant_symbols, observe, symbols_matrix
from .sources import SourcePair, invert_mtilde, ReferenceState

PHI_GUARD = 1e-6
FIT_COND_LIMIT = 1e12
ANALYTIC_DEGREE = 2        # degree in 1/o of the fit's smooth remainder


@dataclass(frozen=True, eq=False)
class LinearizedInput:
    """Perturbation triple: coefficient vectors of phi*dsigma and phi^2*deta
    plus the state perturbation pair du (sources x harmonics x modes)."""

    a_sigma: np.ndarray  # (..., J) real
    a_eta: np.ndarray    # (..., J) real
    du: np.ndarray       # (..., 2, M, J) complex

    @property
    def a(self) -> np.ndarray:
        """(..., J, 2) stacked coefficient pair."""
        return np.stack([self.a_sigma, self.a_eta], axis=-1)


@dataclass(frozen=True, eq=False)
class LinearizedData:
    rhat: np.ndarray  # (..., 2, M, J) complex model residues
    phat: np.ndarray  # (..., 2, M, ns) complex trace observations


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    a: np.ndarray    # (..., J, 2) recovered coefficient pair
    b: np.ndarray    # (..., 2, M, J) recovered states
    fit_cond: float  # condition number of the fit's design


def linearized_forward(ref: ReferenceState, params: ModelParams, basis: EigenBasis,
                       lin: LinearizedInput) -> LinearizedData:
    """Apply the derivative of the forward map at the reference state:
    r_m = L_m(sigma0) du_m + (phi dsigma) psi_m + (phi^2 deta) (psi^2)_m,
    p_m = traces of du_m."""
    du = lin.du
    M = du.shape[-2]
    sym = symbols_matrix(params, basis.lambdas, M)
    mm = ref.source_pair.mm[:M]
    rhat = sym * du
    rhat += np.einsum("meq,...jq->...emj", mm, lin.a, order="C")
    phat = observe(basis, du)
    return LinearizedData(rhat=rhat, phat=phat)


def fit_coefficients(phat, rhat, sp: SourcePair, basis: EigenBasis,
                     params: ModelParams) -> tuple[np.ndarray, float]:
    """Coefficient pairs a (..., J, 2) by linear least squares on the
    truncated system, and the design's condition number.

    After applying M_m^(-1) and subtracting the known model-residue part, the
    trace data are y[e, m, x] = -sum_j D[m, j] tr_j(x) a^j_e with
    D = 1/symbol.  The design stacks the rows (m, x): one column
    -D[:, j] tr_j per mode, and per trace point a smooth remainder of degree
    ANALYTIC_DEGREE in 1/o_m, o_m = i m omega.  One SVD gives both the
    condition number and the solution; leading batch axes of the data become
    further right-hand sides.
    """
    phat = np.asarray(phat, dtype=complex)
    rhat = np.asarray(rhat, dtype=complex)
    M, ns, J = phat.shape[-2], basis.nsigma, basis.J
    D = 1.0 / _nonresonant_symbols(params, basis.lambdas, M)  # (M, J)
    mm_inv = invert_mtilde(sp.mm[:M])
    s = np.einsum("mef,...fmj->...emj", mm_inv, rhat)        # (..., 2, M, J)
    known = np.einsum("mj,...emj,jx->...emx", D, s, basis.trace_matrix)
    y = np.einsum("mef,...fmx->...emx", mm_inv, phat) - known  # (..., 2, M, ns)

    o_m = 1j * np.arange(1, M + 1) * params.omega
    powers = (1.0 / o_m)[:, None] ** np.arange(ANALYTIC_DEGREE + 1)      # (M, deg + 1)
    G = np.hstack([(-D[:, None, :] * basis.trace_matrix.T).reshape(M * ns, J),
                   np.kron(powers, np.eye(ns))])                 # rows (m, x)
    u, sv, vh = np.linalg.svd(G, full_matrices=False)
    cond = float(sv[0] / sv[-1])
    if cond > FIT_COND_LIMIT:
        raise IllConditionedFitError(cond)

    rhs = np.moveaxis(y, -3, -1).reshape(y.shape[:-3] + (M * ns, 2))
    return np.conj(vh[:, :J]).T @ ((np.conj(u).T @ rhs) / sv[:, None]), cond


def solve_states_from_coeffs(a, rhat, params: ModelParams, lambdas, mm) -> np.ndarray:
    """Componentwise state formula b_m^j = (r_m^j - M_m a^j) / symbol(m, lam_j).

    Pole-free: the denominators vartheta(o_m) + Theta(o_m) lam_j never vanish
    for admissible parameters off the resonance set; on it, ResonanceError.
    """
    rhat = np.asarray(rhat, dtype=complex)
    a = np.asarray(a, dtype=complex)
    sym = _nonresonant_symbols(params, lambdas, rhat.shape[-2])
    return (rhat - np.einsum("meq,...jq->...emj", mm, a, order="C")) / sym


def assemble_fields(basis: EigenBasis, a, phi_grid, guard: float = PHI_GUARD):
    """Pointwise division to pull dsigma and deta off the recovered fields."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if np.min(np.abs(phi_grid)) < guard:
        raise VanishingDivisorError(
            f"reference profile passes within {np.min(np.abs(phi_grid)):.2e} of zero; "
            "coefficient division is unreliable"
        )
    a = np.asarray(a)
    dsig = np.real(synthesize(basis, a[:, 0])) / phi_grid
    deta = np.real(synthesize(basis, a[:, 1])) / phi_grid**2
    return dsig, deta


def reconstruct(data: LinearizedData, ref: ReferenceState, basis: EigenBasis,
                params: ModelParams) -> ReconstructionResult:
    """Full inversion: the coefficient pairs fitted to the traces, and the
    states from them."""
    sp = ref.source_pair
    a, fit_cond = fit_coefficients(data.phat, data.rhat, sp, basis, params)
    b = solve_states_from_coeffs(a, data.rhat, params, basis.lambdas, sp.mm)
    return ReconstructionResult(a=a, b=b, fit_cond=fit_cond)
