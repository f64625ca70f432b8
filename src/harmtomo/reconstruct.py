"""Linearized forward map and its inversion from trace data.

At the separable reference state the linearized model decouples per basis
mode j into

    (vartheta(o_m) + Theta(o_m) lam_j) b_m^j + o_m^2 (M_m a^j - r_m^j) = 0,

so trace data admit a meromorphic continuation in the frequency variable o
whose poles sit at the characteristic roots.  The residue at p_l isolates the
eigenspace-l content of the unknown coefficient pair a^l = (a_sigma, a_eta).
The inversion solves the truncated system for the coefficient pairs directly
from the traces (`fit_coefficients`); the residues of the data continuation
then follow from the recovered pairs by one formula (`PoleTable.residues`).

The linearized map, the residue algebra and the recovery take leading batch
axes on their data, (..., 2, M, J) for model residues and states and
(..., J, 2) for coefficient pairs, and map a batch of draws in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, synthesize
from .errors import IllConditionedFitError, VanishingDivisorError
from .fields import ModelParams
from .forward import _nonresonant_symbols, observe, symbols_matrix
from .poles import PoleSet, big_theta, psi_transfer_prime
from .sources import (SourcePair, interp_kernels, invert_mtilde, mtilde_from_kernels,
                      ReferenceState)

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
    a: np.ndarray             # (..., J, 2) recovered coefficient pair
    b: np.ndarray             # (..., 2, M, J) recovered states
    residues: np.ndarray      # (..., J, 2, ns)
    mtilde_cond: np.ndarray   # (J,) condition numbers of Mtilde(p_l)
    fit_cond: float           # condition number of the fit's design
    ok: np.ndarray            # (J,) bool, modes with an admissible pole


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


@dataclass(frozen=True, eq=False)
class PoleTable:
    """The data-independent residue algebra at every admissible pole, stacked
    along the leading axis in the order of `ok`.

    The interpolation kernels turn rtilde^l(p_l) for every mode into one
    contraction over harmonics (see `rtilde`).  Arrays are read-only: one
    table is shared by every consumer of the same pole set.
    """

    ok: np.ndarray      # (n_ok,) indices of the modes with an admissible pole
    p: np.ndarray       # (n_ok,) complex poles p_l
    mt: np.ndarray      # (n_ok, 2, 2) Mtilde(p_l)
    mt_inv: np.ndarray  # (n_ok, 2, 2) Mtilde(p_l)^(-1)
    pref: np.ndarray    # (n_ok,) -p^2 / (Theta(p) Psi'(p)) at p_l, the reciprocal
                        # slope of the characteristic denominator at a simple pole
    kp: np.ndarray      # (n_ok, M) kernel of the positive harmonics at p_l
    km: np.ndarray      # (n_ok, M) kernel of their conjugates
    mt_cond: np.ndarray  # (n_ok,) condition numbers of Mtilde(p_l)

    def rtilde(self, rhat) -> np.ndarray:
        """rtilde^l(p_l) = (2/T) integral r^l(t) exp(-p_l t) dt of the model
        residues rhat (..., 2, M, J) on each admissible mode l: (..., n_ok, 2)."""
        return self.rtilde_ok(np.asarray(rhat, dtype=complex)[..., self.ok])

    def rtilde_ok(self, r) -> np.ndarray:
        """rtilde from the model residues restricted to the admissible modes,
        r (..., 2, M, n_ok).

        The conjugate harmonics enter as conj(r . conj(km)), equal elementwise
        to conj(r) . km, so only the small result is conjugated."""
        M = r.shape[-2]
        return (np.einsum("...emk,km->...ke", r, self.kp[:, :M])
                + np.conj(np.einsum("...emk,km->...ke", r, np.conj(self.km[:, :M]))))

    def model_term_ok(self, r) -> np.ndarray:
        """Mtilde(p_l)^(-1) rtilde^l(p_l) on each admissible mode from the model
        residues restricted to the admissible modes, r (..., 2, M, n_ok):
        (..., n_ok, 2)."""
        return np.einsum("kef,...kf->...ke", self.mt_inv, self.rtilde_ok(r))

    def residues(self, rhat, a, basis: EigenBasis) -> np.ndarray:
        """res_l = -p^2/(Theta Psi')(p_l) (rtilde^l(p_l) tr(phi_l) - Mtilde(p_l) C_l)
        of the coefficient pairs a (..., J, 2), true or recovered, through the
        eigenspace-l trace data C_l = a^l tr(phi_l): (..., J, 2, ns), zero off
        the admissible modes."""
        rows = basis.trace_matrix[self.ok]
        C = a[..., self.ok, :, None] * rows[:, None, :]
        vec = (self.rtilde(rhat)[..., None] * rows[:, None, :]
               - np.einsum("kef,...kfx->...kex", self.mt, C))
        res = np.zeros(vec.shape[:-3] + (basis.J, 2, basis.nsigma), dtype=complex)
        res[..., self.ok, :, :] = self.pref[:, None, None] * vec
        return res


@functools.lru_cache(maxsize=8)
def pole_table(pole_set: PoleSet, sp: SourcePair, params: ModelParams) -> PoleTable:
    """Build the per-pole table once per (pole set, source pair, parameters).

    Pole sets and source pairs compare by identity and parameters by value,
    so repeated calls with the same objects return the same table.
    """
    ok = np.flatnonzero(pole_set.ok)
    p = pole_set.poles[ok]
    kp, km, k0 = interp_kernels(p, 2 * sp.M, params.omega, params.T)
    mt = mtilde_from_kernels(sp, kp, km, k0)
    # contiguous copies, so the einsums of rtilde_ok see the layout they always had
    kp, km = np.ascontiguousarray(kp[:, :sp.M]), np.ascontiguousarray(km[:, :sp.M])
    pref = -p * p / (big_theta(p, params) * psi_transfer_prime(p, params))
    table = PoleTable(ok=ok, p=p, mt=mt, mt_inv=invert_mtilde(mt), pref=pref, kp=kp, km=km,
                      mt_cond=np.linalg.cond(mt))
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


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


def reconstruct(data: LinearizedData, ref: ReferenceState, pole_set: PoleSet,
                basis: EigenBasis, params: ModelParams) -> ReconstructionResult:
    """Full inversion: the coefficient pairs fitted to the traces, their
    residues and the states."""
    sp = ref.source_pair
    # the fit's condition check comes before the pole table is built
    a, fit_cond = fit_coefficients(data.phat, data.rhat, sp, basis, params)
    table = pole_table(pole_set, sp, params)
    residues = table.residues(data.rhat, a, basis)
    mt_cond = np.full(basis.J, np.nan)
    mt_cond[table.ok] = table.mt_cond
    b = solve_states_from_coeffs(a, data.rhat, params, basis.lambdas, sp.mm)
    return ReconstructionResult(a=a, b=b, residues=residues, mtilde_cond=mt_cond,
                                fit_cond=fit_cond, ok=pole_set.ok.copy())
