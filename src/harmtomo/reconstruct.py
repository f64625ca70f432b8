"""Linearized forward map and its exact inversion through pole residues.

At the separable reference state the linearized model decouples per basis
mode j into

    (vartheta(o_m) + Theta(o_m) lam_j) b_m^j + o_m^2 (M_m a^j - r_m^j) = 0,

so trace data admit a meromorphic continuation in the frequency variable o
whose poles sit at the characteristic roots.  The residue at p_l isolates the
eigenspace-l content of the unknown coefficient pair a^l = (a_sigma, a_eta),
which the explicit formulas below then recover exactly in the truncated
space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, project, synthesize, trace_on_eigenspace
from .errors import IllConditionedFitError, VanishingDivisorError
from .fields import ModelParams
from .forward import _nonresonant_symbols, observe, symbols_matrix
from .poles import PoleSet, big_theta, psi_transfer_prime
from .sources import SourcePair, evaluate_mtilde, interp_kernels, invert_mtilde, ReferenceState

PHI_GUARD = 1e-6
FIT_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class LinearizedInput:
    """Perturbation triple: coefficient vectors of phi*dsigma and phi^2*deta
    plus the state perturbation pair du (sources x harmonics x modes)."""

    a_sigma: np.ndarray  # (J,) real
    a_eta: np.ndarray    # (J,) real
    du: np.ndarray       # (2, M, J) complex

    @classmethod
    def from_fields(cls, basis: EigenBasis, phi_grid, dsigma_grid, deta_grid, du) -> "LinearizedInput":
        phi_grid = np.asarray(phi_grid, dtype=float)
        a_sigma = project(basis, phi_grid * np.asarray(dsigma_grid, dtype=float))
        a_eta = project(basis, phi_grid**2 * np.asarray(deta_grid, dtype=float))
        return cls(a_sigma=a_sigma, a_eta=a_eta, du=np.asarray(du, dtype=complex))

    @property
    def a(self) -> np.ndarray:
        """(J, 2) stacked coefficient pair."""
        return np.stack([self.a_sigma, self.a_eta], axis=-1)


@dataclass(frozen=True, eq=False)
class LinearizedData:
    rhat: np.ndarray  # (2, M, J) complex model residues
    phat: np.ndarray  # (2, M, ns) complex trace observations


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    a: np.ndarray             # (J, 2) recovered coefficient pair
    b: np.ndarray             # (2, M, J) recovered states
    residues: np.ndarray      # (J, 2, ns)
    mtilde_cond: np.ndarray   # (J,) condition numbers of Mtilde(p_l)
    fit_cond: float           # design matrix condition (nan in oracle mode)
    ok: np.ndarray            # (J,) bool, modes with an admissible pole


def linearized_forward(ref: ReferenceState, params: ModelParams, basis: EigenBasis,
                       lin: LinearizedInput) -> LinearizedData:
    """Apply the derivative of the forward map at the reference state:
    r_m = L_m(sigma0) du_m + (phi dsigma) psi_m + (phi^2 deta) (psi^2)_m,
    p_m = traces of du_m."""
    du = lin.du
    M = du.shape[1]
    sym = symbols_matrix(params, basis.lambdas, M)
    mm = ref.source_pair.mm[:M]
    rhat = sym[None, :, :] * du + np.einsum("meq,jq->emj", mm, lin.a)
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

    def rtilde(self, rhat) -> np.ndarray:
        """rtilde^l(p_l) = (2/T) integral r^l(t) exp(-p_l t) dt of the model
        residues rhat (2, M, J) on each admissible mode l: (n_ok, 2)."""
        r = np.asarray(rhat, dtype=complex)[:, :, self.ok]      # (2, M, n_ok)
        M = r.shape[1]
        return (np.einsum("emk,km->ke", r, self.kp[:, :M])
                + np.einsum("emk,km->ke", np.conj(r), self.km[:, :M]))

    def model_term(self, rhat) -> np.ndarray:
        """Mtilde(p_l)^(-1) rtilde^l(p_l) on each admissible mode: (n_ok, 2)."""
        return np.einsum("kef,kf->ke", self.mt_inv, self.rtilde(rhat))


@functools.lru_cache(maxsize=8)
def pole_table(pole_set: PoleSet, sp: SourcePair, params: ModelParams) -> PoleTable:
    """Build the per-pole table once per (pole set, source pair, parameters).

    Pole sets and source pairs compare by identity and parameters by value,
    so repeated calls with the same objects return the same table.
    """
    ok = np.flatnonzero(pole_set.ok)
    p = pole_set.poles[ok]
    mt = evaluate_mtilde(sp, p, params)
    kp, km, _ = interp_kernels(p, sp.M, params.omega, params.T)
    pref = -p * p / (big_theta(p, params) * psi_transfer_prime(p, params))
    table = PoleTable(ok=ok, p=p, mt=mt, mt_inv=invert_mtilde(mt), pref=pref, kp=kp, km=km)
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def residue_term(residues, table: PoleTable, basis: EigenBasis) -> np.ndarray:
    """Theta(p) Psi'(p)/p^2 TrInv[Mtilde(p)^(-1) res_l] at p = p_l on each
    admissible mode: (n_ok, 2)."""
    rows = trace_on_eigenspace(basis, table.ok)              # (n_ok, ns)
    wr = basis.sigma_weights * rows
    v = np.einsum("kef,kfx->kex", table.mt_inv, np.asarray(residues, dtype=complex)[table.ok])
    lifted = np.einsum("kex,kx->ke", v, wr) / np.sum(wr * rows, axis=1)[:, None]
    return (-1.0 / table.pref)[:, None] * lifted


def oracle_residues(lin: LinearizedInput, rhat, pole_set: PoleSet, sp: SourcePair,
                    basis: EigenBasis, params: ModelParams) -> np.ndarray:
    """Exact residues of the data continuation from the known truth.

    res_l(x0) = -p^2/(Theta Psi')(p_l) * tr(phi_l)(x0) * (rtilde^l(p_l)
                 - Mtilde(p_l) a^l); used as the independent reference the
    fit path must reproduce on noiseless data.
    """
    t = pole_table(pole_set, sp, params)
    res = np.zeros((basis.J, 2, basis.nsigma), dtype=complex)
    vec = t.rtilde(rhat) - np.einsum("kef,kf->ke", t.mt, lin.a[t.ok])    # (n_ok, 2)
    rows = basis.trace_matrix[t.ok]
    res[t.ok] = t.pref[:, None, None] * (vec[:, :, None] * rows[:, None, :])
    return res


def fit_residues(phat, rhat, pole_set: PoleSet, sp: SourcePair, basis: EigenBasis,
                 params: ModelParams, analytic_degree: int = 2,
                 cond_limit: float = FIT_COND_LIMIT) -> tuple[np.ndarray, float]:
    """Residues by linear least squares on the known pole lattice.

    After applying M_m^(-1) and subtracting the known model-residue part, the
    data are a linear combination of the per-mode rational profiles
    o^2/(vartheta(o) + Theta(o) lam_j) sampled at o_m = i m omega, plus a
    smooth remainder represented by a low-order polynomial in 1/o.  The
    fitted per-mode amplitudes convert to residues through the same closed
    formula the oracle path uses, so both agree on noiseless data.
    """
    phat = np.asarray(phat, dtype=complex)
    rhat = np.asarray(rhat, dtype=complex)
    M, ns, J = phat.shape[1], basis.nsigma, basis.J
    sym = symbols_matrix(params, basis.lambdas, M)
    D = 1.0 / sym                                            # (M, J)
    mm_inv = invert_mtilde(sp.mm[:M])
    s = np.einsum("mef,fmj->emj", mm_inv, rhat)              # (2, M, J)
    known = np.einsum("mj,emj,jx->emx", D, s, basis.trace_matrix)
    y = np.einsum("mef,fmx->emx", mm_inv, phat) - known      # (2, M, ns)

    ok = np.flatnonzero(pole_set.ok)
    o_m = 1j * np.arange(1, M + 1) * params.omega
    powers = np.stack([(1.0 / o_m) ** k for k in range(analytic_degree + 1)], axis=1)
    G = np.concatenate([-D[:, ok], powers], axis=1)          # (M, n_ok + deg + 1)
    cond = float(np.linalg.cond(G))
    if cond > cond_limit:
        raise IllConditionedFitError(cond)

    rhs = y.transpose(1, 0, 2).reshape(M, 2 * ns)
    sol, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    C = sol[: ok.size].reshape(ok.size, 2, ns)               # C_l(x0) = a^l tr(phi_l)(x0)

    t = pole_table(pole_set, sp, params)
    rt = t.rtilde(rhat)
    vec = rt[:, :, None] * basis.trace_matrix[ok][:, None, :] - np.einsum("kef,kfx->kex", t.mt, C)
    res = np.zeros((J, 2, ns), dtype=complex)
    res[ok] = t.pref[:, None, None] * vec
    return res, cond


def extract_residues(phat, rhat, pole_set: PoleSet, sp: SourcePair, basis: EigenBasis,
                     params: ModelParams, mode: str = "fit",
                     true_input: LinearizedInput | None = None) -> tuple[np.ndarray, float]:
    """Dispatch to the oracle (needs the true input) or the data-driven fit."""
    if mode == "oracle":
        if true_input is None:
            raise ValueError("oracle mode needs the true linearized input")
        return oracle_residues(true_input, rhat, pole_set, sp, basis, params), float("nan")
    if mode == "fit":
        return fit_residues(phat, rhat, pole_set, sp, basis, params)
    raise ValueError(f"unknown residue mode {mode!r}")


def trace_inverse(v, basis: EigenBasis, ell: int):
    """Least-squares coefficient of eigenspace ell from samples on Sigma.

    Weighted normal equation for the rank-one restricted trace; the
    smoothness index only reweights the norm and drops out of the recovered
    value in the simple-spectrum setting.
    """
    row = trace_on_eigenspace(basis, ell)
    w = basis.sigma_weights
    denom = float(np.sum(w * row * row))
    return (np.asarray(v) @ (w * row)) / denom


def trace_lift(v, basis: EigenBasis) -> np.ndarray:
    """Apply the trace right-inverse eigenspace by eigenspace: (... , ns) -> (..., J)."""
    w = basis.sigma_weights
    t = basis.trace_matrix
    denom = np.sum(w * t * t, axis=1)
    return (np.asarray(v) @ (w * t).T) / denom


def recover_coefficients(residues, rhat, sp: SourcePair, pole_set: PoleSet,
                         basis: EigenBasis, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pairs a^l from residues and the known model residues:

        a^l = Theta(p) Psi'(p)/p^2 * TrInv[Mtilde(p)^(-1) res_l]
              + Mtilde(p)^(-1) rtilde^l(p),     p = p_l.

    Returns (a, mtilde_cond).
    """
    t = pole_table(pole_set, sp, params)
    a = np.zeros((basis.J, 2), dtype=complex)
    mt_cond = np.full(basis.J, np.nan)
    mt_cond[t.ok] = np.linalg.cond(t.mt)
    a[t.ok] = residue_term(residues, t, basis) + t.model_term(rhat)
    return a, mt_cond


def solve_states_from_coeffs(a, rhat, params: ModelParams, lambdas, mm) -> np.ndarray:
    """Componentwise state formula b_m^j = (r_m^j - M_m a^j) / symbol(m, lam_j).

    Pole-free: the denominators vartheta(o_m) + Theta(o_m) lam_j never vanish
    for admissible parameters off the resonance set; on it, ResonanceError.
    """
    rhat = np.asarray(rhat, dtype=complex)
    a = np.asarray(a, dtype=complex)
    sym = _nonresonant_symbols(params, lambdas, rhat.shape[1])
    return (rhat - np.einsum("meq,jq->emj", mm, a)) / sym[None, :, :]


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


def reconstruct(data: LinearizedData, rhat_known, ref: ReferenceState, pole_set: PoleSet,
                basis: EigenBasis, params: ModelParams, mode: str = "fit",
                true_input: LinearizedInput | None = None) -> ReconstructionResult:
    """Full inversion: residues, coefficient pair, states."""
    sp = ref.source_pair
    residues, fit_cond = extract_residues(data.phat, rhat_known, pole_set, sp, basis,
                                          params, mode=mode, true_input=true_input)
    a, mt_cond = recover_coefficients(residues, rhat_known, sp, pole_set, basis, params)
    b = solve_states_from_coeffs(a, rhat_known, params, basis.lambdas, sp.mm)
    return ReconstructionResult(a=a, b=b, residues=residues, mtilde_cond=mt_cond,
                                fit_cond=fit_cond, ok=pole_set.ok.copy())
