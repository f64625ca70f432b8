"""Loop implementations kept as independent references for the tests.

The harmonic product: direct harmonic-pair sums over the real-signal
convention u(t) = Re(sum_m u_m exp(i m omega t)); the package computes the
same quantities with one FFT kernel (`harmonic_product_time`).

The residue algebra: Mtilde(p_l), its inverse, the prefactor, rtilde^l(p_l)
and the trace inverse re-derived one pole at a time; the package reads
Mtilde(p_l), its inverse and rtilde^l(p_l) from one per-pole table
(`norms.pole_table`) built with array expressions, and needs neither the
prefactor nor the residues: the inversion fits the coefficient pairs without
a pole, and the image norms read the pairs.

The residues of a coefficient pair: `residues_of` applies their one formula
res_l = pref_l (rtilde^l(p_l) tr(phi_l) - Mtilde(p_l) C_l) over the table, with
the prefactor pref_l = -p^2/(Theta Psi')(p_l) of `_residue_prefactor` and the
transfer pieces `vartheta`, `big_theta` and `psi_transfer_prime`.  Those of
the truth (`oracle_residues`) feed the paper's constructive formula
(`recover_coefficients_loop`); those of the fitted pairs must agree with them.
`residue_term` inverts the formula, lifting traces with
`eigenbasis.trace_right_inverse`: it is the residue path to the
observation-side image norm, which the package reads off the coefficient pair
and its model residues (`norms.image_norms`).  `image_terms` hands
`norms._image_terms` the pieces `image_norms` sums, so the loops below can be
compared with the package term by term.

The analytic interpolant: `interp_periodic`, the source transforms
`psi_tilde`/`psi_sq_tilde` and the matrix `evaluate_mtilde` at any points
contract the package's kernels (`sources.interp_kernels`,
`sources.mtilde_from_kernels`), and `interp_periodic_scalar` re-derives them
one point at a time.

The residue fit: per-mode amplitudes C_l(x) fitted at each trace point on the
modes that have a pole, then turned into residues (`fit_residues_loop`); the
package solves the truncated system for the coefficient pairs directly
(`reconstruct.fit_coefficients`), so on noiseless data both give the same
residues wherever every mode has a pole.

The coefficient fit in one call (`fit_coefficients_dense`): the design built,
factored and applied to the data per call; the package factors the design
once into a `reconstruct.FitMap` and applies it per data set, and both must
give the same coefficients bit for bit.

The nonlinear model operator: L_m(sigma) u_m + eta B_m(u, u) with each grid
term projected on its own and B_m from the harmonic-pair loop; the package
applies one coupling map that runs the time transforms on the coefficient
columns (`forward.nonlinear_model`, `forward.apply_coupling`).

The source matrices on the coefficient pairs: M_m a^j by one einsum
(`pair_product_einsum`); the package sums its two broadcast terms
(`reconstruct._pair_product`), equal value for value on real pairs.

The multiharmonic solve: the plain damped sweep for one drive
(`solve_multiharmonic_loop`), u <- (1 - d) u + d (r - coupling(u)) / symbol
with the whole coupling re-evaluated every sweep; the package solves a
batch of drives, evaluates the eta term once per sweep and converges the
slowness term against it (`forward.solve_multiharmonic`), and both must reach
the same fixed point.

The artifact writers: one CSV writer per table type, each with its own
per-value loop and an optional scenario-hash column; the package writes every
table through `runner.write_table`, and its files must match these byte for
byte.

The Robin wavenumbers: the safeguarded Newton iteration on the phase form
run one root at a time in floats (`interval_wavenumbers_loop`); the package
runs it on all roots at once (`eigenbasis._interval_wavenumbers`), and the
roots must match exactly.

The eigenbasis: one `Mode1D` object per 1D mode, evaluated one mode at a
time, and the rectangle's J x J (lambda, i, j) tuples sorted by lambda
(`interval_basis_loop`, `rectangle_basis_loop`); the package builds the modes
as arrays (k, a, norm) and picks the rectangle's pairs with one stable
argsort, and every basis array must match these bit for bit.

The pole selection: the per-eigenvalue `select_pole` loop the package's
masked selection (`poles.build_pole_set`) must match exactly, and the
per-eigenvalue `pole_asymptotic` loop `poles.asymptotic_poles` must match.

The quasi-reversibility sweep: the relaxation-time constants at one tau with
float `**` (`rate_constants_scalar`), the tau(delta) schedule scored one grid
tau at a time (`choose_tau_loop`) and in one array pass for one noise level
(`choose_tau`), and the sweep rows with the schedule scored, the constants
evaluated and the fit and the state formula written out per noise level
(`sweep_rows_from_fit`); the package evaluates the constants on arrays,
scores the grid once per sweep and inverts each row with the fit map of its
tau, factored once per tau, and all must match these exactly.

The noise: `add_noise`, the one-level case of the sweep's noise pass
(`quasirev._noisy_rows`), and `add_noise_one`, that level drawn, scaled and
checked on its own; the pass must give every level the same bits as both.

The data smoothing: the gain of each level by its own Cholesky reduction
(`smoothing_gain`, `smoothing_gains_loop`) and one least-squares fit per
level (`smooth_data_loop`); the package takes every level's gain and
residual from one QR of the weighted traces (`quasirev.smoothing_gains`,
`quasirev.smooth_data`), and both must pick the same level.

Test-only references with no caller in the package: the harmonic product on
the quadrature grid and its projection, the diagonal linear solve (criterion 11 checks the eta = 0 solver
against it), the bundled relaxation-time constants, the interior-source
recursion of the resonant nonlinear setting, the Robin eigenvalues without
eigenfunctions, the reference state's spectral coefficients, the
amplification bound J_m^chi with its uniform constant (criterion 4), the real
time synthesis of harmonic coefficients, and the pole asymptotic's
`NonOscillatoryError` and the selection's `PoleSelectionError`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from harmtomo.eigenbasis import (MIN_QUAD_NODES, OVERSAMPLING, PI_TAIL, ROBIN_MAXITER,
                                 ROBIN_RTOL, DomainSpec, EigenBasis, _gauss_nodes,
                                 _interval_wavenumbers, project, synthesize,
                                 trace_right_inverse)
from harmtomo.errors import (ConvergenceError, HarmtomoError, IllConditionedFitError,
                             NoiseCalibrationError, SmoothingError, SpectrumError,
                             VanishingDivisorError)
from harmtomo.fields import ModelParams, NormSpec
from harmtomo.forward import (_nonresonant_symbols, apply_coupling, coupling_map,
                              harmonic_product_time, model_residual, symbols_matrix)
from harmtomo.norms import (_image_terms, _lam_weight, _pole_weight, pole_table, x_norm,
                           ytilde_obs_norm)
from harmtomo.poles import (IMAG_SELECT_TOL, PoleSet, bound_slack, characteristic_roots,
                            verify_bounds)
from harmtomo.quasirev import (CALIBRATION_SAFETY, DISCREPANCY_FACTOR, NOISE_SCALE_TOL,
                               SmoothingResult, SweepRow, _noisy_rows, _pick_tau, _rate_core,
                               check_noise_levels, check_schedule, compute_cbar, compute_ctilde,
                               tau_grid, time_derivative_norm)
from harmtomo.reconstruct import (ANALYTIC_DEGREE, FIT_COND_LIMIT, LinearizedInput,
                                  ReconstructionResult, check_fit_determined, linearized_forward,
                                  solve_states_from_coeffs)
from harmtomo.sources import (SourcePair, _contract_kernels, _period_kernel,
                              interp_kernels, invert_mtilde, mtilde_from_kernels)


def synthesize_time(u, omega: float, t) -> np.ndarray:
    """Real time signal Re(sum_m u_m exp(i m omega t)) on a time grid."""
    c = np.asarray(u, dtype=complex)
    t = np.asarray(t, dtype=float)
    m = np.arange(1, c.shape[0] + 1)
    phases = np.exp(1j * omega * np.outer(m, t))  # (M, nt)
    return np.real(np.tensordot(c, phases, axes=([0], [0])))


def harmonic_product_loop(a_hat, b_hat, m_out: int | None = None) -> np.ndarray:
    """Harmonic coefficients 1..m_out of the product of two real scalar signals.

    For real signals with positive-harmonic coefficients a_hat, b_hat this is

        c_m = 1/2 sum_{l=1}^{m-1} a_l b_{m-l}
            + 1/2 sum_k conj(a_k) b_{k+m} + 1/2 sum_k a_{m+k} conj(b_k),

    the tail sums truncated at the stored length.
    """
    a = np.asarray(a_hat, dtype=complex)
    b = np.asarray(b_hat, dtype=complex)
    Ma, Mb = a.size, b.size
    m_out = m_out or max(Ma, Mb)
    out = np.zeros(m_out, dtype=complex)
    for m in range(1, m_out + 1):
        s = 0.0 + 0.0j
        for l in range(max(1, m - Mb), min(m - 1, Ma) + 1):
            s += 0.5 * a[l - 1] * b[m - l - 1]
        for k in range(1, min(Ma, Mb - m) + 1):
            s += 0.5 * np.conj(a[k - 1]) * b[k + m - 1]
        for k in range(1, min(Mb, Ma - m) + 1):
            s += 0.5 * a[m + k - 1] * np.conj(b[k - 1])
        out[m - 1] = s
    return out


def product_dc_loop(a_hat, b_hat) -> complex:
    """Mean value of the product of two real zero-mean signals: 1/2 sum conj(a) b."""
    a = np.asarray(a_hat, dtype=complex)
    b = np.asarray(b_hat, dtype=complex)
    n = min(a.size, b.size)
    return 0.5 * np.real(np.vdot(a[:n], b[:n])) + 0.0j


def convolve_bm_grid_loop(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """Quadrature-grid values of harmonics 1..m_out of the pointwise product."""
    uc, vc = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if uc.shape != vc.shape:
        raise ValueError("fields must share truncation")
    M = uc.shape[0]
    m_out = m_out or M
    ug = synthesize(basis, uc)  # (M, nq)
    vg = ug if (vc is uc or np.array_equal(vc, uc)) else synthesize(basis, vc)
    out_grid = np.zeros((m_out, basis.nquad), dtype=complex)
    for m in range(1, m_out + 1):
        acc = np.zeros(basis.nquad, dtype=complex)
        for l in range(max(1, m - M), min(m - 1, M) + 1):
            acc += 0.5 * ug[l - 1] * vg[m - l - 1]
        for k in range(1, M - m + 1):
            acc += 0.5 * np.conj(ug[k - 1]) * vg[k + m - 1]
            acc += 0.5 * ug[m + k - 1] * np.conj(vg[k - 1])
        out_grid[m - 1] = acc
    return out_grid


def interp_periodic_scalar(hat, dc: float, o: complex, omega: float, T: float):
    """Transform (2/T) integral_0^T g(t) exp(-o t) dt of the real signal with
    positive harmonics `hat` and mean `dc`, analytic in o.

    Away from the harmonic lattice the shared numerator (1 - exp(-o T))
    factors out, which keeps the huge exponentials of strongly damped poles
    in one place; near the lattice the per-term kernel with its removable
    limit is used instead.  hat may carry leading dimensions; the last axis
    indexes harmonics.
    """
    hat = np.asarray(hat, dtype=complex)
    n = hat.shape[-1]
    mw = np.arange(1, n + 1) * omega
    zp = o - 1j * mw
    zm = o + 1j * mw
    near_lattice = min(np.min(np.abs(zp)), np.min(np.abs(zm)), abs(o)) * T < 1e-4
    if near_lattice:
        val = (hat * _period_kernel(zp, T)).sum(axis=-1)
        val = val + (np.conj(hat) * _period_kernel(zm, T)).sum(axis=-1)
        return val / T + (2.0 / T) * dc * _period_kernel(o, T)
    common = 1.0 - np.exp(-o * T)
    val = (hat / zp).sum(axis=-1) + (np.conj(hat) / zm).sum(axis=-1) + 2.0 * dc / o
    return common * val / T


def interp_periodic(hat, dc: float, o, omega: float, T: float):
    """Transform (2/T) integral_0^T g(t) exp(-o t) dt of the real signal with
    positive harmonics `hat` and mean `dc`, analytic in o.

    hat may carry leading dimensions (the last axis indexes harmonics) and o
    may be an array; the result has shape hat.shape[:-1] + o.shape.
    """
    hat = np.asarray(hat, dtype=complex)
    return _contract_kernels(hat, dc, *interp_kernels(o, hat.shape[-1], omega, T))


def evaluate_mtilde(sp: SourcePair, o, params: ModelParams) -> np.ndarray:
    """Mtilde(o) = [[psi~(o), psi^2~(o)], [A psi~(o), A^2 psi^2~(o)]], shape
    o.shape + (2, 2).

    Interpolates the source matrices: Mtilde(i m omega) = M_m exactly.
    """
    return mtilde_from_kernels(sp, *interp_kernels(o, 2 * sp.M, params.omega, params.T))


def psi_tilde(sp: SourcePair, o, params: ModelParams):
    return interp_periodic(sp.psi_hat, 0.0, o, params.omega, params.T)


def psi_sq_tilde(sp: SourcePair, o, params: ModelParams):
    return interp_periodic(sp.psi_sq_hat, sp.psi_sq_dc, o, params.omega, params.T)


def field_interp_at(rhat, o: complex, params: ModelParams) -> np.ndarray:
    """Analytic interpolant rtilde^j(o) = (2/T) integral r^j(t) exp(-o t) dt
    of the per-mode model residues, from their harmonic coefficients."""
    hat = np.moveaxis(np.asarray(rhat, dtype=complex), -2, -1)  # (..., J, M)
    return interp_periodic_scalar(hat, 0.0, o, params.omega, params.T)  # (..., J)


def trace_inverse(v, basis: EigenBasis, ell: int):
    """Least-squares coefficient of eigenspace ell from samples on Sigma.

    Weighted normal equation for the rank-one restricted trace; the
    smoothness index only reweights the norm and drops out of the recovered
    value in the simple-spectrum setting.
    """
    row = basis.trace_matrix[ell]
    w = basis.sigma_weights
    denom = float(np.sum(w * row * row))
    return (np.asarray(v) @ (w * row)) / denom


def vartheta(o, params: ModelParams):
    o = np.asarray(o, dtype=complex)
    return params.tau * o**3 + params.sigma0 * o**2


def big_theta(o, params: ModelParams):
    o = np.asarray(o, dtype=complex)
    return params.beta * o + 1.0


def psi_transfer_prime(o, params: ModelParams):
    """Closed-form derivative of the transfer Psi(o) = -vartheta(o)/Theta(o),
    whose level sets Psi(p_l) = lam_l are the poles:
    (vartheta Theta' - vartheta' Theta) / Theta^2."""
    o = np.asarray(o, dtype=complex)
    th = vartheta(o, params)
    th_p = 3.0 * params.tau * o**2 + 2.0 * params.sigma0 * o
    Th = big_theta(o, params)
    return (th * params.beta - th_p * Th) / Th**2


def _residue_prefactor(p, params: ModelParams):
    """-p^2 / (Theta(p) Psi'(p)), the reciprocal slope of the characteristic
    denominator at a simple pole."""
    return -p * p / (big_theta(p, params) * psi_transfer_prime(p, params))


def residue_term(residues, pole_set: PoleSet, sp: SourcePair, basis: EigenBasis,
                 params: ModelParams) -> np.ndarray:
    """Theta(p) Psi'(p)/p^2 TrInv[Mtilde(p)^(-1) res_l] at p = p_l on each
    admissible mode: (..., n_ok, 2)."""
    table = pole_table(pole_set, sp, params)
    res = np.asarray(residues, dtype=complex)[..., table.ok, :, :]
    v = np.einsum("kef,...kfx->...kex", table.mt_inv, res)
    lifted = np.einsum("...kex,kx->...ke", v, trace_right_inverse(basis, table.ok))
    p = pole_set.poles[table.ok]
    return (-1.0 / _residue_prefactor(p, params))[:, None] * lifted


def residues_of(a, rhat, pole_set: PoleSet, sp: SourcePair, basis: EigenBasis,
                params: ModelParams) -> np.ndarray:
    """res_l = -p^2/(Theta Psi')(p_l) (rtilde^l(p_l) tr(phi_l) - Mtilde(p_l) C_l)
    of the coefficient pairs a (..., J, 2), true or recovered, with their model
    residues rhat (..., 2, M, J), through the eigenspace-l trace data
    C_l = a^l tr(phi_l): (..., J, 2, ns), zero off the admissible modes.
    Mtilde(p_l) comes from the kernels at 2M harmonics, as the table's
    inverse does."""
    t = pole_table(pole_set, sp, params)
    p = pole_set.poles[t.ok]
    mt = mtilde_from_kernels(sp, *interp_kernels(p, 2 * sp.M, params.omega, params.T))
    rows = basis.trace_matrix[t.ok]
    C = np.asarray(a)[..., t.ok, :, None] * rows[:, None, :]
    rt = t.rtilde_ok(np.asarray(rhat, dtype=complex)[..., t.ok])
    vec = rt[..., None] * rows[:, None, :] - np.einsum("kef,...kfx->...kex", mt, C)
    res = np.zeros(vec.shape[:-3] + (basis.J, 2, basis.nsigma), dtype=complex)
    res[..., t.ok, :, :] = _residue_prefactor(p, params)[:, None, None] * vec
    return res


def oracle_residues(lin: LinearizedInput, rhat, pole_set: PoleSet, sp: SourcePair,
                    basis: EigenBasis, params: ModelParams) -> np.ndarray:
    """Exact residues of the data continuation from the known truth, which
    those of the recovered coefficients reproduce on noiseless data."""
    return residues_of(lin.a, rhat, pole_set, sp, basis, params)


def oracle_residues_loop(lin: LinearizedInput, rhat, pole_set: PoleSet, sp: SourcePair,
                         basis: EigenBasis, params: ModelParams) -> np.ndarray:
    """Exact residues of the data continuation from the known truth.

    res_l(x0) = -p^2/(Theta Psi')(p_l) * tr(phi_l)(x0) * (rtilde^l(p_l)
                 - Mtilde(p_l) a^l); used as the independent reference the
    fit path must reproduce on noiseless data.
    """
    rhat = np.asarray(rhat, dtype=complex)
    J, ns = basis.J, basis.nsigma
    res = np.zeros((J, 2, ns), dtype=complex)
    a = lin.a
    for ell in np.flatnonzero(pole_set.ok):
        p = pole_set.poles[ell]
        rt = field_interp_at(rhat, p, params)[:, ell]          # (2,)
        vec = rt - evaluate_mtilde(sp, p, params) @ a[ell]
        res[ell] = _residue_prefactor(p, params) * np.outer(vec, basis.trace_matrix[ell])
    return res


def fit_residues_loop(phat, rhat, pole_set: PoleSet, sp: SourcePair, basis: EigenBasis,
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
    mm_inv = np.array([invert_mtilde(sp.mm[m]) for m in range(M)])
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

    res = np.zeros((J, 2, ns), dtype=complex)
    for i, ell in enumerate(ok):
        p = pole_set.poles[ell]
        rt = field_interp_at(rhat, p, params)[:, ell]
        mt = evaluate_mtilde(sp, p, params)
        vec = np.outer(rt, basis.trace_matrix[ell]) - mt @ C[i]
        res[ell] = _residue_prefactor(p, params) * vec
    return res, cond


def fit_coefficients_dense(phat, rhat, sp: SourcePair, basis: EigenBasis,
                           params: ModelParams) -> tuple[np.ndarray, float, np.ndarray]:
    """Coefficient pairs a (..., J, 2), the design's condition number and the
    fit's relative residual ||y - U U^H y|| / ||y|| per draw (...), with the
    design built, factored by one SVD and applied to the data in one call, as
    the package's fit map does in two."""
    phat = np.asarray(phat, dtype=complex)
    rhat = np.asarray(rhat, dtype=complex)
    M, ns, J = phat.shape[-2], basis.nsigma, basis.J
    check_fit_determined(M, J, ns)
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
    c = np.conj(u).T @ rhs
    y_norm = np.linalg.norm(rhs, axis=(-2, -1))
    rel = np.linalg.norm(rhs - u @ c, axis=(-2, -1)) / np.where(y_norm > 0, y_norm, 1.0)
    return np.conj(vh[:, :J]).T @ (c / sv[:, None]), cond, rel


def recover_coefficients_loop(residues, rhat, sp: SourcePair, pole_set: PoleSet,
                              basis: EigenBasis, params: ModelParams,
                              order: str = "inside") -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pairs a^l from residues and the known model residues:

        a^l = Theta(p) Psi'(p)/p^2 * TrInv[Mtilde(p)^(-1) res_l]
              + Mtilde(p)^(-1) rtilde^l(p),     p = p_l.

    order selects whether Mtilde^(-1) is applied inside or outside the trace
    inversion; the two agree on simple eigenspaces and both are kept for the
    cross-check.  Returns (a, mtilde_cond).
    """
    residues = np.asarray(residues, dtype=complex)
    J = basis.J
    a = np.zeros((J, 2), dtype=complex)
    mt_cond = np.full(J, np.nan)
    for ell in np.flatnonzero(pole_set.ok):
        p = pole_set.poles[ell]
        mt = evaluate_mtilde(sp, p, params)
        mt_inv = invert_mtilde(mt)
        mt_cond[ell] = float(np.linalg.cond(mt))
        pref = 1.0 / _residue_prefactor(p, params)  # Theta(p) Psi'(p) / p^2, negated below
        rt = field_interp_at(rhat, p, params)[:, ell]
        if order == "inside":
            lifted = trace_inverse(mt_inv @ residues[ell], basis, ell)
        elif order == "outside":
            lifted = mt_inv @ trace_inverse(residues[ell], basis, ell)
        else:
            raise ValueError(f"unknown order {order!r}")
        a[ell] = -pref * lifted + mt_inv @ rt
    return a, mt_cond


def recover_states(residues, rhat, sp: SourcePair, pole_set: PoleSet,
                   basis: EigenBasis, params: ModelParams) -> np.ndarray:
    """Direct state formula through the residue data:

        b_m^l = -1/symbol(m, lam_l) * ( Theta(p) Psi'(p)/p^2 *
                M_m TrInv[Mtilde(p)^(-1) res_l] + M_m Mtilde(p)^(-1)
                rtilde^l(p) - r_m^l ),

    algebraically the same as solve_states_from_coeffs at the recovered a.
    """
    residues = np.asarray(residues, dtype=complex)
    rhat = np.asarray(rhat, dtype=complex)
    M, J = rhat.shape[1], basis.J
    sym = symbols_matrix(params, basis.lambdas, M)
    b = np.zeros((2, M, J), dtype=complex)
    mm = sp.mm[:M]
    for ell in np.flatnonzero(pole_set.ok):
        p = pole_set.poles[ell]
        mt_inv = invert_mtilde(evaluate_mtilde(sp, p, params))
        pref = 1.0 / _residue_prefactor(p, params)
        rt = field_interp_at(rhat, p, params)[:, ell]
        lifted = trace_inverse(mt_inv @ residues[ell], basis, ell)   # (2,)
        inner = -pref * (mm @ lifted) + mm @ (mt_inv @ rt)           # (M, 2)
        b[:, :, ell] = -(inner.T - rhat[:, :, ell]) / sym[None, :, ell]
    return b


def pole_data_loop(sp: SourcePair, pole_set: PoleSet, params: ModelParams):
    """Mtilde(p_l)^(-1) and the prefactor Theta Psi'/p^2 per admissible pole."""
    ok = np.flatnonzero(pole_set.ok)
    mt_inv, pref = {}, {}
    for ell in ok:
        p = pole_set.poles[ell]
        mt_inv[ell] = invert_mtilde(evaluate_mtilde(sp, p, params))
        pref[ell] = big_theta(p, params) * psi_transfer_prime(p, params) / (p * p)
    return ok, mt_inv, pref


def ymod_terms_loop(rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
                    basis: EigenBasis, params: ModelParams,
                    pole_values=None) -> tuple[float, float]:
    """The two squared pieces of the model-side image norm.

    pole_values optionally overrides Mtilde(p_l)^(-1) rtilde^l(p_l)
    (used by the cancellation self-test)."""
    rhat = np.asarray(rhat, dtype=complex)
    M = rhat.shape[1]
    ok, mt_inv, _ = pole_data_loop(sp, pole_set, params)
    w = _pole_weight(params, basis.lambdas, M, spec)
    lam_s = _lam_weight(basis.lambdas, spec.s)
    term1 = 0.0
    term2 = 0.0
    for ell in ok:
        if pole_values is None:
            q = mt_inv[ell] @ field_interp_at(rhat, pole_set.poles[ell], params)[:, ell]
        else:
            q = np.asarray(pole_values[ell], dtype=complex)
        pred = sp.mm[:M] @ q                  # (M, 2)
        diff = pred.T - rhat[:, :, ell]       # (2, M)
        term1 += float(np.sum(w[:, ell] * np.sum(np.abs(diff) ** 2, axis=0)))
        term2 += float(lam_s[ell] * np.sum(np.abs(q) ** 2))
    return term1, term2


def yobs_terms_loop(residues, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
                    basis: EigenBasis, params: ModelParams,
                    M: int | None = None) -> tuple[float, float]:
    """The two squared pieces of the observation-side image norm, from the
    residues of the data continuation.  M is the harmonic range of the first
    double sum (defaults to the source truncation)."""
    residues = np.asarray(residues, dtype=complex)
    M = M or sp.M
    ok, mt_inv, pref = pole_data_loop(sp, pole_set, params)
    w = _pole_weight(params, basis.lambdas, M, spec)
    lam_s = _lam_weight(basis.lambdas, spec.s)
    term1 = 0.0
    term2 = 0.0
    for ell in ok:
        lifted = trace_inverse(mt_inv[ell] @ residues[ell], basis, ell)  # (2,)
        P = pref[ell] * lifted
        amp = sp.mm[:M] @ P                   # (M, 2)
        term1 += float(np.sum(w[:, ell] * np.sum(np.abs(amp) ** 2, axis=1)))
        term2 += float(lam_s[ell] * np.sum(np.abs(P) ** 2))
    return term1, term2


def image_pieces(spec: NormSpec, sp: SourcePair, basis: EigenBasis, params: ModelParams,
                 ok, M: int) -> tuple:
    """The pole weights w (M, n_ok), the weights lam_l^s (n_ok,) and the
    modulation matrices mm (M, 2, 2) of the admissible modes ok, as
    `norms.image_norms` hands them to `norms._image_terms`."""
    return (_pole_weight(params, basis.lambdas, M, spec)[:, ok],
            _lam_weight(basis.lambdas, spec.s)[ok], sp.mm[:M])


def image_terms(a, rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
                basis: EigenBasis, params: ModelParams) -> tuple:
    """The squared pieces (Yobs terms, Ymod terms) that `norms.image_norms`
    sums for the coefficient pairs a (..., J, 2) and their model residues
    rhat (..., 2, M, J): each norm is sqrt(t1 + t2) of its pair, bit for bit."""
    rhat = np.asarray(rhat, dtype=complex)
    t = pole_table(pole_set, sp, params)
    r = rhat[..., t.ok]
    model = t.model_term_ok(r)
    pieces = image_pieces(spec, sp, basis, params, t.ok, rhat.shape[-2])
    return (_image_terms(np.asarray(a)[..., t.ok, :] - model, 0.0, *pieces),
            _image_terms(model, r, *pieces))


def basis_to_csv(basis: EigenBasis, path, scenario_hash: str = "") -> None:
    """Basis summary: one row per mode with eigenvalue and trace values."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["j", "lambda"] + [f"trace_{i}" for i in range(basis.nsigma)]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for j in range(basis.J):
            row = [j, format(basis.lambdas[j], ".17g")]
            row += [format(v, ".17g") for v in basis.trace_matrix[j]]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def harmonic_field_to_csv(u, path, scenario_hash: str = "") -> None:
    """Rows (m, j, Re, Im) for one spectral field."""
    c = np.asarray(u, dtype=complex)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["m", "j", "re", "im"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for m in range(c.shape[0]):
            for j in range(c.shape[1]):
                row = [m + 1, j, format(c[m, j].real, ".17g"), format(c[m, j].imag, ".17g")]
                if scenario_hash:
                    row.append(scenario_hash)
                w.writerow(row)


def pole_table_csv(pole_set: PoleSet, params: ModelParams, path, scenario_hash: str = "") -> None:
    """Pole table: (ell, lambda, Re p, Im p, asymptotic, bound slack)."""
    diag = None
    if params.tau > 0 and pole_set.n_ok:
        diag = verify_bounds(pole_set, params)
    slack = bound_slack(pole_set, params, diag["fitted_c"]) if diag else np.full(pole_set.lambdas.shape, np.nan)
    asym = asymptotic_poles_loop(pole_set.lambdas, params)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["ell", "lambda", "re_p", "im_p", "re_asym", "im_asym", "bound_slack", "ok"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for i, lam in enumerate(pole_set.lambdas):
            row = [i, format(lam, ".17g"),
                   format(pole_set.poles[i].real, ".17g"), format(pole_set.poles[i].imag, ".17g"),
                   format(asym[i].real, ".17g"), format(asym[i].imag, ".17g"),
                   format(slack[i], ".17g"), int(pole_set.ok[i])]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def result_to_csv(result: ReconstructionResult, true_a, ok, path,
                  scenario_hash: str = "") -> None:
    """Per-mode comparison of true and recovered coefficient pairs, with the
    flags `ok` of the modes that have a pole."""
    true_a = np.asarray(true_a)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["j", "a_sigma_true", "a_sigma_rec", "a_eta_true", "a_eta_rec",
                  "abs_err", "ok"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for j in range(result.a.shape[0]):
            err = float(np.max(np.abs(result.a[j] - true_a[j])))
            row = [j,
                   format(float(np.real(true_a[j, 0])), ".17g"),
                   format(float(np.real(result.a[j, 0])), ".17g"),
                   format(float(np.real(true_a[j, 1])), ".17g"),
                   format(float(np.real(result.a[j, 1])), ".17g"),
                   format(err, ".17g"),
                   int(ok[j])]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def sweep_to_csv(rows, path, scenario_hash: str = "") -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["delta", "tau", "error_x", "bound", "cbar", "ctilde", "status",
                  "fit_rel_residual", "fit_cond"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for r in rows:
            row = [format(r.delta, ".17g"), format(r.tau, ".17g"),
                   format(r.error_x, ".17g"), format(r.bound, ".17g"),
                   format(r.cbar, ".17g"), format(r.ctilde, ".17g"), r.status,
                   format(r.fit_rel_residual, ".17g"), format(r.fit_cond, ".17g")]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def csv_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in r])


def coupling_ref(params: ModelParams, basis: EigenBasis, sigma, eta, u) -> np.ndarray:
    """P[(sigma - sigma0) u] + P[eta B(u, u)] for sigma and eta on the
    quadrature grid, each term projected on its own, with B_m from the
    harmonic-pair loop."""
    uc = np.asarray(u, dtype=complex)
    return (project(basis, (sigma - params.sigma0) * synthesize(basis, uc))
            + project(basis, eta * convolve_bm_grid_loop(basis, uc, uc)))


def solve_multiharmonic_loop(params: ModelParams, basis: EigenBasis, sigma, eta, rhat,
                             tol: float = 1e-12, max_iter: int = 200):
    """The damped fixed point of one drive rhat (M, J): every sweep sets
    u <- (1 - d) u + d (r - apply_coupling(u)) / symbol, at d = 1 and, if the
    residual check fails, again from r / symbol at d = 0.5.  Returns
    (u, sweeps, restarts)."""
    r = np.asarray(rhat, dtype=complex)
    sym = _nonresonant_symbols(params, basis.lambdas, r.shape[0])
    cmap = coupling_map(params, basis, sigma, eta)
    sweeps = 0
    for restarts, d in enumerate((1.0, 0.5)):
        u = r / sym
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                u_new = (1.0 - d) * u + d * ((r - apply_coupling(cmap, u)) / sym)
                sweeps += 1
                step = np.max(np.abs(u_new - u))
                u = u_new
                if not np.isfinite(step) or step < 0.1 * tol:
                    break
            res = model_residual(params, basis, sigma, eta, u, r)
        if np.all(np.isfinite(res)) and np.max(res) <= tol:
            return u, sweeps, restarts
    raise ConvergenceError(f"stalled: max residual {np.max(res):.3e} > tol {tol:.1e}")


def pair_product_einsum(mm, a) -> np.ndarray:
    """M_m a^j (..., 2, M, J) for the source matrices mm (M, 2, 2) and the
    coefficient pairs a (..., J, 2), by one einsum over the pair index."""
    return np.einsum("meq,...jq->...emj", mm, a, order="C")


def nonlinear_model_ref(params: ModelParams, basis: EigenBasis, sigma, eta, u) -> np.ndarray:
    """L_m(sigma) u_m + eta B_m(u, u), projecting the slowness and the eta
    terms separately and taking B_m from the harmonic-pair loop."""
    uc = np.asarray(u, dtype=complex)
    return (symbols_matrix(params, basis.lambdas, uc.shape[0]) * uc
            + coupling_ref(params, basis, sigma, eta, uc))


def interval_wavenumbers_loop(L, g0, g1, count):
    """First `count` nonnegative Robin wavenumbers, one root at a time: from
    (j pi + theta(midpoint)) / L, Newton steps on k L - theta(k) - j pi with
    theta(k) = atan2((g0 + g1) k, k^2 - g0 g1), each in floats, the bracket
    (j pi / L, (j + 1) pi / L) shrunk to the last iterate on each side and a
    step that would leave it replaced by its midpoint; j pi enters as
    j np.pi plus j PI_TAIL."""
    if g0 == 0.0 and g1 == 0.0:
        return [j * np.pi / L for j in range(count)]
    s, p = g0 + g1, g0 * g1
    ks = []
    for j in range(count):
        lo, hi = j * np.pi / L, (j + 1) * np.pi / L
        mid = (j + 0.5) * np.pi / L
        k = (j * np.pi + np.arctan2(s * mid, mid * mid - p)) / L
        for _ in range(ROBIN_MAXITER):
            d = k * k - p
            f = (k * L - j * np.pi) - (np.arctan2(s * k, d) + j * PI_TAIL)
            if f < 0.0:
                lo = k
            elif f > 0.0:
                hi = k
            newton = k - f / (L + s * (k * k + p) / (d * d + (s * k) * (s * k)))
            if abs(newton - k) <= ROBIN_RTOL * newton:
                ks.append(float(newton))
                break
            k = newton if lo < newton < hi else 0.5 * (lo + hi)
        else:
            raise SpectrumError(f"Robin wavenumber {j} not converged in {ROBIN_MAXITER} steps")
    return ks


class Mode1D:
    """phi(x) = norm * (cos(kx) + (g0/k) sin(kx)) with exact L2 normalization,
    one mode at a time."""

    def __init__(self, L, g0, k):
        self.k = k
        if k == 0.0:
            self.a = 0.0
            self.norm = 1.0 / np.sqrt(L)
        else:
            a = g0 / k
            s2 = np.sin(2 * k * L) / (4 * k)
            cross = np.sin(k * L) ** 2 / (2 * k)
            sq = L / 2 + s2 + 2 * a * cross + a * a * (L / 2 - s2)
            self.a = a
            self.norm = 1.0 / np.sqrt(sq)
        self.lam = k * k

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.k == 0.0:
            return np.full_like(x, self.norm)
        return self.norm * (np.cos(self.k * x) + self.a * np.sin(self.k * x))


def interval_modes_loop(L, gamma, count) -> list[Mode1D]:
    """The first `count` Robin modes on [0, L], from the bracket-by-bracket
    wavenumber loop."""
    g0, g1 = gamma
    return [Mode1D(L, g0, k) for k in interval_wavenumbers_loop(L, g0, g1, count)]


def interval_basis_loop(L_x: float, gamma, J: int, sigma_points=(0.0,)) -> EigenBasis:
    """`eigenbasis.build_basis` on the interval [0, L_x], with one Mode1D per
    mode, each evaluated on its own."""
    modes = interval_modes_loop(L_x, gamma, J)
    xq, wq = _gauss_nodes(L_x, max(OVERSAMPLING * J, MIN_QUAD_NODES))
    sig = np.array(sigma_points, dtype=float).reshape(-1, 1)
    domain = DomainSpec("interval", (float(L_x),), tuple(map(float, gamma)),
                        tuple(map(float, sigma_points)))
    return EigenBasis(domain=domain, lambdas=np.array([m.lam for m in modes]),
                      phi=np.array([m(xq) for m in modes]), nodes=xq.reshape(-1, 1),
                      weights=wq, trace_matrix=np.array([m(sig[:, 0]) for m in modes]),
                      sigma_nodes=sig, sigma_weights=np.ones(sig.shape[0]))


def rectangle_basis_loop(L_x: float, L_y: float, gamma, J: int,
                         sigma_points="side:y=0") -> EigenBasis:
    """`eigenbasis.build_basis` on the rectangle [0, L_x] x [0, L_y], from the
    J x J (lambda, i, j) tuples sorted by lambda, with each retained pair's
    values formed on its own."""
    mx = interval_modes_loop(L_x, gamma[0], J)
    my = interval_modes_loop(L_y, gamma[1], J)
    pairs = sorted(((mx[i].lam + my[j].lam, i, j) for i in range(J) for j in range(J)),
                   key=lambda t: t[0])[:J]
    n1 = max(OVERSAMPLING * J, MIN_QUAD_NODES)
    xq, wx = _gauss_nodes(L_x, n1)
    yq, wy = _gauss_nodes(L_y, n1)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    if isinstance(sigma_points, str):
        sig, sig_w = np.column_stack([xq, np.zeros_like(xq)]), wx.copy()
    else:
        sig = np.array(sigma_points, dtype=float)
        sig_w = np.ones(sig.shape[0])
    phi = np.empty((J, X.size))
    trace = np.empty((J, sig.shape[0]))
    for r, (_, i, j) in enumerate(pairs):
        phi[r] = np.outer(mx[i](xq), my[j](yq)).ravel()
        trace[r] = mx[i](sig[:, 0]) * my[j](sig[:, 1])
    domain = DomainSpec("rectangle", (float(L_x), float(L_y)),
                        tuple(tuple(map(float, g)) for g in gamma),
                        sigma_points if isinstance(sigma_points, str)
                        else tuple((float(a), float(b)) for a, b in sigma_points))
    return EigenBasis(domain=domain, lambdas=np.array([p[0] for p in pairs]), phi=phi,
                      nodes=np.column_stack([X.ravel(), Y.ravel()]),
                      weights=np.outer(wx, wy).ravel(), trace_matrix=trace,
                      sigma_nodes=sig, sigma_weights=sig_w)


class NonOscillatoryError(HarmtomoError):
    """Closed-form pole asymptotic requested outside the oscillatory regime."""


class PoleSelectionError(HarmtomoError):
    """No admissible upper half-plane pole exists for an eigenvalue."""

    def __init__(self, lam, message=None):
        self.lam = lam
        super().__init__(message or f"no root with positive imaginary part for lambda={lam!r}")


def pole_asymptotic(lam: float, params: ModelParams) -> complex:
    """Two-term closed-form estimate -alpha/tau + sqrt(-(beta/tau) lam
    + 2 alpha/(tau beta) + alpha^2/tau^2), upper half-plane branch."""
    if params.tau <= 0:
        raise NonOscillatoryError("asymptotic form needs tau > 0")
    a = params.alpha / params.tau
    arg = -(params.beta / params.tau) * lam + 2.0 * params.alpha / (params.tau * params.beta) + a * a
    if arg >= 0:
        raise NonOscillatoryError(
            f"lambda={lam:.6g} below the oscillatory regime (sqrt argument {arg:.3g} >= 0)"
        )
    return complex(-a, np.sqrt(-arg))


def select_pole(roots, lam: float, params: ModelParams) -> complex:
    """Upper half-plane root nearest the asymptotic estimate.

    The real root is never selected (it approaches -1/beta, the zero of
    Theta, and belongs to the spurious branch).  Raises when no root has
    positive imaginary part, which happens for small eigenvalues.
    """
    roots = np.asarray(roots, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(roots))))
    upper = roots[roots.imag > IMAG_SELECT_TOL * scale]
    if upper.size == 0:
        raise PoleSelectionError(lam)
    if upper.size == 1:
        return complex(upper[0])
    try:
        target = pole_asymptotic(lam, params)
    except NonOscillatoryError:
        return complex(upper[np.argmax(upper.imag)])
    return complex(upper[np.argmin(np.abs(upper - target))])


def build_pole_set_loop(lambdas, params: ModelParams) -> PoleSet:
    """The pole set, selecting one eigenvalue at a time with `select_pole`."""
    lambdas = np.asarray(lambdas, dtype=float)
    L = lambdas.size
    poles = np.full(L, np.nan + 1j * np.nan, dtype=complex)
    ok = np.zeros(L, dtype=bool)
    roots = characteristic_roots(lambdas, params)
    for i, lam in enumerate(lambdas):
        try:
            poles[i] = select_pole(roots[i], lam, params)
            ok[i] = True
        except PoleSelectionError:
            pass
    return PoleSet(lambdas=lambdas, poles=poles, ok=ok)


def asymptotic_poles_loop(lambdas, params: ModelParams) -> np.ndarray:
    """`pole_asymptotic` per eigenvalue, nan where it raises
    NonOscillatoryError."""
    asym = np.full(np.shape(lambdas), np.nan + 1j * np.nan, dtype=complex)
    for i, lam in enumerate(np.asarray(lambdas, dtype=float)):
        try:
            asym[i] = pole_asymptotic(lam, params)
        except NonOscillatoryError:
            pass
    return asym


def convolve_bm_grid(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """Quadrature-grid values of every harmonic of the pointwise product.

    Inputs share the basis and truncation; the coupling is symmetric and
    bilinear.  Keeping grid values lets callers multiply by a coefficient
    field before the single final projection.
    """
    uc, vc = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if uc.shape != vc.shape:
        raise ValueError("fields must share truncation")
    ug = synthesize(basis, uc)  # (M, nq)
    vg = ug if (vc is uc or np.array_equal(vc, uc)) else synthesize(basis, vc)
    return harmonic_product_time(ug, vg, m_out)[1:]


def convolve_bm_all(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """All harmonics of the pointwise product, projected on the basis."""
    return project(basis, convolve_bm_grid(basis, u, v, m_out=m_out))


def solve_linear_harmonics(params: ModelParams, lambdas, rhat) -> np.ndarray:
    """Diagonal solve L_m(sigma0) u_m = r_m; raises on resonant symbols."""
    r = np.asarray(rhat, dtype=complex)
    return r / _nonresonant_symbols(params, lambdas, r.shape[0])


@dataclass(frozen=True)
class TauConstants:
    tau: float
    alpha: float
    cbar: float
    ctilde: float
    radius: float

    @classmethod
    def at(cls, tau: float, sigma0: float, beta: float, T: float, T0: float,
           orti_check: float) -> "TauConstants":
        cbar = compute_cbar(tau, sigma0, beta, T, T0, orti_check)
        ctilde = compute_ctilde(tau, sigma0, beta, T, T0, orti_check)
        return cls(tau=tau, alpha=(sigma0 * beta - tau) / (2.0 * beta),
                   cbar=cbar, ctilde=ctilde, radius=1.0 / (2.0 * max(1.0, cbar)))


def psi_recursion(lam: float, sigma0: float, beta: float, eta0: float,
                  psi1: complex, M: int) -> np.ndarray:
    """Higher-harmonic coefficients generated by quadratic self-interaction.

    In the resonant setting omega = sqrt(lam / sigma0), tau = beta lam / omega^2
    the fundamental coefficient is free and, for m >= 2,

        psi_m = -(m^2 w^2 eta0) / (2 (lam - sigma0 m^2 w^2
                 + i m w (beta lam - tau m^2 w^2))) * sum_{j<m} psi_j psi_{m-j}.
    """
    if psi1 == 0:
        raise ValueError("need a nonzero fundamental coefficient")
    if lam <= 0:
        raise ValueError("need a positive eigenvalue; the resonant frequency is sqrt(lam/sigma0)")
    w2 = lam / sigma0
    w = np.sqrt(w2)
    tau = beta * lam / w2
    psi = np.zeros(M, dtype=complex)
    psi[0] = psi1
    for m in range(2, M + 1):
        denom = 2.0 * (lam - sigma0 * m * m * w2
                       + 1j * m * w * (beta * lam - tau * m * m * w2))
        if abs(denom) < 1e-14 * max(lam, 1.0):
            raise VanishingDivisorError(f"vanishing recursion denominator at harmonic m={m}")
        conv = np.sum(psi[: m - 1] * psi[m - 2 :: -1][: m - 1])
        psi[m - 1] = -(m * m * w2 * eta0) / denom * conv
    return psi


def interval_eigenvalues(L: float, gamma, J: int) -> np.ndarray:
    """Lowest J eigenvalues of the 1D Robin Laplacian (no eigenfunctions)."""
    g0, g1 = gamma
    ks = _interval_wavenumbers(L, g0, g1, J)
    return np.array([k * k for k in ks])


def reference_coeffs(sp: SourcePair, mode: int, J: int) -> np.ndarray:
    """The reference state u0_{nu, m} = phi psi_{nu, m} with phi the basis
    mode `mode`, as (2, M, J) spectral coefficients: psi and A psi on that
    mode."""
    u0 = np.zeros((2, sp.M, J), dtype=complex)
    u0[0, :, mode] = sp.psi_hat
    u0[1, :, mode] = sp.A * sp.psi_hat
    return u0


def j_amplification(chi: float, m: int, lam, params: ModelParams):
    """|o_m|^(4 + 2 chi) / J_m^chi(lam) with
    J_m^chi(lam) = |vartheta(o_m) + Theta(o_m) lam|^2 lam^chi."""
    lam = np.asarray(lam, dtype=float)
    om2 = (m * params.omega) ** 2
    a2 = params.beta**2 * om2 + 1.0
    b = params.tau * params.beta * om2**2 + params.sigma0 * om2
    d2 = params.tau**2 * om2**3 + params.sigma0**2 * om2**2
    jval = (a2 * lam**2 - 2.0 * b * lam + d2) * np.power(lam, chi)
    return om2 ** (2.0 + chi) / jval


def j_bound_constant(chi: float, params: ModelParams) -> float:
    """Uniform bound (2 + chi)/(2 sigma0^2) (1 + 1/(beta omega)^2)
    (1 - tau/(beta sigma0))^(-2) * (beta/tau)^chi."""
    ratio = params.tau / (params.beta * params.sigma0)
    if ratio >= 1.0:
        raise ValueError("amplification bound degenerates for tau >= beta*sigma0")
    if chi > 0 and params.tau == 0.0:
        raise ValueError("chi > 0 requires tau > 0")
    chat = ((2.0 + chi) / (2.0 * params.sigma0**2)
            * (1.0 + 1.0 / (params.beta * params.omega) ** 2)
            * (1.0 - ratio) ** -2)
    scale = 1.0 if chi == 0 else (params.beta / params.tau) ** chi
    return float(chat * scale)


def j_bound(chi: float, m: int, lam, params: ModelParams):
    """Slack of the amplification bound; nonnegative when the bound holds."""
    return j_bound_constant(chi, params) - j_amplification(chi, m, lam, params)


def rate_constants_scalar(tau: float, sigma0: float, beta: float, T: float, T0: float,
                          orti_check: float) -> tuple[float, float]:
    """(cbar, ctilde) at one Python-float tau with the powers taken by float
    `**` (libm's pow), as the sweep evaluated them before the constants took
    arrays."""
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0)
        cbar = float(np.sqrt(core * (1.0 + (tau / beta) ** orti_check) + 1.0))
        ctilde = float(np.sqrt(core * ((beta / tau) ** orti_check + 1.0)))
    return cbar, ctilde


def choose_tau_loop(delta: float, tau0: float, sigma0: float, beta: float, T: float,
                    T0: float, orti_check: float, tau_min: float, tau_max: float,
                    ratio: float = 2.0**0.25, tolerance: float = 0.1) -> float:
    """`choose_tau` with the constants evaluated one grid tau at a time,
    returning the first tau within the limit."""
    check_schedule(tau0, tau_min, tau_max, ratio, tolerance, sigma0, beta, T, T0, orti_check)
    if delta == 0.0 and tau0 > 0.0:
        return float(tau0)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    scale = max(compute_cbar(grid[-1], sigma0, beta, T, T0, orti_check),
                compute_ctilde(grid[-1], sigma0, beta, T, T0, orti_check))
    limit = tolerance * scale / np.sqrt(delta)
    for tau in grid:
        c = max(compute_cbar(tau, sigma0, beta, T, T0, orti_check),
                compute_ctilde(tau, sigma0, beta, T, T0, orti_check))
        if c <= limit:
            return float(tau)
    return float(grid[-1])


def choose_tau(delta: float, tau0: float, sigma0: float, beta: float, T: float,
               T0: float, orti_check: float, tau_min: float, tau_max: float,
               ratio: float = 2.0**0.25, tolerance: float = 0.1) -> float:
    """tau(delta) for one noise level: the schedule's grid scored in one
    array pass and picked by the package's rule (`quasirev._pick_tau`), or
    tau0 itself for noiseless data when it is positive.  The schedule must
    pass check_schedule."""
    check_schedule(tau0, tau_min, tau_max, ratio, tolerance, sigma0, beta, T, T0, orti_check)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    cbar = compute_cbar(grid, sigma0, beta, T, T0, orti_check)
    ctilde = compute_ctilde(grid, sigma0, beta, T, T0, orti_check)
    i = _pick_tau(delta, tau0, cbar, ctilde, tolerance)
    return float(tau0 if i is None else grid[i])


def add_noise(phat, delta: float, seed: int, basis: EigenBasis, s: float,
              omega: float) -> np.ndarray:
    """Trace data perturbed by exactly delta in the lifted observation norm,
    with noise drawn from default_rng(seed): the one-level case of the
    sweep's noise pass `quasirev._noisy_rows`, raising its
    NoiseCalibrationError."""
    (noisy,), (err,) = _noisy_rows(phat, [delta], [seed], basis, s, omega)
    if err is not None:
        raise err
    return noisy


def add_noise_one(phat, delta: float, seed: int, basis: EigenBasis, s: float,
                  omega: float) -> np.ndarray:
    """`add_noise` with its one level drawn, scaled and checked on its own,
    outside the batched noise pass."""
    phat = np.asarray(phat, dtype=complex)
    check_noise_levels([delta])
    if delta == 0.0:
        return phat.copy()
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(phat.shape[:-1] + (basis.J,)) \
        + 1j * rng.standard_normal(phat.shape[:-1] + (basis.J,))
    noise = eps @ basis.trace_matrix
    noise = noise * (delta / ytilde_obs_norm(noise, basis, s, omega))
    achieved = ytilde_obs_norm(noise, basis, s, omega)
    if not abs(achieved - delta) <= NOISE_SCALE_TOL * max(delta, 1.0):
        raise NoiseCalibrationError(
            f"rescaled noise has norm {achieved!r}, requested delta {delta!r}")
    return phat + noise


def sweep_rows_from_fit(basis: EigenBasis, sp: SourcePair, params0: ModelParams,
                        spec: NormSpec, truth: LinearizedInput, delta_list, tau0: float,
                        seed: int, tau_min: float, tau_max: float,
                        ratio: float = 2.0**0.25, tolerance: float = 0.1) -> list:
    """`quasirev.run_sweep`'s rows with each noise level's tau chosen by
    `choose_tau`, its constants evaluated at that tau, and its inversion by
    `fit_coefficients_dense` and the state formula per row, its noise by
    `add_noise_one`, under the same pilot calibration and noise seeds: the
    rows as the sweep computed them before it batched its levels."""
    data = linearized_forward(sp, params0.with_tau(tau0), basis, truth)
    dt_norm = time_derivative_norm(truth.du, params0.omega, basis.lambdas, spec)
    deltas = sorted((float(d) for d in delta_list), reverse=True)
    consts = (params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)

    def one(delta: float, noise_seed: int):
        tau = choose_tau(delta, tau0, *consts, tau_min, tau_max, ratio, tolerance)
        phat = add_noise_one(data.phat, delta, noise_seed, basis, spec.s, params0.omega)
        params_tau = params0.with_tau(tau)
        a, cond, rel = fit_coefficients_dense(phat, data.rhat, sp, basis, params_tau)
        sym = _nonresonant_symbols(params_tau, basis.lambdas, data.rhat.shape[-2])
        b = solve_states_from_coeffs(a, data.rhat, sym, sp.mm)
        err = x_norm(a - truth.a, b - truth.du, basis.lambdas, params0.omega, spec)
        cbar, ctil = compute_cbar(tau, *consts), compute_ctilde(tau, *consts)
        return (tau, err, max(cbar, ctil) * (delta + (tau - tau0) * dt_norm), cbar, ctil,
                float(rel), cond)

    calibration = 1.0
    if deltas[0] > 0:
        _, err_p, raw_p, _, _, _, _ = one(3.0 * deltas[0], seed - 1)
        calibration = CALIBRATION_SAFETY * err_p / raw_p if raw_p > 0 else 1.0
    rows = []
    for i, delta in enumerate(deltas):
        try:
            tau, err, raw, cbar, ctil, rel, cond = one(delta, seed + i)
            rows.append(SweepRow(delta=delta, tau=tau, error_x=err, bound=calibration * raw,
                                 cbar=cbar, ctilde=ctil, status="ok", fit_rel_residual=rel,
                                 fit_cond=cond))
        except HarmtomoError as exc:
            nan = float("nan")
            rows.append(SweepRow(delta=delta, tau=nan, error_x=nan, bound=nan, cbar=nan,
                                 ctilde=nan, status=f"failed: {type(exc).__name__}: {exc}",
                                 fit_rel_residual=nan, fit_cond=nan))
    return rows


def smoothing_gain(basis: EigenBasis, s: float, L: int) -> float:
    """kappa_L = max over the first L modes of the H^s norm against the
    discrete trace norm, by the generalized symmetric eigenvalue problem
    D v = k^2 G v.  With G = C C^T (Cholesky) its eigenvalues are those of
    C^-1 D C^-T; inf where G is numerically rank deficient."""
    t = basis.trace_matrix[:L]
    G = (t * basis.sigma_weights) @ t.T
    if np.linalg.matrix_rank(G, tol=1e-12 * max(1.0, float(np.max(np.abs(G))))) < L:
        return float("inf")
    c_inv = np.linalg.inv(np.linalg.cholesky(G))
    vals = np.linalg.eigvalsh((c_inv * np.power(basis.lambdas[:L], s)) @ c_inv.T)
    return float(np.sqrt(np.max(vals)))


def smoothing_gains_loop(basis: EigenBasis, s: float) -> np.ndarray:
    """smoothing_gain at each candidate level L = 1..min(J, nsigma)."""
    return np.array([smoothing_gain(basis, s, L)
                     for L in range(1, min(basis.J, basis.nsigma) + 1)])


def smooth_data_loop(p_sigma, delta_tilde: float, basis: EigenBasis,
                     kappas: np.ndarray) -> SmoothingResult:
    """`quasirev.smooth_data` with one least-squares fit per candidate level:
    the same rejection by kappa, discrepancy choice and fallback."""
    v = np.asarray(p_sigma, dtype=complex)
    sw = np.sqrt(basis.sigma_weights)
    data_norm = float(np.linalg.norm(sw * v))
    residuals = np.full(kappas.size, np.nan)
    fits = {}
    for L, kap in enumerate(kappas, start=1):
        if not np.isfinite(kap) or (delta_tilde > 0 and kap * delta_tilde > data_norm):
            continue
        A = sw[:, None] * basis.trace_matrix[:L].T
        c, *_ = np.linalg.lstsq(A, sw * v, rcond=None)
        residuals[L - 1] = float(np.linalg.norm(A @ c - sw * v))
        fits[L] = c
    if not fits:
        raise SmoothingError(
            f"all candidate levels rejected (kappa * delta_tilde above data norm {data_norm:.3e})"
        )
    threshold = max(DISCREPANCY_FACTOR * delta_tilde, 1e-12 * max(data_norm, 1.0))
    below = [L for L in fits if residuals[L - 1] <= threshold]
    chosen = below[0] if below else min(
        fits, key=lambda L: residuals[L - 1] + kappas[L - 1] * delta_tilde)
    coeffs = np.zeros(basis.J, dtype=complex)
    coeffs[:chosen] = fits[chosen]
    return SmoothingResult(coeffs=coeffs, level=chosen, residuals=residuals)
