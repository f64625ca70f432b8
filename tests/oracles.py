"""Loop implementations kept as independent references for the tests.

The harmonic product: direct harmonic-pair sums over the real-signal
convention u(t) = Re(sum_m u_m exp(i m omega t)); the package computes the
same quantities with one FFT kernel (`harmonic_product_time`).

The residue algebra: Mtilde(p_l), its inverse, the prefactor, rtilde^l(p_l)
and the trace inverse re-derived one pole at a time; the package reads them
from one per-pole table (`reconstruct.pole_table`) built with array
expressions and lifts traces with `eigenbasis.trace_right_inverse`.

The nonlinear model operator: L_m(sigma) u_m + eta B_m(u, u) with each grid
term projected on its own and B_m from the harmonic-pair loop; the package
sums the grid terms and projects once (`forward.nonlinear_model`).

The artifact writers: one CSV writer per table type, each with its own
per-value loop and an optional scenario-hash column; the package writes every
table through `runner.write_table`, and its files must match these byte for
byte.
"""

from __future__ import annotations

import csv

import numpy as np

from harmtomo.eigenbasis import EigenBasis, project, synthesize
from harmtomo.errors import IllConditionedFitError
from harmtomo.fields import MaterialField, ModelParams, NormSpec
from harmtomo.forward import symbols_matrix
from harmtomo.norms import _lam_weight, _pole_weight
from harmtomo.poles import PoleSet, big_theta, bound_slack, psi_transfer_prime, verify_bounds
from harmtomo.reconstruct import FIT_COND_LIMIT, LinearizedInput, ReconstructionResult
from harmtomo.sources import SourcePair, _period_kernel, evaluate_mtilde, invert_mtilde


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


def _residue_prefactor(p: complex, params: ModelParams) -> complex:
    """-p^2 / (Theta(p) Psi'(p)), the reciprocal slope of the characteristic
    denominator at a simple pole."""
    return -p * p / (big_theta(p, params) * psi_transfer_prime(p, params))


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
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["ell", "lambda", "re_p", "im_p", "re_asym", "im_asym", "bound_slack", "ok"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for i, lam in enumerate(pole_set.lambdas):
            row = [i, format(lam, ".17g"),
                   format(pole_set.poles[i].real, ".17g"), format(pole_set.poles[i].imag, ".17g"),
                   format(pole_set.asymptotic[i].real, ".17g"), format(pole_set.asymptotic[i].imag, ".17g"),
                   format(slack[i], ".17g"), int(pole_set.ok[i])]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def result_to_csv(result: ReconstructionResult, true_a, path, scenario_hash: str = "") -> None:
    """Per-mode comparison of true and recovered coefficient pairs."""
    true_a = np.asarray(true_a)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["j", "a_sigma_true", "a_sigma_rec", "a_eta_true", "a_eta_rec",
                  "abs_err", "mtilde_cond", "ok"]
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
                   format(result.mtilde_cond[j], ".17g"),
                   int(result.ok[j])]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def sweep_to_csv(rows, path, scenario_hash: str = "") -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["delta", "tau", "error_x", "bound", "cbar", "ctilde", "status"]
        if scenario_hash:
            header.append("scenario_hash")
        w.writerow(header)
        for r in rows:
            row = [format(r.delta, ".17g"), format(r.tau, ".17g"),
                   format(r.error_x, ".17g"), format(r.bound, ".17g"),
                   format(r.cbar, ".17g"), format(r.ctilde, ".17g"), r.status]
            if scenario_hash:
                row.append(scenario_hash)
            w.writerow(row)


def csv_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in r])


def nonlinear_model_ref(params: ModelParams, basis: EigenBasis, sigma: MaterialField,
                        eta: MaterialField, u) -> np.ndarray:
    """L_m(sigma) u_m + eta B_m(u, u), projecting the slowness and the eta
    terms separately and taking B_m from the harmonic-pair loop."""
    uc = np.asarray(u, dtype=complex)
    out = symbols_matrix(params, basis.lambdas, uc.shape[0]) * uc
    out = out + project(basis, (sigma.values - params.sigma0) * synthesize(basis, uc))
    return out + project(basis, eta.values * convolve_bm_grid_loop(basis, uc, uc))
