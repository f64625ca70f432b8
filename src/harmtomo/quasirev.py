"""Quasi-reversibility driver: relaxation-time constants, noise injection,
trace-data smoothing, the tau(delta) schedule, and the convergence sweep.

The strongly damped limit tau -> 0 loses information; reconstructing with a
small positive relaxation time regularizes it.  The two constants below
quantify the blow-up: both involve the rate x = alpha/tau with
alpha = (sigma0 beta - tau)/(2 beta), grow without bound as tau -> 0, and are
monotone on the admissible range.  Each takes a tau (and gives a float) or an
array of taus (and gives an array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis
from .errors import HarmtomoError, NoiseCalibrationError, SmoothingError, TheoremHypothesisError
from .fields import ModelParams, NormSpec
from .norms import _per_draw, bochner_norm, rho_t, x_norm, ytilde_obs_norm
from .reconstruct import (LinearizedData, LinearizedInput, apply_fit_map, build_fit_map,
                          linearized_forward)
from .sources import SourcePair

NOISE_SCALE_TOL = 1e-10
DISCREPANCY_FACTOR = 2.0   # smoothing stops at a trace-fit residual of this times delta
CALIBRATION_SAFETY = 3.0   # sweep bound = this times the pilot's error over its raw bound


def _rate_core(tau, sigma0: float, beta: float, T: float, T0: float):
    """x/(1 - e^(-2 x T0)) e^(2 x (T - T0)) at the rate x = alpha/tau.

    The factor compute_cbar and compute_ctilde share; the removable value at
    x = 0 comes from rho_t.  Callers silence the overflow to inf at tiny tau.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    alpha = (sigma0 * beta - tau) / (2.0 * beta)
    if np.any(alpha < 0):
        raise ValueError("need tau <= sigma0*beta")
    x = alpha / tau
    return rho_t(2.0 * x, T0) / 2.0 * np.exp(2.0 * x * (T - T0))


def compute_cbar(tau, sigma0: float, beta: float, T: float, T0: float,
                 orti_check: float):
    """Stability constant
    ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        (1 + (tau/beta)^orti) + 1)^(1/2);
    monotonically decreasing in tau and divergent as tau -> 0."""
    # np.float_power evaluates libm's pow per entry, as float ** does; np.power
    # may take a SIMD path whose last bit differs
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * (
            1.0 + np.float_power(np.divide(tau, beta), orti_check))
    return _per_draw(np.sqrt(core + 1.0))


def compute_ctilde(tau, sigma0: float, beta: float, T: float, T0: float,
                   orti_check: float):
    """Observation-norm comparison constant
    ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        ((beta/tau)^orti + 1))^(1/2)."""
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * (
            np.float_power(np.divide(beta, tau), orti_check) + 1.0)
    return _per_draw(np.sqrt(core))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def check_noise_levels(deltas) -> None:
    """Raise NoiseCalibrationError naming the levels that are not finite and
    nonnegative."""
    bad = [d for d in deltas if not (math.isfinite(d) and d >= 0)]
    if bad:
        raise NoiseCalibrationError(f"noise levels {bad} must be finite and nonnegative")


def add_noise(phat, delta: float, seed: int, basis: EigenBasis, s: float,
              omega: float) -> np.ndarray:
    """Trace data perturbed by exactly delta in the lifted observation norm.

    The perturbation is drawn in the span of the retained (harmonic, mode)
    pairs, its norm evaluated, and the draw rescaled so the achieved distance
    equals delta to roundoff.
    """
    phat = np.asarray(phat, dtype=complex)
    check_noise_levels([delta])
    if delta == 0.0:
        return phat.copy()
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(phat.shape[:-1] + (basis.J,)) \
        + 1j * rng.standard_normal(phat.shape[:-1] + (basis.J,))
    noise = eps @ basis.trace_matrix
    scale = delta / ytilde_obs_norm(noise, basis, s, omega)
    noise = noise * scale
    achieved = ytilde_obs_norm(noise, basis, s, omega)
    if not abs(achieved - delta) <= NOISE_SCALE_TOL * max(delta, 1.0):
        raise NoiseCalibrationError(
            f"rescaled noise has norm {achieved!r}, requested delta {delta!r}"
        )
    return phat + noise


# ---------------------------------------------------------------------------
# Data smoothing by least squares over nested spectral subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothingResult:
    coeffs: np.ndarray       # (J,) lifted coefficients, zero beyond chosen level
    level: int               # chosen L
    residuals: np.ndarray    # trace-fit residual per candidate level L = 1..len(kappas)


def _weighted_traces(basis: EigenBasis, n: int) -> np.ndarray:
    """The weighted traces A = sqrt(w) tr[:n]^T (nsigma, n).  Its first L
    columns are level L's design, so one QR serves every level:
    A[:, :L] = Q[:, :L] R[:L, :L]."""
    return np.sqrt(basis.sigma_weights)[:, None] * basis.trace_matrix[:n].T


def smoothing_gains(basis: EigenBasis, s: float) -> np.ndarray:
    """kappa_L at each candidate level L = 1..min(J, nsigma): the max over
    the first L modes of the H^s norm against the discrete trace norm, by the
    generalized symmetric eigenvalue problem Lambda^s v = k^2 G_L v with
    G_L = A_L^T A_L.

    One QR of A gives G_L = R_L^T R_L at every level, so kappa_L^2 is the
    largest eigenvalue of R_L^-T Lambda_L^s R_L^-1, the leading L x L block of
    H = R^-T Lambda^s R^-1 (R^-1 is upper triangular).  One batched eigvalsh
    over the zero-padded leading blocks of H, positive semidefinite, gives
    every gain.  From the first level with |R_LL|^2 <= 1e-12 max(1, max|G|)
    the Gram matrix is numerically singular and the gain is inf.  The gains
    depend on the basis and s alone, so a study computes them once for all
    of its noise levels."""
    n = min(basis.J, basis.nsigma)
    A = _weighted_traces(basis, n)
    r = np.linalg.qr(A, mode="r")
    tol = 1e-12 * max(1.0, float(np.max(np.sum(A * A, axis=0))))
    bad = np.flatnonzero(np.diag(r) ** 2 <= tol)
    good = int(bad[0]) if bad.size else n
    gains = np.full(n, np.inf)
    if good:
        r_inv = np.linalg.inv(r[:good, :good])
        h = (r_inv.T * np.power(basis.lambdas[:good], s)) @ r_inv
        blocks = np.tril(np.ones((good, good), dtype=bool))   # row L-1: the first L indices
        padded = h * (blocks[:, :, None] & blocks[:, None, :])
        gains[:good] = np.sqrt(np.linalg.eigvalsh(padded)[:, -1])
    return gains


def smooth_data(p_sigma, delta_tilde: float, basis: EigenBasis,
                kappas: np.ndarray) -> SmoothingResult:
    """Least-squares lift of noisy trace samples over nested spectral spaces.

    For each candidate level L = 1..len(kappas), with kappas the gains
    `smoothing_gains` gives for the basis, the data are fitted by
    traces from the span of the first L modes; the level is chosen by
    discrepancy, the smallest L whose trace-fit residual drops below
    DISCREPANCY_FACTOR * delta_tilde, after discarding levels whose
    amplification kappa_L exceeds the data scale over delta_tilde.  Without
    such a level, the fitted level of least residual + kappa_L * delta_tilde
    is taken.  With exact data from inside a candidate space the fit is
    the inverse and the recovery exact.

    One complete QR of the weighted traces serves every level: with
    beta = Q^T b, level L's residual is ||beta[L:]||, summed from the tail,
    and only the chosen level's coefficients are solved for, from
    R[:L, :L] c = beta[:L].
    """
    v = np.asarray(p_sigma, dtype=complex)
    if v.shape[-1] != basis.nsigma:
        raise ValueError("data must be sampled on the basis Sigma points")
    b = np.sqrt(basis.sigma_weights) * v
    data_norm = float(np.linalg.norm(b))
    n = kappas.size
    q, r = np.linalg.qr(_weighted_traces(basis, n), mode="complete")
    beta = q.T @ b
    tail = np.sqrt(np.append(np.cumsum(np.abs(beta[::-1]) ** 2)[::-1], 0.0))
    fitted = np.isfinite(kappas)
    if delta_tilde > 0:
        fitted &= ~(kappas * delta_tilde > data_norm)
    if not fitted.any():
        raise SmoothingError(
            f"all candidate levels rejected (kappa * delta_tilde above data norm {data_norm:.3e})"
        )
    residuals = np.where(fitted, tail[1:n + 1], np.nan)
    idx = np.flatnonzero(fitted)   # level L = idx + 1
    threshold = max(DISCREPANCY_FACTOR * delta_tilde, 1e-12 * max(data_norm, 1.0))
    below = idx[residuals[idx] <= threshold]
    chosen = 1 + int(below[0] if below.size
                     else idx[np.argmin(residuals[idx] + kappas[idx] * delta_tilde)])
    coeffs = np.zeros(basis.J, dtype=complex)
    coeffs[:chosen] = np.linalg.solve(r[:chosen, :chosen], beta[:chosen])
    return SmoothingResult(coeffs=coeffs, level=chosen, residuals=residuals)


# ---------------------------------------------------------------------------
# tau(delta) schedule and the convergence sweep
# ---------------------------------------------------------------------------


def check_schedule(tau0: float, tau_min: float, tau_max: float, ratio: float,
                   tolerance: float, sigma0: float, beta: float, T: float, T0: float,
                   orti_check: float) -> None:
    """Raise TheoremHypothesisError naming every rule the tau(delta) schedule
    breaks: tau0 >= 0, tau0 + tau_min > 0, ratio > 1, tau0 + tau_min < tau_max,
    tolerance > 0 and tau_max <= sigma0*beta; tau0 = 0 needs T0 = T and
    orti_check < 1."""
    bad = []
    if not tau0 >= 0:
        bad.append(f"tau0 {tau0!r} must be nonnegative")
    elif tau0 == 0.0:
        if abs(T0 - T) > 1e-12 * T:
            bad.append("tau0 = 0 requires T0 = T")
        if orti_check >= 1.0:
            bad.append("tau0 = 0 requires orti_check < 1")
    lo = tau0 + tau_min
    if not lo > 0:
        bad.append(f"tau0 + tau_min = {lo!r} must be positive")
    if not ratio > 1:
        bad.append(f"grid_ratio {ratio!r} must exceed 1")
    if not lo < tau_max:
        bad.append(f"empty tau grid: tau0 + tau_min = {lo!r} is not below tau_max {tau_max!r}")
    if not tolerance > 0:
        bad.append(f"tolerance {tolerance!r} must be positive")
    if not tau_max <= sigma0 * beta:
        bad.append(f"tau_max {tau_max!r} above sigma0*beta leaves the admissible range")
    if bad:
        raise TheoremHypothesisError("; ".join(bad))


def tau_grid(tau0: float, tau_min: float, tau_max: float, ratio: float) -> np.ndarray:
    """Geometric grid from tau0 + tau_min up to tau_max, for a schedule that
    passes check_schedule."""
    lo = tau0 + tau_min
    n = int(np.floor(np.log(tau_max / lo) / np.log(ratio))) + 1
    grid = lo * ratio ** np.arange(n)
    if grid[-1] < tau_max * (1 - 1e-12):
        grid = np.append(grid, tau_max)
    return grid


def _pick_tau(delta: float, tau0: float, cbar, ctilde, tolerance: float) -> int | None:
    """Grid index of tau(delta) from the scored grid: the first tau with
    max(cbar, ctilde)(tau) * sqrt(delta) <= tolerance * max(cbar, ctilde)(tau_max),
    the top of the grid if none.  The rule sends tau(delta) monotonically to
    the bottom of the grid while max(cbar, ctilde)(tau(delta)) * delta -> 0.
    Noiseless data take the bottom, or None when tau0 > 0: they need no
    relaxation-time offset and take tau0 itself."""
    if delta == 0.0 and tau0 > 0.0:
        return None
    c = np.where(ctilde > cbar, ctilde, cbar)   # max(cbar, ctilde), nan as max() treats it
    limit = tolerance * c[-1] / np.sqrt(delta) if delta > 0 else np.inf
    below = np.flatnonzero(c <= limit)
    return int(below[0]) if below.size else c.size - 1


@dataclass(frozen=True, eq=False)
class SweepRow:
    delta: float
    tau: float
    error_x: float
    bound: float
    cbar: float
    ctilde: float
    status: str
    fit_rel_residual: float   # ||y - U U^H y|| / ||y|| of the row's fit, nan on a failed row


def time_derivative_norm(du, omega: float, lambdas, spec: NormSpec) -> float:
    """Bochner norm of the time derivative of the state pair: each harmonic
    coefficient is scaled by i m omega."""
    du = np.asarray(du, dtype=complex)
    m = np.arange(1, du.shape[1] + 1)
    return bochner_norm(du * (1j * m * omega)[None, :, None], omega, lambdas,
                        spec.orti_check, spec.s_check)


def run_sweep(basis: EigenBasis, sp: SourcePair, params0: ModelParams,
              spec: NormSpec, truth: LinearizedInput, delta_list, tau0: float,
              seed: int, tau_min: float, tau_max: float, ratio: float,
              tolerance: float) -> list[SweepRow]:
    """Convergence experiment for the relaxation-time regularization.

    Data are generated by the linearized model at relaxation time tau0 (the
    strongly damped quadratic symbols when tau0 = 0), perturbed by exactly
    delta in the lifted observation norm, and inverted with the model at
    tau(delta).  The tau grid is scored once, and each row takes tau(delta),
    cbar and ctilde from it by the rule of `_pick_tau`; the fit is factored
    once per distinct tau (`build_fit_map`) and applied to every row there.
    Each row records the preimage-norm error and the calibrated bound
    max(cbar, ctilde)(tau) * (delta + (tau - tau0) * |du_t|); the calibration
    factor is fitted once on a pilot noise level and held fixed.  A schedule
    that fails check_schedule raises before any row is computed.
    """
    consts = (params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
    check_schedule(tau0, tau_min, tau_max, ratio, tolerance, *consts)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    # each entry equals the constant at the float grid[i] bit for bit
    cbars, ctildes = compute_cbar(grid, *consts), compute_ctilde(grid, *consts)
    data = linearized_forward(sp, params0.with_tau(tau0), basis, truth)
    dt_norm = time_derivative_norm(truth.du, params0.omega, basis.lambdas, spec)
    deltas = sorted((float(d) for d in delta_list), reverse=True)
    fit_maps = {}

    def one(delta: float, noise_seed: int):
        i = _pick_tau(delta, tau0, cbars, ctildes, tolerance)
        tau = float(tau0 if i is None else grid[i])
        phat = add_noise(data.phat, delta, noise_seed, basis, spec.s, params0.omega)
        if tau not in fit_maps:
            fit_maps[tau] = build_fit_map(sp, basis, params0.with_tau(tau), phat.shape[-2])
        rec = apply_fit_map(fit_maps[tau], LinearizedData(rhat=data.rhat, phat=phat))
        err = x_norm(rec.a - truth.a, rec.b - truth.du, basis.lambdas, params0.omega, spec)
        if i is None:
            cbar, ctil = compute_cbar(tau, *consts), compute_ctilde(tau, *consts)
        else:
            cbar, ctil = float(cbars[i]), float(ctildes[i])
        raw = max(cbar, ctil) * (delta + (tau - tau0) * dt_norm)
        return tau, err, raw, cbar, ctil, float(rec.fit_rel_residual)

    calibration = 1.0
    if deltas[0] > 0:
        _, err_p, raw_p, _, _, _ = one(3.0 * deltas[0], seed - 1)
        calibration = CALIBRATION_SAFETY * err_p / raw_p if raw_p > 0 else 1.0

    rows = []
    for i, delta in enumerate(deltas):
        try:
            tau, err, raw, cbar, ctil, rel = one(delta, seed + i)
            rows.append(SweepRow(delta=delta, tau=tau, error_x=err,
                                 bound=calibration * raw, cbar=cbar, ctilde=ctil,
                                 status="ok", fit_rel_residual=rel))
        except HarmtomoError as exc:  # typed numerical failures stay in the table
            rows.append(SweepRow(delta=delta, tau=float("nan"), error_x=float("nan"),
                                 bound=float("nan"), cbar=float("nan"), ctilde=float("nan"),
                                 status=f"failed: {type(exc).__name__}: {exc}",
                                 fit_rel_residual=float("nan")))
    return rows
